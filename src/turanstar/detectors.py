"""Exact detectors for the forbidden patterns: cliques and star forests.

A forbidden family is a list of patterns; a graph is family-free when it
contains none of them as a subgraph.  Two pattern classes appear:

* ``Clique(size)``: a complete graph on ``size`` vertices.
* ``StarForest(copies, leaves)``: ``copies`` vertex-disjoint stars, each a
  center joined to ``leaves`` distinct leaves; with one leaf, a matching
  of ``copies`` edges, whose spec is ``matching:copies``.

Each pattern validates its own arguments, gives its text form through
``spec()`` and answers ``occurs_in(g)`` with its detector.  The oracle
builds free graphs one vertex at a time and asks each pattern about g
plus a new vertex joined to a set s, for a g free of it, where any copy
must use the new vertex.  A clique answers through
``neighbourhood_mask(g, s)``: every x for which joining x too completes
a copy, where g plus a vertex joined to s is free of it.  A star forest
answers through ``leaf_mask(g, within)``, the x whose star the new
vertex completes as a leaf, whatever else s holds, and
``occurs_with_new_centre(g, s)``.  One clique reach (``_clique_reach``)
answers every clique question.  One walk over star centre sets
(``_centre_sets``) answers every star-forest question.  Whether g holds
a forest, alone or with a new centre, is its first yield, and
``_leaf_centres`` reads the leaf question of every x from the Hall sums
of each set it yields.  Where g lacks the other copies no set passes, so
the leaf mask is empty and no new centre completes a copy.  A matching
is found by Edmonds' blossom algorithm instead, which is polynomial
where the walk is not: one alternating tree per unmatched root, with no
matching built before it.
All detectors are exact.  The test suite cross-checks their
verdicts against plain exhaustive search, and the matching detector also
against networkx.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Union

from .graphs import Graph, bits, mask_of


@dataclass(frozen=True, order=True)
class Clique:
    """K_size.  ``neighbourhood_mask`` answers for a new vertex joined to a
    vertex set s: the x for which joining it to x too completes a copy.
    One reach, ``_clique_reach``, serves every question: ``occurs_in`` asks
    it whether some vertex has a K_{size-1} among its higher neighbours."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"clique pattern needs size >= 2, got {self.size}")

    def spec(self) -> str:
        return f"clique:{self.size}"

    def occurs_in(self, g: Graph) -> bool:
        return contains_clique(g, self.size)

    def neighbourhood_mask(self, g: Graph, s: int) -> int:
        """Mask whose bit x, for each vertex x of g outside s, is set exactly
        when g plus a new vertex joined to s and x contains the clique; g
        plus a vertex joined to s must be free of it.  A copy must hold the
        new vertex and x, so x is a common neighbour of a K_{size-2} inside
        s.  The bits of s mean nothing."""
        return _clique_reach(g.rows, s, (1 << g.n) - 1, self.size - 2)


@dataclass(frozen=True, order=True)
class StarForest:
    """``copies`` vertex-disjoint S_leaves.  When g is free of it, a copy in
    g plus a new vertex v joined to a set s must use v, as a leaf of some x
    in s or as a centre; so it is there exactly when s meets the leaf
    mask or ``occurs_with_new_centre(g, s)`` holds.  The leaf mask does not
    depend on s.  Both ask whether g holds copies - 1 further S_leaves
    apart from v's star, by the one walk over the centre sets of g with
    Hall's condition (``_centre_sets``), except that a matching asks
    Edmonds' blossom algorithm.  Where g lacks those copies, the leaf mask
    is empty and the new centre test False."""

    copies: int
    leaves: int

    def __post_init__(self) -> None:
        if self.copies < 1 or self.leaves < 1:
            raise ValueError(f"star forest needs copies >= 1 and leaves >= 1, got {self}")

    def spec(self) -> str:
        if self.leaves == 1:
            return f"matching:{self.copies}"
        return f"starforest:{self.copies}x{self.leaves}"

    def occurs_in(self, g: Graph) -> bool:
        return contains_star_forest(g, self.copies, self.leaves)

    def leaf_mask(self, g: Graph, within: int) -> int:
        """Mask of the vertices x in ``within`` for which g plus a new
        vertex joined to x contains the forest; g must be free of it.  The
        new vertex is then a leaf of x: g holds a star at x with leaves - 1
        leaves and copies - 1 further S_leaves, all vertex-disjoint.  With
        one copy that is every vertex of degree leaves - 1 or more.  A
        matching needs nu(g - x) = copies - 1, which g free caps at nu(g):
        the mask is empty unless nu(g) = copies - 1, and then it is the
        vertices that some maximum matching misses."""
        if self.leaves == 1 and self.copies > 1:
            return _missed_by_a_maximum_matching(g.rows, self.copies - 1) & within
        return _leaf_centres(g.rows, self.copies, self.leaves, within)

    def occurs_with_new_centre(self, g: Graph, s: int) -> bool:
        """Does g plus a new vertex joined to s contain the forest with the
        new vertex as a centre?  g must be free of it.  The new vertex
        takes ``leaves`` leaves from s, and g holds copies - 1 further
        S_leaves apart from them."""
        if s.bit_count() < self.leaves:
            return False
        rows = g.rows
        candidates = [c for c, row in enumerate(rows) if row.bit_count() >= self.leaves]
        return any(_centre_sets(rows, candidates, self.copies - 1, self.leaves, [s], [self.leaves]))


Pattern = Union[Clique, StarForest]

# Spec kind -> pattern maker.  Families list their patterns in this kind
# order, so one-leaf star forests come first, and patterns of one kind by
# their arguments.
_PATTERN_KINDS = {"clique": Clique, "matching": lambda copies: StarForest(copies, 1), "starforest": StarForest}
_KIND_ORDER = tuple(_PATTERN_KINDS)


@dataclass(frozen=True)
class ForbiddenFamily:
    """Non-empty tuple of distinct patterns, kept in canonical sorted order."""

    patterns: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("forbidden family must list at least one pattern")
        for pat in self.patterns:
            if not isinstance(pat, (Clique, StarForest)):
                raise ValueError(f"unknown pattern {pat!r}")
        ordered = sorted(set(self.patterns), key=lambda p: (_KIND_ORDER.index(p.spec().partition(":")[0]), p))
        object.__setattr__(self, "patterns", tuple(ordered))

    def spec(self) -> str:
        """Canonical text form, e.g. ``clique:3,starforest:2x2``."""
        return ",".join(p.spec() for p in self.patterns)

    @staticmethod
    def parse(text: str) -> "ForbiddenFamily":
        """Parse ``clique:R | matching:S | starforest:CxL`` joined by commas;
        ``matching:S`` is ``starforest:Sx1``.  R, S, C and L are ASCII
        decimal digits: no sign, space, underscore or other script."""
        pats: list[Pattern] = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, sep, arg = chunk.partition(":")
            if not sep:
                raise ValueError(f"bad pattern {chunk!r}, expected kind:args")
            make = _PATTERN_KINDS.get(kind)
            if make is None:
                raise ValueError(f"unknown pattern kind {kind!r}")
            numbers = arg.split("x")
            if not all(num.isascii() and num.isdigit() for num in numbers):
                raise ValueError(f"bad pattern {chunk!r}, expected decimal digits")
            try:
                pats.append(make(*map(int, numbers)))
            except TypeError:  # the wrong number of arguments
                raise ValueError(f"bad pattern {chunk!r}") from None
            except ValueError as err:
                raise ValueError(f"bad pattern {chunk!r}: {err}") from None
        return ForbiddenFamily(tuple(pats))


def contains_clique(g: Graph, size: int) -> bool:
    """True when g has a complete subgraph on ``size`` vertices, that is,
    when some vertex u has a K_{size-1} among its higher neighbours.  The
    reach that gives ``Clique.neighbourhood_mask`` answers this too."""
    if size < 1:
        raise ValueError(f"clique size must be positive, got {size}")
    if size == 1:
        return g.n >= 1
    rows = g.rows
    for u, row in enumerate(rows):
        higher = row >> u + 1 << u + 1
        if _clique_reach(rows, higher, higher, size - 2):
            return True
    return False


def _clique_reach(rows: tuple[int, ...], within: int, common: int, size: int) -> int:
    """Union, over the cliques on ``size`` vertices inside ``within``, of
    ``common`` cut down to the clique's common neighbourhood."""
    if size == 0:
        return common
    out = 0
    if size == 1:
        while within:
            low = within & -within
            within ^= low
            out |= rows[low.bit_length() - 1]
        return out & common
    while within.bit_count() >= size:
        low = within & -within
        within ^= low
        row = rows[low.bit_length() - 1]
        out |= _clique_reach(rows, within & row, common & row, size - 1)
    return out


def max_matching_size(g: Graph) -> int:
    """Maximum matching size, exact for every input.

    Edmonds' blossom algorithm (1965): from each vertex still unmatched,
    in index order, ``_augment`` grows one alternating tree and flips the
    augmenting path it finds.  A root that finds none never gains one
    later, so one tree per root suffices, and no matching is built first.
    """
    return (g.n - _maximum_matching(g.rows).count(-1)) // 2


def _maximum_matching(rows: tuple[int, ...]) -> list[int]:
    """Each vertex's partner in one maximum matching, or -1."""
    match = [-1] * len(rows)
    for root in range(len(rows)):
        if match[root] == -1:
            _augment(rows, match, root)
    return match


def _augment(rows: tuple[int, ...], match: list[int], root: int) -> None:
    """Grow one alternating tree from the unmatched ``root``.  If it reaches
    an unmatched vertex, flip the path to it in ``match``.
    ``parent[v]`` is v's tree predecessor, ``base[v]`` the base of the
    contracted blossom that holds v, and ``used`` the mask of the vertices
    queued as even ones."""
    n = len(rows)
    parent = [-1] * n
    base = list(range(n))
    used = 1 << root
    queue = [root]
    for v in queue:  # the loop reaches what it appends
        for to in bits(rows[v]):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = _lca(match, parent, base, v, to)
                blossom = _mark(match, parent, base, cur, v, to) | _mark(match, parent, base, cur, to, v)
                for i in range(n):
                    if blossom >> base[i] & 1:
                        base[i] = cur
                        if not used >> i & 1:
                            used |= 1 << i
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:  # flip the path back to the root
                        prev = parent[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = nxt
                    return
                used |= 1 << match[to]
                queue.append(match[to])


def _lca(match: list[int], parent: list[int], base: list[int], a: int, b: int) -> int:
    """Base of the blossom that the edge ab closes: the first base on b's
    path to the root that is also on a's."""
    a = base[a]
    seen = 1 << a
    while match[a] != -1:
        a = base[parent[match[a]]]
        seen |= 1 << a
    b = base[b]
    while not seen >> b & 1:
        b = base[parent[match[b]]]
    return b


def _mark(match: list[int], parent: list[int], base: list[int], cur: int, x: int, child: int) -> int:
    """Point the tree path from x down to the blossom base ``cur`` through
    ``child``, and return the mask of the bases it passes."""
    blossom = 0
    while base[x] != cur:
        blossom |= 1 << base[x] | 1 << base[match[x]]
        parent[x] = child
        child = match[x]
        x = parent[child]
    return blossom


def contains_star_forest(g: Graph, copies: int, leaves: int) -> bool:
    """True when g has ``copies`` vertex-disjoint stars with ``leaves`` leaves.

    One-leaf stars are a matching, found by ``max_matching_size``.  For
    more leaves, a greedy packing attempt (high-degree centers first,
    lowest-index leaves) settles most positive cases immediately, and a
    small blocking set that kills all high degrees settles most negative
    ones.  The exact fallback is the first yield of the one centre-set
    walk, ``_centre_sets``, with no new vertex: a set of centres whose
    rows admit distinct leaves by Hall's condition.
    """
    if copies < 1 or leaves < 1:
        raise ValueError(f"star forest needs copies >= 1 and leaves >= 1, got {copies}x{leaves}")
    if leaves == 1:
        return max_matching_size(g) >= copies
    n = g.n
    if copies * (leaves + 1) > n:
        return False
    rows = g.rows
    candidates = [v for v in range(n) if rows[v].bit_count() >= leaves]
    if len(candidates) < copies:
        return False
    candidates.sort(key=lambda v: (-rows[v].bit_count(), v))
    if _greedy_star_packing(rows, candidates, copies, leaves):
        return True
    if _star_hitting_certificate(rows, n, copies, leaves):
        return False
    return any(_centre_sets(rows, candidates, copies, leaves, [], []))


def _greedy_star_packing(rows: tuple[int, ...], candidates: list[int], copies: int, leaves: int) -> bool:
    used = 0
    placed = 0
    for c in candidates:
        if used >> c & 1:
            continue
        avail = rows[c] & ~used
        if avail.bit_count() < leaves:
            continue
        taken = 0
        for _ in range(leaves):
            low = avail & -avail
            taken |= low
            avail ^= low
        used |= taken | (1 << c)
        placed += 1
        if placed == copies:
            return True
    return False


def _star_hitting_certificate(rows: tuple[int, ...], n: int, copies: int, leaves: int) -> bool:
    """Cheap proof of absence: fewer than ``copies`` vertices block every star.

    If removing some set X of at most copies-1 vertices leaves maximum
    degree below ``leaves``, then every star with that many leaves uses a
    vertex of X, so vertex-disjoint copies number at most |X|.  Candidate
    X sets are drawn from the highest-degree vertices; failure to certify
    proves nothing and the caller falls through to the exhaustive search.
    """
    blockers = copies - 1
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    pool = order[: blockers + 4]
    for group in combinations(pool, min(blockers, len(pool))):
        x_mask = 0
        for v in group:
            x_mask |= 1 << v
        if all(
            (rows[v] & ~x_mask).bit_count() < leaves
            for v in range(n)
            if not x_mask >> v & 1
        ):
            return True
    return False


def _leaf_centres(rows: tuple[int, ...], copies: int, leaves: int, within: int) -> int:
    """Mask of the vertices x in ``within`` at which g holds a star with
    ``leaves - 1`` leaves and ``copies - 1`` further stars with ``leaves``
    leaves, all vertex-disjoint.

    The centre-set walk, ``_centre_sets``, yields each set C of the other
    centres that passes Hall's condition with its sums over the subsets of
    C's pools.  Each x not yet found, outside C, is checked against them
    with its own pool added and itself dropped from every pool.
    """
    need = leaves - 1
    todo = mask_of(x for x in bits(within) if rows[x].bit_count() >= need)
    if copies == 1:
        return todo
    found = 0
    others = [c for c, row in enumerate(rows) if row.bit_count() >= leaves]
    for taken, unions, demands in _centre_sets(rows, others, copies - 1, leaves, [], []):
        for x in bits(todo & ~taken):
            bit = 1 << x
            own = rows[x] & ~taken
            for union, demand in zip(unions, demands):
                union &= ~bit
                if union.bit_count() < demand or (union | own).bit_count() < demand + need:
                    break
            else:
                found |= bit
        todo &= ~found
        if not todo:
            break
    return found


def _missed_by_a_maximum_matching(rows: tuple[int, ...], size: int) -> int:
    """Mask of the vertices x with nu(g - x) >= size, where nu(g) <= size.

    It is empty unless nu(g) = size, and then it holds the vertices that
    some maximum matching misses: those the one built here misses, and
    each vertex x it matches whose partner, once x is dropped, gains a new
    partner by one alternating tree (``_augment``) in g - x.
    """
    match = _maximum_matching(rows)
    if len(rows) - match.count(-1) < 2 * size:
        return 0
    out = 0
    for x, partner in enumerate(match):
        if partner == -1:
            out |= 1 << x
            continue
        off = ~(1 << x)
        without = [row & off for row in rows]
        without[x] = 0
        trial = list(match)
        trial[x] = trial[partner] = -1
        _augment(without, trial, partner)
        if trial[partner] != -1:
            out |= 1 << x
    return out


def _centre_sets(
    rows: tuple[int, ...], candidates: list[int], count: int, leaves: int,
    pools: list[int], demands: list[int],
) -> Iterator[tuple[int, list[int], list[int]]]:
    """The one walk over centre sets: each set of ``count`` centres drawn
    from ``candidates``, in combination order, that can each take
    ``leaves`` leaves from their rows while the leading ``pools`` take their
    ``demands``, all leaves distinct and none a centre.  Its first yield,
    read by ``any``, says whether there is one.

    By Hall's condition that holds exactly when every sub-collection of
    the pools jointly holds at least the sum of its demands.  Bit i of
    ``sub`` picks pool i: the leading pools, then the centres' rows, each
    less the centres.  A set comes as (its mask, union, need), where
    ``union[sub]`` is the union of the pools ``sub`` picks and
    ``need[sub]`` the sum of their demands.  They are built in increasing
    ``sub``, and a set is dropped at its first failure.
    """
    demands = demands + [leaves] * count
    size = 1 << len(demands)
    for centres in combinations(candidates, count):
        taken = mask_of(centres)
        off = ~taken
        chosen = [pool & off for pool in pools]
        for c in centres:
            pool = rows[c] & off
            if pool.bit_count() < leaves:
                break
            chosen.append(pool)
        else:
            union = [0] * size
            need = [0] * size
            for sub in range(1, size):
                low = sub & -sub
                i = low.bit_length() - 1
                u = union[sub ^ low] | chosen[i]
                d = need[sub ^ low] + demands[i]
                if u.bit_count() < d:
                    break
                union[sub] = u
                need[sub] = d
            else:
                yield taken, union, need


def is_family_free(g: Graph, family: ForbiddenFamily) -> bool:
    """True when g contains no pattern of the family."""
    return not any(pat.occurs_in(g) for pat in family.patterns)
