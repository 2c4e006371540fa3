"""Exact detectors for the forbidden patterns: cliques and star forests.

A forbidden family is a list of patterns; a graph is family-free when it
contains none of them as a subgraph.  Two pattern classes appear:

* ``Clique(size)``: a complete graph on ``size`` vertices.
* ``StarForest(copies, leaves)``: ``copies`` vertex-disjoint stars, each a
  center joined to ``leaves`` distinct leaves; with one leaf, a matching
  of ``copies`` edges, whose spec is ``matching:copies``.

Each pattern validates its own arguments, gives its text form through
``spec()`` and answers ``occurs_in(g)`` with its detector.  The oracle
asks it about g + uv, for a g free of it, in one way: through
``edge_mask(g, u)``, for every v at once, where ``has_edge_mask`` holds (a
clique, a star forest of one copy), and otherwise through
``occurs_with_edge(g, u, v)``.  A copy in g + uv must use uv, so a star
forest answers from g alone.  The patterns with an edge mask also answer
for a new vertex: ``neighbourhood_mask(g, s)`` gives every x for which g
plus a vertex joined to s and x holds the pattern, where g plus a vertex
joined to s is free of it.  One clique reach (``_clique_reach``)
answers both questions, about g and about g + uv, for a clique, and one
walk over star centre sets (``_centre_walk``) answers both for a star
forest, except that a matching in g is found by Edmonds' blossom
algorithm, which is polynomial where the walk is not: one alternating
tree per unmatched root, with no matching built before it.  All
detectors are exact.  The test suite cross-checks their verdicts against plain
exhaustive search, and the matching detector also against networkx.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

from .graphs import Graph, bits, mask_of


@dataclass(frozen=True, order=True)
class Clique:
    """K_size.  When g is free of it, g + uv contains it exactly when the
    common neighbourhood of u and v in g holds a K_{size-2}, that is, when
    v is a common neighbour of some K_{size-2} inside u's neighbourhood.
    ``edge_mask`` gathers those v for one u at a time: for size 3 it is the
    union of the rows of u's neighbours, and for size 2 every vertex.
    ``neighbourhood_mask`` gathers the same for a new vertex joined to a
    vertex set s.  One reach, ``_clique_reach``, serves every question:
    ``occurs_in`` asks it whether some vertex has a K_{size-1} among its
    higher neighbours."""

    size: int
    has_edge_mask = True

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"clique pattern needs size >= 2, got {self.size}")

    def spec(self) -> str:
        return f"clique:{self.size}"

    def occurs_in(self, g: Graph) -> bool:
        return contains_clique(g, self.size)

    def edge_mask(self, g: Graph, u: int) -> int:
        """Mask whose bit v, for each non-neighbour v of u other than u, is
        set exactly when g + uv contains the clique; g must be free of it.
        The bits of u and its neighbours mean nothing.  It is the
        neighbourhood mask of u's neighbourhood."""
        return self.neighbourhood_mask(g, g.rows[u])

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
    g + uv uses uv as a centre-leaf edge xy, {x, y} = {u, v}; so g + uv
    holds it exactly when, for one of the two orientations, g - y holds a
    star at x with leaves - 1 leaves and copies - 1 further S_leaves, all
    vertex-disjoint.  That is decided over the centre sets that contain x,
    by Hall's condition with demand leaves - 1 for x and leaves for the
    other centres.  With one leaf both orientations ask the same question,
    whether g - u - v holds copies - 1 disjoint edges, so only one is
    walked.  With one copy, g free means every degree is at most
    leaves - 1, and g + uv holds the star exactly when u or v has degree
    leaves - 1; ``edge_mask`` gives those v for one u at a time, and
    ``neighbourhood_mask`` those x for a new vertex joined to s."""

    copies: int
    leaves: int

    def __post_init__(self) -> None:
        if self.copies < 1 or self.leaves < 1:
            raise ValueError(f"star forest needs copies >= 1 and leaves >= 1, got {self}")

    @property
    def has_edge_mask(self) -> bool:
        return self.copies == 1

    def spec(self) -> str:
        if self.leaves == 1:
            return f"matching:{self.copies}"
        return f"starforest:{self.copies}x{self.leaves}"

    def occurs_in(self, g: Graph) -> bool:
        return contains_star_forest(g, self.copies, self.leaves)

    def occurs_with_edge(self, g: Graph, u: int, v: int) -> bool:
        return _stars_with_forced_centre(g.rows, self.copies, self.leaves, u, v) or (
            self.leaves > 1 and _stars_with_forced_centre(g.rows, self.copies, self.leaves, v, u)
        )

    def edge_mask(self, g: Graph, u: int) -> int:
        """Mask whose bit v, for each non-neighbour v of u other than u, is
        set exactly when g + uv contains the star; g must be free of it and
        the forest must have one copy.  The bits of u and its neighbours
        mean nothing.  It is the neighbourhood mask of u's neighbourhood,
        which reads only u's degree."""
        return self.neighbourhood_mask(g, g.rows[u])

    def neighbourhood_mask(self, g: Graph, s: int) -> int:
        """Mask whose bit x, for each vertex x of g outside s, is set exactly
        when g plus a new vertex joined to s and x contains the star; g plus
        a vertex joined to s must be free of it and the forest must have one
        copy.  Only the new vertex and x gain a degree, so x is blocked
        exactly when s or x's row has leaves - 1 vertices or more.  The bits
        of s mean nothing."""
        if self.copies != 1:
            raise ValueError(f"only a one-copy star forest has an exact mask, got {self}")
        need = self.leaves - 1
        if s.bit_count() >= need:
            return (1 << g.n) - 1
        return mask_of(v for v, row in enumerate(g.rows) if row.bit_count() >= need)


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
    reach that gives ``Clique.edge_mask`` answers this too."""
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
    match = [-1] * g.n
    for root in range(g.n):
        if match[root] == -1:
            _augment(g.rows, match, root)
    return (g.n - match.count(-1)) // 2


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
    ones.  The exact fallback is the centre walk that
    ``StarForest.occurs_with_edge`` also runs, with no forced centre: it
    walks centre sets and decides leaf availability by Hall's condition
    (``_pools_admit_disjoint_leaves``).
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
    return _centre_walk(rows, candidates, copies, leaves, [], [])


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


def _stars_with_forced_centre(rows: tuple[int, ...], copies: int, leaves: int, x: int, y: int) -> bool:
    """Does g - y hold a star at x with ``leaves - 1`` leaves and
    ``copies - 1`` further stars with ``leaves`` leaves, all vertex-disjoint?"""
    off = ~(1 << x | 1 << y)
    if (rows[x] & off).bit_count() < leaves - 1:
        return False
    rows = [row & off for row in rows]
    candidates = [c for c, row in enumerate(rows) if off >> c & 1 and row.bit_count() >= leaves]
    return _centre_walk(rows, candidates, copies - 1, leaves, [rows[x]], [leaves - 1])


def _centre_walk(
    rows: tuple[int, ...] | list[int], candidates: list[int], copies: int, leaves: int,
    pools: list[int], demands: list[int],
) -> bool:
    """Can ``copies`` centres drawn from ``candidates`` each take ``leaves``
    leaves from their rows while the leading ``pools`` take their
    ``demands``, all leaves distinct and none a centre?  The one walk over
    centre sets; Hall's condition decides each set."""
    demands = demands + [leaves] * copies
    for centres in combinations(candidates, copies):
        taken = 0
        for c in centres:
            taken |= 1 << c
        off = ~taken
        chosen = [pool & off for pool in pools]
        for c in centres:
            pool = rows[c] & off
            if pool.bit_count() < leaves:
                break
            chosen.append(pool)
        else:
            if _pools_admit_disjoint_leaves(chosen, demands):
                return True
    return False


def _pools_admit_disjoint_leaves(pools: list[int], demands: list[int]) -> bool:
    """Can each center take ``demands[i]`` leaves from ``pools[i]``, all
    leaves distinct?  By Hall's condition, exactly when every
    sub-collection of the pools jointly holds at least the sum of its
    demands."""
    k = len(pools)
    union = [0] * (1 << k)
    need = [0] * (1 << k)
    for sub in range(1, 1 << k):
        low = sub & -sub
        i = low.bit_length() - 1
        u = union[sub ^ low] | pools[i]
        d = need[sub ^ low] + demands[i]
        union[sub] = u
        need[sub] = d
        if u.bit_count() < d:
            return False
    return True


def is_family_free(g: Graph, family: ForbiddenFamily) -> bool:
    """True when g contains no pattern of the family."""
    return not any(pat.occurs_in(g) for pat in family.patterns)
