"""Exhaustive ground truth at desk scale.

The free classes on n vertices are enumerated level by level on edge
count: ``_levels`` yields, per level, each family's sorted canonical codes
and its augmentations tried, the non-edges of its classes one level down.

The classes come from vertex extension, in the style of McKay's canonical
augmentation by vertices (J. Algorithms 1998, the scheme of nauty's geng):
the classes on m vertices are built from those on m - 1, for m = 1..n.
Freeness survives vertex deletion, so a free graph on m vertices is a free
graph on m - 1 plus a vertex v joined to a set S.  Each vertex level maps a
code to its generators and members, the mask of the families it is free
of.  The generators are those that ``canonical_code_and_generators``
returned when it found the class, on the canonical graph its code
rebuilds, so no parent is searched twice.

- A class on m - 1 vertices passes to level m padded with an isolated
  vertex, under its own code (the padding argument below), and is not
  searched again.  Its generators are shifted up by one.  They generate
  its whole group unless it has two isolated vertices or more, and then
  it is never extended: v joined to a non-empty S would not be of least
  degree.  Those classes are a prefix of the sorted level (the padding
  argument again), cut off by bisection.
- Each other parent H, the canonical graph of its code, gets v joined to
  each non-empty S that passes three tests.  (a) v has the least degree
  in H + v: |S| is at most H's least degree, or one more and S holds every
  vertex of that degree.  (b) Some member family admits S: H + v is free
  of it.  (c) S, read as a mask, is no larger than its image under each
  generator of H.  The child's members are the families that admit S.
- H + v is canonicalized only when no other vertex of v's degree has a
  larger deletion key: the neighbour-degree sum, then the sum of the
  neighbours' neighbour-degree sums, then the sorted neighbour degrees,
  all taken in H + v.  Children are deduplicated by code, and every parent
  must give a class the same members.

Test (b) is exact.  H is free of each member family, so a copy of a
pattern in H + v uses v.  S grows one vertex at a time, in increasing
order, and is grown only while some member family may still admit it:

- A clique K_k needs a K_{k-1} inside S.  Its ``neighbourhood_mask``
  names the vertices x for which S + x holds one, where S does not.
- A star forest of c copies of S_l has v as a leaf of some x in S or as a
  centre, and its other c - 1 stars in H; where H lacks them, as it often
  does, no S completes it.  Whether v as a leaf of x completes it does not
  depend on the rest of S: H holds a star at x with l - 1 leaves and c - 1
  further S_l, all disjoint.  The forest's ``leaf_mask`` gives those x once
  per parent, and no S holding one is grown.  For a matching it is empty
  unless nu(H) = c - 1, and then it is the vertices that some maximum
  matching of H misses.
- v as a centre needs l leaves in S and c - 1 further S_l in H apart from
  them.  ``occurs_with_new_centre`` asks that of the whole set, so its
  verdict is exact whatever S's subsets got, and it is asked only of the
  sets that pass (a), (c) and the key test, last before the search.  A
  set it blocks still grows, and its supersets are blocked when asked.  It
  never arises for a one-leaf star, whose centre is a leaf too, nor for
  one copy: H free of S_l caps its least degree at l - 1, and at l - 1 H
  is regular and every vertex is in the leaf mask, so (a) keeps |S| < l.

Every set a family admits is reached with that family's bit.  H + v
joined to a subset of S is a subgraph of H + v joined to S, so each prefix
of an admitted S is admitted: it misses the leaf masks, its cliques' masks
let the next vertex through, and it is grown.  The masks are exact, so
the bits a set carries while it grows never drop a family that admits it,
and the centre test then removes every family that does not: the
members of a kept child are exact whichever parent and path reach it.

Each class G on m vertices is still reached.  If G has an isolated vertex
it is a padded class: removing one gives a class at level m - 1.  No
extension has one, as v joined to a non-empty S is of least degree only
when S holds every isolated vertex of H.  Otherwise take a vertex w of
least degree whose key no vertex of its degree exceeds.  G - w is free
of every family G is free of, so its class P is at level m - 1 with those
members, and maybe more.  w's neighbourhood, carried into P's canonical
graph, has an orbit under the generators, and the least set S of that
orbit passes (c).  P + v joined to S is isomorphic to G by a map taking v
to w, and degree and key are invariants, so (a), (b) and the key test
pass, and the child's members are G's.  The codes at level n, split by
edge count, are the levels of the stream, and a level's augmentations
tried are counted from the class sets.  The generators kept for a class
are those of the first parent, in code order, that reached it, so no count
depends on how the parents split over workers, and records compare equal
across any worker count.

One search serves several families on the same vertex count, each
restricted to its own member bits: a family's classes are those whose
members hold its bit, as a search of that family alone finds them, and
each family's augmentations are counted from its own classes.

Inside the search a class is its integer canonical code: workers receive
the parents' codes with their generators and members, rebuild each parent
from its code and return the same for its kept children.  graph6
appears only at output, in the sorted canonical strings of
``ExtremalRecord.extremal_graphs``.

One enumeration serves every n up to the n it runs at.  No pattern has an
isolated vertex (a clique has two or more vertices, every star one or more
leaves), so a graph H on n vertices is free exactly when H plus N - n
isolated vertices is, and padding is a bijection from the classes on n
vertices onto the classes on N vertices with at least N - n isolated
vertices.  The padded canonical code equals the class's canonical code on n
vertices, as an integer:

- The root buckets the vertices by degree in ascending order, so the
  degree-0 cell comes first.
- Its vertices are open twins, so refinement never splits that cell.  As a
  splitter, it or any part of it adds the same zero count to every
  signature, so it never reorders another cell's split.
- The search individualizes the first non-singleton cell, and twin pruning
  allows one branch there.  So the isolated vertices take the first
  positions of every leaf, and their pairs are the code's leading zero
  bits.  With N - n of them stripped, every other cell, twin class and
  leaf code, read as an integer, stays the same, so the same leaf wins.

So a class on N vertices has at least N - n isolated vertices exactly when
its code is below 2^C(n,2), and since each level's codes are sorted those
classes are a prefix of the level, found by bisection, with no class
decoded.  For each n, ex is the top level with such a class, its extremal
graphs are the codes of that prefix decoded on n vertices, and the visit
count is the sum of C(n,2) - e over them, as a run at n expands each of its
classes exactly once and tries every non-edge.

Records are cached here too.  ``shared_records`` is the one path from a
request to a record: it looks each n up in the ``ResultCache``, groups
each family's misses by their largest n, runs one search per group
(``_walk``), so the families whose largest miss is the same n share it,
and appends what the searches found.

Whether a class lies in one of the paper's join families is asked of
``constructions.family_membership``, next to the builders of those families.
"""

from __future__ import annotations

import json
import logging
import os
import time
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import combinations, cycle
from pathlib import Path
from typing import Iterator

from .canonical import LABELLING_VERSION, canonical_code_and_generators, canonical_form, graph_from_code
from .detectors import Clique, ForbiddenFamily, StarForest, is_family_free
from .graph6 import graph6_decode, graph6_encode
from .graphs import Graph, bits, empty_graph

ORACLE_MAX_N = 11

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExtremalRecord:
    n: int
    family: ForbiddenFamily
    ex_value: int
    extremal_graphs: tuple[str, ...]
    graphs_visited: int
    elapsed: float = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "family": self.family.spec(),
            "ex_value": self.ex_value,
            "extremal_graphs": list(self.extremal_graphs),
            "graphs_visited": self.graphs_visited,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtremalRecord":
        """Raises ValueError unless the counts are JSON integers, the family
        a string, the graphs a list of strings and the seconds a number."""
        for key, kind in (("n", int), ("family", str), ("ex_value", int), ("graphs_visited", int)):
            if type(data[key]) is not kind:  # a bool is an int to isinstance
                raise ValueError(f"{key} is not of type {kind.__name__}: {data[key]!r}")
        if type(data["elapsed"]) not in (int, float):
            raise ValueError(f"elapsed is not a number: {data['elapsed']!r}")
        graphs = data["extremal_graphs"]
        if type(graphs) is not list or not all(type(code) is str for code in graphs):
            raise ValueError(f"extremal_graphs is not a list of strings: {graphs!r}")
        return cls(
            n=data["n"],
            family=ForbiddenFamily.parse(data["family"]),
            ex_value=data["ex_value"],
            extremal_graphs=tuple(graphs),
            graphs_visited=data["graphs_visited"],
            elapsed=float(data["elapsed"]),
        )


def _record_fault(record: ExtremalRecord) -> str | None:
    """Why a cached record's graphs cannot be the ones a search found, or None.

    It must list an extremal graph, and each must decode to n vertices with
    ``ex_value`` edges, be free of the family, be its own canonical form and
    be edge-maximal: adding any non-edge makes it hold a pattern.  That
    rejects a lowered ``ex_value`` whose graph is not maximal, but not one
    whose graph is, and not a line that leaves out an extremal class.
    """
    if not record.extremal_graphs:
        return "lists no extremal graph"
    for code in record.extremal_graphs:
        try:
            g = graph6_decode(code)
            if (g.n, g.edge_count) != (record.n, record.ex_value):
                found = f"{g.n} vertices and {g.edge_count} edges"
                return f"graph {code!r} has {found}, not {record.n} and {record.ex_value}"
            if not is_family_free(g, record.family):
                return f"graph {code!r} is not {record.family.spec()}-free"
            if canonical_form(g) != code:
                return f"graph {code!r} is not canonical"
            for u, v in combinations(range(g.n), 2):
                if not g.has_edge(u, v) and is_family_free(g.add_edge(u, v), record.family):
                    return f"graph {code!r} stays {record.family.spec()}-free with edge {u}-{v} added"
        except ValueError as err:
            return f"graph {code!r}: {err}"
    return None


class ResultCache:
    """Append-only JSON-lines store of search results, keyed by (n, family).

    Each line carries the ``LABELLING_VERSION`` of the canonical labeling
    behind its graph6 strings.  Corrupt lines, non-UTF-8 bytes included,
    lines with another version or none, and lines whose graphs
    ``_record_fault`` rejects are reported with their line number and
    skipped, so their key is searched again.  The first entry for a key that
    passes wins, so a reread always returns what a previous lookup saw;
    later lines for a key already held are neither checked nor read.  A last
    line cut off before its newline is ended by the first append, so the
    appended line stays whole.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[int, str], ExtremalRecord] = {}
        self._torn = False
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                self._torn = not raw.endswith(b"\n")
                line = raw.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line.decode("utf-8"))
                    record = ExtremalRecord.from_json_dict(data)
                except (ValueError, KeyError, TypeError) as err:
                    log.warning("skipping corrupt cache line %d: %s", lineno, err)
                    continue
                if data.get("labelling") != LABELLING_VERSION:
                    log.warning("skipping cache line %d: labelling version %r", lineno, data.get("labelling"))
                    continue
                key = (record.n, record.family.spec())
                fault = key not in self._entries and _record_fault(record)
                if fault:
                    log.warning("skipping cache line %d: %s", lineno, fault)
                    continue
                self._entries.setdefault(key, record)

    def lookup(self, n: int, family: ForbiddenFamily) -> ExtremalRecord | None:
        return self._entries.get((n, family.spec()))

    def append(self, record: ExtremalRecord) -> None:
        self._entries.setdefault((record.n, record.family.spec()), record)
        line = json.dumps({**record.to_json_dict(), "labelling": LABELLING_VERSION}) + "\n"
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write("\n" * self._torn + line)
        self._torn = False


def _check_cap(n: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration capped at n = {ORACLE_MAX_N}, got {n}")


Generators = list[tuple[int, ...]]


def _merge(found: dict[int, tuple], code: int, entry: tuple) -> None:
    """Keep the entry for a class whose third item, the position of the
    parent that reached it, is least; every parent must give the class the
    same members, the second item."""
    known = found.setdefault(code, entry)
    if known[1] != entry[1]:
        raise AssertionError(f"class {code} reached as free of families {known[1]:b} and {entry[1]:b}")
    if entry[2] < known[2]:
        found[code] = entry


@contextmanager
def _mapper(jobs: int) -> Iterator[Callable]:
    """``map``, or for jobs > 1 the map of a process pool, shut down on exit."""
    if jobs == 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor  # one-worker runs skip its import

    # under fork every worker starts at the first submit, so start no more
    # than there are CPUs; the work still splits into jobs chunks
    pool = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
    try:
        yield pool.map
    finally:
        pool.shutdown()


def _levels(
    n: int, *families: ForbiddenFamily, jobs: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The free classes on n vertices of all the families, level by level.

    The stream has one fixed layout.  Per level, from 0 until a level is
    empty for every family, it yields one triple (edge count, sorted
    canonical codes, augmentations tried) per family, in argument order, so
    with F families family i's triples sit at positions i, i + F, i + 2F, ...
    Those are the triples of a stream of that family alone, which ends at
    its first empty level, followed by (level, (), 0) at every later level.
    Augmentations tried at a level are the non-edges of the family's classes
    one level down.  The classes come from vertex extension, from 0 to n
    vertices.
    """
    seed = empty_graph(n)
    for family in families:
        if not is_family_free(seed, family):
            raise AssertionError(f"empty graph should always be {family.spec()}-free")
    # code -> (generators, members, least position of a parent that reached
    # it), so the generators kept do not depend on how the parents split
    classes: dict[int, tuple[Generators | None, int, int]] = {0: ([], (1 << len(families)) - 1, 0)}
    with _mapper(jobs) as run:
        for m in range(1, n + 1):
            keep = m < n  # the generators of the last level are never read
            parents = [(i, code, gens, members) for i, (code, (gens, members, _)) in enumerate(sorted(classes.items()))]
            # a padded class keeps its code, and its new isolated vertex
            # takes position 0
            classes = {
                code: ([(0, *[x + 1 for x in sigma]) for sigma in gens] if keep else None, members, -1)
                for _, code, gens, members in parents
            }
            # a class with two isolated vertices or more is never extended:
            # v joined to a non-empty set would not be of least degree; on
            # m - 1 vertices they are the codes below 2^C(m-3, 2), a prefix
            if m > 2:
                parents = parents[bisect_left(parents, 1 << (m - 3) * (m - 4) // 2, key=lambda parent: parent[1]):]
            chunks = [(m - 1, families, parents[i::jobs], keep) for i in range(min(jobs, len(parents)))]
            # the graph on no vertices has no set to join a new vertex to
            for part in run(_expand_codes, chunks if m > 1 else []):
                # the least position wins whatever the order of merging, so
                # the smaller dict goes into the larger, which saves memory
                if len(part) > len(classes):
                    classes, part = part, classes
                for child, entry in part.items():
                    _merge(classes, child, entry)
    pairs = n * (n - 1) // 2
    by_level: dict[int, list[int]] = {}
    for code in classes:
        by_level.setdefault(code.bit_count(), []).append(code)
    below = [0] * len(families)  # each family's class count one level down
    for level in range(max(by_level) + 2):
        found = sorted(by_level.get(level, ()))
        for i in range(len(families)):
            codes = tuple(code for code in found if classes[code][1] >> i & 1)
            yield level, codes, below[i] * (pairs - level + 1)
            below[i] = len(codes)


def _expand_codes(
    args: tuple[int, Sequence[ForbiddenFamily], list[tuple[int, int, Generators, int]], bool],
) -> dict[int, tuple[Generators | None, int, int]]:
    """Worker: extend each graph by one vertex, keep the results free of some family.

    Module level so process pools can pickle it.  Takes the parents' vertex
    count p and each parent as its position in the level, its code,
    automorphism generators of ``graph_from_code(p, code)`` and its members;
    returns, keyed by code, each child's generators (None unless ``keep``),
    members and the least position of a parent that reached it.  A new
    vertex v is joined to each non-empty vertex set t grown one vertex at a
    time through the cliques' neighbourhood masks and outside the star
    forests' leaf masks.  Only a t that leaves v of least degree, is no
    larger than its image under every generator and leaves no vertex of
    v's degree a larger deletion key than v is asked the star forests' new
    centre tests, and it is canonicalized when some family still admits it.
    """
    p, families, parents, keep = args
    new = 1 << p
    # each family's cliques, and its star forests each with the forest of
    # its other copies where a new centre must be asked of a kept set: a
    # one-leaf star's centre is a leaf too, and with one copy the degree
    # rule keeps v's degree below the leaf count
    kinds = [
        (
            [pat for pat in family.patterns if isinstance(pat, Clique)],
            [
                (pat, StarForest(pat.copies - 1, pat.leaves) if pat.copies > 1 < pat.leaves else None)
                for pat in family.patterns
                if isinstance(pat, StarForest)
            ],
        )
        for family in families
    ]
    out: dict[int, tuple[Generators | None, int, int]] = {}
    for index, code, generators, members in parents:
        g = graph_from_code(p, code)
        rows = g.rows
        degrees = [row.bit_count() for row in rows]
        least = min(degrees)
        low = next_low = 0  # the vertices of degree least and least + 1
        sums = []
        for x, (row, d) in enumerate(zip(rows, degrees)):
            if d == least:
                low |= 1 << x
            elif d == least + 1:
                next_low |= 1 << x
            total = 0
            while row:
                bit = row & -row
                row ^= bit
                total += degrees[bit.bit_length() - 1]
            sums.append(total)
        # per family: its bit, its cliques, the vertices outside its forests'
        # leaf masks and the forests whose new centre is asked; a copy in
        # g + v has its other stars in g, so without them v completes none
        reachable = low if least == 0 else new - 1  # v joins the one isolated vertex
        leaf: dict[StarForest, int | None] = {}  # leaf masks, None where g lacks the other copies
        screens = []
        for i, (cliques, stars) in enumerate(kinds):
            if members >> i & 1:
                allowed = new - 1
                centred = []
                for pat, rest in stars:
                    if pat not in leaf:
                        leaf[pat] = pat.leaf_mask(g, reachable) if rest is None or rest.occurs_in(g) else None
                    if leaf[pat] is not None:
                        allowed &= ~leaf[pat]
                        if rest is not None:
                            centred.append(pat)
                screens.append((1 << i, cliques, allowed, centred))
        images = [[1 << y for y in sigma] for sigma in generators]
        stack = [(0, new - 1, members)]  # (s, the vertices s may grow by, the families s may be free of)
        while stack:
            s, above, admits = stack.pop()
            size = s.bit_count()
            if size == least:
                # v of degree least + 1 is of least degree only when it is
                # joined to every vertex of degree least
                missing = low & ~s
                if missing & missing - 1:
                    continue
                if missing:
                    above &= missing
            grows = []
            reach = 0
            for bit, cliques, allowed, centred in screens:
                if admits & bit:
                    free = above & allowed
                    for pat in cliques:
                        free &= ~pat.neighbourhood_mask(g, s)
                    grows.append((bit, free, centred))
                    reach |= free
            d = size + 1  # v's degree
            while reach:
                bit = reach & -reach
                reach ^= bit
                x = bit.bit_length() - 1
                t = s | bit
                child_members = 0
                for family_bit, free, _ in grows:
                    if free & bit:
                        child_members |= family_bit
                if d <= least:
                    stack.append((t, above >> x + 1 << x + 1, child_members))
                if _moved_lower(images, t):
                    continue
                # the other vertices of v's degree in g + v
                ties = low & ~t if d == least else low | next_low & ~t if d > least else 0
                if ties and _outranked_vertex(rows, degrees, sums, t, ties):
                    continue
                for family_bit, free, centred in grows:
                    if free & bit and any(pat.occurs_with_new_centre(g, t) for pat in centred):
                        child_members ^= family_bit
                if not child_members:
                    continue
                child_rows = list(rows)
                rest = t
                while rest:
                    y = rest & -rest
                    rest ^= y
                    child_rows[y.bit_length() - 1] |= new
                child_rows.append(t)
                child, child_generators = canonical_code_and_generators(Graph(p + 1, tuple(child_rows)))
                _merge(out, child, (child_generators if keep else None, child_members, index))
    return out


def _moved_lower(images: list[list[int]], s: int) -> bool:
    """Does some generator, given as the bit of each vertex's image, map the mask s below itself?"""
    for image_of in images:
        image = 0
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            image |= image_of[bit.bit_length() - 1]
        if image < s:
            return True
    return False


def _outranked_vertex(
    rows: tuple[int, ...], degrees: list[int], sums: list[int], s: int, ties: int
) -> bool:
    """Has some vertex of ``ties`` a larger deletion key than v in g + v, v joined to s?

    ``ties`` are the other vertices of v's degree in g + v, and the rest is
    g's: its rows, degrees and neighbour-degree sums.  The key is the
    neighbour-degree sum, then the sum of the neighbours' neighbour-degree
    sums, then the sorted neighbour degrees, all taken in g + v.  Each part
    is read only for the vertices that tie v on the parts before it.
    """
    v = len(rows)
    d = s.bit_count()

    def degree(x: int) -> int:
        return d if x == v else degrees[x] + (s >> x & 1)

    def degree_sum(x: int) -> int:
        # in g + v a sum gains one per neighbour in s, and d in s
        if x == v:
            return d + sum(degrees[y] for y in bits(s))
        return sums[x] + (rows[x] & s).bit_count() + (d if s >> x & 1 else 0)

    def neighbours(x: int) -> Iterator[int]:
        return bits(s if x == v else rows[x] | (s >> x & 1) << v)

    tied = list(bits(ties))
    for part in (
        degree_sum,
        lambda x: sum(map(degree_sum, neighbours(x))),
        lambda x: sorted(map(degree, neighbours(x))),
    ):
        mine = part(v)
        keys = [part(w) for w in tied]
        if any(key > mine for key in keys):
            return True
        tied = [w for w, key in zip(tied, keys) if key == mine]
        if not tied:
            return False
    return False


def enumerate_free_graphs(n: int, family: ForbiddenFamily) -> Iterator[Graph]:
    """One representative per isomorphism class of family-free graphs.

    Each is the canonical graph of its class.  Deterministic order: by edge
    count, then by increasing integer canonical code, the upper-triangle
    adjacency bits read row by row from the most significant end.  That
    is not the lexicographic order of the graph6 strings.
    """
    _check_cap(n)
    for _, codes, _ in _levels(n, family, jobs=1):
        for code in codes:
            yield graph_from_code(n, code)


def extremal_records(
    ns: Iterable[int], family: ForbiddenFamily, jobs: int = 1, cache: ResultCache | None = None
) -> dict[int, ExtremalRecord]:
    """Exact extremal records for every n in ns: cached, or by one exhaustion at the largest miss.

    Each record equals the one a separate run at its n gives.  Keys are the
    distinct ns in ascending order.  Every n is checked against the cap
    before any lookup or search.
    """
    return shared_records({family: ns}, jobs, cache)[family]


def shared_records(
    wanted: dict[ForbiddenFamily, Iterable[int]],
    jobs: int,
    cache: ResultCache | None = None,
    fresh: set[tuple[ForbiddenFamily, int]] | None = None,
) -> dict[ForbiddenFamily, dict[int, ExtremalRecord]]:
    """``extremal_records`` for each family and its ns, one search per vertex count.

    Every n and ``jobs`` are checked before any lookup, so a cache line
    never answers for an n the search would refuse.  Each n is looked up
    once; a hit reports its own lookup's time as ``elapsed``, not the
    stored run's.  Each family's misses are grouped by the largest of them,
    and the families of a group share one search at that n, whose seconds
    every record it gives carries as ``elapsed``.  After every search, the
    misses are appended to the cache and added to ``fresh`` as
    ``(family, n)``, in the order of ``wanted``, each family's in ascending n.
    """
    plan = {family: sorted(set(ns)) for family, ns in wanted.items()}
    for ns in plan.values():
        for n in ns[:1] + ns[-1:]:  # the cap is a range: its ends decide
            _check_cap(n)
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    records: dict[ForbiddenFamily, dict[int, ExtremalRecord]] = {family: {} for family in plan}
    walks: dict[int, dict[ForbiddenFamily, list[int]]] = {}
    for family, ns in plan.items():
        misses = []
        for n in ns:
            if cache is not None:
                start = time.perf_counter()
                hit = cache.lookup(n, family)
                if hit is not None:
                    records[family][n] = replace(hit, elapsed=time.perf_counter() - start)
                    continue
            misses.append(n)
        if misses:
            walks.setdefault(misses[-1], {})[family] = misses
    found: dict[ForbiddenFamily, dict[int, ExtremalRecord]] = {}
    for top, group in walks.items():
        found.update(_walk(top, group, jobs))
    for family in plan:
        for n, record in found.get(family, {}).items():
            if cache is not None:
                cache.append(record)
            if fresh is not None:
                fresh.add((family, n))
            records[family][n] = record
    return {family: dict(sorted(got.items())) for family, got in records.items()}


def _walk(
    top: int, plan: dict[ForbiddenFamily, list[int]], jobs: int
) -> dict[ForbiddenFamily, dict[int, ExtremalRecord]]:
    """One search on top vertices: the records of each family at its ns, which ascend to top.

    A family reads its records at every n below top from its classes padded to top.
    """
    start = time.perf_counter()
    pairs = {n: n * (n - 1) // 2 for n in range(top + 1)}
    best: dict[ForbiddenFamily, dict[int, tuple[int, tuple[int, ...]]]] = {family: {} for family in plan}
    visited = {family: dict.fromkeys(ns, 0) for family, ns in plan.items()}
    counted = dict.fromkeys(plan, 0)
    for family, (level, codes, tried) in zip(cycle(plan), _levels(top, *plan, jobs=jobs)):
        counted[family] += tried
        for n in plan[family]:
            # classes with at least top - n isolated vertices: a sorted prefix
            held = bisect_left(codes, 1 << pairs[n])
            if held:
                best[family][n] = level, codes[:held]
                visited[family][n] += held * (pairs[n] - level)
    for family in plan:
        if visited[family][top] != counted[family]:
            raise AssertionError(
                f"{family.spec()}: {counted[family]} augmentations tried, {visited[family][top]} non-edges in the classes"
            )
    elapsed = time.perf_counter() - start
    records: dict[ForbiddenFamily, dict[int, ExtremalRecord]] = {family: {} for family in plan}
    for family, ns in plan.items():
        for n in ns:
            level, codes = best[family][n]
            graphs = tuple(sorted(graph6_encode(graph_from_code(n, code)) for code in codes))
            records[family][n] = ExtremalRecord(n, family, level, graphs, visited[family][n], elapsed)
    return records


def brute_force_ex(n: int, family: ForbiddenFamily, jobs: int = 1) -> ExtremalRecord:
    """Exact extremal edge count and all extremal classes, by exhaustion."""
    return extremal_records((n,), family, jobs)[n]


def enumerate_extremal(n: int, family: ForbiddenFamily, jobs: int = 1) -> list[Graph]:
    """The extremal graphs themselves, decoded."""
    record = brute_force_ex(n, family, jobs=jobs)
    return [graph6_decode(code) for code in record.extremal_graphs]
