"""Exhaustive ground truth at desk scale.

Enumeration works level by level on edge count, starting from the empty
graph.  Forbidden-pattern freeness survives edge deletion, so every free
graph with e+1 edges is one edge addition away from a free graph with e
edges; augmenting each level and deduplicating by canonical form therefore
visits every isomorphism class exactly once.  Four cuts keep that cheap:

1. Non-edges that an automorphism of the parent maps onto each other give
   isomorphic children, so each parent's non-edges are split into orbits
   and only the first non-edge of each orbit is tried.
2. The generators of that group come from the canonical search that found
   the parent, one level earlier: ``canonical_code_and_generators`` returns
   them with the code, on the canonical graph that the code rebuilds, and
   each level carries them to the next.  No parent is searched twice.
3. In the style of McKay's canonical deletion (J. Algorithms 1998), a child
   g + uv is kept only when no edge of it outranks uv, and is skipped
   before the detector and the canonical search otherwise.  The rank of an
   edge is its degree pair (smaller end's degree, larger end's degree),
   ties broken by the sorted pair of its ends' neighbour-degree sums, all
   taken in g + uv.  Any isomorphism-invariant total preorder on edges
   would do: each class H is still reached.  Delete an edge e of H of top
   rank; H - e is free, so its class P is a parent, and the orbit
   representative r of P's non-edge that plays e gives P + r isomorphic to
   H by a map taking r to e, so r carries e's rank and passes.  The rank is
   the same on a whole orbit, so the filter and the orbit cut commute.
   Let ``top`` be the largest t such that some edge of g has both ends of
   degree at least t.  That edge outranks every non-edge with an end of
   degree below top - 1, and automorphisms keep degrees, so the orbits are
   walked only over the non-edges between vertices of degree top - 1 or
   more.
4. g is free, so each pattern is asked only whether adding uv creates it,
   and any copy it finds uses uv.  Before the orbit walk, each pattern with
   an exact mask (``has_edge_mask``: every clique, and a star forest of one
   copy) gives, for every vertex u of the degree window, the mask of
   vertices v for which g + uv holds the pattern (``edge_mask``); the walk
   covers only the candidate pairs, the window minus u's neighbours minus
   those masks, and never asks these patterns again.  A clique's mask
   gathers the common neighbours of the K_{size-2}'s in u's neighbourhood.
   A one-copy star's is every vertex when u has degree leaves - 1, and the
   vertices of that degree otherwise, as g free caps every degree there.
   The mask must be exact.  Whether g + uv holds a pattern depends only on
   the isomorphism type of (g, u, v), so an exact mask is the same on a
   whole orbit: the candidates are a union of orbits, and every orbit left
   is walked from the same first non-edge as over the whole window.  A mask
   that marked a free pair could drop a whole orbit, and with it a class.
   One that missed blocked pairs unevenly could keep part of an orbit, so
   the walk would start it from a later pair, and the rank tests, the
   children searched and the generators each class keeps would change.  The
   other patterns are asked per pair, by ``occurs_with_edge``.  A star
   forest of several copies answers from g alone: uv must join a centre x
   to a leaf y, so it asks whether g - y holds a star at x with one leaf
   fewer and the other copies, all disjoint, by Hall's condition over the
   centre sets that hold x.  A matching is a star forest of one-leaf
   stars, and there both orientations ask whether g - u - v holds the
   other copies, so one is walked.

Per parent the screens run in this order: the degree window, the exact
masks, the orbit walk, the rank test, the per-pair check of the patterns
without an exact mask (none for a family of cliques and one-copy stars),
and last the canonical search of g + uv, the only step that builds the
child.  The window's ``top`` comes from one pass over g's vertices: it is
the largest degree d of a vertex with a neighbour of degree d or more, the
lower end of an edge with both ends of degree at least d.  That pass also
builds each vertex's neighbour-degree sum, so every parent has one degree
table (degrees, the at-least masks, ``top`` and the sums), built before
its walk, which the window and each of its rank tests read.

A level is a set of classes, so the filter only thins how often one class
is found, never which classes are found.  The visit counter still counts
every non-edge, which depends only on the class sets, never on the
orbits, the filter or worker scheduling, so records compare equal across
any worker count.

One walk serves several families on the same vertex count.  Each class
carries its members, the mask of the families it is free of.  The degree
window, the orbit walk, the rank test and the canonical search of a kept
child are done once per class; the exact masks and the per-pair checks
are asked per member family.  This is exact:

- Each family's free graphs are closed under edge deletion, so their union
  is too, and a child g + uv is free of f exactly when g is and neither
  f's exact masks nor its per-pair checks block uv.  So a child's members
  are its parent's, minus each family that blocks uv: each bit is exact
  whichever parent reaches the child, and isomorphic children get equal
  members.
- Each family's candidate pairs are a union of orbits, so their union is
  one too, and an orbit inside f's candidates is walked from the same
  first pair as in a walk of f alone.
- For a family f and a class H free of f, delete an edge e of top rank.
  H - e is free of f, so it is in the walk with bit f set; the
  representative of e's orbit is a candidate of f and passes the rank
  test, so H is reached with bit f set.

Restricted to one family, the walk gives exactly that family's class sets,
and each family counts the non-edges of its own member parents only, so
its visit counts are a separate walk's.  With one family it is the walk
above, pair for pair.

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
each family's misses by their largest n, runs one walk per group, so the
families whose largest miss is the same n share it, and appends what the
walks found.

Whether a class lies in one of the paper's join families is asked of
``constructions.family_membership``, next to the builders of those families.
"""

from __future__ import annotations

import json
import logging
import os
import time
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import combinations, cycle
from pathlib import Path
from typing import Iterator

from .canonical import LABELLING_VERSION, canonical_code_and_generators, canonical_form, graph_from_code
from .detectors import ForbiddenFamily, is_family_free
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


def _orbit_representatives(
    g: Graph, generators: Generators, candidates: list[int]
) -> Iterator[tuple[int, int]]:
    """First non-edge u-v (u < v, in row order) of each orbit of the
    candidate pairs, bit v of ``candidates[u]``, under the group the
    generators generate.  The candidates must be symmetric, non-edges and a
    union of orbits."""
    seen = [0] * g.n  # seen[u] bit v: pair u-v lies in an orbit already yielded
    for u, mask in enumerate(candidates):
        for v in bits(mask >> u + 1 << u + 1):
            if seen[u] >> v & 1:
                continue
            yield u, v
            seen[u] |= 1 << v
            stack = [(u, v)]
            while stack:
                a, b = stack.pop()
                for sigma in generators:
                    x, y = sigma[a], sigma[b]
                    if x > y:
                        x, y = y, x
                    if not seen[x] >> y & 1:
                        seen[x] |= 1 << y
                        stack.append((x, y))


def _outranked(
    rows: tuple[int, ...], degrees: list[int], sums: list[int], at_least: list[int], u: int, v: int
) -> bool:
    """Has some edge of g + uv a larger rank than uv, degrees taken in g + uv?

    The rank is the (smaller end, larger end) degree pair, ties broken by
    the sorted pair of the ends' neighbour-degree sums.  The rest is g's
    degree table: ``rows`` are g's, ``degrees[x]`` is x's degree in g,
    ``sums[x]`` the sum of the degrees of x's neighbours in g, and
    ``at_least[t]`` the mask of g's vertices of degree at least t, for
    t = 0..n.
    """
    du, dv = degrees[u], degrees[v]
    p, q = sorted((du + 1, dv + 1))
    uv = 1 << u | 1 << v
    # vertices of degree >= p, > p and > q in g + uv
    mid = at_least[p] | uv & at_least[p - 1]
    high = at_least[p + 1] | uv & at_least[p]
    top = at_least[q + 1] | uv & at_least[q]
    # an edge outranks uv on degrees when both ends lie in `high`, or one end
    # lies in `top` and the other in `mid`; `top` lies inside `high`
    rest = high
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        if rows[a] & (mid if top & low else high):
            return True
    # the edges that tie uv on degrees join a degree-p end to a degree-q end;
    # in g + uv a neighbour-degree sum gains one per neighbour in uv, and
    # u's (v's) gains v's (u's) degree
    gain = {u: dv + 1, v: du + 1}
    key = sorted((sums[u] + gain[u], sums[v] + gain[v]))
    q_end = (at_least[q] | uv & at_least[q - 1]) & ~top
    rest = mid & ~high
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        ends = rows[a] & q_end
        if ends:
            sum_a = sums[a] + (rows[a] & uv).bit_count() + gain.get(a, 0)
        while ends:
            end = ends & -ends
            ends ^= end
            b = end.bit_length() - 1
            if sorted((sum_a, sums[b] + (rows[b] & uv).bit_count() + gain.get(b, 0))) > key:
                return True
    return False


def _expand_codes(
    args: tuple[int, Sequence[ForbiddenFamily], list[tuple[int, Generators, int]]],
) -> tuple[dict[int, tuple[Generators, int]], list[int]]:
    """Worker: augment each graph by one edge, keep the results free of some family.

    Module level so process pools can pickle it.  Takes each parent as its
    code, automorphism generators of ``graph_from_code(n, code)`` and its
    members, the mask of the families (bit i for ``families[i]``) it is
    free of; returns the same for the successors, keyed by code, plus the
    augmentations attempted per family, which count every non-edge of each
    member parent.  Only the first candidate pair of each orbit, in the
    degree window and outside every exact mask of some member family, and
    only one that no edge of the child outranks, is asked of the patterns
    without a mask and canonicalized, once for all its families.
    """
    n, families, parents = args
    screens = [
        (
            1 << i,
            [pat for pat in family.patterns if pat.has_edge_mask],
            [pat for pat in family.patterns if not pat.has_edge_mask],
        )
        for i, family in enumerate(families)
    ]
    out: dict[int, tuple[Generators, int]] = {}
    visited = [0] * len(families)
    pairs = n * (n - 1) // 2
    for code, generators, members in parents:
        g = graph_from_code(n, code)
        rows = g.rows
        non_edges = pairs - code.bit_count()
        # the degree table that the window and every rank test read
        degrees = [row.bit_count() for row in rows]
        at_least = [0] * (n + 1)
        for x, d in enumerate(degrees):
            at_least[d] |= 1 << x
        for t in range(n - 1, -1, -1):
            at_least[t] |= at_least[t + 1]
        # an edge with both ends of degree >= top outranks every non-edge
        # with an end of degree < top - 1; top is the degree of the lower
        # end of such an edge, a vertex with a neighbour of its degree or more
        top = 0
        sums = []
        for row, d in zip(rows, degrees):
            if d > top and row & at_least[d]:
                top = d
            total = 0
            while row:
                low = row & -row
                row ^= low
                total += degrees[low.bit_length() - 1]
            sums.append(total)
        window = at_least[max(top - 1, 0)]
        # exact masks keep each member's candidates, and so their union, a
        # union of orbits
        walked = [0] * n
        screened = []  # (bit, candidates, paired) per member family
        for i, (bit, masked, paired) in enumerate(screens):
            if not members & bit:
                continue
            visited[i] += non_edges
            candidates = [0] * n
            for u in bits(window):
                blocked = rows[u]
                for pat in masked:
                    blocked |= pat.edge_mask(g, u)
                candidates[u] = window & ~blocked
                walked[u] |= candidates[u]
            screened.append((bit, candidates, paired))
        for u, v in _orbit_representatives(g, generators, walked):
            if _outranked(rows, degrees, sums, at_least, u, v):
                continue
            child_members = 0
            for bit, candidates, paired in screened:
                if candidates[u] >> v & 1 and not any(pat.occurs_with_edge(g, u, v) for pat in paired):
                    child_members |= bit
            if child_members:
                child, child_generators = canonical_code_and_generators(g.add_edge(u, v))
                _merge(out, child, (child_generators, child_members))
    return out, visited


def _merge(found: dict[int, tuple[Generators, int]], code: int, entry: tuple[Generators, int]) -> None:
    """Keep the first generators found for a class; every parent must give it the same members."""
    known = found.setdefault(code, entry)
    if known[1] != entry[1]:
        raise AssertionError(f"class {code} reached as free of families {known[1]:b} and {entry[1]:b}")


def _levels(
    n: int, *families: ForbiddenFamily, jobs: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """One walk on n vertices for all the families.

    The stream has one fixed layout.  Per level, from 0 until a level is
    empty for every family, it yields one triple (edge count, sorted
    canonical codes, augmentations tried) per family, in argument order, so
    with F families family i's triples sit at positions i, i + F, i + 2F, ...
    Those are the triples of a walk of that family alone, which ends at its
    first empty level, followed by (level, (), 0) at every later level.
    """
    seed = empty_graph(n)
    for family in families:
        if not is_family_free(seed, family):
            raise AssertionError(f"empty graph should always be {family.spec()}-free")
    code, generators = canonical_code_and_generators(seed)
    parents = [(code, generators, (1 << len(families)) - 1)]
    for _ in families:
        yield 0, (code,), 0
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # one-worker runs skip its import

        # under fork every worker starts at the first submit, so start no more
        # than there are CPUs; the levels still split into jobs chunks
        pool = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
    run = map if pool is None else pool.map
    try:
        level = 0
        while parents:
            level += 1
            chunks = [(n, families, parents[i::jobs]) for i in range(min(jobs, len(parents)))]
            found: dict[int, tuple[Generators, int]] = {}
            visited = [0] * len(families)
            for part, seen in run(_expand_codes, chunks):
                for child, entry in part.items():  # the first chunk's generators win
                    _merge(found, child, entry)
                visited = [a + b for a, b in zip(visited, seen)]
            parents = [(child, gens, members) for child, (gens, members) in sorted(found.items())]
            for i, tried in enumerate(visited):
                # an empty level still reports the attempts that proved it empty
                yield level, tuple(child for child, _, members in parents if members >> i & 1), tried
    finally:
        if pool is not None:
            pool.shutdown()


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
    """``extremal_records`` for each family and its ns, one walk per vertex count.

    Every n and ``jobs`` are checked before any lookup, so a cache line
    never answers for an n the search would refuse.  Each n is looked up
    once; a hit reports its own lookup's time as ``elapsed``, not the
    stored run's.  Each family's misses are grouped by the largest of them,
    and the families of a group share one walk at that n, whose seconds
    every record it gives carries as ``elapsed``.  After every walk, the
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
    """One walk on top vertices: the records of each family at its ns, which ascend to top.

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
