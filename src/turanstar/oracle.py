"""Exhaustive ground truth at desk scale.

The free classes on n vertices are enumerated level by level on edge
count: ``_levels`` yields, per level, each family's sorted canonical codes
and its augmentations tried, the non-edges of its classes one level down.
Two engines give that one stream.  Vertex extension runs when every
pattern of every family is a clique or a one-copy star, the patterns with
an exact mask; a family with a matching or a star forest of several
copies takes the edge walk, which measured faster there.  The choice is
read from the patterns.

The edge walk starts from the empty graph.  Forbidden-pattern freeness
survives edge deletion, so every free graph with e+1 edges is one edge
addition away from a free graph with e edges; augmenting each level and
deduplicating by canonical form therefore visits every isomorphism class
exactly once.  Four cuts keep that cheap:

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

Vertex extension builds the classes on m vertices from those on m - 1, for
m = 1..n, in the style of McKay's canonical augmentation by vertices (the
scheme of nauty's geng).  Freeness survives vertex deletion too, so a free
graph on m vertices is a free graph on m - 1 plus a vertex v joined to a
set S.  Each vertex level maps a code to its generators and members:

- A class on m - 1 vertices passes to level m padded with an isolated
  vertex, under its own code (the padding argument below), and is not
  searched again.  Its generators are shifted up by one.  They generate
  its whole group unless it has two isolated vertices or more, and then
  it is never extended: v joined to a non-empty S would not be of least
  degree.
- Each parent H, the canonical graph of its code, gets v joined to each
  non-empty S that passes three tests.  (a) v has the least degree in
  H + v: |S| is at most H's least degree, or one more and S holds every
  vertex of that degree.  (b) Some member family admits S: H + v is free
  of it.  S grows one vertex at a time, and each pattern's
  ``neighbourhood_mask`` names the vertices that would complete a copy:
  for K_k, S must hold no K_{k-1}; for a one-copy S_l, |S| <= l - 1 and
  every vertex of S has degree at most l - 2.  The child's members are the
  families that admit S.  (c) S, read as a mask, is no larger than its
  image under each generator of H.
- H + v is canonicalized only when no other vertex of v's degree has a
  larger deletion key: the neighbour-degree sum, then the sum of the
  neighbours' neighbour-degree sums, then the sorted neighbour degrees,
  all taken in H + v.  Children are deduplicated by code, and every parent
  must give a class the same members.

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
pass, and the child's members are G's.  Split by edge
count, the codes at level n are the walk's levels, and a level's
augmentations tried are counted from the class sets, as the walk counts
them, so the two streams are equal.  The generators kept for a class are
those of the first parent, in code order, that reached it, so no count
depends on how the parents split over workers.

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
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
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


def _merge(found: dict[int, tuple], code: int, entry: tuple) -> None:
    """Keep the first entry found for a class, or, where entries carry a
    third item, the one whose third item is least; every parent must give
    the class the same members, the second item."""
    known = found.setdefault(code, entry)
    if known[1] != entry[1]:
        raise AssertionError(f"class {code} reached as free of families {known[1]:b} and {entry[1]:b}")
    if entry[2:] < known[2:]:
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
    one level down.  When every pattern is a clique or a one-copy star, the
    vertex extension gives the stream, and otherwise the edge walk.
    """
    seed = empty_graph(n)
    for family in families:
        if not is_family_free(seed, family):
            raise AssertionError(f"empty graph should always be {family.spec()}-free")
    by_vertex = all(pat.has_edge_mask for family in families for pat in family.patterns)
    yield from (_vertex_levels if by_vertex else _edge_levels)(n, *families, jobs=jobs)


def _edge_levels(
    n: int, *families: ForbiddenFamily, jobs: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The stream of ``_levels``, by one edge walk on n vertices for all the families."""
    code, generators = canonical_code_and_generators(empty_graph(n))
    parents = [(code, generators, (1 << len(families)) - 1)]
    for _ in families:
        yield 0, (code,), 0
    with _mapper(jobs) as run:
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


def _vertex_levels(
    n: int, *families: ForbiddenFamily, jobs: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The stream of ``_levels``, by vertex extension from 0 to n vertices;
    every pattern must be a clique or a one-copy star."""
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
            chunks = [(m - 1, families, parents[i::jobs], keep) for i in range(min(jobs, len(parents)))]
            # the graph on no vertices has no set to join a new vertex to
            for part in run(_extend_codes, chunks if m > 1 else []):
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


def _extend_codes(
    args: tuple[int, Sequence[ForbiddenFamily], list[tuple[int, int, Generators, int]], bool],
) -> dict[int, tuple[Generators | None, int, int]]:
    """Worker: extend each graph by one vertex, keep the results free of some family.

    Module level so process pools can pickle it.  Takes the parents' vertex
    count p and each parent as its position in the level, its code,
    automorphism generators of ``graph_from_code(p, code)`` and its members;
    returns, keyed by code, each child's generators (None unless ``keep``),
    members and the least position of a parent that reached it.  A new
    vertex v is joined to each non-empty vertex set s that some member family
    admits, grown one vertex at a time through the families' neighbourhood
    masks; only an s that leaves v of least degree, is no larger than its
    image under every generator, and leaves no vertex of v's degree a larger
    deletion key than v is canonicalized.
    """
    p, families, parents, keep = args
    new = 1 << p
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
        screens = [(1 << i, family.patterns) for i, family in enumerate(families) if members >> i & 1]
        images = [[1 << y for y in sigma] for sigma in generators]
        stack = [(0, new - 1, members)]  # (s, the vertices s may grow by, the families that admit s)
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
            for bit, patterns in screens:
                if admits & bit:
                    free = above
                    for pat in patterns:
                        free &= ~pat.neighbourhood_mask(g, s)
                    grows.append((bit, free))
                    reach |= free
            d = size + 1  # v's degree
            while reach:
                bit = reach & -reach
                reach ^= bit
                x = bit.bit_length() - 1
                t = s | bit
                child_members = 0
                for family_bit, free in grows:
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
