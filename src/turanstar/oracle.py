"""Exhaustive ground truth at desk scale.

Enumeration works level by level on edge count, starting from the empty
graph.  Forbidden-pattern freeness survives edge deletion, so every free
graph with e+1 edges is one edge addition away from a free graph with e
edges; augmenting each level and deduplicating by canonical form therefore
visits every isomorphism class exactly once.  The visit counter counts
augmentation attempts, which depends only on the class sets, never on
worker scheduling, so records compare equal across any worker count.

Inside the search a class is its integer canonical code: workers receive
the parents' codes, rebuild each parent from its code and return the codes
of its free children.  graph6 appears only at output, in the sorted
canonical strings of ``ExtremalRecord.extremal_graphs``.

Membership tests for the two join families and the complete split graph do
a full structural search (all candidate core subsets, all consistent
partitions) because the families contain many non-isomorphic graphs; a
canonical comparison against one builder output would be wrong.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .canonical import are_isomorphic, canonical_code, graph_from_code
from .detectors import ForbiddenFamily, is_family_free
from .graph6 import graph6_decode, graph6_encode
from .graphs import Graph, bits, empty_graph, mask_of
from .constructions import complete_bipartite

ORACLE_MAX_N = 11


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
        return cls(
            n=int(data["n"]),
            family=ForbiddenFamily.parse(data["family"]),
            ex_value=int(data["ex_value"]),
            extremal_graphs=tuple(data["extremal_graphs"]),
            graphs_visited=int(data["graphs_visited"]),
            elapsed=float(data["elapsed"]),
        )


def _check_cap(n: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration capped at n = {ORACLE_MAX_N}, got {n}")


def _expand_codes(args: tuple[int, str, tuple[int, ...]]) -> tuple[set[int], int]:
    """Worker: augment each graph by one edge, keep free results.

    Module level so process pools can pickle it.  Returns canonical codes
    of the successors plus the number of augmentations attempted.
    """
    n, family_spec, codes = args
    family = ForbiddenFamily.parse(family_spec)
    out: set[int] = set()
    visited = 0
    for code in codes:
        g = graph_from_code(n, code)
        for u in range(n):
            row = g.rows[u]
            for v in range(u + 1, n):
                if row >> v & 1:
                    continue
                visited += 1
                h = g.add_edge(u, v)
                if is_family_free(h, family):
                    out.add(canonical_code(h))
    return out, visited


def _levels(
    n: int, family: ForbiddenFamily, jobs: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (edge count, sorted canonical codes, augmentations tried) per level."""
    seed = empty_graph(n)
    if not is_family_free(seed, family):
        return
    current = (canonical_code(seed),)
    yield 0, current, 0
    spec = family.spec()
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        level = 0
        while current:
            level += 1
            if pool is None:
                merged, visited = _expand_codes((n, spec, current))
            else:
                chunks = [current[i :: jobs] for i in range(jobs)]
                merged = set()
                visited = 0
                for part, seen in pool.map(
                    _expand_codes, [(n, spec, c) for c in chunks if c]
                ):
                    merged |= part
                    visited += seen
            current = tuple(sorted(merged))
            # an empty level still reports the attempts that proved it empty
            yield level, current, visited
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


def brute_force_ex(n: int, family: ForbiddenFamily, jobs: int = 1) -> ExtremalRecord:
    """Exact extremal edge count and all extremal classes, by exhaustion."""
    _check_cap(n)
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    start = time.perf_counter()
    best_level = 0
    best_codes: tuple[int, ...] = ()
    total_visited = 0
    for level, codes, visited in _levels(n, family, jobs):
        total_visited += visited
        if codes:
            best_level, best_codes = level, codes
    if not best_codes:
        raise AssertionError("empty graph should always be family-free")
    return ExtremalRecord(
        n=n,
        family=family,
        ex_value=best_level,
        extremal_graphs=tuple(sorted(graph6_encode(graph_from_code(n, c)) for c in best_codes)),
        graphs_visited=total_visited,
        elapsed=time.perf_counter() - start,
    )


def enumerate_extremal(n: int, family: ForbiddenFamily, jobs: int = 1) -> list[Graph]:
    """The extremal graphs themselves, decoded."""
    record = brute_force_ex(n, family, jobs=jobs)
    return [graph6_decode(code) for code in record.extremal_graphs]


# ---------------------------------------------------------------------------
# structural membership in the extremal families


@dataclass(frozen=True)
class CompleteBipartiteDescriptor:
    """K_{s, n-s}."""

    s: int


@dataclass(frozen=True)
class RegularJoinDescriptor:
    """Two-part core over a triangle-free (l-1)-regular rest, joined sidewise."""

    s: int
    l: int


@dataclass(frozen=True)
class CappedJoinDescriptor:
    """Two-part core over the capped bipartite rest, joined sidewise."""

    s: int
    l: int


FamilyDescriptor = CompleteBipartiteDescriptor | RegularJoinDescriptor | CappedJoinDescriptor

_MEMBERSHIP_MAX_N = 16


def _two_part_core(g: Graph, u_mask: int) -> tuple[int, int] | None:
    """Part masks if g restricted to u_mask is a balanced complete bipartition.

    Returns (bigger, smaller) part masks, or None.  Empty and singleton
    cores are trivially valid.
    """
    verts = list(bits(u_mask))
    if not verts:
        return 0, 0
    # In a complete bipartite graph the non-neighborhood of v within the set
    # is exactly v's own part, so the candidate parts are forced; the
    # verification loop below rejects anything that merely looked right.
    assigned = 0
    parts = []
    for v in verts:
        if assigned >> v & 1:
            continue
        comp = ((u_mask & ~g.rows[v]) | (1 << v)) & ~assigned
        parts.append(comp)
        assigned |= comp
        if len(parts) > 2:
            return None
    while len(parts) < 2:
        parts.append(0)
    a, b = parts
    if abs(a.bit_count() - b.bit_count()) > 1:
        return None
    for p, q in ((a, b), (b, a)):
        for v in bits(p):
            if g.rows[v] & p:
                return None
            if (g.rows[v] & q) != q:
                return None
    if a.bit_count() < b.bit_count():
        a, b = b, a
    return a, b


def _independent(g: Graph, vertex_mask: int) -> bool:
    return all(g.rows[v] & vertex_mask == 0 for v in bits(vertex_mask))


def _triangle_free_within(g: Graph, vertex_mask: int) -> bool:
    for v in bits(vertex_mask):
        for w in bits(g.rows[v] & vertex_mask):
            if w <= v:
                continue
            if g.rows[v] & g.rows[w] & vertex_mask:
                return False
    return True


def _exact_shared_neighborhood(g: Graph, part_mask: int, rest_mask: int) -> int | None:
    """The common outside neighborhood, if every part vertex has the same one."""
    seen = None
    for v in bits(part_mask):
        nbhd = g.rows[v] & rest_mask
        if seen is None:
            seen = nbhd
        elif nbhd != seen:
            return None
    return seen


def _two_coloring_side_sizes(g: Graph, vertex_mask: int) -> list[tuple[int, int]] | None:
    """Per-component 2-coloring masks, or None if not bipartite."""
    out = []
    assigned = 0
    for root in bits(vertex_mask):
        if assigned >> root & 1:
            continue
        color = {root: 0}
        stack = [root]
        sides = [1 << root, 0]
        while stack:
            v = stack.pop()
            for w in bits(g.rows[v] & vertex_mask):
                if w in color:
                    if color[w] == color[v]:
                        return None
                    continue
                color[w] = color[v] ^ 1
                sides[color[w]] |= 1 << w
                stack.append(w)
        assigned |= sides[0] | sides[1]
        out.append((sides[0], sides[1]))
    return out


def _balanced_bipartition_exists(g: Graph, vertex_mask: int, target: int) -> bool:
    """Can the graph on vertex_mask be 2-colored with one side of size target?"""
    comps = _two_coloring_side_sizes(g, vertex_mask)
    if comps is None:
        return False
    reachable = 1  # bitset over achievable side sizes
    for side0, side1 in comps:
        a, b = side0.bit_count(), side1.bit_count()
        reachable = (reachable << a) | (reachable << b)
    return bool(reachable >> target & 1)


def _regular_rest_ok(g: Graph, rest_mask: int, degree: int) -> bool:
    m = rest_mask.bit_count()
    degs = sorted((g.rows[v] & rest_mask).bit_count() for v in bits(rest_mask))
    if degree * m % 2:
        expected = [degree - 1] + [degree] * (m - 1)
    else:
        expected = [degree] * m
    if degs != expected:
        return False
    return _triangle_free_within(g, rest_mask)


def _regular_join_partition_ok(g: Graph, rest_mask: int, x_a: int | None, x_b: int | None) -> bool:
    """Does some good partition of the rest extend the forced sides?

    x_a / x_b are the exact outside neighborhoods of the two core parts
    (None while the part is empty, leaving that side unconstrained).
    """
    m = rest_mask.bit_count()
    low, high = m // 2, (m + 1) // 2
    if x_a is None and x_b is None:
        if m % 2 == 0:
            return _balanced_bipartition_exists(g, rest_mask, low)
        for v0 in bits(rest_mask):
            if _balanced_bipartition_exists(g, rest_mask & ~(1 << v0), low):
                return True
        return False
    if x_b is None:
        known = x_a
        if known is None or known & ~rest_mask:
            return False
        if known.bit_count() != low or not _independent(g, known):
            return False
        rest = rest_mask & ~known
        if m % 2 == 0:
            return _independent(g, rest)
        for v0 in bits(rest):
            if _independent(g, rest & ~(1 << v0)):
                return True
        return False
    # both sides forced
    if x_a is None or (x_a | x_b) & ~rest_mask or x_a & x_b:
        return False
    leftover = rest_mask & ~(x_a | x_b)
    if x_a.bit_count() != low or x_b.bit_count() != low:
        return False
    if leftover.bit_count() != m - 2 * low:  # 0 even, 1 odd
        return False
    return _independent(g, x_a) and _independent(g, x_b)


def _capped_join_partition_ok(g: Graph, rest_mask: int, x_a, x_b, degree: int) -> bool:
    """Is the rest the capped bipartite graph, split consistently with the join?"""
    m = rest_mask.bit_count()
    t_size, s_size = m // 2, (m + 1) // 2

    def sides_ok(s_mask: int, t_mask: int) -> bool:
        if s_mask.bit_count() != s_size or t_mask.bit_count() != t_size:
            return False
        if not (_independent(g, s_mask) and _independent(g, t_mask)):
            return False
        if any((g.rows[v] & rest_mask).bit_count() != degree for v in bits(t_mask)):
            return False
        return all((g.rows[v] & rest_mask).bit_count() <= degree for v in bits(s_mask))

    if x_a is None and x_b is None:
        comps = _two_coloring_side_sizes(g, rest_mask)
        if comps is None:
            return False
        # Assign each component's sides to S/T; T takes exactly t_size
        # vertices, all of degree exactly `degree` inside the rest.
        choices = []
        for side0, side1 in comps:
            local = []
            for t_side, s_side in ((side0, side1), (side1, side0)):
                if all(
                    (g.rows[v] & rest_mask).bit_count() == degree for v in bits(t_side)
                ) and all(
                    (g.rows[v] & rest_mask).bit_count() <= degree for v in bits(s_side)
                ):
                    local.append(t_side.bit_count())
            if not local:
                return False
            choices.append(local)
        reachable = 1
        for local in choices:
            nxt = 0
            for size in set(local):
                nxt |= reachable << size
            reachable = nxt
        return bool(reachable >> t_size & 1)
    if x_b is None:
        known = x_a
        if known is None or known & ~rest_mask:
            return False
        rest = rest_mask & ~known
        return sides_ok(known, rest) or sides_ok(rest, known)
    if x_a is None or (x_a | x_b) & ~rest_mask or x_a & x_b:
        return False
    if (x_a | x_b) != rest_mask:
        return False
    return sides_ok(x_a, x_b) or sides_ok(x_b, x_a)


def family_membership(g: Graph, descriptor: FamilyDescriptor) -> bool:
    """Structural membership test against an extremal family.

    The core subset and the partition of the rest are searched
    exhaustively; either core part may face either side of the rest.
    """
    if g.n > _MEMBERSHIP_MAX_N:
        raise ValueError(f"membership search capped at n = {_MEMBERSHIP_MAX_N}, got {g.n}")
    if isinstance(descriptor, CompleteBipartiteDescriptor):
        s = descriptor.s
        if not 0 <= s <= g.n:
            return False
        return are_isomorphic(g, complete_bipartite(s, g.n - s))
    if not isinstance(descriptor, (RegularJoinDescriptor, CappedJoinDescriptor)):
        raise TypeError(f"unknown descriptor {descriptor!r}")
    s, l = descriptor.s, descriptor.l
    if s < 0 or l < 1 or g.n < s:
        return False
    regular = isinstance(descriptor, RegularJoinDescriptor)
    degree = l - 1
    full = (1 << g.n) - 1
    for core in combinations(range(g.n), s):
        u_mask = mask_of(core)
        parts = _two_part_core(g, u_mask)
        if parts is None:
            continue
        rest_mask = full & ~u_mask
        if regular and not _regular_rest_ok(g, rest_mask, degree):
            continue
        part_a, part_b = parts
        x_a = _exact_shared_neighborhood(g, part_a, rest_mask) if part_a else None
        x_b = _exact_shared_neighborhood(g, part_b, rest_mask) if part_b else None
        if part_a and x_a is None:
            continue
        if part_b and x_b is None:
            continue
        if regular:
            if _regular_join_partition_ok(g, rest_mask, x_a, x_b):
                return True
        else:
            if _capped_join_partition_ok(g, rest_mask, x_a, x_b, degree):
                return True
    return False
