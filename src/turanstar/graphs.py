"""Immutable simple graphs over bitmask adjacency rows.

A graph on n vertices is stored as a tuple of n integers; bit u of row v is
set exactly when uv is an edge.  Python integers are arbitrary precision, so
the same representation serves both the small exhaustive-search scale and the
larger construction scale.  Vertex sets are plain integer bitmasks throughout
the package (the ``VertexSet`` alias below).

All operations return new Graph values; nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# Hard ceiling on vertex count.  Way above anything the package exercises,
# but it keeps a typo from allocating gigabytes of rows.
MAX_VERTICES = 1 << 16

VertexSet = int


def check_vertex_count(n: int) -> None:
    """Raise ValueError unless 0 <= n <= MAX_VERTICES; builders call it
    before they allocate any rows."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} out of range")


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Bitmask with one bit set per listed vertex."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: VertexSet) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``rows[v]`` is the neighbor bitmask of v."""

    n: int
    rows: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.rows[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows))

    def add_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.n, u, v)
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.n, u, v)
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = tuple((full & ~r & ~(1 << v)) for v, r in enumerate(self.rows))
        return Graph(self.n, rows)

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Graph whose vertex i plays the role of old vertex ``perm[i]``.

        ``perm`` must list each old vertex exactly once; position i of the
        result is adjacent to position j exactly when perm[i] and perm[j]
        were adjacent.
        """
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        pos = [0] * self.n
        for i, v in enumerate(perm):
            pos[v] = i
        rows = [0] * self.n
        for i, v in enumerate(perm):
            row = 0
            for w in bits(self.rows[v]):
                row |= 1 << pos[w]
            rows[i] = row
        return Graph(self.n, tuple(rows))


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for n={n}: ({u}, {v})")
    if u == v:
        raise ValueError(f"loop at vertex {u}")


def empty_graph(n: int) -> Graph:
    check_vertex_count(n)
    return Graph(n, (0,) * n)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on vertices 0..n-1 with the given edge list.

    Duplicate edges collapse; loops and out-of-range endpoints raise
    ValueError.
    """
    check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g and h side by side; h's vertices are shifted up by g.n."""
    check_vertex_count(g.n + h.n)
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    check_vertex_count(g.n + h.n)
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    rows = [r | h_mask for r in g.rows]
    rows += [(r << g.n) | g_mask for r in h.rows]
    return Graph(g.n + h.n, tuple(rows))


def induced_subgraph(g: Graph, vertices: VertexSet) -> Graph:
    """Subgraph induced on the bitmask ``vertices``, relabeled to 0..k-1.

    Kept vertices preserve their relative order.
    """
    if vertices & ~((1 << g.n) - 1):
        raise ValueError("vertex mask references vertices >= n")
    kept = list(bits(vertices))
    pos = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = 0
        for w in bits(g.rows[v] & vertices):
            row |= 1 << pos[w]
        rows.append(row)
    return Graph(len(kept), tuple(rows))


def symmetrize(g: Graph, u: int, v: int) -> Graph:
    """Replace u's neighborhood with v's.

    Defined only for distinct non-adjacent u, v.  The result has
    edge count e(g) - deg(u) + deg(v), and u, v end up with identical
    neighborhoods.  Copying a neighborhood cannot close a new triangle
    through u, so any clique-freeness of g survives.
    """
    if u == v:
        raise ValueError("symmetrize needs two distinct vertices")
    if g.has_edge(u, v):
        raise ValueError(f"symmetrize requires non-adjacent vertices, got edge {u}-{v}")
    ubit = 1 << u
    target = g.rows[v]
    rows = []
    for w in range(g.n):
        if w == u:
            rows.append(target)
        else:
            row = g.rows[w] & ~ubit
            if target >> w & 1:
                row |= ubit
            rows.append(row)
    return Graph(g.n, tuple(rows))


def respects_bipartition(g: Graph, side_a: VertexSet, side_b: VertexSet) -> bool:
    """True when every edge of g crosses between the two given sides.

    The sides must be disjoint and cover all vertices.
    """
    full = (1 << g.n) - 1
    if side_a & side_b or (side_a | side_b) != full:
        return False
    for v in bits(side_a):
        if g.rows[v] & side_a:
            return False
    for v in bits(side_b):
        if g.rows[v] & side_b:
            return False
    return True
