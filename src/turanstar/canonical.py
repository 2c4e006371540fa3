"""Canonical labelings via partition refinement and pruned backtracking.

The canonical code of a graph is an int, the least adjacency bit string
over the labelings the search reaches; the canonical form is the graph6
string of the relabeled copy that attains it.  Two graphs on the same
number of vertices share a code, and a form, exactly when they are
isomorphic.  The labeling is found the classical way:

1. Refine the ordered partition of the vertices until it is equitable
   (every vertex in a cell sees the same number of neighbors in every
   cell).  Each pass counts neighbors only in the cells the previous pass
   split off, since counts into every other cell are already constant on
   each cell; the sub-cells come out in the order that counting against
   every cell gives.  Refinement is deterministic, so it is
   isomorphism-equivariant.
2. While some cell has two or more vertices, individualize each candidate
   vertex of the first such cell in turn and recurse.  Every discrete
   partition reached encodes one adjacency bit string: the upper triangle
   row by row, first bit most significant.  The minimum over all of them
   is the canonical code.
3. Twins, two vertices whose neighborhoods agree apart from each other,
   swap under an automorphism that fixes every other vertex, and so the
   current prefix.  Only the first vertex of each twin class in a cell is
   individualized; its twins would repeat its codes.
4. When two leaves produce equal codes, the position-wise map between
   their labelings is an automorphism.  Recorded automorphisms that fix
   the current branch prefix pointwise let the search skip sibling
   branches that can only repeat known codes.

The search also returns what it learned about the automorphism group:
the recorded automorphisms plus one transposition per twinned vertex,
the swaps that step 3 prunes without recording.
``canonical_code_and_generators`` hands them over with the code, conjugated
by the labeling onto the canonical graph ``graph_from_code(n, code)``.  The
exhaustive search keeps them with each class it finds, so when that class
is extended a level later it can augment one non-edge per orbit without
searching the class a second time.

Exact and exponential in the worst case; the module refuses graphs above
CANONICAL_MAX_N vertices, which is all the exhaustive search scale needs.
"""

from __future__ import annotations

from .graph6 import graph6_encode
from .graphs import Graph, mask_of

CANONICAL_MAX_N = 16

_Cells = list[tuple[int, ...]]


def _refine(rows: tuple[int, ...], cells: _Cells, splitters: list[int]) -> _Cells:
    """Equitable refinement of an ordered partition.

    Each cell is split by the tuple of its vertices' neighbor counts into
    the ``splitters``, masks of cells in partition order; sub-cells are
    ordered by that count signature.  The next pass refines against the
    sub-cells this pass split off, in partition order, bar the last
    sub-cell of each split: a vertex's count into it follows from its
    count into the old cell.  Repeats until no cell splits.

    The caller passes every cell into which some cell's vertices may see
    unequal counts: the full mask at the root, the individualized vertex
    below it.  Counts into any other cell are constant on every cell, and
    the dropped entry is the last of its block, so the signatures order the
    sub-cells exactly as signatures against every cell would, and the input
    cell order is preserved for unsplit cells.
    """
    while splitters:
        out: _Cells = []
        split: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            # one splitter, the common case below the root: a bare count
            # orders like its 1-tuple and saves a tuple per vertex
            groups: dict[int | tuple[int, ...], list[int]] = {}
            if len(splitters) == 1:
                m = splitters[0]
                for v in cell:
                    groups.setdefault((rows[v] & m).bit_count(), []).append(v)
            else:
                for v in cell:
                    row = rows[v]
                    sig = tuple([(row & m).bit_count() for m in splitters])
                    groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
                continue
            subs = [tuple(groups[sig]) for sig in sorted(groups)]
            out += subs
            split += [mask_of(c) for c in subs[:-1]]
        cells, splitters = out, split
    return cells


def _twin_classes(rows: tuple[int, ...]) -> list[int]:
    """First twin of each vertex, itself when no earlier vertex is its twin.

    Open twins share ``rows``, closed twins share ``rows`` plus themselves.
    No vertex has twins of both kinds, so together they form one partition.
    """
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    out = []
    for v, row in enumerate(rows):
        w = first_open.setdefault(row, v)
        if w == v:
            w = first_closed.setdefault(row | 1 << v, v)
        out.append(w)
    return out


def _search(g: Graph) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """Least code, a labeling (position -> original vertex) attaining it,
    and automorphisms of g that generate the orbits the search pruned."""
    n = g.n
    rows = g.rows
    twin = _twin_classes(rows)
    best_code: int | None = None
    best_perm: tuple[int, ...] = tuple(range(n))
    autos: list[tuple[int, ...]] = []

    def encode(perm: tuple[int, ...]) -> int:
        code = 0
        for i in range(n):
            ri = rows[perm[i]]
            for j in range(i + 1, n):
                code = code << 1 | (ri >> perm[j] & 1)
        return code

    def skippable(v: int, branched: list[int], prefix: list[int]) -> bool:
        for sigma in autos:
            if any(sigma[p] != p for p in prefix):
                continue
            for w in branched:
                if sigma[w] == v:
                    return True
        return False

    def walk(cells: _Cells, prefix: list[int], splitters: list[int]) -> None:
        nonlocal best_code, best_perm
        cells = _refine(rows, cells, splitters)
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            perm = tuple(c[0] for c in cells)
            code = encode(perm)
            if best_code is None or code < best_code:
                best_code = code
                best_perm = perm
            elif code == best_code:
                sigma = [0] * n
                inverse = [0] * n
                for a, b in zip(best_perm, perm):
                    sigma[a] = b
                    inverse[b] = a
                autos.append(tuple(sigma))
                autos.append(tuple(inverse))
            return
        cell = cells[split_at]
        branched: list[int] = []
        twins_seen: set[int] = set()
        for v in cell:
            if twin[v] in twins_seen:
                continue
            twins_seen.add(twin[v])
            if skippable(v, branched, prefix):
                continue
            branched.append(v)
            rest = tuple(x for x in cell if x != v)
            child = cells[:split_at] + [(v,), rest] + cells[split_at + 1 :]
            prefix.append(v)
            walk(child, prefix, [1 << v])
            prefix.pop()

    if not n:
        return 0, best_perm, []
    walk([tuple(range(n))], [], [(1 << n) - 1])
    # twin swaps are automorphisms the search skipped without recording
    swaps = []
    for v, w in enumerate(twin):
        if w != v:
            sigma = list(range(n))
            sigma[v], sigma[w] = w, v
            swaps.append(tuple(sigma))
    return best_code, best_perm, autos + swaps


def _checked_search(g: Graph) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonicalization caps at {CANONICAL_MAX_N} vertices, got {g.n}")
    return _search(g)


def canonical_code(g: Graph) -> int:
    """Canonical code as an int; equal for two graphs of one order iff isomorphic."""
    return _checked_search(g)[0]


def canonical_code_and_generators(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical code and automorphisms (vertex -> image) of the canonical
    graph ``graph_from_code(g.n, code)``, from one search.

    Every generator maps the canonical graph onto itself.  Together they
    generate the group the search pruned by: each pair of leaves found
    equal, both ways, and the transposition of each vertex with the first
    vertex of its twin class, all carried over from g's labeling.
    """
    code, perm, autos = _checked_search(g)
    position = [0] * g.n
    for i, v in enumerate(perm):
        position[v] = i
    return code, [tuple([position[sigma[v]] for v in perm]) for sigma in autos]


def graph_from_code(n: int, code: int) -> Graph:
    """Graph on n vertices whose adjacency bit string, in code order, is ``code``.

    Inverse of the code: on ``canonical_code(g)`` it gives the canonical graph.
    """
    rows = [0] * n
    for i in range(n - 2, -1, -1):
        for j in range(n - 1, i, -1):
            if code & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            code >>= 1
    if code:
        raise ValueError(f"code has bits beyond the {n * (n - 1) // 2} pairs of {n} vertices")
    return Graph(n, tuple(rows))


def canonical_graph(g: Graph) -> Graph:
    return graph_from_code(g.n, canonical_code(g))


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonical relabeling; equal iff isomorphic."""
    return graph6_encode(canonical_graph(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if max(g.n, h.n) > CANONICAL_MAX_N:
        raise ValueError(f"isomorphism test caps at {CANONICAL_MAX_N} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_code(g) == canonical_code(h)
