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
   isomorphism-equivariant.  The root pass buckets the vertices by degree,
   in ascending order, which is what a pass against the one cell of all
   vertices gives, and refines from there against every bucket but the
   last.  So the isolated vertices take the first positions of every
   labeling, and the exhaustive search relies on it to read them off a
   code.  If the root partition is discrete, its labeling is the walk's
   only leaf.  Twins swap under an automorphism, which keeps their degrees
   and so every root cell, so a discrete root has no twins.  Twin classes
   are found once, before the walk.  A cell is an int vertex mask, its
   vertices taken in ascending order; every cell of an ordered partition
   refined from the ascending root lists its vertices in that order
   anyway, so masks change no code and no labeling.
2. While some cell has two or more vertices, individualize each candidate
   vertex of the first such cell in ascending order and recurse.  Every
   discrete partition reached is a leaf, which encodes one adjacency bit
   string: the upper triangle row by row, first bit most significant.  The
   minimum over all of them is the canonical code.  One recursive walk,
   whose first call refines the root, does steps 1 to 4 over one explicit
   state: the least code, its labeling, the recorded automorphisms and the
   twin classes.
3. Twins, two vertices whose neighborhoods agree apart from each other,
   swap under an automorphism that fixes every other vertex, and so the
   current prefix.  Only the first vertex of each twin class in a cell is
   individualized; its twins would repeat its codes.
4. When a leaf's code equals the least found so far, the position-wise
   map from the best leaf's labeling to its labeling is an automorphism.
   It is recorded once, and the skip test reads it both ways: a recorded
   automorphism that fixes the current branch prefix pointwise, and so
   its inverse, lets the search skip each sibling branch that either of
   them maps a branched vertex onto, as such a branch can only repeat
   known codes.

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
from .graphs import Graph, bits

CANONICAL_MAX_N = 16
# Names the labeling this module computes.  Bump it with any change that
# moves a canonical code, so strings stored under another labeling are
# never read as canonical.
LABELLING_VERSION = 1


def _refine(rows: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition of vertex masks.

    Each cell is split by the tuple of its vertices' neighbor counts into
    the ``splitters``, masks of cells in partition order; sub-cells are
    ordered by that count signature.  The next pass refines against the
    sub-cells this pass split off, in partition order, bar the last
    sub-cell of each split: a vertex's count into it follows from its
    count into the old cell.  Repeats until no cell splits.

    The caller passes every cell into which some cell's vertices may see
    unequal counts: at the root, the degree buckets bar the last; below
    it, the individualized vertex.  Counts into any other cell are constant
    on every cell, and the dropped entry is the last of its block, so the
    signatures order the sub-cells exactly as signatures against every cell
    would, and the input cell order is preserved for unsplit cells.

    Cells are vertex masks, read in ascending vertex order.  A split, and
    an individualization in the search, keeps the relative order of the
    vertices it leaves together, and the root buckets split the ascending
    vertex list, so a cell kept as an ordered vertex list would be
    ascending too: masks give the same partitions, the same branching
    order, and so the same codes and labelings.  A split against one
    vertex is two ANDs with its row.
    """
    while splitters:
        out: list[int] = []
        split: list[int] = []
        if len(splitters) == 1 and not splitters[0] & splitters[0] - 1:
            # one vertex w, the common case below the root: count 0 (off
            # w's row) orders before count 1 (on it)
            row = rows[splitters[0].bit_length() - 1]
            for cell in cells:
                off = cell & ~row
                if off and off != cell:
                    out += (off, cell & row)
                    split.append(off)
                else:
                    out.append(cell)
            cells, splitters = out, split
            continue
        for cell in cells:
            if not cell & cell - 1:
                out.append(cell)
                continue
            # counts stay below 32 (CANONICAL_MAX_N is 16), so 5 bits a
            # count pack the signature into an int that orders like its tuple
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = rows[low.bit_length() - 1]
                sig = 0
                for m in splitters:
                    sig = sig << 5 | (row & m).bit_count()
                groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                out.append(cell)
                continue
            subs = [groups[sig] for sig in sorted(groups)]
            out += subs
            split += subs[:-1]
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
    # a first pass against the one cell of all vertices would split it into
    # these buckets and refine on against every bucket but the last
    buckets = [0] * g.n
    for v, row in enumerate(g.rows):
        buckets[row.bit_count()] |= 1 << v
    root = [cell for cell in buckets if cell]
    # the least code, a labeling attaining it, the recorded automorphisms,
    # and the twin classes, found before the walk: a discrete root has none
    state: list = [None, (), [], _twin_classes(g.rows)]
    _walk(g.rows, root, root[:-1], [], state)
    code, perm, autos, twin = state
    # twin swaps are automorphisms the search skipped without recording
    for v, w in enumerate(twin):
        if w != v:
            sigma = list(range(g.n))
            sigma[v], sigma[w] = w, v
            autos.append(tuple(sigma))
    return code, perm, autos


def _walk(
    rows: tuple[int, ...], cells: list[int], splitters: list[int], prefix: list[int], state: list
) -> None:
    """Refine, then either record the leaf or branch on the first non-singleton cell."""
    cells = _refine(rows, cells, splitters)
    split_at = next((i for i, c in enumerate(cells) if c & c - 1), None)
    if split_at is None:
        _leaf(rows, tuple([c.bit_length() - 1 for c in cells]), state)
        return
    autos, twin = state[2], state[3]
    cell = cells[split_at]
    branched: list[int] = []
    twins_seen = 0  # mask of the twin classes already branched on or skipped
    for v in bits(cell):
        if twins_seen >> twin[v] & 1:
            continue
        twins_seen |= 1 << twin[v]
        if autos and _skippable(v, branched, prefix, autos):
            continue
        branched.append(v)
        child = cells[:split_at] + [1 << v, cell ^ 1 << v] + cells[split_at + 1 :]
        prefix.append(v)
        _walk(rows, child, [1 << v], prefix, state)
        prefix.pop()


def _leaf(rows: tuple[int, ...], perm: tuple[int, ...], state: list) -> None:
    """Encode a discrete partition's labeling and compare it with the best so far."""
    code = 0
    for i in range(len(perm) - 1):
        ri = rows[perm[i]]
        for w in perm[i + 1 :]:
            code = code << 1 | (ri >> w & 1)
    if state[0] is None or code < state[0]:
        state[0], state[1] = code, perm
    elif code == state[0]:
        sigma = [0] * len(perm)
        for a, b in zip(state[1], perm):
            sigma[a] = b
        state[2].append(tuple(sigma))


def _skippable(v: int, branched: list[int], prefix: list[int], autos: list[tuple[int, ...]]) -> bool:
    """Whether a recorded automorphism fixing the prefix, or its inverse,
    maps a branched vertex onto v."""
    fixing = (sigma for sigma in autos if all(sigma[p] == p for p in prefix))
    return any(sigma[w] == v or sigma[v] == w for sigma in fixing for w in branched)


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
    generate the group the search pruned by: each leaf found equal to
    the best, once, and the transposition of each vertex with the first
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
    pairs = n * (n - 1) // 2
    if code < 0 or code >> pairs:
        raise ValueError(f"code has bits beyond the {pairs} pairs of {n} vertices")
    rows = [0] * n
    shift = pairs
    for i in range(n - 1):
        # row i's pairs i-(i+1) .. i-(n-1) are the next n - 1 - i bits, so
        # bit b of that block is the pair i-(n-1-b)
        shift -= n - 1 - i
        block = code >> shift & (1 << n - 1 - i) - 1
        while block:
            low = block & -block
            block ^= low
            j = n - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def canonical_graph(g: Graph) -> Graph:
    return graph_from_code(g.n, canonical_code(g))


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonical relabeling; equal iff isomorphic."""
    return graph6_encode(canonical_graph(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if max(g.n, h.n) > CANONICAL_MAX_N:
        raise ValueError(f"isomorphism test caps at {CANONICAL_MAX_N} vertices")
    if g.rows == h.rows:  # the identity is an isomorphism
        return True
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_code(g) == canonical_code(h)
