"""Slow reference implementations used to cross-check the package.

Everything here works by the most literal algorithm available: scan all
vertex subsets, all edge subsets, all assignments.  Nothing is shared
with the package internals, so agreement between the two is meaningful.
The level check, ``labelled_count_failures``, takes the package's
detector and the canonical search's generators as given and computes
group orders its own way; what it checks is the search's class sets.
"""

import itertools
import math
import random

from turanstar import (
    Clique,
    Graph,
    StarForest,
    build_graph,
    canonical_code,
    enumerate_free_graphs,
    graph_from_code,
    is_family_free,
    mask_of,
)
from turanstar.canonical import canonical_code_and_generators


def ref_has_clique(g: Graph, size: int) -> bool:
    if size <= 1:
        return g.n >= size
    for combo in itertools.combinations(range(g.n), size):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def ref_max_matching(g: Graph) -> int:
    # the lowest remaining vertex is either left unmatched or paired with
    # one of its remaining neighbors
    def best(remaining):
        if not remaining:
            return 0
        v, rest = remaining[0], remaining[1:]
        result = best(rest)
        for u in rest:
            if g.has_edge(v, u):
                result = max(result, 1 + best([w for w in rest if w != u]))
        return result

    return best(list(range(g.n)))


def ref_has_star_forest(g: Graph, copies: int, leaves: int) -> bool:
    # place the centers in increasing order, each with a `leaves`-set of its
    # neighbors, no vertex used twice, while enough vertices are left
    def place(left, first, used):
        if left == 0:
            return True
        if len(used) + left * (leaves + 1) > g.n:
            return False
        for c in range(first, g.n):
            if c not in used:
                free = [x for x in g.neighbors(c) if x not in used]
                for pick in itertools.combinations(free, leaves):
                    if place(left - 1, c + 1, used | {c, *pick}):
                        return True
        return False

    return place(copies, 0, frozenset())


def ref_is_free(g: Graph, family) -> bool:
    for pat in family.patterns:
        if isinstance(pat, Clique) and ref_has_clique(g, pat.size):
            return False
        if isinstance(pat, StarForest) and ref_has_star_forest(
            g, pat.copies, pat.leaves
        ):
            return False
    return True


def ref_ex(n: int, family) -> int:
    """Max edges over all labeled n-vertex graphs avoiding the family."""
    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for bitset in range(1 << len(pairs)):
        if bitset.bit_count() <= best:
            continue
        g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bitset >> i & 1])
        if ref_is_free(g, family):
            best = g.edge_count
    return best


def _joined(g: Graph, p, q) -> bool:
    return all(g.has_edge(u, v) for u in p for v in q)


def _apart(g: Graph, p, q) -> bool:
    return not any(g.has_edge(u, v) for u in p for v in q)


def _parts(left: tuple[int, ...], size: int):
    """Every choice of `size` vertices from `left`, with the vertices left over."""
    for part in itertools.combinations(left, size):
        yield part, tuple(v for v in left if v not in part)


def _join_members(g: Graph, sizes: tuple[int, ...]):
    """Every split (A, B, X, Y, E) of g's vertices, of these sizes, whose core
    A, B spans K_{|A|,|B|}, with A completely joined to X, B to Y, and no
    other edges between the core and the rest X, Y, E."""
    for a, left in _parts(tuple(range(g.n)), sizes[0]):
        if not _apart(g, a, a):
            continue
        for b, rest in _parts(left, sizes[1]):
            if not (_apart(g, b, b) and _joined(g, a, b)):
                continue
            for x, left_x in _parts(rest, sizes[2]):
                if not (_joined(g, a, x) and _apart(g, b, x)):
                    continue
                for y, e in _parts(left_x, sizes[3]):
                    if _joined(g, b, y) and _apart(g, a, y + e) and _apart(g, b, e):
                        yield a, b, x, y, e


def ref_family_membership(g: Graph, regular: bool, s: int, l: int) -> bool:
    """Is g in the regular (or else the capped) join family with core s and leaves l?

    Checks the families' definition over every split of the vertices into
    parts.  The core parts A and B, of ceil(s/2) and floor(s/2) vertices,
    span K_{|A|,|B|}; A is completely joined to the rest's side X, B to the
    side Y, and the core has no other edges into the rest.  Regular: X and
    Y have floor(m/2) of the m = n - s rest vertices and E the odd one;
    every rest degree is l-1, bar one at l-2 when (l-1)m is odd; g is
    triangle-free.  Capped: X and Y are the rest's sides S and T, in either
    order, with ceil(m/2) and floor(m/2) vertices and no E; the rest is
    bipartite between them, T vertices have rest degree l-1 and S vertices
    at most l-1.
    """
    if s < 0 or l < 1 or g.n < s:
        return False
    m, d = g.n - s, l - 1
    core = ((s + 1) // 2, s // 2)
    if regular:
        layouts = [(core + (m // 2, m // 2), None)]
    else:  # (part sizes, which side is S)
        layouts = [(core + ((m + 1) // 2, m // 2), "X"), (core + (m // 2, (m + 1) // 2), "Y")]
    for sizes, s_side in layouts:
        for a, b, x, y, e in _join_members(g, sizes):
            rest = x + y + e
            deg = {v: sum(g.has_edge(v, w) for w in rest) for v in rest}
            if regular:
                want = [d - 1] + [d] * (m - 1) if d * m % 2 else [d] * m
                if sorted(deg.values()) == want and not ref_has_clique(g, 3):
                    return True
            elif _apart(g, x, x) and _apart(g, y, y):
                s_part, t_part = (x, y) if s_side == "X" else (y, x)
                if all(deg[v] <= d for v in s_part) and all(deg[v] == d for v in t_part):
                    return True
    return False


def ref_expand_codes(n: int, family, codes) -> tuple[set[int], int]:
    """Canonical codes of the free one-edge augmentations of each coded
    graph, trying every non-edge, and the number of non-edges tried."""
    out: set[int] = set()
    visited = 0
    for code in codes:
        g = graph_from_code(n, code)
        for u, v in itertools.combinations(range(n), 2):
            if not g.has_edge(u, v):
                visited += 1
                h = g.add_edge(u, v)
                if is_family_free(h, family):
                    out.add(canonical_code(h))
    return out, visited


def ref_graph_from_code(n: int, code: int) -> Graph:
    """Graph whose pairs u < v, in lexicographic order, read the bits of
    ``code`` from the most significant of its C(n, 2) bits down."""
    pairs = list(itertools.combinations(range(n), 2))
    if not 0 <= code < 1 << len(pairs):
        raise ValueError(f"code {code} is no string of {len(pairs)} bits")
    return build_graph(n, [pair for i, pair in enumerate(pairs) if code >> len(pairs) - 1 - i & 1])


def ref_refine(rows: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement against every cell on every pass.

    The canonical search's refinement before it counted only against the
    cells split in the previous pass; its output is the same partition.
    """
    while True:
        masks = [mask_of(c) for c in cells]
        out: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(tuple(groups[sig]))
        cells = out
        if not changed:
            return cells


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation v -> p[q[v]]: q first, then p."""
    return tuple(p[v] for v in q)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for v, image in enumerate(p):
        out[image] = v
    return tuple(out)


def group_order(n: int, generators) -> int:
    """Order of the group the permutations (vertex -> image) generate on
    range(n), by a plain deterministic Schreier-Sims.

    Level i keeps a base point, the strong generators that fix the base
    points before it, and its base point's orbit under them, each point
    with a transversal element that takes the base point there.  A level
    is complete once every Schreier generator of its orbit sifts to the
    identity through the levels below; one that does not adds its residue
    where the sift stopped, and the check goes on from there.  The order
    is the product of the orbit sizes.
    """
    identity = tuple(range(n))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    orbits: list[dict[int, tuple[int, ...]]] = []

    def orbit(i: int) -> dict[int, tuple[int, ...]]:
        transversal = {base[i]: identity}
        queue = [base[i]]
        for point in queue:
            for s in strong[i]:
                if s[point] not in transversal:
                    transversal[s[point]] = _compose(s, transversal[point])
                    queue.append(s[point])
        return transversal

    def sift(g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        for i in range(start, len(base)):
            u = orbits[i].get(g[base[i]])
            if u is None:
                return g, i
            g = _compose(_inverse(u), g)
        return g, len(base)

    def add(g: tuple[int, ...], first: int, last: int) -> None:
        # g fixes base[:last], so it joins the strong generators of levels first..last
        if last == len(base):
            base.append(next(v for v in range(n) if g[v] != v))
            strong.append([])
            orbits.append({})
        for i in range(first, last + 1):
            strong[i].append(g)
            orbits[i] = orbit(i)

    def unsifted(i: int) -> tuple[tuple[int, ...], int] | None:
        # a Schreier generator of level i that does not sift through the
        # levels below: its residue and the level where the sift stopped
        for point, u in orbits[i].items():
            for s in strong[i]:
                h, j = sift(_compose(_inverse(orbits[i][s[point]]), _compose(s, u)), i + 1)
                if h != identity:
                    return h, j
        return None

    for g in map(tuple, generators):
        if g != identity:
            add(g, 0, 0)
    i = len(base) - 1
    while i >= 0:
        residue = unsifted(i)
        if residue is None:
            i -= 1
        else:
            add(residue[0], i + 1, residue[1])
            i = residue[1]
    return math.prod(len(o) for o in orbits)


def free_levels(n: int, family) -> list[list[Graph]]:
    """The oracle's family-free classes on n vertices, one list per edge count."""
    levels: list[list[Graph]] = []
    for g in enumerate_free_graphs(n, family):
        levels.extend([] for _ in range(g.edge_count + 1 - len(levels)))
        levels[g.edge_count].append(g)
    return levels


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """The canonical search's automorphism generators, which act on g's canonical graph."""
    return canonical_code_and_generators(g)[1]


def free_additions(g: Graph, family) -> int:
    """c(g): the non-edges uv of g for which g + uv is family-free."""
    pairs = itertools.combinations(range(g.n), 2)
    return sum(is_family_free(g.add_edge(u, v), family) for u, v in pairs if not g.has_edge(u, v))


def labelled_count_failures(family, levels, generators=automorphism_generators) -> list[int]:
    """Edge counts e at which the classes fail to count the labelled graphs two ways.

    The family is closed under edge deletion, so deleting the marked edge
    of a labelled free graph with e + 1 edges is a bijection onto the
    labelled free graphs with e edges and one marked non-edge whose
    addition stays free.  By orbit-stabiliser, a class G on n vertices has
    n!/|Aut G| labellings, and so
    (e + 1) * sum(n!/|Aut H| for H at e + 1) = sum(n!/|Aut G| * c(G) for G at e).
    The level past the last is empty, so the last level's classes must
    admit no free addition.  A missing class, a class listed twice, a class
    that is not free and generators of too small a group each break it.
    It reads the classes, their generators and the detector, and none of
    the search's orbit cut, neighbour-degree sums, masks or dedup.
    """
    labellings = [[math.factorial(g.n) // group_order(g.n, generators(g)) for g in level] for level in levels]
    failures = []
    for e, level in enumerate(levels):
        above = (e + 1) * sum(labellings[e + 1]) if e + 1 < len(levels) else 0
        below = sum(count * free_additions(g, family) for g, count in zip(level, labellings[e]))
        if above != below:
            failures.append(e)
    return failures


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    """g without the edge uv, if it has one."""
    return build_graph(g.n, [e for e in g.edges() if set(e) != {u, v}])


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are g's non-edges."""
    return build_graph(g.n, [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def strip_triangles(g: Graph, rng: random.Random) -> Graph:
    """Delete one edge of some triangle until none remain."""
    while True:
        tri = None
        for u in range(g.n):
            for v in g.neighbors(u):
                if v <= u:
                    continue
                common = g.rows[u] & g.rows[v]
                if common:
                    w = common.bit_length() - 1
                    tri = [(u, v), (u, w), (v, w)]
                    break
            if tri:
                break
        if not tri:
            return g
        g = remove_edge(g, *rng.choice(tri))
