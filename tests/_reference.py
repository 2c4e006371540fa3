"""Slow reference implementations used to cross-check the package.

Everything here works by the most literal algorithm available: scan all
vertex subsets, all edge subsets, all assignments.  Nothing is shared
with the package internals, so agreement between the two is meaningful.
"""

import itertools
import random

from turanstar import Clique, Graph, Matching, StarForest, build_graph


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


def _distinct_reps(pools, need):
    # pick `need` distinct vertices from every pool, pools may overlap
    slots = []
    for pool in pools:
        slots.extend([pool] * need)
    used = set()

    def rec(i):
        if i == len(slots):
            return True
        for x in slots[i]:
            if x not in used:
                used.add(x)
                if rec(i + 1):
                    return True
                used.discard(x)
        return False

    return rec(0)


def ref_has_star_forest(g: Graph, copies: int, leaves: int) -> bool:
    if copies == 0:
        return True
    if leaves == 0:
        return g.n >= copies
    for centers in itertools.combinations(range(g.n), copies):
        cset = set(centers)
        pools = []
        for c in centers:
            pool = [v for v in g.neighbors(c) if v not in cset]
            if len(pool) < leaves:
                break
            pools.append(pool)
        else:
            if _distinct_reps(pools, leaves):
                return True
    return False


def ref_is_free(g: Graph, family) -> bool:
    for pat in family.patterns:
        if isinstance(pat, Clique) and ref_has_clique(g, pat.size):
            return False
        if isinstance(pat, Matching) and ref_max_matching(g) >= pat.edges:
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
        g = g.remove_edge(*rng.choice(tri))
