"""Slow reference implementations used to cross-check the package.

Everything here works by the most literal algorithm available: scan all
vertex subsets, all edge subsets, all assignments.  Nothing is shared
with the package internals, so agreement between the two is meaningful.
"""

import functools
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


# Edges between the parts of a join-family member, keyed by the two part
# letters in alphabetical order: A and B are the core parts (A the larger),
# X and Y the sides of the rest joined to A and to B, E a leftover vertex.
# True: every edge present; False: none; pairs not listed: anything goes.
_JOIN_PAIRS = {
    "AB": True, "AX": True, "BY": True,
    "AA": False, "BB": False, "XX": False, "YY": False,
    "AY": False, "AE": False, "BX": False, "BE": False,
}


@functools.lru_cache(maxsize=None)
def _labellings(parts: str) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(set(itertools.permutations(parts))))


def _obeys_join(g: Graph, label) -> bool:
    for u, v in itertools.combinations(range(g.n), 2):
        rule = _JOIN_PAIRS.get("".join(sorted(label[u] + label[v])))
        if rule is not None and g.has_edge(u, v) != rule:
            return False
    return True


def ref_family_membership(g: Graph, regular: bool, s: int, l: int) -> bool:
    """Is g in the regular (or else the capped) join family with core s and leaves l?

    Tries every labelling of the vertices by part letters, checks the edges
    between parts pair by pair, then the degrees inside the rest X, Y, E:
    regular, all l-1 bar one vertex at l-2 when (l-1)(n-s) is odd, and no
    triangle; capped, l-1 on the side T and at most l-1 on the side S.
    """
    if s < 0 or l < 1 or g.n < s:
        return False
    m, d = g.n - s, l - 1
    core = "A" * ((s + 1) // 2) + "B" * (s // 2)
    if regular:
        layouts = [(core + "X" * (m // 2) + "Y" * (m // 2) + "E" * (m % 2), None)]
    else:  # (parts, the letter of the side S)
        layouts = [
            (core + "X" * ((m + 1) // 2) + "Y" * (m // 2), "X"),
            (core + "X" * (m // 2) + "Y" * ((m + 1) // 2), "Y"),
        ]
    for parts, s_side in layouts:
        for label in _labellings(parts):
            if not _obeys_join(g, label):
                continue
            rest = [v for v in range(g.n) if label[v] in "XYE"]
            deg = {v: sum(g.has_edge(v, w) for w in rest) for v in rest}
            if regular:
                want = [d - 1] + [d] * (m - 1) if d * m % 2 else [d] * m
                pairs = itertools.combinations(range(m), 2)
                h = build_graph(m, [(i, j) for i, j in pairs if g.has_edge(rest[i], rest[j])])
                if sorted(deg.values()) == want and not ref_has_clique(h, 3):
                    return True
            elif all(deg[v] <= d if label[v] == s_side else deg[v] == d for v in rest):
                return True
    return False


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
