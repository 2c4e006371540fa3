import random
from collections import Counter
from itertools import combinations, product

import networkx as nx
import pytest

from turanstar import (
    Clique,
    ForbiddenFamily,
    StarForest,
    bits,
    build_graph,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    contains_clique,
    contains_star_forest,
    empty_graph,
    induced_subgraph,
    is_family_free,
    join,
    mask_of,
    max_matching_size,
    turan_graph,
)
from turanstar.detectors import _centre_sets

from _reference import (
    complement,
    random_graph,
    ref_has_clique,
    ref_has_star_forest,
    ref_is_free,
    ref_max_matching,
    remove_edge,
)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_contains_clique_fixed():
    assert contains_clique(turan_graph(6, 3), 3)
    assert not contains_clique(turan_graph(6, 3), 4)
    assert not contains_clique(cycle(5), 3)
    assert contains_clique(cycle(3), 3)
    assert contains_clique(empty_graph(1), 1)
    with pytest.raises(ValueError):
        contains_clique(empty_graph(3), 0)


def test_max_clique_size_fixed():
    # the empty graph has clique number 0
    assert not contains_clique(empty_graph(0), 1)
    # a clique as large as the clique number, and none one larger
    for g, omega in (
        (empty_graph(5), 1),
        (turan_graph(12, 4), 4),
        (cycle(7), 2),
        # join adds one to the clique number of each side
        (join(turan_graph(4, 2), cycle(5)), 2 + 2),
        # dense multipartite graphs, where proving absence is slowest
        (turan_graph(40, 5), 5),
        (turan_graph(62, 4), 4),
    ):
        assert contains_clique(g, omega)
        assert not contains_clique(g, omega + 1)


def test_max_matching_fixed():
    assert max_matching_size(empty_graph(6)) == 0
    assert max_matching_size(cycle(6)) == 3
    assert max_matching_size(cycle(7)) == 3
    assert max_matching_size(complete_bipartite(2, 5)) == 2
    assert max_matching_size(turan_graph(9, 3)) == 4
    # the classic blossom case: odd cycles pinned together
    g = build_graph(
        8,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 6), (6, 7)],
    )
    assert max_matching_size(g) == ref_max_matching(g)


def test_contains_star_forest_fixed():
    # a 5-leaf star holds any single star up to S_5 but no two disjoint ones
    star = complete_bipartite(1, 5)
    assert contains_star_forest(star, 1, 5)
    assert not contains_star_forest(star, 1, 6)
    assert not contains_star_forest(star, 2, 1)
    # two disjoint 2-stars need six vertices
    assert contains_star_forest(cycle(6), 2, 2)
    assert not contains_star_forest(cycle(5), 2, 2)
    # center degree counts neighbors outside the other centers
    path4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert contains_star_forest(path4, 2, 1)
    assert not contains_star_forest(path4, 2, 2)
    with pytest.raises(ValueError):
        contains_star_forest(empty_graph(3), 3, 0)
    with pytest.raises(ValueError):
        contains_star_forest(empty_graph(3), 0, 1)


def test_star_forest_shared_neighbor_pool():
    # two centers whose only leaves come from one shared pair: K_{2,2} plus
    # nothing else gives both centers degree two but only two leaf slots
    g = complete_bipartite(2, 2)
    assert not contains_star_forest(g, 2, 2)
    assert contains_star_forest(g, 2, 1)


def test_family_free_fixed():
    fam = ForbiddenFamily((Clique(3), StarForest(2, 1)))
    assert is_family_free(complete_bipartite(1, 6), fam)
    assert not is_family_free(cycle(6), fam)
    assert not is_family_free(cycle(3), fam)
    fam2 = ForbiddenFamily((Clique(4), StarForest(2, 2)))
    assert is_family_free(turan_graph(5, 3), fam2) == ref_is_free(
        turan_graph(5, 3), fam2
    )


def test_family_spec_round_trip():
    fam = ForbiddenFamily((StarForest(2, 3), Clique(4), StarForest(2, 1)))
    text = fam.spec()
    assert text == "clique:4,matching:2,starforest:2x3"
    assert ForbiddenFamily.parse(text) == fam
    assert ForbiddenFamily.parse("clique:3") == ForbiddenFamily((Clique(3),))
    assert ForbiddenFamily.parse("clique:3,,matching:2") == ForbiddenFamily.parse("clique:3,matching:2")
    twice = ForbiddenFamily.parse("clique:3,clique:3")
    assert twice == ForbiddenFamily.parse("clique:3") and twice.spec() == "clique:3"
    for pat in (Clique(4), Clique(12), StarForest(2, 1), StarForest(2, 3), StarForest(10, 25)):
        assert ForbiddenFamily.parse(pat.spec()) == ForbiddenFamily((pat,))
    # the numbers are ASCII decimal digits, where int() alone would also
    # read an underscore, a sign, inner spaces and other scripts' digits
    for text in ("clique:3_0", "clique: 3", "clique:+3", "clique:-3", "clique:\u0663",
                 "clique:\uff13", "starforest:2x 3", "matching:0_1"):
        with pytest.raises(ValueError, match="bad pattern"):
            ForbiddenFamily.parse(text)
    with pytest.raises(ValueError):
        ForbiddenFamily.parse("clique")
    with pytest.raises(ValueError):
        ForbiddenFamily.parse("widget:3")
    with pytest.raises(ValueError):
        ForbiddenFamily.parse("starforest:2")
    with pytest.raises(ValueError):
        ForbiddenFamily(())
    # a matching is the one-leaf star forest: both specs give one pattern,
    # which prints as a matching and sorts ahead of the other star forests
    assert ForbiddenFamily.parse("starforest:3x1") == ForbiddenFamily.parse("matching:3")
    assert ForbiddenFamily.parse("starforest:3x1").spec() == "matching:3"
    both = ForbiddenFamily.parse("clique:3,matching:2,starforest:2x1")
    assert both.patterns == (Clique(3), StarForest(2, 1)) and both.spec() == "clique:3,matching:2"
    assert ForbiddenFamily.parse("matching:2,starforest:1x3").spec() == "matching:2,starforest:1x3"
    with pytest.raises(ValueError, match="matching:0"):
        ForbiddenFamily.parse("matching:0")


def test_family_validation():
    with pytest.raises(ValueError):
        ForbiddenFamily((Clique(1),))
    with pytest.raises(ValueError):
        ForbiddenFamily((StarForest(1, 0),))
    with pytest.raises(ValueError):
        ForbiddenFamily((StarForest(0, 2),))
    with pytest.raises(ValueError, match="unknown pattern"):
        ForbiddenFamily((Clique(3), "starforest:2x2"))


def _dense_clique_inputs():
    """Dense graphs with their k, asked about K_k and K_{k+1}: T(n, k) and
    the builders' outputs for K_{k+1}-free families."""
    for n in range(1, 15):
        for k in range(1, 6):
            yield turan_graph(n, k), k
        for k in range(2, 6):
            for s in range(n + 1):
                yield clique_matching_extremal(n, k, s), k
        for k in range(3, 6):
            for l in range(2, 5):
                for s in range(n - (l - 1) ** 2 - 1):
                    yield clique_star_forest_extremal(n, k, s, l), k


def test_clique_detector_random_cross_check():
    rng = random.Random(101)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.2, 0.5, 0.8]))
        for r in range(1, 7):
            assert contains_clique(g, r) == ref_has_clique(g, r), (
                g.edges(),
                r,
            )
    for g, k in _dense_clique_inputs():
        for r in (k, k + 1):
            assert contains_clique(g, r) == ref_has_clique(g, r), (g.n, g.edges(), r)


def test_matching_detector_random_cross_check():
    rng = random.Random(103)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.2, 0.5, 0.8]))
        assert max_matching_size(g) == ref_max_matching(g), g.edges()


def test_matching_above_dp_cutoff():
    # blossom contraction serves every size; check it past the n <= 8 reach
    # of the literal reference against an unrelated implementation
    rng = random.Random(107)
    samples = [random_graph(rng, rng.randrange(14, 18), 0.3) for _ in range(30)]
    rng_small = random.Random(108)
    samples += [random_graph(rng_small, rng_small.randrange(9, 14), 0.3) for _ in range(30)]
    # sparse graphs up to the graph6 cap, where maximum matchings leave
    # vertices out and blossoms occur
    rng_sparse = random.Random(110)
    for _ in range(30):
        n = rng_sparse.randrange(30, 63)
        samples.append(random_graph(rng_sparse, n, rng_sparse.uniform(1, 3) / n))
    samples += [turan_graph(61, 3), complete_bipartite(31, 31)]
    for g in samples:
        ng = nx.Graph(g.edges())
        ng.add_nodes_from(range(g.n))
        want = len(nx.max_weight_matching(ng, maxcardinality=True))
        assert max_matching_size(g) == want
        # the one-leaf star forest asks the same question, at nu and one past it
        assert StarForest(want, 1).occurs_in(g) and not StarForest(want + 1, 1).occurs_in(g)


def test_star_forest_detector_random_cross_check():
    rng = random.Random(109)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.25, 0.5, 0.75]))
        for copies in range(1, 4):
            for leaves in range(1, 4):
                got = contains_star_forest(g, copies, leaves)
                want = ref_has_star_forest(g, copies, leaves)
                assert got == want, (g.edges(), copies, leaves)


def test_family_free_random_cross_check():
    rng = random.Random(113)
    families = [
        ForbiddenFamily((Clique(3), StarForest(2, 1))),
        ForbiddenFamily((Clique(3), StarForest(2, 2))),
        ForbiddenFamily((Clique(4), StarForest(1, 3))),
        ForbiddenFamily((StarForest(3, 1),)),
        ForbiddenFamily((StarForest(3, 2),)),
    ]
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        for fam in families:
            assert is_family_free(g, fam) == ref_is_free(g, fam)
            for pat in fam.patterns:
                assert pat.occurs_in(g) == (not ref_is_free(g, ForbiddenFamily((pat,))))


# matching:S and starforest:Sx1 parse to one pattern; the first spelling is
# checked against the matching reference, the second against the star forest one
EDGE_LOCAL_SPECS = (
    [f"clique:{r}" for r in range(2, 6)]
    + [f"matching:{s}" for s in range(1, 5)]
    + [f"starforest:{c}x{l}" for c in range(1, 5) for l in range(1, 5)]
)


def _occurs_with_the_edge(pattern, g, u, v, as_matching=False):
    """The verdict about g + uv, from the literal references."""
    h = g.add_edge(u, v)
    if isinstance(pattern, Clique):
        return ref_has_clique(h, pattern.size)
    if as_matching:
        return ref_max_matching(h) >= pattern.copies
    return ref_has_star_forest(h, pattern.copies, pattern.leaves)


def _free_graphs(pattern):
    """The pattern-free atlas graphs on up to six vertices, then seeded
    random graphs on up to ten vertices stripped of random edges until free,
    then for a star forest planted free graphs on up to 20 vertices."""
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        if not pattern.occurs_in(g):
            yield g
    rng = random.Random(127)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(7, 11), rng.choice([0.3, 0.5, 0.7]))
        while pattern.occurs_in(g):
            g = remove_edge(g, *rng.choice(g.edges()))
        yield g
    if isinstance(pattern, StarForest):
        yield from _planted_star_forest_free(pattern.copies, pattern.leaves)


def _planted_star_forest_free(copies, leaves):
    """Graphs free of c = ``copies`` disjoint S_l, l = ``leaves``, on
    c(l + 1) to 20 vertices, where the stripped random graphs above are too
    small to hold a copy once an edge is added: c - 1 disjoint S_l, one
    S_{l-1} and spare isolated vertices, shuffled, then seeded extra edges,
    each kept only while the literal reference finds no copy."""
    rng = random.Random(131)
    for _ in range(6):
        n = rng.randrange(copies * (leaves + 1), 21)
        at = rng.sample(range(n), n)
        g = build_graph(
            n,
            [
                (at[i * (leaves + 1)], at[i * (leaves + 1) + j])
                for i in range(copies)
                for j in range(1, leaves + (i < copies - 1))
            ],
        )
        pairs = complement(g).edges()
        for u, v in rng.sample(pairs, min(8, len(pairs))):
            h = g.add_edge(u, v)
            if not ref_has_star_forest(h, copies, leaves):
                g = h
        yield g


def _blocked(pattern, g, s):
    """The oracle's verdicts on g plus a new vertex joined to s and x, for
    every x outside s, as a mask, where g and g plus a vertex joined to s
    are free of the pattern: a clique answers by its neighbourhood mask, a
    star forest by its leaf mask and its new centre test on the whole set,
    which a one-leaf star, whose centre is a leaf too, does not need.  The
    bits of s mean nothing."""
    if isinstance(pattern, Clique):
        return pattern.neighbourhood_mask(g, s)
    blocked = pattern.leaf_mask(g, (1 << g.n) - 1)
    if pattern.leaves > 1:
        blocked |= mask_of(x for x in range(g.n) if pattern.occurs_with_new_centre(g, s | 1 << x))
    return blocked


def _split_off(g, u):
    """g - u, with the vertices above u moved down one, and u's
    neighbourhood there: g is that graph plus a vertex joined to it."""
    row = g.rows[u]
    return induced_subgraph(g, (1 << g.n) - 1 ^ 1 << u), row & (1 << u) - 1 | row >> u + 1 << u


@pytest.mark.parametrize("spec", EDGE_LOCAL_SPECS)
def test_edge_local_answer_matches_adding_the_edge(spec):
    # any copy in g + uv uses uv, so either end of it can be read as the
    # oracle's new vertex: u joined to its neighbourhood in g - u, and v
    (pattern,) = ForbiddenFamily.parse(spec).patterns
    as_matching = spec.startswith("matching:")
    positives = 0
    for g in _free_graphs(pattern):
        for u in range(g.n):
            h, s = _split_off(g, u)
            blocked = _blocked(pattern, h, s)
            for v in range(g.n):
                if v != u and not g.has_edge(u, v):
                    want = _occurs_with_the_edge(pattern, g, u, v, as_matching)
                    assert bool(blocked >> v - (v > u) & 1) == want, (g.n, g.edges(), u, v)
                    positives += want
    # a cell that only ever compares False with False checks nothing
    assert positives


def _assert_edge_mask_is_exact(pattern, edge_mask):
    # edge_mask(g, u) read on g itself, with no vertex split off, must be
    # exact from either end of every non-edge
    positives = 0
    for g in _free_graphs(pattern):
        for u in range(g.n):
            mask = edge_mask(g, u)
            for v in range(g.n):
                if v != u and not g.has_edge(u, v):
                    want = _occurs_with_the_edge(pattern, g, u, v)
                    assert bool(mask >> v & 1) == want, (g.n, g.edges(), u, v)
                    positives += want
    assert positives


@pytest.mark.parametrize("size", range(2, 6))
def test_clique_edge_mask_matches_adding_the_edge(size):
    # a copy in g + uv is u, v and a K_{size-2} of common neighbours, so
    # the neighbourhood mask at u's own row gives every such v: a new
    # vertex joined to that row is a twin of u and leaves g free
    pattern = Clique(size)
    _assert_edge_mask_is_exact(pattern, lambda g, u: pattern.neighbourhood_mask(g, g.rows[u]))


@pytest.mark.parametrize("leaves", range(1, 5))
def test_star_forest_edge_mask_matches_adding_the_edge(leaves):
    # one star in g + uv is centred at u or v with the edge as a leaf, so
    # g + uv holds it exactly when the leaf mask of g meets {u, v}
    pattern = StarForest(1, leaves)

    def edge_mask(g, u):
        full = (1 << g.n) - 1
        return full if pattern.leaf_mask(g, 1 << u) else pattern.leaf_mask(g, full)

    _assert_edge_mask_is_exact(pattern, edge_mask)


@pytest.mark.parametrize(
    "pattern",
    [Clique(size) for size in range(2, 6)]
    + [StarForest(1, leaves) for leaves in range(1, 6)]
    + [StarForest(copies, leaves) for copies, leaves in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2))],
    ids=str,
)
def test_neighbourhood_mask_matches_adding_a_vertex(pattern):
    # vertex extension grows a new vertex's neighbourhood one vertex at a
    # time, in increasing order, and drops a vertex whose verdict blocks
    # the set it makes; so it admits a set exactly when the graph with a
    # new vertex joined to it is free, asked literally of every set of
    # seeded random free graphs
    rng = random.Random(149)
    verdicts = Counter()
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 10), rng.choice([0.3, 0.5, 0.7]))
        while pattern.occurs_in(g):
            g = remove_edge(g, *rng.choice(g.edges()))
        admitted = {0}
        for s in range(1, 1 << g.n):
            top = s.bit_length() - 1
            below = s ^ 1 << top
            got = below in admitted and not _blocked(pattern, g, below) >> top & 1
            want = not pattern.occurs_in(build_graph(g.n + 1, g.edges() + [(x, g.n) for x in bits(s)]))
            assert got == want, (g.n, g.edges(), s)
            if got:
                admitted.add(s)
            verdicts[got] += 1
    # a cell that only ever compares one verdict checks half the test; K2
    # and a one-edge matching admit no non-empty set
    assert verdicts[False] and (verdicts[True] or pattern in (Clique(2), StarForest(1, 1)))


@pytest.mark.parametrize("spec", ["matching:2", "matching:3", "starforest:2x2", "starforest:2x3"])
def test_new_vertex_verdict_matches_the_literal_detector(spec):
    # every free graph h on up to 7 vertices, and every set t of at most
    # h's least degree plus one vertices, the sets vertex extension may
    # join a new vertex to: the leaf mask and the new centre test against
    # the literal search of h plus a vertex joined to t.  The verdict reads
    # the whole set, so it must hold whatever t's subsets get
    (pattern,) = ForbiddenFamily.parse(spec).patterns
    kinds = Counter()
    for a in nx.graph_atlas_g()[1:]:
        h = build_graph(a.number_of_nodes(), a.edges())
        if ref_has_star_forest(h, pattern.copies, pattern.leaves):
            continue
        leafy = pattern.leaf_mask(h, (1 << h.n) - 1)
        if pattern.leaves == 1:
            # nu(h - x) = copies - 1, which h free caps at nu(h)
            nu = ref_max_matching(h)
            missed = mask_of(x for x in range(h.n) if ref_max_matching(_split_off(h, x)[0]) == nu)
            assert leafy == (missed if nu == pattern.copies - 1 else 0), h.edges()
            kinds["nu = copies - 1"] += nu == pattern.copies - 1
        cap = min(h.degree(x) for x in range(h.n)) + 1
        for t in range(1, 1 << h.n):
            if t.bit_count() <= cap:
                centred = pattern.occurs_with_new_centre(h, t)
                g = build_graph(h.n + 1, h.edges() + [(x, h.n) for x in bits(t)])
                want = ref_has_star_forest(g, pattern.copies, pattern.leaves)
                assert bool(t & leafy or centred) == want, (h.n, h.edges(), t)
                kinds["leaf" if t & leafy else "centre" if centred else "free"] += 1
    # a cell that only ever compares one verdict checks half the test; with
    # one leaf the centre is a leaf too, and the parents where nu(h) =
    # copies - 1 are the ones that block
    assert kinds["leaf"] and kinds["free"]
    assert kinds["centre"] if pattern.leaves > 1 else kinds["nu = copies - 1"] and not kinds["centre"]


@pytest.mark.parametrize("count,leaves", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_centre_sets_are_the_literally_served_sets_with_their_hall_sums(count, leaves):
    # every atlas graph on up to 7 vertices and no leading pools: the walk
    # yields, in combination order, exactly the centre sets that some choice
    # of distinct leaves, none a centre, serves, and for each sub-collection
    # of a set's pools the union and demand sum that the leaf mask reads
    served = Counter()
    for a in nx.graph_atlas_g()[1:]:
        g = build_graph(a.number_of_nodes(), a.edges())
        walked = list(_centre_sets(g.rows, list(range(g.n)), count, leaves, [], []))
        want = []
        for centres in combinations(range(g.n), count):
            pools = [set(a[c]) - set(centres) for c in centres]
            choices = product(*(combinations(sorted(pool), leaves) for pool in pools))
            ok = any(len(set().union(*picks)) == count * leaves for picks in choices)
            if ok:
                want.append((centres, pools))
            served[ok] += 1
        assert [taken for taken, _, _ in walked] == [mask_of(centres) for centres, _ in want], a.edges()
        for (_, union, need), (_, pools) in zip(walked, want):
            for sub in range(1 << count):
                picked = [pool for i, pool in enumerate(pools) if sub >> i & 1]
                assert union[sub] == mask_of(set().union(*picked)), (a.edges(), sub)
                assert need[sub] == leaves * len(picked), (a.edges(), sub)
    # a cell that only ever compares one verdict checks half the test
    assert served[True] and served[False]


def test_family_free_with_an_added_edge_asks_about_the_child():
    # the oracle's questions for a family, read for the edge uv with u as
    # the new vertex: a clique's mask, and a star forest's leaf mask and new
    # centre test
    family = ForbiddenFamily((Clique(4), StarForest(2, 3)))
    for g in _free_graphs(family.patterns[0]):
        if is_family_free(g, family):
            for u, v in complement(g).edges():
                h, s = _split_off(g, u)
                blocked = any(_blocked(pat, h, s) >> v - 1 & 1 for pat in family.patterns)
                assert blocked == (not is_family_free(g.add_edge(u, v), family))


def test_star_forest_large_sparse_absence():
    # blocking-set shortcut: every big star in this graph goes through the
    # hub, so no two disjoint copies exist regardless of the vertex count
    edges = [(0, i) for i in range(1, 30)]
    edges += [(i, i + 30) for i in range(1, 10)]
    g = build_graph(40, edges)
    assert not contains_star_forest(g, 2, 3)
    assert not contains_star_forest(g, 2, 2)
    assert contains_star_forest(g, 1, 29)
    # a second hub far from the first flips the answer
    g2 = build_graph(40, edges + [(20, 35), (20, 36), (20, 37)])
    assert contains_star_forest(g2, 2, 3)
