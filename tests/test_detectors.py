import random

import networkx as nx
import pytest

from turanstar import (
    Clique,
    ForbiddenFamily,
    StarForest,
    build_graph,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    contains_clique,
    contains_star_forest,
    empty_graph,
    is_family_free,
    join,
    max_matching_size,
    turan_graph,
)

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


@pytest.mark.parametrize("spec", EDGE_LOCAL_SPECS)
def test_edge_local_answer_matches_adding_the_edge(spec):
    (pattern,) = ForbiddenFamily.parse(spec).patterns
    as_matching = spec.startswith("matching:")
    positives = 0
    for g in _free_graphs(pattern):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    want = _occurs_with_the_edge(pattern, g, u, v, as_matching)
                    if isinstance(pattern, Clique):  # a clique answers only by its mask
                        got = bool(pattern.edge_mask(g, u) >> v & 1)
                    else:
                        got = pattern.occurs_with_edge(g, u, v)
                    assert got == want, (g.n, g.edges(), u, v)
                    positives += want
    # a cell that only ever compares False with False checks nothing
    assert positives


def _assert_edge_mask_is_exact(pattern):
    # the oracle drops every pair in the mask before its orbit walk, so the
    # mask must be exact from either end of every non-edge
    assert pattern.has_edge_mask
    for g in _free_graphs(pattern):
        for u in range(g.n):
            mask = pattern.edge_mask(g, u)
            for v in range(g.n):
                if v != u and not g.has_edge(u, v):
                    want = _occurs_with_the_edge(pattern, g, u, v)
                    assert bool(mask >> v & 1) == want, (g.n, g.edges(), u, v)


@pytest.mark.parametrize("size", range(2, 6))
def test_clique_edge_mask_matches_adding_the_edge(size):
    _assert_edge_mask_is_exact(Clique(size))


@pytest.mark.parametrize("leaves", range(1, 5))
def test_star_forest_edge_mask_matches_adding_the_edge(leaves):
    _assert_edge_mask_is_exact(StarForest(1, leaves))
    # two or more copies have no exact mask
    assert not StarForest(2, leaves).has_edge_mask
    with pytest.raises(ValueError):
        StarForest(2, leaves).edge_mask(empty_graph(8), 0)


def test_family_free_with_an_added_edge_asks_about_the_child():
    # the oracle's one question per pattern: the mask where there is one,
    # occurs_with_edge otherwise
    family = ForbiddenFamily((Clique(4), StarForest(2, 3)))
    for g in _free_graphs(family.patterns[0]):
        if is_family_free(g, family):
            for u, v in complement(g).edges():
                blocked = any(
                    pat.edge_mask(g, u) >> v & 1 if pat.has_edge_mask else pat.occurs_with_edge(g, u, v)
                    for pat in family.patterns
                )
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
