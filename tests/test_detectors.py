import random

import networkx as nx
import pytest

from turanstar import (
    Clique,
    ForbiddenFamily,
    Matching,
    StarForest,
    build_graph,
    complete_bipartite,
    contains_clique,
    contains_star_forest,
    empty_graph,
    is_family_free,
    join,
    max_clique_size,
    max_matching_size,
    turan_graph,
)

from _reference import (
    random_graph,
    ref_has_clique,
    ref_has_star_forest,
    ref_is_free,
    ref_max_matching,
)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_contains_clique_fixed():
    assert contains_clique(turan_graph(6, 3), 3)
    assert not contains_clique(turan_graph(6, 3), 4)
    assert not contains_clique(cycle(5), 3)
    assert contains_clique(cycle(3), 3)
    assert contains_clique(empty_graph(1), 1)
    assert not contains_clique(empty_graph(0), 1)
    with pytest.raises(ValueError):
        contains_clique(empty_graph(3), 0)


def test_max_clique_size_fixed():
    assert max_clique_size(empty_graph(0)) == 0
    assert max_clique_size(empty_graph(5)) == 1
    assert max_clique_size(turan_graph(12, 4)) == 4
    assert max_clique_size(cycle(7)) == 2
    # join adds one to the clique number of each side
    assert max_clique_size(join(turan_graph(4, 2), cycle(5))) == 2 + 2


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
    fam = ForbiddenFamily((Clique(3), Matching(2)))
    assert is_family_free(complete_bipartite(1, 6), fam)
    assert not is_family_free(cycle(6), fam)
    assert not is_family_free(cycle(3), fam)
    fam2 = ForbiddenFamily((Clique(4), StarForest(2, 2)))
    assert is_family_free(turan_graph(5, 3), fam2) == ref_is_free(
        turan_graph(5, 3), fam2
    )


def test_family_spec_round_trip():
    fam = ForbiddenFamily((StarForest(2, 3), Clique(4), Matching(2)))
    text = fam.spec()
    assert text == "clique:4,matching:2,starforest:2x3"
    assert ForbiddenFamily.parse(text) == fam
    assert ForbiddenFamily.parse("clique:3") == ForbiddenFamily((Clique(3),))
    for pat in (Clique(4), Matching(2), StarForest(2, 3)):
        assert ForbiddenFamily.parse(pat.spec()) == ForbiddenFamily((pat,))
    with pytest.raises(ValueError):
        ForbiddenFamily.parse("clique")
    with pytest.raises(ValueError):
        ForbiddenFamily.parse("widget:3")
    with pytest.raises(ValueError):
        ForbiddenFamily.parse("starforest:2")
    with pytest.raises(ValueError):
        ForbiddenFamily(())


def test_family_validation():
    with pytest.raises(ValueError):
        ForbiddenFamily((Clique(1),))
    with pytest.raises(ValueError):
        ForbiddenFamily((Matching(0),))
    with pytest.raises(ValueError):
        ForbiddenFamily((StarForest(0, 2),))


def test_clique_detector_random_cross_check():
    rng = random.Random(101)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.2, 0.5, 0.8]))
        for r in range(2, 6):
            assert contains_clique(g, r) == ref_has_clique(g, r), (
                g.edges(),
                r,
            )


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
    for g in samples:
        ng = nx.Graph(g.edges())
        ng.add_nodes_from(range(g.n))
        want = len(nx.max_weight_matching(ng, maxcardinality=True))
        assert max_matching_size(g) == want


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
        ForbiddenFamily((Clique(3), Matching(2))),
        ForbiddenFamily((Clique(3), StarForest(2, 2))),
        ForbiddenFamily((Clique(4), StarForest(1, 3))),
        ForbiddenFamily((Matching(3),)),
        ForbiddenFamily((StarForest(3, 2),)),
    ]
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        for fam in families:
            assert is_family_free(g, fam) == ref_is_free(g, fam)
            for pat in fam.patterns:
                assert pat.occurs_in(g) == (not ref_is_free(g, ForbiddenFamily((pat,))))


EDGE_LOCAL_PATTERNS = (
    [Clique(r) for r in range(2, 6)]
    + [Matching(s) for s in range(1, 5)]
    + [StarForest(c, l) for c in range(1, 5) for l in range(1, 5)]
)


def _occurs_with_the_edge(pattern, g, u, v):
    """The verdict about g + uv, for a star forest from the literal reference."""
    h = g.add_edge(u, v)
    if isinstance(pattern, StarForest):
        return ref_has_star_forest(h, pattern.copies, pattern.leaves)
    return pattern.occurs_in(h)


def _free_graphs(pattern):
    """The pattern-free atlas graphs on up to six vertices, then seeded
    random graphs on up to ten vertices stripped of random edges until free."""
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        if not pattern.occurs_in(g):
            yield g
    rng = random.Random(127)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(7, 11), rng.choice([0.3, 0.5, 0.7]))
        while pattern.occurs_in(g):
            g = g.remove_edge(*rng.choice(g.edges()))
        yield g


@pytest.mark.parametrize("pattern", EDGE_LOCAL_PATTERNS, ids=lambda p: p.spec())
def test_edge_local_answer_matches_adding_the_edge(pattern):
    for g in _free_graphs(pattern):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    want = _occurs_with_the_edge(pattern, g, u, v)
                    assert pattern.occurs_with_edge(g, u, v) == want, (g.n, g.edges(), u, v)


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
    family = ForbiddenFamily((Clique(4), StarForest(2, 3)))
    for g in _free_graphs(family.patterns[0]):
        if is_family_free(g, family):
            for u, v in g.complement().edges():
                assert is_family_free(g, family, (u, v)) == is_family_free(g.add_edge(u, v), family)


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
