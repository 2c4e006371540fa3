import random

import pytest
from hypothesis import given, strategies as st

from turanstar import (
    bits,
    build_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    join,
    mask_of,
    respects_bipartition,
    symmetrize,
)

from _reference import random_graph, strip_triangles


def small_graphs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda edges: build_graph(n, edges),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ),
        )
    )


def test_mask_of_and_bits_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_build_graph_basics():
    g = build_graph(4, [(0, 1), (1, 2), (1, 0)])
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree_sequence() == (0, 1, 1, 2)


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def test_add_remove_edge_do_not_mutate():
    g = build_graph(3, [(0, 1)])
    g2 = g.add_edge(1, 2)
    assert g.edge_count == 1 and g2.edge_count == 2
    g3 = g2.remove_edge(0, 1)
    assert g3.edges() == [(1, 2)]
    assert g2.edges() == [(0, 1), (1, 2)]


def test_complement_involution():
    g = build_graph(5, [(0, 1), (2, 3), (1, 4)])
    assert g.complement().complement() == g
    assert g.complement().edge_count == 10 - 3


def test_empty_graph():
    g = empty_graph(4)
    assert g.edge_count == 0
    assert empty_graph(0).n == 0


def test_disjoint_union_shifts_second_block():
    g = build_graph(2, [(0, 1)])
    h = build_graph(3, [(0, 2)])
    u = disjoint_union(g, h)
    assert u.n == 5
    assert u.edges() == [(0, 1), (2, 4)]


def test_join_adds_all_cross_edges():
    g = build_graph(2, [(0, 1)])
    h = empty_graph(3)
    j = join(g, h)
    assert j.n == 5
    assert j.edge_count == 1 + 2 * 3
    for a in range(2):
        for b in range(2, 5):
            assert j.has_edge(a, b)


def test_induced_subgraph_relabels_in_order():
    g = build_graph(5, [(0, 2), (2, 4), (1, 3)])
    sub = induced_subgraph(g, mask_of([0, 2, 4]))
    assert sub.n == 3
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        induced_subgraph(g, 1 << 5)


def test_relabel_identity_and_swap():
    g = build_graph(3, [(0, 1)])
    assert g.relabel((0, 1, 2)) == g
    swapped = g.relabel((2, 1, 0))
    assert swapped.edges() == [(1, 2)]
    with pytest.raises(ValueError):
        g.relabel((0, 0, 1))


def test_symmetrize_small_case():
    # path 0-1-2, copy 0's neighborhood onto vertex 2's slot and vice versa
    g = build_graph(3, [(0, 1), (1, 2)])
    h = symmetrize(g, 0, 2)
    assert h.edge_count == 2
    assert h.rows[0] == h.rows[2]
    with pytest.raises(ValueError):
        symmetrize(g, 0, 1)  # adjacent
    with pytest.raises(ValueError):
        symmetrize(g, 1, 1)


def test_symmetrize_edge_count_identity():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, 0.4)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        h = symmetrize(g, u, v)
        assert h.edge_count == g.edge_count - g.degree(u) + g.degree(v)
        assert h.rows[u] == h.rows[v]


def test_symmetrize_preserves_triangle_freeness():
    from turanstar import contains_clique

    rng = random.Random(11)
    for _ in range(200):
        g = strip_triangles(random_graph(rng, rng.randrange(4, 11), 0.4), rng)
        assert not contains_clique(g, 3)
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        assert not contains_clique(symmetrize(g, u, v), 3)


def test_respects_bipartition():
    g = build_graph(4, [(0, 2), (1, 3)])
    assert respects_bipartition(g, mask_of([0, 1]), mask_of([2, 3]))
    assert not respects_bipartition(g.add_edge(0, 1), mask_of([0, 1]), mask_of([2, 3]))
    # sides must partition the vertex set
    assert not respects_bipartition(g, mask_of([0]), mask_of([2, 3]))
    assert not respects_bipartition(g, mask_of([0, 1, 2]), mask_of([2, 3]))


@given(small_graphs())
def test_edges_round_trip(g):
    assert build_graph(g.n, g.edges()) == g


@given(small_graphs(), st.randoms(use_true_random=False))
def test_relabel_preserves_degree_sequence(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert g.relabel(tuple(perm)).degree_sequence() == g.degree_sequence()
