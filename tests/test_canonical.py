import gc
import hashlib
import itertools
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from turanstar import (
    CANONICAL_MAX_N,
    CappedJoinDescriptor,
    Clique,
    ForbiddenFamily,
    Graph,
    RegularJoinDescriptor,
    are_isomorphic,
    bits,
    build_graph,
    complete_bipartite,
    disjoint_union,
    canonical_code,
    canonical_form,
    canonical_graph,
    empty_graph,
    family_membership,
    graph6_decode,
    graph6_encode,
    graph_from_code,
    joined_regular_extremal,
    mask_of,
    turan_graph,
)
from turanstar import canonical, oracle
from turanstar.canonical import canonical_code_and_generators

from _reference import group_order, random_graph, ref_graph_from_code, ref_refine

GOLDEN = Path(__file__).parent / "data" / "canonical_forms.txt"


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bitset in range(1 << len(pairs)):
        yield build_graph(
            n, [pairs[i] for i in range(len(pairs)) if bitset >> i & 1]
        )


@pytest.mark.parametrize("n,classes", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11)])
def test_class_counts_match_atlas(n, classes):
    # the atlas of graphs lists 1, 1, 2, 4, 11, 34 classes for n = 0..5
    forms = {canonical_form(g) for g in all_labeled_graphs(n)}
    assert len(forms) == classes


def test_class_count_n5():
    forms = {canonical_form(g) for g in all_labeled_graphs(5)}
    assert len(forms) == 34


def test_canonical_graph_is_fixed_point():
    g = turan_graph(7, 3)
    cg = canonical_graph(g)
    assert canonical_graph(cg) == cg
    assert are_isomorphic(g, cg)


def test_permutation_invariance_random():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, 0.45)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(tuple(perm))) == canonical_form(g)


def test_are_isomorphic_agrees_with_networkx():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(2, 8)
        a = random_graph(rng, n, 0.5)
        b = random_graph(rng, n, 0.5)
        na = nx.Graph(a.edges())
        na.add_nodes_from(range(n))
        nb = nx.Graph(b.edges())
        nb.add_nodes_from(range(n))
        assert are_isomorphic(a, b) == nx.is_isomorphic(na, nb)


def test_non_isomorphic_same_degree_sequence():
    # C6 versus two triangles: both 2-regular on six vertices
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert c6.degree_sequence() == two_triangles.degree_sequence()
    assert not are_isomorphic(c6, two_triangles)


def test_identical_graphs_skip_the_search(monkeypatch):
    # equal rows answer at once; a relabelled copy and a non-isomorphic pair
    # with one degree sequence still reach the search, one per graph
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])

    search = canonical._search

    def refuse(_):
        raise AssertionError("searched identical graphs")

    monkeypatch.setattr(canonical, "_search", refuse)
    assert are_isomorphic(g, Graph(g.n, g.rows))
    searches = 0

    def counted(h):
        nonlocal searches
        searches += 1
        return search(h)

    monkeypatch.setattr(canonical, "_search", counted)
    relabelled = g.relabel((2, 4, 0, 5, 1, 3))
    assert relabelled.rows != g.rows
    assert are_isomorphic(g, relabelled)
    assert searches == 2
    c6_with_other_chord = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)])
    assert c6_with_other_chord.degree_sequence() == g.degree_sequence()
    assert not are_isomorphic(g, c6_with_other_chord)
    assert searches == 4


def test_size_mismatch_and_cap():
    assert not are_isomorphic(empty_graph(3), empty_graph(4))
    with pytest.raises(ValueError):
        canonical_form(empty_graph(CANONICAL_MAX_N + 1))
    with pytest.raises(ValueError, match="caps at"):
        are_isomorphic(empty_graph(CANONICAL_MAX_N + 1), empty_graph(CANONICAL_MAX_N + 1))


def test_canonical_form_distinguishes_random_pairs():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randrange(2, 8)
        a = random_graph(rng, n, 0.5)
        b = random_graph(rng, n, 0.5)
        same_class = canonical_form(a) == canonical_form(b)
        assert same_class == are_isomorphic(a, b)


@settings(max_examples=60)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(n, rnd):
    edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5]
    g = build_graph(n, edges)
    perm = list(range(n))
    rnd.shuffle(perm)
    assert canonical_form(g) == canonical_form(g.relabel(tuple(perm)))


def test_canonical_forms_match_golden_fixture():
    # cached records hold canonical graph6 strings, so the labelling must
    # reproduce the pinned forms byte for byte (see data/make_canonical_forms.py)
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 350
    for line in lines:
        given, form = line.split()
        assert canonical_form(graph6_decode(given)) == form, given


def test_rook_and_shrikhande_get_different_forms():
    # both are srg(16, 6, 2, 2): regular, so refinement cannot split the
    # unit partition of either, and only the search can tell them apart
    cells = [(i, j) for i in range(4) for j in range(4)]
    index = {c: k for k, c in enumerate(cells)}
    rook = build_graph(
        16, [(index[a], index[b]) for a, b in itertools.combinations(cells, 2) if a[0] == b[0] or a[1] == b[1]]
    )
    shrikhande = build_graph(
        16,
        {
            tuple(sorted((index[(i, j)], index[((i + di) % 4, (j + dj) % 4)])))
            for i, j in cells
            for di, dj in ((1, 0), (0, 1), (1, 1))
        },
    )
    assert rook.degree_sequence() == shrikhande.degree_sequence() == (6,) * 16
    assert canonical_form(rook) != canonical_form(shrikhande)
    assert not are_isomorphic(rook, shrikhande)


def test_canonical_code_decodes_to_canonical_form():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(0, CANONICAL_MAX_N + 1)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert graph6_encode(graph_from_code(n, canonical_code(g))) == canonical_form(g)


def test_graph_from_code_rejects_stray_bits():
    assert graph_from_code(3, 0b111) == build_graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        graph_from_code(3, 0b1000)
    with pytest.raises(ValueError):
        graph_from_code(3, -1)


def test_graph_from_code_matches_literal_decoder():
    for n in range(6):
        for code in range(1 << n * (n - 1) // 2):
            assert graph_from_code(n, code) == ref_graph_from_code(n, code), (n, code)
    rng = random.Random(59)
    for n in range(6, CANONICAL_MAX_N + 1):
        pairs = n * (n - 1) // 2
        for code in [0, (1 << pairs) - 1] + [rng.getrandbits(pairs) for _ in range(60)]:
            assert graph_from_code(n, code) == ref_graph_from_code(n, code), (n, code)


@pytest.mark.parametrize("n", [0, 1, 2, 16])
def test_graph_from_code_rejects_stray_bits_and_negative_codes(n):
    pairs = n * (n - 1) // 2
    for code in (1 << pairs, (1 << pairs + 1) - 1, 1 << pairs + 40, -1, -(1 << pairs)):
        with pytest.raises(ValueError, match=f"beyond the {pairs} pairs of {n} vertices"):
            graph_from_code(n, code)
        with pytest.raises(ValueError):
            ref_graph_from_code(n, code)
    assert graph_from_code(n, (1 << pairs) - 1).edge_count == pairs


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def _golden_graphs():
    return [graph6_decode(line.split()[0]) for line in GOLDEN.read_text().splitlines()]


def _is_automorphism(g, sigma):
    return sorted(sigma) == list(range(g.n)) and all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())


def test_generators_map_the_canonical_graph_onto_itself():
    # the search finds them in g's labelling; they must come back in the
    # labelling of the canonical graph the code rebuilds
    rng = random.Random(37)
    graphs = _golden_graphs() + [
        random_graph(rng, rng.randrange(0, 17), rng.uniform(0.05, 0.95)) for _ in range(300)
    ]
    found = 0
    for g in graphs:
        code, gens = canonical_code_and_generators(g)
        assert code == canonical_code(g)
        c = graph_from_code(g.n, code)
        found += len(gens)
        for sigma in gens:
            assert _is_automorphism(c, sigma), (graph6_encode(g), sigma)
    assert found > 1000


def test_generators_give_the_full_vertex_orbits_up_to_six_vertices():
    # twin swaps are pruned without being recorded; without their
    # transpositions the orbits of e.g. a star's leaves would come out split
    def orbits(n, perms):
        out = set()
        for v in range(n):
            orbit, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for sigma in perms:
                    if sigma[u] not in orbit:
                        orbit.add(sigma[u])
                        stack.append(sigma[u])
            out.add(frozenset(orbit))
        return out

    rng = random.Random(47)
    for h in nx.graph_atlas_g()[1:]:
        n = h.number_of_nodes()
        if n > 6:
            break
        code, gens = canonical_code_and_generators(_relabelled(build_graph(n, h.edges()), rng))
        c = nx.Graph(graph_from_code(n, code).edges())
        c.add_nodes_from(range(n))
        group = [
            tuple(m[v] for v in range(n))
            for m in nx.algorithms.isomorphism.GraphMatcher(c, c).isomorphisms_iter()
        ]
        assert orbits(n, gens) == orbits(n, group), h.edges()


def test_generators_give_the_whole_automorphism_group_up_to_seven_vertices():
    # orbits can come out whole from too small a group; the order cannot.
    # Each atlas graph on 1 to 7 vertices is relabelled by a seeded shuffle.
    rng = random.Random(59)
    atlas = nx.graph_atlas_g()[1:]
    assert len(atlas) == 1252
    for h in atlas:
        n = h.number_of_nodes()
        g = _relabelled(build_graph(n, h.edges()), rng)
        _, gens = canonical_code_and_generators(g)
        automorphisms = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        assert group_order(n, gens) == automorphisms, h.edges()


def test_refinement_orders_large_counts_like_tuples():
    # a pass packs one count per splitter into an int, which must order
    # like the tuple of counts: vertex 0 sees (0, 9), vertex 1 sees (1, 0)
    block = tuple(range(3, 12))
    g = build_graph(16, [(0, v) for v in block] + [(1, 2)])
    cells = [(0, 1), (2,), block, tuple(range(12, 16))]
    got = canonical._refine(g.rows, [mask_of(c) for c in cells], [mask_of((2,)), mask_of(block)])
    assert [tuple(bits(c)) for c in got] == ref_refine(g.rows, cells) == [(0,), (1,), *cells[1:]]


def test_search_matches_refinement_against_every_cell(monkeypatch):
    # refining only against the cells split in the previous pass, with
    # cells as vertex masks, must give the same partitions, so the same
    # code, labelling and automorphisms, as counting neighbours in every
    # cell of a tuple partition on every pass; the reference root starts
    # from the one cell of all vertices, so the degree buckets the search
    # builds before its first refinement are checked too
    rng = random.Random(41)
    shapes = [
        lambda: random_graph(rng, rng.randrange(0, 13), rng.uniform(0.1, 0.9)),
        lambda: turan_graph(rng.randrange(1, 13), rng.randrange(1, 5)),
        lambda: complete_bipartite(rng.randrange(0, 6), rng.randrange(0, 7)),
        lambda: disjoint_union(
            build_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
            random_graph(rng, rng.randrange(0, 8), 0.3),
        ),
    ]
    graphs = [_relabelled(rng.choice(shapes)(), rng) for _ in range(2000)]
    fast = [canonical._search(g) for g in graphs]
    roots = [ref_refine(g.rows, [tuple(range(g.n))] if g.n else []) for g in graphs]
    at_root = True

    def reference(rows, cells, splitters):
        nonlocal at_root
        if at_root:  # the search's first refinement is its root pass
            at_root = False
            cells = [(1 << len(rows)) - 1] if rows else []
        return [mask_of(c) for c in ref_refine(rows, [tuple(bits(c)) for c in cells])]

    monkeypatch.setattr(canonical, "_refine", reference)
    slow = []
    for g in graphs:
        at_root = True
        slow.append(canonical._search(g))
    assert slow == fast

    # a discrete root is the only leaf and leaves no twins to swap
    assert sum(len(root) == g.n for g, root in zip(graphs, roots)) > 100
    for g, root, (_, _, gens) in zip(graphs, roots, fast):
        if len(root) == g.n:
            assert gens == [], graph6_encode(g)
    # twins swap under an automorphism, so they share a root cell
    twin_pairs = 0
    for g, root in zip(graphs, roots):
        cell_of = {v: i for i, cell in enumerate(root) for v in cell}
        for u, v in itertools.combinations(range(g.n), 2):
            if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u):
                twin_pairs += 1
                assert cell_of[u] == cell_of[v], (graph6_encode(g), u, v)
    assert twin_pairs > 1000


def _searched_corpus(monkeypatch):
    # every graph the search of the triangle-free classes on up to 8
    # vertices hands to the canonical search, vertex level by vertex level,
    # then 500 seeded random graphs on up to 12 vertices
    searched = []
    search = oracle.canonical_code_and_generators

    def recorded(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(oracle, "canonical_code_and_generators", recorded)
    for _ in oracle._levels(8, ForbiddenFamily((Clique(3),)), jobs=1):
        pass
    monkeypatch.undo()
    rng = random.Random(53)
    return searched, [random_graph(rng, rng.randrange(0, 13), rng.uniform(0.05, 0.95)) for _ in range(500)]


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_search_output_is_pinned(monkeypatch):
    # codes, labellings and generators, byte for byte as the labelling gave
    # them when these digests were taken; a speedup of the search that
    # changes any of them fails here, not only through the search counts.
    # The corpus digest tells a changed enumeration from a changed search,
    # and the (code, labelling) digest a changed search from a changed
    # choice of generators.  The random graphs alone are pinned too, as
    # they do not move when the enumeration hands the search other graphs.
    searched, rand = _searched_corpus(monkeypatch)
    assert _digest(f"{g.n} {g.rows}" for g in rand) == (
        "3e3c9097087b5266753771760beb4469ee60d524bd161b5cc6419b6359215073"
    )
    assert _digest(repr(canonical._search(g)) for g in rand) == (
        "db85a9ba040da1344bfbb26a369a69c9c0605091aa25f20ccf290042cf1fcd3b"
    )
    assert _digest(repr(canonical_code_and_generators(g)) for g in rand) == (
        "ef387bf1f3d70c6ff4edfa90d86beb9323ea59e9cfd18ec0d35a836b08c33b7e"
    )
    graphs = searched + rand
    assert len(searched) == 446
    assert _digest(f"{g.n} {g.rows}" for g in graphs) == (
        "effcb28819f1464a3b3cdd02990baf38ac287afa542e82582c38cecfe253130c"
    )
    results = [canonical._search(g) for g in graphs]
    assert _digest(repr((code, perm)) for code, perm, _ in results) == (
        "1f3085867866937144a100ea00bb0c22f3d5b9b04215dc1c322643c535d36896"
    )
    assert _digest(repr(result) for result in results) == (
        "7e1b896ee767e7eee12b2aa5e2f78b4efd5e9486a5494286268c0f3e0dc8818b"
    )
    assert _digest(repr(canonical_code_and_generators(g)) for g in graphs) == (
        "8dfa2539d0bad96a50faf38823ba5374e1dd617b55ef797e30b87079f76fae3a"
    )


def test_search_leaves_no_cyclic_garbage(monkeypatch):
    # the search builds no self-referencing closure, so with the collector
    # off nothing it drops waits for a cyclic collection
    searched, _ = _searched_corpus(monkeypatch)
    assert len(searched) == 446
    gc.collect()
    gc.disable()
    try:
        for g in searched:
            canonical._search(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_family_membership_leaves_no_cyclic_garbage():
    # the join-split search recurses through a module-level generator, not
    # a closure that refers to itself
    graphs = [joined_regular_extremal(n, s, 3) for n in range(8, 15) for s in range(1, 4)]
    descriptors = (RegularJoinDescriptor(2, 3), CappedJoinDescriptor(2, 3))
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            for descriptor in descriptors:
                family_membership(g, descriptor)
        assert gc.collect() == 0
    finally:
        gc.enable()
