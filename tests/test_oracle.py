import bisect
import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import os
import random
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

from turanstar import (
    ORACLE_MAX_N,
    CappedJoinDescriptor,
    Clique,
    CompleteBipartiteDescriptor,
    ExtremalRecord,
    ForbiddenFamily,
    RegularJoinDescriptor,
    ResultCache,
    StarForest,
    are_isomorphic,
    bits,
    brute_force_ex,
    build_graph,
    canonical_code,
    canonical_form,
    capped_bipartite,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    enumerate_extremal,
    enumerate_free_graphs,
    extremal_records,
    family_membership,
    graph6_decode,
    graph_from_code,
    joined_capped_extremal,
    joined_regular_extremal,
    mask_of,
    turan_graph,
)

from turanstar import constructions, oracle
from turanstar.canonical import canonical_code_and_generators
from turanstar.oracle import _expand_codes, _levels

from _reference import (
    automorphism_generators,
    free_levels,
    group_order,
    labelled_count_failures,
    random_graph,
    ref_ex,
    ref_expand_codes,
    ref_family_membership,
    ref_has_star_forest,
    ref_is_free,
    ref_outranked,
    remove_edge,
)

K3 = ForbiddenFamily((Clique(3),))
DENSE_FIXTURE = Path(__file__).parents[1] / "perfbench" / "fixtures" / "oracle_dense.json"


# Values computed in advance by exhaustive search over all labeled graphs
# with naive subset-scan detectors (see _reference.ref_ex, which re-derives
# the n <= 5 entries at test time).
EXPECTED_EX = {
    (5, "clique:3,matching:2"): 4,
    (6, "clique:3,matching:2"): 5,
    (7, "clique:3,matching:2"): 6,
    (5, "clique:3,starforest:2x2"): 6,
    (6, "clique:3,starforest:2x2"): 6,
    (7, "clique:3,starforest:2x2"): 7,
    (6, "clique:3,starforest:1x3"): 6,
    (6, "starforest:1x3"): 6,
    (6, "starforest:1x2"): 3,
    (6, "clique:4,matching:2"): 5,
    (6, "clique:4,matching:3"): 9,
    (5, "clique:4,matching:2"): 4,
    (6, "clique:3,starforest:3x2"): 9,
    (6, "clique:3,starforest:2x3"): 9,
    (4, "clique:3"): 4,
    (5, "clique:3"): 6,
    (6, "clique:3"): 9,
    (3, "matching:2"): 3,
    (5, "matching:2"): 4,
}


def test_brute_force_matches_precomputed_table():
    for (n, spec), want in EXPECTED_EX.items():
        fam = ForbiddenFamily.parse(spec)
        rec = brute_force_ex(n, fam)
        assert rec.ex_value == want, (n, spec)
        assert rec.n == n and rec.family == fam
        for code in rec.extremal_graphs:
            g = graph6_decode(code)
            assert g.edge_count == want
            assert ref_is_free(g, fam)


def test_brute_force_agrees_with_reference_at_small_n():
    families = [
        ForbiddenFamily((Clique(3), StarForest(2, 1))),
        ForbiddenFamily((Clique(3), StarForest(2, 2))),
        ForbiddenFamily((Clique(4),)),
        ForbiddenFamily((StarForest(1, 2),)),
        ForbiddenFamily((StarForest(3, 1),)),
    ]
    for fam in families:
        for n in range(1, 6):
            assert brute_force_ex(n, fam).ex_value == ref_ex(n, fam), (n, fam.spec())


def test_free_graph_counts_match_atlas():
    # the atlas of graphs is an unrelated enumeration; count its
    # triangle-free classes per order and compare
    atlas = nx.generators.atlas.graph_atlas_g()
    for n in range(1, 7):
        want = sum(
            1
            for g in atlas
            if g.number_of_nodes() == n and sum(nx.triangles(g).values()) == 0
        )
        got = sum(1 for _ in enumerate_free_graphs(n, K3))
        assert got == want, n


def test_triangle_free_counts_match_oeis():
    # OEIS A006785: triangle-free graphs on n unlabeled vertices; the n = 10
    # classes, counted per edge count, also match the benchmark's levels
    want = [1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172]
    got = [sum(1 for _ in enumerate_free_graphs(n, K3)) for n in range(1, 10)]
    per_level = Counter(g.edge_count for g in enumerate_free_graphs(10, K3))
    got.append(sum(per_level.values()))
    assert got == want
    levels = json.loads(DENSE_FIXTURE.read_text())["level_classes"]
    assert [per_level[e] for e in range(max(per_level) + 1)] == levels


def test_top_levels_without_a_4_leaf_star_are_the_cubic_graphs():
    # OEIS A005638: 1, 2, 6 and 21 cubic graphs, connected or not, on 4, 6,
    # 8 and 10 vertices; on a regular graph the degree root is one cell, so
    # these classes lean hardest on the canonical search's refinement
    records = extremal_records((4, 6, 8, 10), ForbiddenFamily.parse("starforest:1x4"))
    got = [(n, r.ex_value, len(r.extremal_graphs)) for n, r in records.items()]
    assert got == [(4, 6, 1), (6, 9, 2), (8, 12, 6), (10, 15, 21)]
    # OEIS A014371: 1, 2 and 6 triangle-free cubic graphs on 6, 8 and 10 vertices
    records = extremal_records((6, 8, 10), ForbiddenFamily.parse("clique:3,starforest:1x4"))
    got = [(n, r.ex_value, len(r.extremal_graphs)) for n, r in records.items()]
    assert got == [(6, 9, 1), (8, 12, 2), (10, 15, 6)]


@pytest.fixture(scope="module")
def all_classes_n8():
    """Every class on 8 vertices, as {edge count: sorted canonical codes}: K9 fits in none."""
    return {level: codes for level, codes, _ in _levels(8, ForbiddenFamily((Clique(9),)), jobs=1) if codes}


def test_all_graph_counts_match_oeis(all_classes_n8):
    # OEIS A000088: graphs on n unlabeled vertices; K9 fits in none of them
    want = [1, 2, 4, 11, 34, 156, 1044, 12346]
    fam = ForbiddenFamily((Clique(9),))
    got = [sum(1 for _ in enumerate_free_graphs(n, fam)) for n in range(1, 8)]
    got.append(sum(len(codes) for codes in all_classes_n8.values()))
    assert got == want


@pytest.mark.parametrize("spec", [
    "clique:4",
    "matching:3",
    "starforest:2x2",
    "starforest:1x4",
    "clique:4,starforest:2x3",
    "clique:4,matching:3",
])
def test_free_classes_at_n8_are_all_classes_filtered_by_the_reference(all_classes_n8, spec):
    # the F-free classes on 8 vertices are the classes of all graphs on 8
    # vertices that are F-free: filtering the OEIS-checked set with the
    # literal detectors gives each level's codes without the oracle's screens
    family = ForbiddenFamily.parse(spec)
    want = {}
    for level, codes in all_classes_n8.items():
        kept = tuple(code for code in codes if ref_is_free(graph_from_code(8, code), family))
        if kept:
            want[level] = kept
    assert {level: codes for level, codes, _ in _levels(8, family, jobs=1) if codes} == want


@pytest.fixture(scope="module")
def triangle_free_classes_n10():
    """Every triangle-free class on 10 vertices, as {edge count: sorted canonical codes}."""
    return {level: codes for level, codes, _ in _levels(10, K3, jobs=1) if codes}


@pytest.mark.parametrize("spec", [
    "clique:3,starforest:2x3",
    "clique:3,starforest:3x2",
    "clique:3,starforest:1x4",
    "clique:3,matching:3",
])
def test_free_classes_at_n10_are_triangle_free_classes_filtered_by_the_reference(triangle_free_classes_n10, spec):
    # every class of the OEIS-checked triangle-free set at n = 10 is already
    # triangle-free, so the literal star-forest search alone does the filtering
    family = ForbiddenFamily.parse(spec)
    (star,) = (pat for pat in family.patterns if isinstance(pat, StarForest))
    want = {}
    for level, codes in triangle_free_classes_n10.items():
        kept = tuple(
            code for code in codes if not ref_has_star_forest(graph_from_code(10, code), star.copies, star.leaves)
        )
        if kept:
            want[level] = kept
    assert {level: codes for level, codes, _ in _levels(10, family, jobs=1) if codes} == want


def path_cycle_counts(n_max, shortest_cycle):
    """counts[n][e]: classes on n vertices with e edges whose components are
    paths and cycles of length at least shortest_cycle, the graphs of maximum
    degree 2 without shorter cycles.  These are the coefficients of x^n y^e in
    the product of 1 / (1 - x^k y^(k-1)) over the paths P_k, k >= 1, and of
    1 / (1 - x^k y^k) over the cycles C_k, k >= shortest_cycle."""
    counts = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    counts[0][0] = 1
    components = [(k, k - 1) for k in range(1, n_max + 1)] + [(k, k) for k in range(shortest_cycle, n_max + 1)]
    for size, edges in components:
        for n in range(size, n_max + 1):
            for e in range(edges, n + 1):
                counts[n][e] += counts[n - size][e - edges]
    return counts


@pytest.mark.parametrize("spec,shortest_cycle,classes", [
    ("starforest:1x3", 3, 156),
    ("clique:3,starforest:1x3", 4, 110),
])
def test_max_degree_two_levels_match_the_generating_function(spec, shortest_cycle, classes):
    # no K_{1,3} means maximum degree 2: a disjoint union of paths and cycles
    family = ForbiddenFamily.parse(spec)
    counts = path_cycle_counts(ORACLE_MAX_N, shortest_cycle)
    for n in range(1, ORACLE_MAX_N + 1):
        got = [len(codes) for _, codes, _ in _levels(n, family, jobs=1) if codes]
        assert got == counts[n][: len(got)] and sum(got) == sum(counts[n]), n
    assert sum(got) == classes


@pytest.mark.parametrize(
    "spec",
    [
        "clique:2",
        "clique:3",
        "clique:4",
        "starforest:2x2",
        "clique:3,matching:3",
        "clique:4,starforest:2x3",
        "clique:3,starforest:1x3",
        "clique:4,starforest:1x4",
        "clique:9",
    ],
)
def test_orbit_pruned_expansion_matches_trying_every_non_edge(spec):
    # a whole level, each parent carrying the generators its own search
    # found a level earlier, reaches every class of the next level; the
    # rank filter only thins how often each one is reached
    family = ForbiddenFamily.parse(spec)
    # clique:9 admits every graph: its n = 8 levels (12,346 classes) are
    # stood in for by 40 seeded random graphs of each edge count; clique:4
    # has 6,431 classes at n = 8 and stops at n = 7
    n_full = 7 if spec in ("clique:9", "clique:4") else 8
    for n in range(1, n_full + 1):
        parents = [(*canonical_code_and_generators(empty_graph(n)), 1)]
        level = 0
        while parents:
            found, (visited,) = _expand_codes((n, [family], parents))
            want = ref_expand_codes(n, family, [code for code, _, _ in parents])
            assert (set(found), visited) == want, (n, level)
            assert all(members == 1 for _, members in found.values())
            parents = [(code, generators, members) for code, (generators, members) in sorted(found.items())]
            level += 1
    if spec == "clique:9":
        # a partial parent set may miss a child whose only kept parent is
        # not sampled, so the kept children are a subset of all children
        rng = random.Random(43)
        pairs = list(itertools.combinations(range(8), 2))
        for edges in range(len(pairs) + 1):
            parents = dict(canonical_code_and_generators(build_graph(8, rng.sample(pairs, edges))) for _ in range(40))
            found, (visited,) = _expand_codes((8, [family], [(*item, 1) for item in parents.items()]))
            want, want_visited = ref_expand_codes(8, family, parents)
            assert set(found) <= want and visited == want_visited, edges


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("spec", ["clique:3", "starforest:2x2"])
def test_levels_agree_across_worker_counts(spec, jobs):
    # at 3 workers the first levels have fewer parents than workers
    family = ForbiddenFamily.parse(spec)
    assert list(_levels(9, family, jobs=1)) == list(_levels(9, family, jobs=jobs))


def test_canonical_searches_at_n9(monkeypatch):
    # the count is deterministic and needs no worker, so a weaker screen of
    # the children ahead of the canonical search fails here
    searches = 0

    def counted(g):
        nonlocal searches
        searches += 1
        return canonical_code_and_generators(g)

    monkeypatch.setattr(oracle, "canonical_code_and_generators", counted)
    record = brute_force_ex(9, K3)
    assert (record.ex_value, record.graphs_visited) == (20, 47860)
    assert searches == 2089


@pytest.mark.parametrize("spec,ex_visited,ranked", [
    ("clique:3", (20, 47860), 5262),
    ("clique:3,starforest:2x3", (15, 23044), 3070),
    ("clique:3,starforest:1x3", (9, 1548), 73),
])
def test_rank_tests_at_n9(monkeypatch, spec, ex_visited, ranked):
    # the clique and one-copy star masks drop blocked pairs before the orbit
    # walk and the rank test; an exact mask makes the count follow from the
    # class sets alone.  Without the masks the first two counts are 17,407
    # and 7,785; without the star mask the third is 202
    tests = 0
    outranked = oracle._outranked

    def counted(*args):
        nonlocal tests
        tests += 1
        return outranked(*args)

    monkeypatch.setattr(oracle, "_outranked", counted)
    record = brute_force_ex(9, ForbiddenFamily.parse(spec))
    assert (record.ex_value, record.graphs_visited) == ex_visited
    assert tests == ranked


@pytest.mark.parametrize("spec,digest,searched", [
    ("clique:3,starforest:1x3", "9ef81a1731137c44b6b84d26dd50bfd4448bedcd7c7a57095ffc78cde60540dc", 54),
    ("clique:3,starforest:2x3", "e68bd86770b859acc212bcc6fc8e99e5a9c664d27afcabb37a94d45a11bedba1", 957),
    ("clique:3,starforest:3x2", "237930107799581571311c2cb2971d78b4e81e259676da7e1ba3a58ea2186ff6", 709),
    ("starforest:2x2", "59487b4a8c4dc0fc03b4e81ca0403aefbc2e845f00dc68574b78db99e9fbf659", 153),
    ("clique:3,matching:3", "c183315fd7284d80ac19192d0ae92939ca382130593d252a4cb1e41c3146cd83", 77),
    ("clique:4,matching:3", "adc33ac0783139f0d171b8a7ae90a83396932353b0cde99dd360a1727d960a9c", 148),
    ("matching:3", "910bd2e717c3b1055514df41489c98f67d0f8a7f3a6f69b149451e5ecb887173", 157),
])
def test_star_forest_levels_are_pinned(monkeypatch, spec, digest, searched):
    # every level's (edge count, codes, augmentations) at n = 9, as the
    # enumeration gave them when these digests were taken, and the canonical
    # searches behind them: a star-forest check that lets one child too many
    # or too few through to the search fails here
    searches = 0
    search = oracle.canonical_code_and_generators

    def counted(g):
        nonlocal searches
        searches += 1
        return search(g)

    monkeypatch.setattr(oracle, "canonical_code_and_generators", counted)
    levels = list(_levels(9, ForbiddenFamily.parse(spec), jobs=1))
    assert hashlib.sha256(repr(levels).encode()).hexdigest() == digest
    assert searches == searched


@pytest.mark.parametrize("spec,n_max", [("clique:3", 7), ("clique:3,starforest:2x3", 8)])
def test_rank_test_matches_literal_reference(spec, n_max):
    # every non-edge of every parent, in row order, against a degree table
    # taken literally from g, so the rank test's reading of the table is
    # checked apart from the expansion that builds it.  Two disjoint 3-stars
    # need 8 vertices, so below that the second family's parents are the
    # triangle-free ones
    family = ForbiddenFamily.parse(spec)
    verdicts = 0
    for n in range(2, n_max + 1):
        for _, codes, _ in _levels(n, family, jobs=1):
            for code in codes:
                g = graph_from_code(n, code)
                degrees = [g.degree(x) for x in range(n)]
                sums = [sum(g.degree(w) for w in g.neighbors(x)) for x in range(n)]
                at_least = [mask_of(x for x in range(n) if g.degree(x) >= t) for t in range(n + 1)]
                for u, v in itertools.combinations(range(n), 2):
                    if not g.has_edge(u, v):
                        got = oracle._outranked(g.rows, degrees, sums, at_least, u, v)
                        assert got == ref_outranked(g, u, v), (n, code, u, v)
                        verdicts += 1
    assert verdicts > 1000


def test_visited_count_at_n9_on_one_and_two_workers():
    # every non-edge of every triangle-free class on 9 vertices, not one per orbit
    for jobs in (1, 2):
        record = brute_force_ex(9, K3, jobs=jobs)
        assert (record.ex_value, record.graphs_visited) == (20, 47860), jobs


def test_free_graphs_come_in_canonical_code_order():
    fam = ForbiddenFamily((Clique(3), StarForest(2, 2)))
    graphs = list(enumerate_free_graphs(7, fam))
    keys = [(g.edge_count, canonical_code(g)) for g in graphs]
    assert keys == sorted(keys)
    assert all(graph_from_code(7, code) == g for g, (_, code) in zip(graphs, keys))


def test_extremal_graphs_are_sorted_canonical_forms():
    # two of these have several extremal classes: 5 and 2 (a triangle or a star)
    for spec, n in (("clique:3", 8), ("clique:3,starforest:2x2", 8), ("clique:4,matching:3", 7), ("matching:2", 4)):
        codes = brute_force_ex(n, ForbiddenFamily.parse(spec)).extremal_graphs
        assert list(codes) == sorted(codes), spec
        assert all(canonical_form(graph6_decode(c)) == c for c in codes), spec


def test_records_agree_across_worker_counts_at_n8():
    one = brute_force_ex(8, K3, jobs=1)
    two = brute_force_ex(8, K3, jobs=2)
    assert one == two
    assert one.ex_value == 16 and one.extremal_graphs == (canonical_form(complete_bipartite(4, 4)),)


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_starts_no_more_workers_than_cpus(monkeypatch, cpus, workers):
    # under fork a pool starts all its workers at the first submit, so a huge
    # --jobs must not become as many processes; the levels still split into
    # jobs chunks, so the record cannot move.  The fake pool maps in-process.
    asked, chunks = [], []

    class InProcess:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, parts):
            chunks.append(len(parts))
            return map(fn, parts)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert brute_force_ex(8, K3, jobs=10_000) == brute_force_ex(8, K3, jobs=1)
    assert asked == [workers]
    assert max(chunks) > 50


def to_nx(g):
    ng = nx.Graph(g.edges())
    ng.add_nodes_from(range(g.n))
    return ng


def test_free_graph_enumeration_is_isomorph_free():
    fam = ForbiddenFamily((Clique(3), StarForest(3, 1)))
    graphs = list(enumerate_free_graphs(6, fam))
    for g in graphs:
        assert ref_is_free(g, fam)
    as_nx = [to_nx(g) for g in graphs]
    for i in range(len(as_nx)):
        for j in range(i + 1, len(as_nx)):
            assert not nx.is_isomorphic(as_nx[i], as_nx[j]), (i, j)


def test_uniqueness_spot_check():
    classes = enumerate_extremal(5, ForbiddenFamily((Clique(3), StarForest(2, 1))))
    assert len(classes) == 1
    assert are_isomorphic(classes[0], complete_bipartite(1, 4))


def test_extremal_enumeration_examples():
    classes = enumerate_extremal(5, K3)
    assert len(classes) == 1
    assert are_isomorphic(classes[0], complete_bipartite(2, 3))
    classes = enumerate_extremal(3, ForbiddenFamily((StarForest(2, 1),)))
    assert len(classes) == 1
    assert are_isomorphic(classes[0], turan_graph(3, 3))
    rec = brute_force_ex(2, ForbiddenFamily((Clique(2),)))
    assert rec.ex_value == 0
    assert len(rec.extremal_graphs) == 1


def test_extremal_graphs_are_edge_maximal():
    # adding any edge to an extremal graph must create a forbidden pattern
    rec = brute_force_ex(6, ForbiddenFamily((Clique(3), StarForest(2, 2))))
    assert rec.extremal_graphs
    for code in rec.extremal_graphs:
        g = graph6_decode(code)
        for u, v in itertools.combinations(range(g.n), 2):
            if not g.has_edge(u, v):
                assert not ref_is_free(g.add_edge(u, v), rec.family)


def test_records_are_deterministic_across_runs_and_workers():
    fam = ForbiddenFamily((Clique(3), StarForest(2, 2)))
    base = brute_force_ex(7, fam)
    again = brute_force_ex(7, fam)
    assert base == again
    for jobs in (2, 8):
        par = brute_force_ex(7, fam, jobs=jobs)
        assert par == base
        assert par.graphs_visited == base.graphs_visited
        assert par.extremal_graphs == base.extremal_graphs


def test_record_round_trips_through_json():
    rec = brute_force_ex(5, ForbiddenFamily((Clique(3), StarForest(2, 1))))
    blob = rec.to_json_dict()
    back = ExtremalRecord.from_json_dict(blob)
    assert back == rec
    assert blob["family"] == "clique:3,matching:2"


def test_oracle_rejects_oversized():
    with pytest.raises(ValueError):
        brute_force_ex(ORACLE_MAX_N + 1, K3)


def test_visited_counter_is_positive_and_stable():
    a = brute_force_ex(6, K3)
    b = brute_force_ex(6, K3, jobs=3)
    assert a.graphs_visited == b.graphs_visited > 0


# ---------------------------------------------------------------------------
# one enumeration at the largest n serves every smaller n

PATTERNS = (
    Clique(2), Clique(3), Clique(4),
    StarForest(1, 1), StarForest(2, 1), StarForest(3, 1),
    StarForest(1, 3), StarForest(2, 2), StarForest(3, 2),
)


def test_an_isolated_vertex_never_makes_a_pattern():
    # no pattern has an isolated vertex, so padding keeps freeness
    atlas = [
        build_graph(g.number_of_nodes(), list(g.edges()))
        for g in nx.generators.atlas.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 6
    ]
    rng = random.Random(17)
    graphs = atlas + [random_graph(rng, n, p) for n in range(7, 11) for p in (0.2, 0.4, 0.6) for _ in range(10)]
    for g in graphs:
        padded = disjoint_union(g, empty_graph(1))
        for pat in PATTERNS:
            assert pat.occurs_in(g) == pat.occurs_in(padded), (pat, g.rows)


def test_isolated_vertices_lead_the_canonical_code():
    # the derivation finds the classes with at least N - n isolated vertices
    # as the codes below 2^C(n,2), because the search labels them first
    for spec in ("clique:3", "clique:3,starforest:2x3", "matching:3"):
        for _, codes, _ in _levels(8, ForbiddenFamily.parse(spec), jobs=1):
            for code in codes:
                isolated = sum(1 for row in graph_from_code(8, code).rows if not row)
                for n in range(9):
                    assert (code < 1 << n * (n - 1) // 2) == (isolated >= 8 - n), (spec, code, n)


@pytest.mark.parametrize("spec,top", [
    ("clique:3", 9),
    ("clique:4,starforest:2x3", 9),
    ("starforest:2x2", 10),
    ("clique:3,matching:3", 9),
])
def test_stripped_codes_are_already_canonical(spec, top):
    # the oracle docstring proves that a padded class's code is the class's
    # canonical code on n vertices, and extremal_records decodes the
    # stripped codes without a second search; check that over whole levels
    checked = 0
    for _, codes, _ in _levels(top, ForbiddenFamily.parse(spec), jobs=1):
        for n in range(top):
            for code in codes[: bisect.bisect_left(codes, 1 << n * (n - 1) // 2)]:
                assert canonical_code(graph_from_code(n, code)) == code, (spec, n, code)
                checked += 1
    assert checked


SHARED_RUNS = [
    ("clique:3", 3, 9),
    ("clique:3,starforest:2x3", 3, 9),
    ("starforest:1x3", 0, 9),
    ("clique:4,matching:3", 5, 9),
    ("clique:3,matching:2", 1, 9),
    # the boundary sweep's family, padded by up to eight vertices as verify runs it
    ("clique:3,starforest:2x2", 3, ORACLE_MAX_N),
]


@pytest.mark.parametrize("spec,low,high", SHARED_RUNS, ids=[f"{spec}-{low}" for spec, low, _ in SHARED_RUNS])
def test_shared_records_equal_separate_runs(spec, low, high):
    # a separate run decodes the codes of an enumeration at its own n; the
    # shared run decodes, for every n below the top, the top's padded codes
    family = ForbiddenFamily.parse(spec)
    separate = {n: brute_force_ex(n, family) for n in range(low, high + 1)}
    for jobs in (1, 2):
        shared = extremal_records(range(low, high + 1), family, jobs=jobs)
        assert list(shared) == list(separate), jobs
        assert shared == separate, jobs
        assert len({record.elapsed for record in shared.values()}) == 1, jobs


def test_shared_ex_values_match_the_reference():
    for spec in ("clique:3", "clique:3,starforest:2x2", "clique:4,matching:2", "starforest:1x2", "matching:3"):
        family = ForbiddenFamily.parse(spec)
        records = extremal_records(range(7), family)
        assert {n: r.ex_value for n, r in records.items()} == {n: ref_ex(n, family) for n in range(7)}, spec


def test_shared_records_take_unsorted_duplicate_and_gapped_ns(monkeypatch):
    sizes = []

    def counted(n, family, jobs):
        sizes.append(n)
        return _levels(n, family, jobs=jobs)

    monkeypatch.setattr(oracle, "_levels", counted)
    family = ForbiddenFamily.parse("clique:3,starforest:2x2")
    records = extremal_records([8, 0, 5, 1, 5, 8], family)
    assert sizes == [8]
    assert list(records) == [0, 1, 5, 8]
    assert records == {n: brute_force_ex(n, family) for n in (0, 1, 5, 8)}
    assert (records[0].ex_value, records[0].graphs_visited) == (0, 0)
    assert (records[1].ex_value, records[1].graphs_visited) == (0, 0)
    assert extremal_records([], family) == {}


@pytest.mark.parametrize("ns,jobs", [
    ((5, ORACLE_MAX_N + 1), 1),
    ((ORACLE_MAX_N + 1, 3), 1),
    ((-1, 6), 1),
    ((4, 6), 0),
])
def test_shared_records_check_every_n_before_searching(monkeypatch, ns, jobs):
    def refused(*args):
        raise AssertionError("enumerated before the checks")

    monkeypatch.setattr(oracle, "_levels", refused)
    with pytest.raises(ValueError):
        extremal_records(ns, K3, jobs=jobs)


SHARED_WALKS = {
    # the walks of cold verify on 8 and 9 vertices, with each family's ns
    "verify-n8": (8, {
        "clique:3,matching:2": range(3, 9),
        "clique:3,matching:3": range(5, 9),
        "clique:4,matching:2": range(3, 9),
        "clique:4,matching:3": range(5, 9),
    }),
    "verify-n9": (9, {
        "starforest:1x2": range(3, 10),
        "starforest:1x3": range(6, 10),
        "clique:3,starforest:1x2": range(2, 10),
        "clique:3,starforest:1x3": range(2, 10),
        "clique:3,starforest:2x3": range(3, 10),
        "clique:3,starforest:3x2": range(4, 10),
    }),
    # a clique, a family without one, and one whose walk ends at level 1
    "mixed": (8, {"clique:3": range(9), "starforest:1x3": (8, 2, 5), "matching:1": (1, 8)}),
}


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("group", list(SHARED_WALKS))
def test_shared_walk_equals_separate_walks(group, jobs):
    n, wanted = SHARED_WALKS[group]
    families = [ForbiddenFamily.parse(spec) for spec in wanted]
    width = len(families)
    stream = list(_levels(n, *families, jobs=jobs))
    assert len(stream) % width == 0
    assert not any(codes for _, codes, _ in stream[-width:])
    for i, family in enumerate(families):
        alone = list(_levels(n, family, jobs=1))
        walk = stream[i::width]
        assert walk[:len(alone)] == alone, family.spec()
        assert walk[len(alone):] == [(level, (), 0) for level in range(len(alone), len(walk))], family.spec()
    shared = oracle.shared_records(dict(zip(families, wanted.values())), jobs)
    for family, ns in zip(families, wanted.values()):
        assert list(shared[family]) == sorted(set(ns)), family.spec()
        assert shared[family] == extremal_records(ns, family), family.spec()
    assert len({record.elapsed for records in shared.values() for record in records.values()}) == 1


def test_walk_checks_augmentations_tried_against_non_edges_counted(monkeypatch):
    a, b = (ForbiddenFamily.parse(spec) for spec in ("clique:3", "starforest:1x3"))

    def overcounted(n, *families, jobs):
        # one augmentation too many for the second family at level 2
        for position, (level, codes, tried) in enumerate(_levels(n, *families, jobs=jobs)):
            yield level, codes, tried + (position == 2 * len(families) + 1)

    monkeypatch.setattr(oracle, "_levels", overcounted)
    with pytest.raises(AssertionError, match="^starforest:1x3: 1053 augmentations tried, 1052 non-edges"):
        oracle.shared_records({a: [8], b: [8]}, 1)


def test_walks_group_each_familys_misses_by_the_largest(tmp_path, monkeypatch):
    # A's largest n hits the cache, so A's misses end at 7 and share B's walk
    a, b, c = (ForbiddenFamily.parse(spec) for spec in ("clique:3", "clique:3,matching:2", "starforest:1x3"))
    path = tmp_path / "cache.jsonl"
    planted = dataclasses.replace(brute_force_ex(8, a), graphs_visited=12345)
    cache = ResultCache(path)
    cache.append(planted)
    walks = []

    def counted(n, *families, jobs):
        walks.append((n, families))
        return _levels(n, *families, jobs=jobs)

    monkeypatch.setattr(oracle, "_levels", counted)
    fresh = set()
    records = oracle.shared_records({a: [5, 7, 8], b: [7], c: [6]}, 1, cache, fresh)
    assert walks == [(7, (a, b)), (6, (c,))]
    monkeypatch.setattr(oracle, "_levels", _levels)
    assert records[a][8] == planted and records[a][8].graphs_visited == 12345
    misses = [(a, 5), (a, 7), (b, 7), (c, 6)]
    assert {(family, n): records[family][n] for family, n in misses} == {
        (family, n): brute_force_ex(n, family) for family, n in misses
    }
    assert [list(records[family]) for family in (a, b, c)] == [[5, 7, 8], [7], [6]]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(line["family"], line["n"]) for line in lines[1:]] == [(family.spec(), n) for family, n in misses]
    assert fresh == set(misses)


def test_membership_complete_bipartite():
    assert family_membership(complete_bipartite(2, 8), CompleteBipartiteDescriptor(2))
    assert not family_membership(complete_bipartite(2, 8), CompleteBipartiteDescriptor(3))
    assert not family_membership(
        remove_edge(complete_bipartite(2, 8), 0, 2), CompleteBipartiteDescriptor(2)
    )


def test_complete_bipartite_membership_agrees_with_isomorphism_on_atlas():
    # the split search against the canonical isomorphism test, on every graph
    # of 1 to 7 vertices, each shuffled, and on s out of range at both ends
    calls = members = 0
    for i, h in enumerate(nx.graph_atlas_g()[1:]):
        n = h.number_of_nodes()
        g = relabelled(build_graph(n, h.edges()), i)
        for s in range(-1, n + 2):
            want = 0 <= s <= n and are_isomorphic(g, complete_bipartite(s, n - s))
            assert family_membership(g, CompleteBipartiteDescriptor(s)) == want, (h.edges(), s)
            calls += 1
            members += want
    assert (calls, members) == (12231, 35)


def test_membership_regular_join():
    g1 = joined_regular_extremal(10, 2, 3)
    assert family_membership(g1, RegularJoinDescriptor(2, 3))
    assert not family_membership(g1, RegularJoinDescriptor(2, 4))
    assert not family_membership(g1, RegularJoinDescriptor(1, 3))
    # odd rest order needs the deleted-vertex wiring; (12,3,4) is capped only
    g2 = joined_capped_extremal(12, 3, 4)
    assert family_membership(g2, CappedJoinDescriptor(3, 4))
    assert not family_membership(g2, RegularJoinDescriptor(3, 4))
    g1b = joined_regular_extremal(12, 3, 4)
    assert family_membership(g1b, RegularJoinDescriptor(3, 4))
    assert not family_membership(g1b, CappedJoinDescriptor(3, 4))


def test_membership_even_rest_collapses_both_ways():
    # even rest order: both descriptors describe the same graph
    g = joined_regular_extremal(11, 3, 3)
    assert family_membership(g, RegularJoinDescriptor(3, 3))
    assert family_membership(g, CappedJoinDescriptor(3, 3))


def test_membership_rejects_perturbations():
    g = joined_regular_extremal(10, 2, 3)
    assert not family_membership(remove_edge(g, *g.edges()[0]), RegularJoinDescriptor(2, 3))
    h = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert family_membership(h, CompleteBipartiteDescriptor(1))
    assert not family_membership(h, RegularJoinDescriptor(2, 3))


def cycles(*lengths):
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return build_graph(start, edges)


def relabelled(g, seed):
    return g.relabel(tuple(random.Random(seed).sample(range(g.n), g.n)))


def test_membership_agrees_with_reference_on_atlas():
    calls = members = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() > 6:
            break
        g = build_graph(h.number_of_nodes(), h.edges())
        for s, l in itertools.product(range(4), range(1, 5)):
            for regular, descriptor in ((True, RegularJoinDescriptor), (False, CappedJoinDescriptor)):
                want = ref_family_membership(g, regular, s, l)
                assert family_membership(g, descriptor(s, l)) == want, (h.edges(), regular, s, l)
                calls += 1
                members += want
    assert (calls, members) == (6688, 158)


def test_membership_with_empty_core_parts():
    # s = 0: no core; the capped rest is bipartite between its sides, the
    # regular rest need only be triangle-free
    for descriptor in (RegularJoinDescriptor(0, 3), CappedJoinDescriptor(0, 3)):
        assert family_membership(cycles(4, 6), descriptor)
    assert family_membership(cycles(5, 5), RegularJoinDescriptor(0, 3))
    assert not family_membership(cycles(5, 5), CappedJoinDescriptor(0, 3))
    # odd rests tell the families apart; at s = 1 the core part B is empty
    for n, s, l in ((9, 0, 3), (10, 1, 3), (11, 2, 3)):
        g1 = relabelled(joined_regular_extremal(n, s, l), n)
        g2 = relabelled(joined_capped_extremal(n, s, l), n)
        assert family_membership(g1, RegularJoinDescriptor(s, l))
        assert not family_membership(g1, CappedJoinDescriptor(s, l))
        assert family_membership(g2, CappedJoinDescriptor(s, l))
        assert not family_membership(g2, RegularJoinDescriptor(s, l))
    # an even rest collapses them
    g = relabelled(joined_capped_extremal(9, 1, 3), 9)
    assert family_membership(g, RegularJoinDescriptor(1, 3))
    assert family_membership(g, CappedJoinDescriptor(1, 3))


def petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                       + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])


def test_membership_regular_rest_without_core_need_not_be_bipartite():
    # triangle-free cubic graphs: s = 0 and l = 4 ask for nothing more
    for g in (petersen(), graph6_decode("G@Umf?")):
        assert ref_family_membership(g, True, 0, 4) and not ref_family_membership(g, False, 0, 4)
        assert family_membership(relabelled(g, g.n), RegularJoinDescriptor(0, 4))
        assert not family_membership(relabelled(g, g.n), CappedJoinDescriptor(0, 4))


def test_membership_without_core_checks_the_whole_graph_once(monkeypatch):
    # s = 0 puts every vertex in the rest, whatever the split; the first
    # edge, 0-8, moved to the first non-edge that keeps the graph
    # triangle-free, 0-3, leaves e1 edges but degrees 2 and 4
    g = remove_edge(joined_regular_extremal(16, 0, 4), 0, 8).add_edge(0, 3)
    assert g.edge_count == 24 and ref_is_free(g, K3)
    calls = []
    near_regular = constructions._near_regular
    monkeypatch.setattr(constructions, "_near_regular", lambda *args: calls.append(args) or near_regular(*args))
    assert not family_membership(g, RegularJoinDescriptor(0, 4))
    assert family_membership(petersen(), RegularJoinDescriptor(0, 4))
    assert len(calls) == 2


def test_membership_regular_rest_side_without_core_part_may_hold_edges():
    # s = 1, l = 5: the core vertex 0 is joined to X = 1..6; the 4-regular
    # triangle-free rest 1..13 keeps two disjoint edges 7-8 and 9-10 off X,
    # so with B empty no choice of the leftover E leaves Y independent
    x_neighbours = {7: (1, 2, 3), 8: (4, 5, 6), 9: (1, 2, 4), 10: (3, 5, 6), 11: (1, 2, 3, 4), 12: (1, 2, 5, 6),
                    13: (3, 4, 5, 6)}
    g = build_graph(14, [(0, x) for x in range(1, 7)] + [(7, 8), (9, 10)]
                    + [(y, x) for y, xs in x_neighbours.items() for x in xs])
    assert ref_is_free(g, K3) and g.edge_count == 32
    assert [(g.rows[v] >> 1).bit_count() for v in range(1, 14)] == [4] * 13
    moved = remove_edge(g, 0, 1).add_edge(11, 13)  # 0 misses X vertex 1; 11-13-3 is a triangle
    for h, member in ((relabelled(g, 14), True), (relabelled(moved, 14), False)):
        assert ref_family_membership(h, True, 1, 5) == member
        assert family_membership(h, RegularJoinDescriptor(1, 5)) == member


@pytest.mark.parametrize("l,classes_at_11", [(2, 1), (3, 3), (4, 23)])
def test_every_extremal_class_without_core_is_a_regular_join_member(l, classes_at_11):
    # K3 and one l-leaf star, i.e. triangle-free with maximum degree l - 1:
    # the closed form holds from n = (l-1)^2 + 2, and from there every class
    # must be a member
    records = extremal_records(range((l - 1) ** 2 + 2, 12), ForbiddenFamily.parse(f"clique:3,starforest:1x{l}"))
    for n, record in records.items():
        for code in record.extremal_graphs:
            assert family_membership(graph6_decode(code), RegularJoinDescriptor(0, l)), (n, code)
    assert len(records[11].extremal_graphs) == classes_at_11


def test_membership_odd_rest_leftover_is_searched():
    # the leftover vertex E may be any rest vertex the rest's sides leave out
    assert family_membership(cycles(9), RegularJoinDescriptor(0, 3))
    assert family_membership(cycles(4, 5), RegularJoinDescriptor(0, 3))
    assert not family_membership(cycles(3, 6), RegularJoinDescriptor(0, 3))
    g = joined_regular_extremal(11, 2, 3)
    (leftover,) = [v for v in range(2, 11) if not g.rows[v] & 0b11]
    # moving a core edge onto the leftover makes the old endpoint the leftover
    h = remove_edge(g, 0, 2).add_edge(0, leftover)
    assert family_membership(relabelled(h, 11), RegularJoinDescriptor(2, 3))
    assert not family_membership(relabelled(h.add_edge(1, leftover), 11), RegularJoinDescriptor(2, 3))


def test_membership_at_the_size_cap():
    for n in range(13, 17):
        for s, l in ((3, 4), (4, 3)):
            g1 = relabelled(joined_regular_extremal(n, s, l), n)
            g2 = relabelled(joined_capped_extremal(n, s, l), n)
            assert family_membership(g1, RegularJoinDescriptor(s, l)), (n, s, l)
            assert family_membership(g2, CappedJoinDescriptor(s, l)), (n, s, l)
    # one edge inside the rest moved: the edge count is kept, the degrees are not
    g = joined_regular_extremal(16, 3, 4)
    u, v = next((u, v) for u, v in g.edges() if u >= 3)
    w = next(w for w in range(3, 16) if w != u and not g.has_edge(u, w))
    moved = relabelled(remove_edge(g, u, v).add_edge(u, w), 16)
    assert moved.edge_count == g.edge_count
    assert not family_membership(moved, RegularJoinDescriptor(3, 4))
    with pytest.raises(ValueError):
        family_membership(empty_graph(17), RegularJoinDescriptor(3, 4))


def test_membership_capped_core_may_face_either_side():
    # the larger core part {0, 2} joined to the regular side T, which has
    # one vertex fewer than S: one edge short of the builder's layout
    rest, s_side, t_side = capped_bipartite(7, 3)
    g = disjoint_union(turan_graph(3, 2), rest)
    for a in (0, 2):
        for t in bits(t_side):
            g = g.add_edge(a, t + 3)
    for x in bits(s_side):
        g = g.add_edge(1, x + 3)
    assert g.edge_count == 18 and joined_capped_extremal(10, 3, 3).edge_count == 19
    assert family_membership(relabelled(g, 10), CappedJoinDescriptor(3, 3))
    assert not family_membership(relabelled(g, 10), RegularJoinDescriptor(3, 3))


def test_membership_rejects_unknown_descriptor():
    with pytest.raises(TypeError):
        family_membership(complete_bipartite(2, 3), (2, 3))


def test_group_order_of_the_search_generators():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    for g, order in ((empty_graph(5), 120), (complete_bipartite(3, 3), 72), (c5, 10), (petersen(), 120)):
        assert group_order(g.n, automorphism_generators(g)) == order
    # against a count of every permutation that keeps the edges
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        kept = sum(
            all(g.has_edge(p[u], p[v]) for u, v in g.edges()) for p in itertools.permutations(range(g.n))
        )
        assert group_order(g.n, automorphism_generators(g)) == kept, g.edges()


@pytest.mark.parametrize(
    "n, spec",
    [(9, "clique:3"), (8, "clique:4,starforest:1x4"), (8, "clique:4,matching:3"), (8, "clique:3,starforest:2x3")],
)
def test_levels_count_the_labelled_free_graphs_two_ways(n, spec):
    family = ForbiddenFamily.parse(spec)
    assert labelled_count_failures(family, free_levels(n, family)) == []


def test_labelled_count_identity_fails_on_injected_faults():
    levels = free_levels(8, K3)

    def at_nine(change):
        return [change(level) if e == 9 else level for e, level in enumerate(levels)]

    relabelled_copy = levels[9][0].relabel(tuple(reversed(range(8))))
    assert relabelled_copy.rows != levels[9][0].rows
    triangle = build_graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
    assert labelled_count_failures(K3, at_nine(lambda level: level[:-1])) == [8, 9]
    assert labelled_count_failures(K3, at_nine(lambda level: level + [relabelled_copy])) == [8, 9]
    assert labelled_count_failures(K3, at_nine(lambda level: level + [triangle])) == [8]
    # every class's last generator dropped: too small a group from the empty graph on
    dropped = labelled_count_failures(K3, levels, lambda g: automorphism_generators(g)[:-1])
    assert dropped[0] == 0
