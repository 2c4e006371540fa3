import pytest

from turanstar import (
    ForbiddenFamily,
    FormulaResult,
    Validity,
    brute_force_ex,
    ex_clique_matching,
    ex_clique_star_forest,
    ex_star,
    ex_triangle_star_forest,
    exploration_threshold,
    extremal_family_edges,
    turan_edges,
    turan_graph,
)


def test_turan_edges_examples():
    assert turan_edges(7, 3) == 16
    assert turan_edges(5, 2) == 6
    assert turan_edges(3, 5) == 3
    assert turan_edges(0, 4) == 0
    with pytest.raises(ValueError):
        turan_edges(3, 0)
    with pytest.raises(ValueError):
        turan_edges(-1, 2)


def test_turan_edges_match_built_graphs():
    for n in range(0, 41):
        for k in range(1, 7):
            assert turan_edges(n, k) == turan_graph(n, k).edge_count


def test_ex_star_values_and_validity():
    r = ex_star(11, 3)
    assert r == FormulaResult(16, Validity.PROVEN, "star")
    assert ex_star(10, 3) == FormulaResult(15, Validity.OUT_OF_RANGE, "star")
    assert ex_star(6, 2).validity is Validity.PROVEN
    assert ex_star(5, 2).validity is Validity.OUT_OF_RANGE
    assert ex_star(5, 2).value == 5
    assert r.as_dict() == {"value": 16, "validity": "proven", "source": "star"}


@pytest.mark.parametrize("l", range(1, 8))
def test_ex_star_is_exact_on_few_vertices(l):
    # on n <= l vertices the degree bound never binds, so ex is C(n, 2)
    family = ForbiddenFamily.parse(f"starforest:1x{l + 1}")
    for n in range(1, min(l + 1, 7) + 1):
        assert ex_star(n, l).value == brute_force_ex(n, family).ex_value, n


def test_ex_clique_matching_examples():
    assert ex_clique_matching(5, 2, 1).value == 4
    assert ex_clique_matching(7, 3, 2).value == 11
    assert ex_clique_matching(6, 3, 2).value == 9
    assert ex_clique_matching(40, 2, 3).value == max(turan_edges(7, 2), 3 * 37)
    assert ex_clique_matching(5, 2, 2).validity is Validity.PROVEN
    assert ex_clique_matching(4, 2, 2).validity is Validity.OUT_OF_RANGE
    with pytest.raises(ValueError):
        ex_clique_matching(5, 1, 1)
    with pytest.raises(ValueError):
        ex_clique_matching(5, 2, -1)
    with pytest.raises(ValueError, match=r"need n >= s, got n=2, s=3"):
        ex_clique_matching(2, 3, 3)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_ex_clique_matching_is_exact_below_its_threshold(k, s):
    # M_{s+1} needs 2s + 2 vertices, so on n <= 2s + 1 only K_{k+1} is
    # forbidden and ex is Turan's number on all n vertices
    family = ForbiddenFamily.parse(f"clique:{k + 1},matching:{s + 1}")
    for n in range(s, min(2 * s + 1, 7) + 1):
        assert ex_clique_matching(n, k, s).value == brute_force_ex(n, family).ex_value, n


def test_ex_clique_matching_monotone_in_n():
    for k, s in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 3)):
        values = [ex_clique_matching(n, k, s).value for n in range(2 * s + 1, 30)]
        assert values == sorted(values)


def test_ex_clique_star_forest_examples():
    assert ex_clique_star_forest(30, 3, 1, 2).value == 43
    assert ex_clique_star_forest(25, 4, 2, 2).value == 58
    # threshold k*s^2 + (s+1)*(l+1)^2 splits proven from out-of-range
    thr = 3 * 1 + 2 * 9
    assert ex_clique_star_forest(thr, 3, 1, 2).validity is Validity.PROVEN
    assert ex_clique_star_forest(thr - 1, 3, 1, 2).validity is Validity.OUT_OF_RANGE
    with pytest.raises(ValueError):
        ex_clique_star_forest(10, 2, 1, 2)
    with pytest.raises(ValueError):
        ex_clique_star_forest(10, 3, 1, 1)
    with pytest.raises(ValueError):
        ex_clique_star_forest(2, 3, 3, 2)
    # the rest of 1 vertex carries no edges, whatever l is
    assert ex_clique_star_forest(3, 3, 2, 9).value == 2


STAR_POINTS = [(n, l) for l in range(8) for n in range(21)]
MATCHING_POINTS = [(n, k, s) for k in range(2, 11) for s in range(6) for n in range(s, 21)]
STAR_FOREST_POINTS = [
    (n, k, s, l) for k in range(3, 11) for s in range(6) for l in range(2, 8) for n in range(s, 21)
]
TRIANGLE_POINTS = [(n, s, l) for s in range(4) for l in range(1, 8) for n in range(s, 21)]


def _over_pairs(formula, points):
    """The points (n, *params) where the closed form counts more edges than n vertices have pairs."""
    return [p for p in points if formula(*p).value > p[0] * (p[0] - 1) // 2]


@pytest.mark.parametrize(
    "formula, points",
    [(ex_star, STAR_POINTS), (ex_clique_matching, MATCHING_POINTS), (ex_clique_star_forest, STAR_FOREST_POINTS)],
    ids=["star", "clique-matching", "clique-star-forest"],
)
def test_closed_forms_count_no_more_edges_than_pairs(formula, points):
    assert _over_pairs(formula, points) == []


@pytest.mark.xfail(
    strict=True,
    reason="ex_triangle_star_forest over-counts at 40 of these points, among them the "
    "verify fixture's row n = 2, s = 0, l = 3, which reads 2",
)
def test_triangle_closed_form_counts_no_more_edges_than_pairs():
    assert _over_pairs(ex_triangle_star_forest, TRIANGLE_POINTS) == []


def test_extremal_family_edges_examples():
    assert extremal_family_edges(12, 3, 4) == (27, 28)
    assert extremal_family_edges(10, 2, 3) == (17, 17)
    assert extremal_family_edges(11, 2, 3) == (18, 18)
    # even rest order always makes the two forms agree
    for s in range(0, 5):
        for l in range(1, 6):
            for n in range(s, 41):
                e1, e2 = extremal_family_edges(n, s, l)
                if (n - s) % 2 == 0:
                    assert e1 == e2, (n, s, l)


def test_ex_triangle_star_forest_examples():
    assert ex_triangle_star_forest(10, 2, 3).value == 17
    assert ex_triangle_star_forest(12, 3, 4).value == 28
    assert ex_triangle_star_forest(20, 3, 2).value == 51
    # small-star case: complete split graph wins
    assert ex_triangle_star_forest(20, 3, 2).source.endswith("bipartite")
    assert ex_triangle_star_forest(20, 3, 2).value == 3 * 17


def test_ex_triangle_star_forest_branches():
    # big-star case picks whichever closed form is larger
    for s in range(0, 4):
        for l in range(s + 1, 6):
            for n in range(s + 2, 35):
                r = ex_triangle_star_forest(n, s, l)
                e1, e2 = extremal_family_edges(n, s, l)
                assert r.value == max(e1, e2), (n, s, l)
    # small-star case is the split graph count
    for s in range(1, 5):
        for l in range(1, s + 1):
            for n in range(s + 2, 35):
                assert ex_triangle_star_forest(n, s, l).value == s * (n - s)


def test_ex_triangle_star_forest_validity():
    # the two-pattern k=2 statement carries no explicit threshold, so
    # only the pure star-forest case s=0 ever reports proven
    assert ex_triangle_star_forest(30, 0, 3).validity is Validity.PROVEN
    assert ex_triangle_star_forest(5, 0, 3).validity is Validity.HEURISTIC
    assert ex_triangle_star_forest(30, 2, 3).validity is Validity.HEURISTIC
    assert ex_triangle_star_forest(30, 3, 2).validity is Validity.HEURISTIC


def test_l1_collapses_to_matching_formula():
    for s in (1, 2, 3):
        for n in range(4 * (s + 1), 41):
            assert (
                ex_triangle_star_forest(n, s, 1).value
                == ex_clique_matching(n, 2, s).value
                == s * (n - s)
            )


def test_exploration_threshold():
    assert exploration_threshold(1, 2) == 37
    assert exploration_threshold(0, 3) == 36
    assert exploration_threshold(2, 2) == 66


def test_formula_results_are_frozen():
    r = ex_star(10, 3)
    with pytest.raises(AttributeError):
        r.value = 0
