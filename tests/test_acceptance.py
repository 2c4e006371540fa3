"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line straight to the terminal, then asserts.  All comparisons are exact
integer equality; expected values come from closed forms evaluated
independently of the code paths under test, or from the slow reference
detectors in _reference.py.
"""

import random

from _reference import (
    random_graph,
    ref_has_clique,
    ref_has_star_forest,
    ref_max_matching,
    strip_triangles,
)

from turanstar import (
    Clique,
    ForbiddenFamily,
    StarForest,
    are_isomorphic,
    brute_force_ex,
    clique_star_forest_extremal,
    complete_bipartite,
    contains_clique,
    contains_star_forest,
    enumerate_extremal,
    ex_clique_matching,
    ex_clique_star_forest,
    ex_triangle_star_forest,
    extremal_family_edges,
    is_family_free,
    joined_capped_extremal,
    joined_regular_extremal,
    max_matching_size,
    regular_triangle_free,
    symmetrize,
    turan_edges,
)


def _report(capsys, num, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {verdict} - {label}")
    assert not failures, f"criterion {num} ({label}): {failures[:5]}"


def test_criterion_01_star_turan_values(capsys):
    failures = []
    for l, n_range in ((1, range(3, 10)), (2, range(6, 10))):
        family = ForbiddenFamily((StarForest(1, l + 1),))
        for n in n_range:
            got = brute_force_ex(n, family).ex_value
            want = l * n // 2
            if got != want:
                failures.append((n, l, got, want))
    _report(capsys, 1, "bounded-degree extremal counts match exhaustive search", failures)


def test_criterion_02_clique_matching_values(capsys):
    failures = []
    for k, s in ((2, 1), (2, 2), (3, 1), (3, 2)):
        family = ForbiddenFamily((Clique(k + 1), StarForest(s + 1, 1)))
        for n in range(2 * s + 1, 9):
            got = brute_force_ex(n, family).ex_value
            want = max(turan_edges(2 * s + 1, k), turan_edges(s, k - 1) + s * (n - s))
            if got != want:
                failures.append((n, k, s, got, want))
    _report(capsys, 2, "clique-plus-matching extremal counts match exhaustive search", failures)


def test_criterion_03_unique_extremal_class(capsys):
    failures = []
    winners = enumerate_extremal(5, ForbiddenFamily((Clique(3), StarForest(2, 1))))
    if len(winners) != 1:
        failures.append(("class count", len(winners)))
    elif not are_isomorphic(winners[0], complete_bipartite(1, 4)):
        failures.append(("not the 4-leaf star", winners[0].rows))
    _report(capsys, 3, "five-vertex extremal graph is one class, the 4-leaf star", failures)


def test_criterion_04_clique_star_forest_audit(capsys):
    failures = []
    for k in range(3, 6):
        for s in range(0, 4):
            for l in range(2, 5):
                family = ForbiddenFamily((Clique(k + 1), StarForest(s + 1, l)))
                first = s + (l - 1) ** 2 + 2
                for n in range(first, first + 11):
                    g = clique_star_forest_extremal(n, k, s, l)
                    want = ex_clique_star_forest(n, k, s, l).value
                    if not is_family_free(g, family):
                        failures.append((n, k, s, l, "not free"))
                    elif g.edge_count != want:
                        failures.append((n, k, s, l, g.edge_count, want))
    _report(capsys, 4, "main construction is free and meets its closed form", failures)


def test_criterion_05_regular_builder_audit(capsys):
    failures = []
    for l in range(1, 7):
        for n in range(l * l + 2, 61):
            g, cert = regular_triangle_free(n, l)
            degs = sorted(g.degree(v) for v in range(n))
            want = [l - 1] + [l] * (n - 1) if (l * n) % 2 else [l] * n
            if degs != want:
                failures.append((n, l, "degrees", degs[:4]))
            elif contains_clique(g, 3):
                failures.append((n, l, "triangle"))
            elif not cert.holds_for(g):
                failures.append((n, l, "certificate"))
    _report(capsys, 5, "near-regular triangle-free builder audit", failures)


def test_criterion_06_family_pair_audit(capsys):
    failures = []
    for s in range(0, 5):
        for l in range(2, 6):
            for n in range(s + 1, 41):
                e1, e2 = extremal_family_edges(n, s, l)
                guaranteed = n - s >= (l - 1) ** 2 + 2
                try:
                    g1 = joined_regular_extremal(n, s, l)
                except ValueError:
                    g1 = None
                try:
                    g2 = joined_capped_extremal(n, s, l)
                except ValueError:
                    g2 = None
                if guaranteed and (g1 is None or g2 is None):
                    failures.append((n, s, l, "refused in guaranteed range"))
                    continue
                if g1 is not None and g1.edge_count != e1:
                    failures.append((n, s, l, "g1", g1.edge_count, e1))
                if g2 is not None and g2.edge_count != e2:
                    failures.append((n, s, l, "g2", g2.edge_count, e2))
                if (
                    g1 is not None
                    and g2 is not None
                    and (n - s) % 2 == 0
                    and n <= 14
                    and not are_isomorphic(g1, g2)
                ):
                    failures.append((n, s, l, "even case not isomorphic"))
    _report(capsys, 6, "both join builds meet the closed-form pair, even case isomorphic", failures)


def test_criterion_07_single_leaf_collapse(capsys):
    failures = []
    for s in (1, 2, 3):
        for n in range(4 * (s + 1), 41):
            a = ex_triangle_star_forest(n, s, 1).value
            b = ex_clique_matching(n, 2, s).value
            if a != b or a != s * (n - s):
                failures.append((n, s, a, b))
    _report(capsys, 7, "one-leaf star forest formula collapses to the matching formula", failures)


def test_criterion_08_detector_reference_agreement(capsys):
    failures = []
    rng = random.Random(80808)
    for _ in range(500):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        r = rng.randint(2, 5)
        if contains_clique(g, r) != ref_has_clique(g, r):
            failures.append(("clique", g.rows, r))
    for _ in range(500):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        if max_matching_size(g) != ref_max_matching(g):
            failures.append(("matching", g.rows))
    for _ in range(500):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        copies = rng.randint(1, 3)
        leaves = rng.randint(1, 3)
        if contains_star_forest(g, copies, leaves) != ref_has_star_forest(g, copies, leaves):
            failures.append(("starforest", g.rows, copies, leaves))
    _report(capsys, 8, "detectors agree with plain subset search on random graphs", failures)


def test_criterion_09_worker_count_determinism(capsys):
    failures = []
    cases = (
        (6, "clique:3,matching:2"),
        (7, "starforest:1x3"),
        (7, "clique:3,starforest:2x2"),
        (8, "clique:4,matching:3"),
    )
    for n, spec in cases:
        family = ForbiddenFamily.parse(spec)
        records = [brute_force_ex(n, family, jobs=j) for j in (1, 2, 8)]
        if not (records[0] == records[1] == records[2]):
            failures.append((n, spec))
    _report(capsys, 9, "exhaustive search results identical at 1, 2, and 8 workers", failures)


def test_criterion_10_symmetrization_properties(capsys):
    failures = []
    rng = random.Random(101010)
    done = 0
    while done < 1000:
        n = rng.randint(3, 12)
        g = strip_triangles(random_graph(rng, n, 0.5), rng)
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        h = symmetrize(g, u, v)
        if contains_clique(h, 3):
            failures.append((g.rows, u, v, "triangle appeared"))
        if h.edge_count != g.edge_count - g.degree(u) + g.degree(v):
            failures.append((g.rows, u, v, "edge count off"))
        done += 1
    _report(capsys, 10, "neighborhood copying keeps triangle-freeness and its edge ledger", failures)
