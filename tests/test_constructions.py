import hashlib
import itertools
import random
import tracemalloc

import pytest

from turanstar import (
    BelowRangeError,
    CappedJoinDescriptor,
    Clique,
    ForbiddenFamily,
    PartitionCertificate,
    RegularJoinDescriptor,
    StarForest,
    are_isomorphic,
    build_graph,
    capped_bipartite,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    contains_clique,
    ex_clique_matching,
    ex_clique_star_forest,
    ex_star,
    ex_triangle_star_forest,
    exploration_threshold,
    extremal_family_edges,
    family_membership,
    is_family_free,
    joined_capped_extremal,
    joined_regular_extremal,
    regular_triangle_free,
    turan_edges,
    turan_graph,
)
from turanstar import harness
from turanstar.constructions import _attempt_regular
from turanstar.graphs import MAX_VERTICES, disjoint_union, empty_graph, join


def test_turan_graph_edge_counts():
    assert turan_graph(7, 3).edge_count == 16
    assert turan_graph(6, 3).edge_count == 12
    assert turan_graph(5, 1).edge_count == 0
    assert turan_graph(5, 5).edge_count == 10
    assert turan_graph(0, 3).edge_count == 0
    for n in range(0, 25):
        for k in range(1, 7):
            assert turan_graph(n, k).edge_count == turan_edges(n, k)


def test_turan_graph_is_clique_free():
    for k in range(2, 5):
        g = turan_graph(3 * k, k)
        assert contains_clique(g, k)
        assert not contains_clique(g, k + 1)


def test_turan_graph_rejects_zero_parts():
    with pytest.raises(ValueError):
        turan_graph(3, 0)
    assert turan_graph(0, 0).n == 0


def test_turan_graph_allocates_no_parts_past_the_nth():
    # the CLI passes --k through unchecked; parts past the n-th are empty
    tracemalloc.start()
    try:
        g = turan_graph(4, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g == turan_graph(4, 4)
    assert peak < 1 << 20


def test_complete_bipartite():
    g = complete_bipartite(2, 5)
    assert g.edge_count == 10
    assert g.degree(0) == 5 and g.degree(6) == 2
    assert complete_bipartite(0, 4).edge_count == 0


@pytest.mark.parametrize("build", [
    lambda: complete_bipartite(MAX_VERTICES, 1),
    lambda: turan_graph(MAX_VERTICES + 1, 2),
    lambda: regular_triangle_free(MAX_VERTICES + 1, 1),
    lambda: capped_bipartite(MAX_VERTICES + 1, 2),
    lambda: join(empty_graph(MAX_VERTICES), empty_graph(1)),
    lambda: disjoint_union(empty_graph(MAX_VERTICES), empty_graph(1)),
], ids=["complete_bipartite", "turan_graph", "regular_triangle_free", "capped_bipartite", "join", "disjoint_union"])
def test_builders_refuse_past_the_vertex_ceiling_before_allocating(build):
    with pytest.raises(ValueError, match="out of range") as refusal:
        build()
    assert not isinstance(refusal.value, BelowRangeError)


def test_regular_builder_examples():
    g, cert = regular_triangle_free(8, 2)
    assert g.edge_count == 8
    assert g.degree_sequence() == (2,) * 8
    g, cert = regular_triangle_free(11, 2)
    assert g.edge_count == 11
    assert cert.holds_for(g)
    g, cert = regular_triangle_free(6, 1)
    assert g.edge_count == 3
    assert g.degree_sequence() == (1,) * 6


def test_regular_builder_deficient_vertex():
    # odd degree sum forces exactly one vertex one short
    g, cert = regular_triangle_free(11, 3)
    assert g.degree_sequence() == (2,) + (3,) * 10
    assert cert.exceptional is not None
    assert g.degree(cert.exceptional) == 2


def test_regular_builder_grid():
    fam = ForbiddenFamily((Clique(3),))
    for degree in range(0, 6):
        for n in range(degree * degree + 2, degree * degree + 20):
            g, cert = regular_triangle_free(n, degree)
            assert is_family_free(g, fam)
            assert cert.holds_for(g)
            assert g.edge_count == degree * n // 2


def test_regular_builder_below_range():
    with pytest.raises(ValueError):
        regular_triangle_free(10, 3)
    with pytest.raises(ValueError):
        regular_triangle_free(5, -1)


def test_certificate_invariants():
    g, cert = regular_triangle_free(9, 2)
    assert cert.holds_for(g)
    # a certificate with the wrong split must not pass
    bad = PartitionCertificate(
        side_a=cert.side_a | 1 << 8, side_b=cert.side_b & ~(1 << 8), exceptional=None
    )
    assert not bad.holds_for(g)


def test_certificate_with_a_negative_exceptional_vertex_fails():
    g = build_graph(3, [(0, 1)])
    assert PartitionCertificate(0b001, 0b110, 2).holds_for(g)
    assert not PartitionCertificate(0b001, 0b110, -1).holds_for(g)


def test_capped_bipartite_examples():
    g, smask, tmask = capped_bipartite(9, 3)
    assert g.edge_count == 8
    t_degrees = [g.degree(v) for v in range(9) if tmask >> v & 1]
    s_degrees = [g.degree(v) for v in range(9) if smask >> v & 1]
    assert t_degrees == [2, 2, 2, 2]
    assert max(s_degrees) <= 2
    g, _, _ = capped_bipartite(4, 2)
    assert g.edge_count == 2
    g, _, _ = capped_bipartite(6, 1)
    assert g.edge_count == 0


def test_capped_bipartite_is_bipartite():
    from turanstar import respects_bipartition

    for m in range(1, 20):
        for l in range(1, 5):
            if (m + 1) // 2 < l - 1:
                with pytest.raises(ValueError):
                    capped_bipartite(m, l)
                continue
            g, smask, tmask = capped_bipartite(m, l)
            assert smask | tmask == (1 << m) - 1 and smask & tmask == 0
            assert respects_bipartition(g, smask, tmask)
            assert g.edge_count == (l - 1) * (m // 2)


def test_capped_equals_regular_for_even_order():
    # both builders run the same engine on even orders, so the graphs
    # agree vertex for vertex, not only up to isomorphism
    for l in range(2, 6):
        for m in range((l - 1) ** 2 + 2, 40):
            if m % 2:
                continue
            assert (
                capped_bipartite(m, l)[0].rows
                == regular_triangle_free(m, l - 1)[0].rows
            )


def test_joined_regular_examples():
    assert joined_regular_extremal(10, 2, 3).edge_count == 17
    assert joined_regular_extremal(7, 1, 2).edge_count == 6
    assert joined_regular_extremal(12, 3, 4).edge_count == 27


def test_joined_capped_examples():
    assert joined_capped_extremal(11, 2, 3).edge_count == 18
    assert joined_capped_extremal(12, 3, 4).edge_count == 28


def test_joined_builders_track_closed_forms():
    for s in range(0, 5):
        for l in range(2, 6):
            for n in range(s + 1, 41):
                e1, e2 = extremal_family_edges(n, s, l)
                try:
                    g1 = joined_regular_extremal(n, s, l)
                except ValueError:
                    g1 = None
                try:
                    g2 = joined_capped_extremal(n, s, l)
                except ValueError:
                    g2 = None
                if n - s >= (l - 1) ** 2 + 2:
                    # the guaranteed range never refuses
                    assert g1 is not None and g2 is not None
                if g1 is not None:
                    assert g1.edge_count == e1
                if g2 is not None:
                    assert g2.edge_count == e2
                if g1 is not None and g2 is not None and (n - s) % 2 == 0:
                    # both make the same engine call and the same join
                    assert g1 == g2


def _refusal(build):
    """``built``, or the builder's refusal as ``Type: message``."""
    try:
        build()
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    return "built"


# every core and rest parity, empty core parts, and rests below and inside
# the guaranteed range
JOINED_GRID = list(itertools.product(range(45), range(8), range(1, 7)))


# every closed form and problem builder: a point inside its problem's domain,
# and the least value of each of its parameters (n's least is s where s is one)
STAR = ({"n": 9, "l": 2}, {"n": 0, "l": 0})
MATCHING = ({"n": 9, "k": 3, "s": 2}, {"k": 2, "s": 0})
STAR_FOREST = ({"n": 20, "k": 3, "s": 2, "l": 3}, {"k": 3, "s": 0, "l": 2})
TRIANGLE = ({"n": 12, "s": 3, "l": 4}, {"s": 0, "l": 1})
DOMAIN_CALLERS = {
    ex_star: STAR,
    ex_clique_matching: MATCHING,
    ex_clique_star_forest: STAR_FOREST,
    ex_triangle_star_forest: TRIANGLE,
    extremal_family_edges: TRIANGLE,
    exploration_threshold: ({"s": 3, "l": 4}, {"s": 0, "l": 1}),
    clique_matching_extremal: MATCHING,
    clique_star_forest_extremal: STAR_FOREST,
    joined_regular_extremal: TRIANGLE,
    joined_capped_extremal: TRIANGLE,
}


@pytest.mark.parametrize("call", DOMAIN_CALLERS, ids=lambda call: call.__name__)
def test_inputs_outside_the_domain_are_usage_errors(call):
    # one below each least value, and n one below s: a plain ValueError that
    # names the values given, never a BelowRangeError that a suite would skip
    inside, least = DOMAIN_CALLERS[call]
    call(**inside)
    outside = [({**inside, name: value - 1}, (name,)) for name, value in least.items()]
    if "n" in inside and "s" in inside:
        outside += [({**inside, "n": inside["s"] - 1}, ("n", "s")), ({**inside, "n": 3, "s": 5}, ("n", "s"))]
    for point, names in outside:
        for attempt in (lambda: call(**point), lambda: harness._built(lambda: call(**point))):
            with pytest.raises(ValueError) as refusal:
                attempt()
            assert not isinstance(refusal.value, BelowRangeError), (point, refusal.value)
            for name in names:
                assert f"{name}={point[name]}" in str(refusal.value), (point, refusal.value)


def test_joined_builders_refuse_where_they_did():
    # which points each joined builder builds and how it refuses the others;
    # a change of wiring may move the rows, never these
    digest, built = hashlib.sha256(), 0
    for n, s, l in JOINED_GRID:
        for build in (joined_regular_extremal, joined_capped_extremal):
            text = _refusal(lambda: build(n, s, l))
            built += text == "built"
            digest.update(text.encode() + b"\n")
    assert built == 3480
    assert digest.hexdigest() == "87f05b8bc6441a37d5c6750de144f566bc01d82c840746c011bfe3b018ed952b"


def test_joined_builders_are_pinned():
    # the exact rows of every graph the joined builders build on JOINED_GRID
    digest = hashlib.sha256()
    for n, s, l in JOINED_GRID:
        for build in (joined_regular_extremal, joined_capped_extremal):
            if _refusal(lambda: build(n, s, l)) == "built":
                digest.update(repr(build(n, s, l).rows).encode() + b"\n")
    assert digest.hexdigest() == "0f0bfa5b5e63d37170e70ca9324b2c59719ffef76b940504670bd9a72a4bc985"


def test_joined_builders_agree_at_n_equal_s():
    # with no rest both joins are the core T_2(s) alone for l = 1, a member
    # of both join families, and refuse every larger l the same way
    for s in range(8):
        g = joined_regular_extremal(s, s, 1)
        assert joined_capped_extremal(s, s, 1).rows == g.rows == turan_graph(s, 2).rows
        assert g.edge_count == (s + 1) // 2 * (s // 2)
        assert family_membership(g, RegularJoinDescriptor(s, 1))
        assert family_membership(g, CappedJoinDescriptor(s, 1))
        for l in range(2, 7):
            for build in (joined_regular_extremal, joined_capped_extremal):
                with pytest.raises(BelowRangeError):
                    build(s, s, l)
        refusals = {_refusal(lambda: build(s, s, 0)) for build in (joined_regular_extremal, joined_capped_extremal)}
        assert refusals == {"ValueError: need l >= 1, got l=0"}


def test_engine_refuses_where_it_did():
    # the triangle-free engine's outcome through its two callers:
    # _attempt_regular reroutes the spare exactly when m is odd, and
    # capped_bipartite never does; an even m has no spare to reroute
    digest = hashlib.sha256()
    for m, d in itertools.product(range(200), range(15)):
        for build in (lambda: _attempt_regular(m, d), lambda: capped_bipartite(m, d + 1)):
            digest.update(_refusal(build).encode() + b"\n")
    assert digest.hexdigest() == "efbf00864dda77a28780fea37eac6122acfc6864e1f09ed7f866fb991af6877f"


def _built(build):
    try:
        return build()[0]
    except BelowRangeError:
        return None


def test_engine_degrees_and_spare():
    # side A, the first floor(m/2) vertices, has degree d and no graph holds
    # a triangle; rerouting gives the spare m - 1 degree 2*floor(d/2) and
    # every other vertex d, and without it an odd m leaves m - 1 isolated
    # unless d exceeds floor(m/2)
    for m, d in itertools.product(range(1, 120), range(1, 12)):
        h = m // 2
        regular = _built(lambda: _attempt_regular(m, d))
        capped = _built(lambda: capped_bipartite(m, d + 1))
        for g in filter(None, (regular, capped)):
            assert [g.degree(v) for v in range(h)] == [d] * h, (m, d)
            assert all(g.rows[u] & g.rows[v] == 0 for u, v in g.edges()), (m, d)
        if regular and m % 2:
            assert [regular.degree(v) for v in range(m)] == [d] * (m - 1) + [2 * (d // 2)], (m, d)
        if capped and m % 2 and d <= h:
            assert capped.rows[m - 1] == 0, (m, d)


def test_joined_builders_are_family_free():
    rng = random.Random(31)
    points = [(10, 2, 3), (12, 3, 4), (7, 1, 2), (11, 2, 3), (14, 0, 3), (9, 4, 2)]
    points += [
        (rng.randrange(s + (l - 1) ** 2 + 2, 30), s, l)
        for s in range(3)
        for l in range(2, 4)
    ]
    for n, s, l in points:
        fam = ForbiddenFamily((Clique(3), StarForest(s + 1, l)))
        assert is_family_free(joined_regular_extremal(n, s, l), fam), (n, s, l)
        assert is_family_free(joined_capped_extremal(n, s, l), fam), (n, s, l)


def test_clique_matching_examples():
    assert clique_matching_extremal(5, 2, 1).edge_count == 4
    assert are_isomorphic(clique_matching_extremal(5, 2, 1), complete_bipartite(1, 4))
    assert clique_matching_extremal(7, 3, 2).edge_count == 11
    fam = ForbiddenFamily((Clique(4), StarForest(3, 1)))
    assert is_family_free(clique_matching_extremal(7, 3, 2), fam)
    with pytest.raises(ValueError):
        clique_matching_extremal(5, 1, 1)
    with pytest.raises(ValueError):
        clique_matching_extremal(3, 2, 4)


def test_clique_star_forest_examples():
    assert clique_star_forest_extremal(30, 3, 1, 2).edge_count == 43
    assert clique_star_forest_extremal(25, 4, 2, 2).edge_count == 58
    fam = ForbiddenFamily((Clique(4), StarForest(2, 2)))
    assert is_family_free(clique_star_forest_extremal(30, 3, 1, 2), fam)
    with pytest.raises(ValueError):
        clique_star_forest_extremal(30, 2, 1, 2)
    with pytest.raises(ValueError):
        clique_star_forest_extremal(30, 3, 1, 1)
    with pytest.raises(ValueError):
        clique_star_forest_extremal(5, 3, 1, 3)  # rest below guaranteed range


def test_builders_are_deterministic():
    a = joined_regular_extremal(15, 2, 3)
    b = joined_regular_extremal(15, 2, 3)
    assert a == b
    x, certx = regular_triangle_free(13, 3)
    y, certy = regular_triangle_free(13, 3)
    assert x == y and certx == certy


def test_sub_threshold_attempts():
    # sizes below the guaranteed range either build correctly or refuse
    # with the dedicated error; 9 vertices at degree 3 builds, 5 at 3 cannot
    g = joined_regular_extremal(12, 3, 4)
    assert g.edge_count == extremal_family_edges(12, 3, 4)[0]
    with pytest.raises(BelowRangeError):
        joined_regular_extremal(9, 4, 4)
