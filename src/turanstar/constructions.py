"""Builders for the extremal graphs of the clique + star-forest problem.

The interesting constructions hang off one engine, `_circulant_engine`, a
bipartite circulant on n vertices with h = floor(n/2):

* Vertex x < h joins h + (x + j) mod h for each j < d.  When d <= h every
  vertex below 2h has degree d, and the graph is bipartite between 0..h-1
  and h..2h-1, so triangle-free; when n is odd, vertex n-1 is left over.
  d = h + 1 is possible only for odd n, and joins 0..h-1 to all of h..n-1.
* When n is odd and a regular graph is wanted, that spare vertex takes over
  the edges x-(h+x) for x = 0, d, ..., (floor(d/2) - 1)*d, which needs
  floor(d/2) <= floor(h/d).  The spare then has degree 2*floor(d/2) and
  every other vertex keeps d.  Its neighbourhood is independent, so it
  closes no triangle although it sits on both sides: for t != t' below
  floor(d/2), d <= |t' - t|*d <= (floor(d/2) - 1)*d <= h - d, so
  (t' - t)*d mod h lies in [d, h - d] and no fed x joins another fed h + x'.
* From n >= d^2 + 2 on, h >= (d^2 + 1)/2, so d <= h and floor(h/d) >=
  floor(d/2): the guaranteed range never refuses.

Every edge addition asserts simplicity and that no common neighbor exists,
so a violated bound fails loudly instead of emitting a wrong graph.

The triangle case's join families are laid out once, in ``_JOIN_RULE``: a
two-part core T_2(s) whose larger part is joined completely to one side of
the rest and whose smaller part to the other.  Both ``joined_*`` builders
share one body, ``_joined``, which checks their parameters against the
triangle problem's domain, takes their rest and its two sides, and builds
that layout by ``_sidewise_join``;
``family_membership`` recognises every family by it, K_{s,n-s} included
(an independent core part of s vertices joined to an independent side of
the rest): after an edge-count check it searches the splits into five
parts, two core parts, each free to face either side of the rest, those
two sides and a leftover.
The families hold many non-isomorphic graphs, so comparing with one builder
output would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .detectors import contains_clique
from .formulas import check_domain, extremal_family_edges
from .graphs import (
    Graph, VertexSet, bits, check_vertex_count, disjoint_union, empty_graph, induced_subgraph, join, mask_of,
    respects_bipartition,
)

# Distinct rests each builder keeps: a full verify asks for a few hundred, and
# the bound keeps a caller that sweeps large n from holding every graph.
REST_CACHE_SIZE = 1024


@dataclass(frozen=True)
class PartitionCertificate:
    """Witness that a graph admits a balanced near-bipartition.

    ``side_a`` holds floor(n/2) vertices and ``side_b`` the rest; when n is
    odd, ``exceptional`` names one vertex of side_b whose removal leaves the
    graph bipartite with parts (side_a, side_b minus exceptional).
    """

    side_a: VertexSet
    side_b: VertexSet
    exceptional: int | None

    def holds_for(self, g: Graph) -> bool:
        if self.side_a.bit_count() != g.n // 2:
            return False
        if (g.n % 2 == 1) != (self.exceptional is not None):
            return False
        if self.exceptional is not None:
            if self.exceptional < 0 or not self.side_b >> self.exceptional & 1:
                return False
            bit = 1 << self.exceptional
            g = Graph(g.n, tuple(0 if v == self.exceptional else row & ~bit for v, row in enumerate(g.rows)))
        return respects_bipartition(g, self.side_a, self.side_b)


def turan_graph(n: int, k: int) -> Graph:
    """Complete k-partite graph on n vertices with near-equal parts.

    Vertex v belongs to part v mod k, so remainder vertices land in the
    lowest-indexed parts and part 0 is never the smaller one.
    """
    if k < 0 or (k == 0 and n > 0):
        raise ValueError(f"turan_graph needs k >= 1 when n > 0, got n={n}, k={k}")
    check_vertex_count(n)
    part_masks = [0] * min(k, n)  # parts past the n-th stay empty
    for v in range(n):
        part_masks[v % k] |= 1 << v
    full = (1 << n) - 1
    rows = tuple(full & ~part_masks[v % k] for v in range(n))
    return Graph(n, rows)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the a-side on vertices 0..a-1."""
    if a < 0 or b < 0:
        raise ValueError(f"part sizes must be non-negative, got {a}, {b}")
    check_vertex_count(a + b)  # names the whole order, as every builder does
    return join(empty_graph(a), empty_graph(b))


class BelowRangeError(ValueError):
    """A builder refuses parameters below the range where it is proven to build.

    Raised by the range checks and by the circulant engine when it cannot
    feed the spare vertex below its guaranteed range; inside that range an
    engine failure is an AssertionError.  A problem builder raises it only
    for parameters inside the problem's domain (``formulas.DOMAINS``); an
    input outside it is a plain ValueError.  Suites that scan below the
    range skip such a size; any other ValueError from a builder is a bug
    and propagates.
    """


def _circulant_engine(total: int, degree: int, reroute_spare: bool) -> list[int]:
    """Adjacency rows for the bipartite circulant described in the module doc.

    With ``reroute_spare`` (odd ``total`` only) the spare vertex takes over
    floor(degree/2) circulant edges and reaches degree 2*floor(degree/2);
    otherwise it stays isolated whenever degree <= total // 2.
    """
    check_vertex_count(total)
    half = total // 2
    rows = [0] * total

    def put(u: int, v: int) -> None:
        assert not rows[u] >> v & 1, f"edge {u}-{v} already present"
        assert rows[u] & rows[v] == 0, f"adding {u}-{v} would close a triangle"
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    if degree == 0:
        return rows
    if degree > total - half:
        raise BelowRangeError("degree exceeds the larger side of the split")
    if degree > half:
        # Only reachable for odd totals with degree == ceil(total/2): the
        # first side joins all of the second, which realizes the degree on
        # the first side only and cannot feed a spare.
        if reroute_spare and half > 0:
            raise BelowRangeError("degree too close to half the vertex count")
        for x in range(half):
            for y in range(half, total):
                put(x, y)
        return rows
    fed = ()
    if reroute_spare:
        assert total % 2 == 1, "spare rerouting needs an odd vertex count"
        if degree // 2 > half // degree:
            raise BelowRangeError("not enough blocks to feed the spare vertex")
        fed = range(0, degree // 2 * degree, degree)
    for x in range(half):
        for j in range(x in fed, degree):  # a fed x leaves x-(half+x) to the spare
            put(x, half + (x + j) % half)
    for x in fed:
        put(x, total - 1)
        put(half + x, total - 1)
    return rows


def near_regular(g: Graph, rest: VertexSet, degree: int) -> bool:
    """Every degree inside ``rest`` is ``degree``, bar one short by one when
    degree * |rest| is odd?  The promise of ``regular_triangle_free``,
    without its triangle-freeness."""
    short = 0
    for v in bits(rest):
        d = (g.rows[v] & rest).bit_count()
        if not degree - 1 <= d <= degree:
            return False
        short += d < degree
    return short == degree * rest.bit_count() % 2


@lru_cache(maxsize=REST_CACHE_SIZE)
def _attempt_regular(n: int, degree: int) -> tuple[Graph, PartitionCertificate]:
    """Run the circulant engine at any n, below the guaranteed range too.

    Raises BelowRangeError when the engine cannot feed the spare vertex
    below n = degree**2 + 2, where it still succeeds for many n; at or
    above it, where the engine is proven to build, such a failure is a bug
    and raises AssertionError.  A built rest is cached: the graph and
    certificate are immutable, so a repeated call returns what a rebuild
    would; a refusal is raised again on every call.
    """
    try:
        rows = _circulant_engine(n, degree, reroute_spare=(n % 2 == 1))
    except BelowRangeError as exc:
        if n < degree * degree + 2:
            raise
        raise AssertionError(f"spare vertex not fed inside guaranteed range: {exc}") from exc
    g = Graph(n, tuple(rows))
    half = n // 2
    cert = PartitionCertificate(
        side_a=(1 << half) - 1,
        side_b=((1 << (n - half)) - 1) << half,
        exceptional=n - 1 if n % 2 else None,
    )
    assert near_regular(g, (1 << n) - 1, degree)
    assert cert.holds_for(g)
    return g, cert


def regular_triangle_free(n: int, l: int) -> tuple[Graph, PartitionCertificate]:
    """Triangle-free graph with all degrees ``l``, or all but one.

    The extremal graph of ``ex_star(n, l)``.  Exactly one vertex of degree
    ``l - 1`` appears when l * n is odd; that vertex is the certificate's
    exceptional vertex.  Requires n >= l**2 + 2; in that range the
    circulant engine is guaranteed to feed the spare vertex.
    """
    check_domain("star", n, l)
    if n < l * l + 2:
        raise BelowRangeError(f"need n >= l^2 + 2, got n={n}, l={l}")
    return _attempt_regular(n, l)


def capped_sides(g: Graph, s_side: VertexSet, t_side: VertexSet, degree: int) -> bool:
    """Every T vertex of degree exactly ``degree`` inside S | T, every S vertex
    at most?  The promise of ``capped_bipartite``, without its bipartiteness."""
    rest = s_side | t_side
    for v in bits(rest):
        d = (g.rows[v] & rest).bit_count()
        if d > degree or d < degree and t_side >> v & 1:
            return False
    return True


@lru_cache(maxsize=REST_CACHE_SIZE)
def capped_bipartite(n: int, l: int) -> tuple[Graph, VertexSet, VertexSet]:
    """Bipartite graph whose smaller side is (l-1)-regular.

    Returns (graph, s_mask, t_mask) where the side S has ceil(n/2) vertices
    of degree at most l-1 and the side T has floor(n/2) vertices of degree
    exactly l-1.  Requires ceil(n/2) >= l - 1.  Edge count is
    (l-1) * floor(n/2).  A built graph is cached, so repeated calls with
    the same arguments return the same immutable graph and masks; a refusal
    is raised again on every call.
    """
    check_vertex_count(n)
    if l < 1:
        raise ValueError(f"need l >= 1, got l={l}")
    degree = l - 1
    if (n + 1) // 2 < degree:
        raise BelowRangeError(f"need ceil(n/2) >= l-1, got n={n}, l={l}")
    rows = _circulant_engine(n, degree, reroute_spare=False)
    g = Graph(n, tuple(rows))
    half = n // 2
    first = (1 << half) - 1
    second = ((1 << (n - half)) - 1) << half
    if n % 2 == 0:
        s_mask, t_mask = first, second
    else:
        s_mask, t_mask = second, first
    assert capped_sides(g, s_mask, t_mask, degree)
    assert g.edge_count == degree * (n // 2)
    return g, s_mask, t_mask


# Parts of a join-family member, rows and columns in this order: core parts
# A (the larger) and B, the rest's sides X and Y joined to A and to B, and a
# leftover E.  Entry [p][q]: p and q completely joined (1), with no edges
# between them (0), or unconstrained (None).  X and Y are independent in a
# capped rest, which is bipartite between them.  A regular rest need only be
# triangle-free, so there X (Y) is independent only because A (B) is
# completely joined to it; when A (B) is empty, X (Y) is bound by nothing
# that E is not, and the membership test counts it in E.
_JOIN_RULE = (
    (0, 1, 1,    0,    0),     # A
    (1, 0, 0,    1,    0),     # B
    (1, 0, 0,    None, None),  # X
    (0, 1, None, 0,    None),  # Y
    (0, 0, None, None, None),  # E
)


def _sidewise_join(s: int, rest: Graph, x_side: VertexSet, y_side: VertexSet) -> Graph:
    """Core parts A on the even labels of 0..s-1 and B on the odd ones, over
    ``rest`` shifted up by s, with every pair of parts that ``_JOIN_RULE``
    marks 1 joined completely; the rest vertices outside both sides are E.
    A and B joined make the core T_2(s)."""
    g = disjoint_union(empty_graph(s), rest)
    parts = (mask_of(range(0, s, 2)), mask_of(range(1, s, 2)), x_side << s, y_side << s)
    rows = list(g.rows)
    for part, rule in zip(parts, _JOIN_RULE):
        joined = sum(other for other, r in zip(parts, rule) if r == 1)  # disjoint masks: sum is union
        for v in bits(part):
            rows[v] |= joined
    return Graph(g.n, tuple(rows))


def _joined(n: int, s: int, l: int, rest: Callable[[int, int], tuple[Graph, VertexSet, VertexSet]]) -> Graph:
    """The body of both ``joined_*`` builders: T_2(s) over ``rest(n - s, l)``,
    a graph with its sides X and Y, by ``_sidewise_join``.  The rest's
    refusal below its range is restated in the caller's n, s and l."""
    check_domain("triangle-star-forest", n, s, l)
    try:
        sides = rest(n - s, l)
    except BelowRangeError as exc:
        raise BelowRangeError(f"no rest of degree l-1 on n - s vertices, got n={n}, s={s}, l={l}") from exc
    return _sidewise_join(s, *sides)


def _regular_rest(m: int, l: int) -> tuple[Graph, VertexSet, VertexSet]:
    """The triangle-free (l-1)-regular rest on m vertices, with side X its
    certificate's side A and side Y its side B minus the exceptional vertex."""
    rest, cert = _attempt_regular(m, l - 1)
    spare = 0 if cert.exceptional is None else 1 << cert.exceptional
    return rest, cert.side_a, cert.side_b & ~spare


def joined_regular_extremal(n: int, s: int, l: int) -> Graph:
    """Extremal candidate: balanced complete bipartite core over a regular rest.

    The two-part Turan graph on s vertices sits on labels 0..s-1; the rest
    carries the triangle-free (l-1)-regular graph.  The larger Turan part
    joins completely to the smaller side of the rest's bipartition, the
    other part to the larger side, minus the exceptional vertex when the
    rest has odd order.  The result is triangle-free with
    ceil(s/2)*floor(s/2) + s*floor((n-s)/2) + floor((l-1)(n-s)/2) edges.

    Guaranteed to build when n - s >= (l-1)**2 + 2; smaller sizes are
    attempted and raise BelowRangeError if the engine cannot wire the rest
    there.
    """
    return _joined(n, s, l, _regular_rest)


def joined_capped_extremal(n: int, s: int, l: int) -> Graph:
    """Extremal candidate: balanced complete bipartite core over a capped rest.

    Like :func:`joined_regular_extremal` but the rest carries the capped
    bipartite graph; the larger Turan part joins the larger side S, the
    other part the (l-1)-regular side T.  Fully bipartite plus the core
    edge set, hence triangle-free.
    """
    return _joined(n, s, l, capped_bipartite)


def clique_matching_extremal(n: int, k: int, s: int) -> Graph:
    """Extremal candidate for forbidding K_{k+1} and a matching of s+1 edges.

    The (k-1)-part Turan graph on s vertices joined to n-s isolated
    vertices; every edge meets the s-set, so no s+1 disjoint edges fit.
    """
    check_domain("clique-matching", n, k, s)
    return join(turan_graph(s, k - 1), empty_graph(n - s))


def clique_star_forest_extremal(n: int, k: int, s: int, l: int) -> Graph:
    """Extremal candidate for forbidding K_{k+1} and s+1 disjoint l-leaf stars.

    The (k-2)-part Turan graph on s vertices joined to the triangle-free
    (l-1)-regular graph on the remaining n-s vertices.
    """
    check_domain("clique-star-forest", n, k, s, l)
    if n - s < (l - 1) ** 2 + 2:
        raise BelowRangeError(f"need n - s >= (l-1)^2 + 2, got n={n}, s={s}, l={l}")
    core, _ = _attempt_regular(n - s, l - 1)
    return join(turan_graph(s, k - 2), core)


# ---------------------------------------------------------------------------
# structural membership in the extremal families


@dataclass(frozen=True)
class CompleteBipartiteDescriptor:
    """K_{s, n-s}."""

    s: int


@dataclass(frozen=True)
class RegularJoinDescriptor:
    """Two-part core over a triangle-free (l-1)-regular rest, joined sidewise."""

    s: int
    l: int


@dataclass(frozen=True)
class CappedJoinDescriptor:
    """Two-part core over the capped bipartite rest, joined sidewise."""

    s: int
    l: int


FamilyDescriptor = CompleteBipartiteDescriptor | RegularJoinDescriptor | CappedJoinDescriptor

_MEMBERSHIP_MAX_N = 16


def _join_splits(g: Graph, sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Part masks of every split of g into parts of `sizes` that obeys _JOIN_RULE,
    placing vertices by descending degree, then index, so the core comes first."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    return _place(g.rows, order, sizes, [0] * len(sizes), 0)


def _place(
    rows: tuple[int, ...], order: list[int], sizes: tuple[int, ...], masks: list[int], i: int
) -> Iterator[tuple[int, ...]]:
    """Every way to put ``order[i:]`` into the parts ``masks``, each part
    filled to its size and every placed pair obeying ``_JOIN_RULE``."""
    if i == len(order):
        yield tuple(masks)
        return
    bit, row = 1 << order[i], rows[order[i]]
    for part, rule in enumerate(_JOIN_RULE):
        if masks[part].bit_count() == sizes[part]:
            continue
        for placed, r in zip(masks, rule):
            if r == 1 and placed & ~row or r == 0 and placed & row:
                break
        else:
            masks[part] |= bit
            yield from _place(rows, order, sizes, masks, i + 1)
            masks[part] ^= bit


def _near_regular(g: Graph, rest: int, degree: int) -> bool:
    """Triangle-free and ``near_regular`` on the rest?"""
    return near_regular(g, rest, degree) and not contains_clique(induced_subgraph(g, rest), 3)


def _layouts(g: Graph, descriptor: FamilyDescriptor) -> list[tuple[int, tuple[int, ...], Callable[..., bool]]]:
    """The ``_JOIN_RULE`` layouts a member of the family on g's order may take:
    each its edge count, its part sizes (A, B, X, Y, E) and the check on its
    rest sides X, Y and E."""
    n = g.n
    if isinstance(descriptor, CompleteBipartiteDescriptor):
        s = descriptor.s
        return [(s * (n - s), (s, 0, n - s, 0, 0), lambda x, y, e: True)] if 0 <= s <= n else []
    if not isinstance(descriptor, (RegularJoinDescriptor, CappedJoinDescriptor)):
        raise TypeError(f"unknown descriptor {descriptor!r}")
    s, l = descriptor.s, descriptor.l
    if s < 0 or l < 1 or n < s:
        return []
    a, b = (s + 1) // 2, s // 2
    half, odd = divmod(n - s, 2)
    e1, e2 = extremal_family_edges(n, s, l)
    if isinstance(descriptor, RegularJoinDescriptor):
        x_size, y_size = half * (a > 0), half * (b > 0)  # a side without its core part is in E
        sizes = (a, b, x_size, y_size, n - s - x_size - y_size)
        return [(e1, sizes, lambda x, y, e: _near_regular(g, x | y | e, l - 1))]
    # e2 counts A facing S; A facing T loses (|A| - |B|) * (|S| - |T|) edges
    return [
        (e2, (a, b, half + odd, half, 0), lambda x, y, e: capped_sides(g, x, y, l - 1)),
        (e2 - s % 2 * odd, (a, b, half, half + odd, 0), lambda x, y, e: capped_sides(g, y, x, l - 1)),
    ]


def family_membership(g: Graph, descriptor: FamilyDescriptor) -> bool:
    """Structural membership test against an extremal family.

    A member splits into the five parts of ``_JOIN_RULE`` in one of the
    family's ``_layouts``.  K_{s,n-s}: A holds s vertices and X the other
    n - s.  Join families: |A| = ceil(s/2) and |B| = floor(s/2).  Regular
    join: X and Y have floor(m/2) of the m = n - s rest vertices, E the odd
    one, and the rest is triangle-free and near-(l-1)-regular; a side whose
    core part is empty is counted in E, so at s = 0 every vertex is in E
    and the rest is checked once.  Capped join: no E; X and Y are, in
    either order, S (ceil(m/2) vertices of rest degree <= l-1) and T
    (floor(m/2), degree l-1).  After an edge-count check every split is
    searched: either core part may face either side.
    """
    if g.n > _MEMBERSHIP_MAX_N:
        raise ValueError(f"membership search capped at n = {_MEMBERSHIP_MAX_N}, got {g.n}")
    return any(
        g.edge_count == edges and any(check(x, y, e) for _, _, x, y, e in _join_splits(g, sizes))
        for edges, sizes, check in _layouts(g, descriptor)
    )
