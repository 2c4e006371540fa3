"""Closed-form edge-count evaluators with explicit validity ranges.

Every evaluator returns a FormulaResult rather than a bare integer so the
caller can tell a value backed by a proof from one produced by plugging
parameters into arithmetic outside its supported range.  Out-of-range
evaluation is deliberate: the verification suites need raw values below
the thresholds to see where exhaustive search stops agreeing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Validity(enum.Enum):
    """How much weight a formula value carries at the given parameters."""

    PROVEN = "proven"
    HEURISTIC = "heuristic"
    OUT_OF_RANGE = "out-of-range"


@dataclass(frozen=True)
class FormulaResult:
    value: int
    validity: Validity
    source: str

    def as_dict(self) -> dict:
        return {"value": self.value, "validity": self.validity.value, "source": self.source}


# Each problem's parameter domain, keyed by its name in ``harness.PROBLEMS``:
# the least value of each parameter, in the order its closed form takes them.
# Beyond these, n must reach s where s is a parameter, and 0 otherwise.
DOMAINS = {
    "star": {"l": 0},
    "clique-matching": {"k": 2, "s": 0},
    "clique-star-forest": {"k": 3, "s": 0, "l": 2},
    "triangle-star-forest": {"s": 0, "l": 1},
}


def check_domain(problem: str, n: int, *args: int) -> None:
    """Raise ValueError, naming the offending values, unless n and ``args``
    (the problem's parameters in ``DOMAINS`` order) lie in its domain.

    Every closed form and problem builder calls this first, so an input
    outside the domain is a usage error, never a BelowRangeError.
    """
    s = None
    for (name, least), value in zip(DOMAINS[problem].items(), args, strict=True):
        if value < least:
            raise ValueError(f"need {name} >= {least}, got {name}={value}")
        if name == "s":
            s = value
    if s is not None and n < s:
        raise ValueError(f"need n >= s, got n={n}, s={s}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")


def turan_edges(n: int, k: int) -> int:
    """Edge count of the balanced complete k-partite graph on n vertices."""
    if k < 1:
        raise ValueError(f"need at least one part, got k={k}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    q, r = divmod(n, k)
    # r parts of size q+1, k-r parts of size q
    internal = r * (q + 1) * q // 2 + (k - r) * q * (q - 1) // 2
    return n * (n - 1) // 2 - internal


def ex_star(n: int, l: int) -> FormulaResult:
    """Most edges of an n-vertex graph with maximum degree at most l.

    Equivalently the extremal number for forbidding the star with l+1
    leaves.  The exact value floor(l*n/2) is guaranteed for n >= l*l + 2;
    below that the same arithmetic is reported as out of range.  On
    n <= l vertices no degree reaches l, and the value is C(n, 2).
    """
    check_domain("star", n, l)
    value = min(l, n - 1) * n // 2
    validity = Validity.PROVEN if n >= l * l + 2 else Validity.OUT_OF_RANGE
    return FormulaResult(value, validity, "star")


def ex_clique_matching(n: int, k: int, s: int) -> FormulaResult:
    """Extremal count for forbidding K_{k+1} and a matching of s+1 edges.

    Value is the larger of: all edges of the k-part Turan graph on 2s+1
    vertices (rest isolated), or the (k-1)-part Turan graph on s vertices
    joined to everything else.  Proven for n >= 2s+1.  Below that no s+1
    edges are disjoint, so the first term is the Turan graph on all n
    vertices, and the value is exact there too.
    """
    check_domain("clique-matching", n, k, s)
    value = max(turan_edges(min(n, 2 * s + 1), k), turan_edges(s, k - 1) + s * (n - s))
    validity = Validity.PROVEN if n >= 2 * s + 1 else Validity.OUT_OF_RANGE
    return FormulaResult(value, validity, "clique-matching")


def ex_clique_star_forest(n: int, k: int, s: int, l: int) -> FormulaResult:
    """Extremal count for forbidding K_{k+1} (k >= 3) and s+1 disjoint l-leaf stars.

    Value is e(T_{k-2}(s)) + s(n-s) + floor((l-1)(n-s)/2), the edge count
    of the matching join construction, with the rest's degree l-1 capped
    at the n-s-1 other rest vertices.  Proven once n reaches
    k*s^2 + (s+1)*(l+1)^2; smaller n still gets the raw arithmetic.
    """
    check_domain("clique-star-forest", n, k, s, l)
    m = n - s
    value = turan_edges(s, k - 2) + s * m + min(l - 1, m - 1) * m // 2
    threshold = k * s * s + (s + 1) * (l + 1) * (l + 1)
    validity = Validity.PROVEN if n >= threshold else Validity.OUT_OF_RANGE
    return FormulaResult(value, validity, "clique-star-forest")


def extremal_family_edges(n: int, s: int, l: int) -> tuple[int, int]:
    """Edge counts of the two triangle-free extremal candidates.

    First component: the regular-core join (joined_regular_extremal).
    Second: the capped-core join (joined_capped_extremal).  They agree
    whenever n - s is even.
    """
    check_domain("triangle-star-forest", n, s, l)
    m = n - s
    big, small = (s + 1) // 2, s // 2
    base = big * small
    e1 = base + s * (m // 2) + (l - 1) * m // 2
    e2 = base + (l - 1) * (m // 2) + small * (m // 2) + big * ((m + 1) // 2)
    return e1, e2


def ex_triangle_star_forest(n: int, s: int, l: int) -> FormulaResult:
    """Extremal count for forbidding K_3 and s+1 disjoint l-leaf stars.

    For l <= s the split graph K_{s,n-s} dominates and the value is
    s(n-s).  Otherwise the value is the better of the two join candidates,
    which coincide when n - s is even.  The known proof only covers
    unspecified large n, so the status is heuristic; the one exception is
    s = 0, where the star bound is proven for n >= (l-1)^2+2.
    """
    e1, e2 = extremal_family_edges(n, s, l)  # checks the domain
    if l < s + 1:
        value, source = s * (n - s), "triangle-star-forest:bipartite"
    elif (n - s) % 2 == 0 or e1 >= e2:
        value, source = e1, "triangle-star-forest:regular-join"
    else:
        value, source = e2, "triangle-star-forest:capped-join"
    if s == 0 and n >= (l - 1) ** 2 + 2:
        validity = Validity.PROVEN
    else:
        validity = Validity.HEURISTIC
    return FormulaResult(value, validity, source)


def exploration_threshold(s: int, l: int) -> int:
    """Ad hoc lower bound 4(s+l)^2 + s for labelling triangle-case sweep rows.

    Rows below it are flagged as exploratory in reports.  This bound
    asserts nothing and is backed by no proof; it exists only so the
    reports distinguish "probably settled" from "anybody's guess".
    """
    check_domain("triangle-star-forest", s, s, l)  # no n to check: n = s passes
    return 4 * (s + l) ** 2 + s
