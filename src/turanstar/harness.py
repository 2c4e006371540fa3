"""Verification suites and report emission.

Each suite row records up to three independently produced numbers: the
closed-form value, the edge count of an actually built graph, and the
exhaustive-search value.  A row's status only ever reflects comparisons
that were really performed; checks ruled out by a cap or by an unproven
threshold leave their cell empty or downgrade the row to SKIPPED with the
reason spelled out.  Divergence between search and formula below a proven
threshold is data about where the closed form starts holding, not a
failure, so it is never reported as MISMATCH.

Each problem (its parameters, forbidden family, closed form and candidate
extremal constructions) is declared once in ``PROBLEMS``; the suites, the
sweep and the CLI's ``formula`` command read that table.

Each suite declares in ``_SUITES`` the oracle slices it reads.  A run of
suites asks ``oracle.shared_records`` once for every family, in order of
first appearance, over the union of the ns its slices read; that call
decides which families share a walk.  Each fresh record is credited to
the first suite, in run order, that reads it.
Every parameter is checked before any row is built, so a ``ValueError``
while a suite builds its rows is a bug and is raised as an
``AssertionError`` that names the suite.
"""

from __future__ import annotations

import datetime as _dt
import io
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields

from .constructions import (
    BelowRangeError,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    joined_capped_extremal,
    joined_regular_extremal,
    near_regular,
    regular_triangle_free,
    turan_graph,
)
from .detectors import Clique, ForbiddenFamily, StarForest, is_family_free
from .formulas import (
    FormulaResult,
    ex_clique_matching,
    ex_clique_star_forest,
    ex_star,
    ex_triangle_star_forest,
    exploration_threshold,
    extremal_family_edges,
)
from .graphs import Graph, disjoint_union, empty_graph
from .oracle import ORACLE_MAX_N, ExtremalRecord, ResultCache, shared_records

TOOL_VERSION = "0.1.0"  # the package version: pyproject.toml reads it from here

MATCH = "MATCH"
MISMATCH = "MISMATCH"


def skipped(reason: str) -> str:
    return f"SKIPPED({reason})"


@dataclass(frozen=True)
class SuiteRow:
    """One report row; its fields, in order, are the CSV and table columns."""

    n: int
    k: int | None
    s: int | None
    l: int | None
    formula: int | None
    construction: int | None
    oracle: int | None
    free: bool | None
    status: str

    def sort_key(self) -> tuple:
        def none_low(x):
            return -1 if x is None else x

        return tuple(none_low(v) for v in (self.n, self.k, self.s, self.l))

    def as_dict(self) -> dict:
        # dataclasses.asdict would deep-copy each scalar and double emission time
        return dict(vars(self))


CSV_SCHEMA = ",".join(f.name for f in fields(SuiteRow))


@dataclass
class SuiteReport:
    suite: str
    rows: list[SuiteRow]
    timestamp: str
    version: str
    fresh_oracle_runs: int
    graphs_visited: int
    notes: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(row.status != MISMATCH for row in self.rows)

    def sorted_rows(self) -> list[SuiteRow]:
        return sorted(self.rows, key=SuiteRow.sort_key)


def _verdict(*checks: bool) -> str:
    return MATCH if all(checks) else MISMATCH


def _built(build: Callable[[], Graph]) -> Graph | None:
    """The builder's graph, or None where it refuses below its guaranteed range."""
    try:
        return build()
    except BelowRangeError:
        return None


# ---------------------------------------------------------------------------
# problems


def _clique_star_family(k: int, s: int, l: int) -> ForbiddenFamily:
    return ForbiddenFamily((Clique(k + 1), StarForest(s + 1, l)))


@dataclass(frozen=True)
class Problem:
    """One extremal problem, declared once.

    ``family`` takes the parameters named in ``params``; ``formula`` and
    ``builders`` take ``(n, *params)``.  ``builders`` returns thunks for the
    candidate extremal graphs, and every candidate it returns applies at
    that ``(n, params)``: below a construction's guaranteed range the
    thunk may still refuse with BelowRangeError, which ``_built`` turns
    into None.
    """

    params: tuple[str, ...]
    family: Callable[..., ForbiddenFamily]
    formula: Callable[..., FormulaResult]
    builders: Callable[..., tuple[Callable[[], Graph], ...]]


# Lambdas look formulas and builders up at call time, so a module attribute
# swapped in later (a tracer, a test double) is the one that runs.
PROBLEMS = {
    "star": Problem(
        params=("l",),
        family=lambda l: ForbiddenFamily((StarForest(1, l + 1),)),
        formula=lambda n, l: ex_star(n, l),
        builders=lambda n, l: (lambda: regular_triangle_free(n, l)[0],),
    ),
    "clique-matching": Problem(
        params=("k", "s"),
        family=lambda k, s: _clique_star_family(k, s, 1),
        formula=lambda n, k, s: ex_clique_matching(n, k, s),
        # compact core vs split join
        builders=lambda n, k, s: (
            lambda: disjoint_union(turan_graph(2 * s + 1, k), empty_graph(n - 2 * s - 1)),
            lambda: clique_matching_extremal(n, k, s),
        ),
    ),
    "clique-star-forest": Problem(
        params=("k", "s", "l"),
        family=_clique_star_family,
        formula=lambda n, k, s, l: ex_clique_star_forest(n, k, s, l),
        builders=lambda n, k, s, l: (lambda: clique_star_forest_extremal(n, k, s, l),),
    ),
    "triangle-star-forest": Problem(
        params=("s", "l"),
        family=lambda s, l: _clique_star_family(2, s, l),
        formula=lambda n, s, l: ex_triangle_star_forest(n, s, l),
        builders=lambda n, s, l: (
            (lambda: joined_regular_extremal(n, s, l), lambda: joined_capped_extremal(n, s, l))
            if l >= s + 1
            else (lambda: complete_bipartite(s, n - s),)
        ),
    ),
}


def _args(name: str, params: dict) -> list[int]:
    return [params[p] for p in PROBLEMS[name].params]


def _row(
    n: int,
    params: dict,
    formula: int | None,
    construction: int | None,
    oracle: int | None,
    free: bool | None,
    status: str,
) -> SuiteRow:
    """The one place a row is made: the suite's params label its k, s and l columns."""
    k, s, l = params.get("k"), params.get("s"), params.get("l")
    return SuiteRow(n, k, s, l, formula, construction, oracle, free, status)


def _checked_row(name: str, n: int, params: dict, record: ExtremalRecord | None = None) -> SuiteRow:
    """A row that must agree: every candidate free, its best edge count equal to the formula."""
    problem = PROBLEMS[name]
    args = _args(name, params)
    graphs = [build() for build in problem.builders(n, *args)]
    family = problem.family(*args)
    free = all(is_family_free(g, family) for g in graphs)
    construction = max(g.edge_count for g in graphs)
    formula = problem.formula(n, *args).value
    oracle = None if record is None else record.ex_value
    status = _verdict(free, formula == construction, oracle is None or oracle == formula)
    return _row(n, params, formula, construction, oracle, free, status)


def _explored_row(
    name: str, n: int, params: dict, record: ExtremalRecord, reason: str, construction: int | None = None
) -> SuiteRow:
    """A row where search below the threshold may beat the formula: MATCH or SKIPPED(reason)."""
    formula = PROBLEMS[name].formula(n, *_args(name, params)).value
    status = MATCH if record.ex_value == formula else skipped(reason)
    return _row(n, params, formula, construction, record.ex_value, None, status)


# ---------------------------------------------------------------------------
# suites
#
# A suite is its oracle slices, each (problem, params, ns), and a builder that
# gets the slices with each ns replaced by its records and returns (rows,
# notes).  Grids sit under the enumeration cap; only the sweep takes parameters.


def _suite_regular_core(_) -> tuple[list[SuiteRow], dict]:
    rows = []
    for degree in range(1, 7):
        for n in range(degree * degree + 2, 60 + 1):
            g, cert = regular_triangle_free(n, degree)
            free = (
                near_regular(g, (1 << n) - 1, degree)
                and cert.holds_for(g)
                and is_family_free(g, ForbiddenFamily((Clique(3),)))
            )
            formula = ex_star(n, degree).value
            status = _verdict(free, formula == g.edge_count)
            rows.append(_row(n, {"l": degree}, formula, g.edge_count, None, free, status))
    return rows, {}


def _checked_suite(sliced) -> tuple[list[SuiteRow], dict]:
    rows = []
    for name, params, records in sliced:
        rows += [_checked_row(name, n, params, record) for n, record in records.items()]
    return rows, {}


def _suite_clique_star_forest(_) -> tuple[list[SuiteRow], dict]:
    rows = []
    for k in range(3, 6):
        for s in range(0, 4):
            for l in range(2, 5):
                first = s + (l - 1) ** 2 + 2
                for n in range(first, first + 10 + 1):
                    rows.append(_checked_row("clique-star-forest", n, {"k": k, "s": s, "l": l}))
    return rows, {"oracle": f"skipped: grid sizes exceed the enumeration cap {ORACLE_MAX_N}"}


def _suite_triangle_star_forest(sliced) -> tuple[list[SuiteRow], dict]:
    problem = PROBLEMS["triangle-star-forest"]
    rows = []
    for s in range(0, 5):
        for l in range(2, 6):
            params = {"k": 2, "s": s, "l": l}
            for n in range(s + 1, 40 + 1):
                family = problem.family(s, l)
                e1, e2 = extremal_family_edges(n, s, l)
                # rows exist only where the construction actually comes out
                g1 = _built(lambda: joined_regular_extremal(n, s, l))
                g2 = _built(lambda: joined_capped_extremal(n, s, l))
                formula = problem.formula(n, s, l).value
                even = (n - s) % 2 == 0
                # for even n - s both builders make the same join, so the graphs are equal
                same_ok = not even or g1 is None or g1 == g2
                star_case = l >= s + 1
                g1_carries = star_case and (even or e1 >= e2)
                g2_carries = star_case and not even and e2 > e1
                # (graph, its own edge-count check, whether the formula rests on it)
                built = []
                if g1 is not None:
                    built.append((g1, g1.edge_count == e1, g1_carries))
                if g2 is not None:
                    built.append((g2, g2.edge_count == e2 and same_ok, g2_carries))
                if not star_case:
                    built.append((complete_bipartite(s, n - s), True, True))
                for g, count_ok, carries in built:
                    free = is_family_free(g, family)
                    status = _verdict(free, count_ok, (not carries) or formula == g.edge_count)
                    rows.append(_row(n, params, formula, g.edge_count, None, free, status))
    for name, params, records in sliced:
        bound = exploration_threshold(params["s"], params["l"])
        reason = f"divergence below unproven threshold, exploratory bound n>={bound}"
        for n, record in records.items():
            rows.append(_explored_row(name, n, params, record, reason))
    return rows, {}


def _sweep_slices(k: int = 2, s: int = 1, l: int = 2, n_max: int = ORACLE_MAX_N) -> tuple:
    """The sweep's one slice: K_{k+1} plus (s+1)S_l at n = s + 2..n_max."""
    if k < 2 or s < 0 or l < 1 or (k > 2 and l < 2):
        raise ValueError(f"bad sweep parameters k={k}, s={s}, l={l}")
    if n_max < s + 2:
        raise ValueError(f"empty sweep: no n in s + 2 = {s + 2} .. n_max = {n_max}")
    name = "triangle-star-forest" if k == 2 else "clique-star-forest"
    return ((name, {"k": k, "s": s, "l": l}, range(s + 2, n_max + 1)),)


def _sweep_rows(sliced) -> tuple[list[SuiteRow], dict]:
    ((name, params, records),) = sliced
    rows = []
    agreement = None
    for n, record in records.items():
        built = [_built(build) for build in PROBLEMS[name].builders(n, *_args(name, params))]
        construction = max((g.edge_count for g in built if g is not None), default=None)
        row = _explored_row(name, n, params, record, "pre-threshold divergence", construction)
        if row.status != MATCH:
            agreement = None
        elif agreement is None:
            agreement = n
        rows.append(row)
    notes = {
        "first_agreement_n": agreement,
        "note": "agreement point is empirical; the sweep asserts nothing",
    }
    if params["k"] == 2:
        notes["exploratory_threshold"] = exploration_threshold(params["s"], params["l"])
    return rows, notes


_SUITES = {
    "regular-core": ((), _suite_regular_core),
    "star-turan": (tuple(("star", {"l": l}, range(l * l + 2, 9 + 1)) for l in (1, 2)), _checked_suite),
    "clique-matching": (
        tuple(
            ("clique-matching", {"k": k, "s": s}, range(2 * s + 1, 8 + 1))
            for k, s in ((2, 1), (2, 2), (3, 1), (3, 2))
        ),
        _checked_suite,
    ),
    "clique-star-forest": ((), _suite_clique_star_forest),
    "triangle-star-forest": (
        tuple(
            ("triangle-star-forest", {"k": 2, "s": s, "l": l}, range(s + 2, 9 + 1))
            for s, l in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 2))
        ),
        _suite_triangle_star_forest,
    ),
    "boundary-sweep": (_sweep_slices(), _sweep_rows),
}

SUITE_NAMES = tuple(_SUITES)


def _run(suites: list, jobs: int, cache: ResultCache | None) -> list[SuiteReport]:
    """One report per (name, slices, builder), in order; see the module docstring."""
    wanted: dict[ForbiddenFamily, set[int]] = {}
    for _, slices, _ in suites:
        for name, params, ns in slices:
            wanted.setdefault(PROBLEMS[name].family(*_args(name, params)), set()).update(ns)
    fresh: set[tuple[ForbiddenFamily, int]] = set()
    fetched = shared_records(wanted, jobs, cache, fresh)
    reports = []
    for suite, slices, build in suites:
        sliced, credited = [], []
        for name, params, ns in slices:
            family = PROBLEMS[name].family(*_args(name, params))
            sliced.append((name, params, {n: fetched[family][n] for n in ns}))
            credited += [fetched[family][n] for n in ns if (family, n) in fresh]
            fresh -= {(family, n) for n in ns}
        try:
            rows, notes = build(sliced)
        except ValueError as exc:
            raise AssertionError(f"suite {suite} failed to build its rows: {exc}") from exc
        now = _dt.datetime.now(_dt.timezone.utc).isoformat()
        visited = sum(record.graphs_visited for record in credited)
        reports.append(SuiteReport(suite, rows, now, TOOL_VERSION, len(credited), visited, notes))
    return reports


def run_suites(
    names: Sequence[str], *, jobs: int = 1, cache: ResultCache | None = None
) -> list[SuiteReport]:
    """Run suites over their fixed grids, one report per name, one walk per vertex count."""
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    return _run([(name, *_SUITES[name]) for name in names], jobs, cache)


def run_suite(name: str, *, jobs: int = 1, cache: ResultCache | None = None) -> SuiteReport:
    """Run one verification suite over its fixed grid and return its report."""
    return run_suites((name,), jobs=jobs, cache=cache)[0]


def boundary_sweep(
    k: int = 2,
    s: int = 1,
    l: int = 2,
    n_max: int = ORACLE_MAX_N,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> SuiteReport:
    """Search against the closed form for K_{k+1} plus (s+1)S_l at n = s + 2..n_max.

    The defaults are the ``boundary-sweep`` suite's.  Rows below the point
    where the two agree are SKIPPED, never MISMATCH; the first n from
    which they agree onward is noted, and the sweep asserts nothing.
    """
    return _run([("boundary-sweep", _sweep_slices(k, s, l, n_max), _sweep_rows)], jobs, cache)[0]


# ---------------------------------------------------------------------------
# report emission


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_report(report: SuiteReport, fmt: str = "csv") -> bytes:
    """Serialize a report; row order is deterministic."""
    rows = report.sorted_rows()
    if fmt == "json":
        payload = {
            "suite": report.suite,
            "version": report.version,
            "timestamp": report.timestamp,
            "notes": report.notes,
            "fresh_oracle_runs": report.fresh_oracle_runs,
            "graphs_visited": report.graphs_visited,
            "rows": [row.as_dict() for row in rows],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    grid = [CSV_SCHEMA.split(",")] + [[_cell(v) for v in vars(row).values()] for row in rows]
    if fmt == "csv":
        out = io.StringIO()
        out.write("# turanstar-report schema=v1\n")
        out.write(f"# suite: {report.suite}\n")
        out.write(f"# version: {report.version}\n")
        for key in sorted(report.notes):
            out.write(f"# {key}: {report.notes[key]}\n")
        out.write(f"# timestamp: {report.timestamp}\n")
        for line in grid:
            out.write(",".join(line) + "\n")
        return out.getvalue().encode()
    if fmt == "table":
        widths = [max(map(len, column)) for column in zip(*grid)]
        out = io.StringIO()
        out.write(f"suite {report.suite} (version {report.version})\n")
        for key in sorted(report.notes):
            out.write(f"{key}: {report.notes[key]}\n")
        for line in grid:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")
        summary = "ok" if report.ok() else "MISMATCH PRESENT"
        out.write(f"rows: {len(rows)}  status: {summary}\n")
        return out.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}; choose csv, json, or table")
