"""Command line front end.

Exit codes: 0 when everything checked is MATCH or SKIPPED, 1 when any
verification row is MISMATCH, 2 for usage errors.
"""

from __future__ import annotations

import json
import sys

import click

from .constructions import (
    capped_bipartite,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    joined_capped_extremal,
    joined_regular_extremal,
    regular_triangle_free,
    turan_graph,
)
from .detectors import ForbiddenFamily
from .formulas import extremal_family_edges
from .graph6 import graph6_decode, graph6_encode, to_edge_list_json
from .harness import (
    PROBLEMS, ResultCache, SUITE_NAMES, TOOL_VERSION, boundary_sweep, emit_report, fetch_records,
    run_suites,
)


def _usage(err: Exception) -> click.UsageError:
    return click.UsageError(str(err))


def _need(names: tuple[str, ...], **values) -> list:
    """The named option values in order; a usage error for the first one missing."""
    for name in names:
        if values[name] is None:
            raise click.UsageError(f"missing required option --{name}")
    return [values[name] for name in names]


def _write(data: bytes, out) -> None:
    """Write to the --out file, or to stdout without one."""
    if out:
        with open(out, "wb") as handle:
            handle.write(data)
    else:
        click.echo(data, nl=False)


@click.group()
@click.version_option(version=TOOL_VERSION, prog_name="turanstar")
def main():
    """Extremal graphs avoiding a clique and a star forest: build, check, count."""


# name -> (required options, builder taking n and those options in order)
_BUILDERS = {
    "turan": (("k",), lambda n, k: turan_graph(n, k)),
    "complete-bipartite": (("s",), lambda n, s: complete_bipartite(s, n - s)),
    "regular": (("l",), lambda n, l: regular_triangle_free(n, l)[0]),
    "capped-bipartite": (("l",), lambda n, l: capped_bipartite(n, l)[0]),
    "joined-regular": (("s", "l"), lambda n, s, l: joined_regular_extremal(n, s, l)),
    "joined-capped": (("s", "l"), lambda n, s, l: joined_capped_extremal(n, s, l)),
    "clique-matching": (("k", "s"), lambda n, k, s: clique_matching_extremal(n, k, s)),
    "clique-star-forest": (
        ("k", "s", "l"),
        lambda n, k, s, l: clique_star_forest_extremal(n, k, s, l),
    ),
}


@main.command()
@click.option("--builder", type=click.Choice(list(_BUILDERS)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--l", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["graph6", "json"]), default="graph6")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def construct(builder, n, k, s, l, fmt, out):
    """Build one named graph and print it."""
    options, build = _BUILDERS[builder]
    try:
        g = build(n, *_need(options, k=k, s=s, l=l))
    except ValueError as err:
        raise _usage(err)
    text = graph6_encode(g) if fmt == "graph6" else to_edge_list_json(g)
    _write(f"{text}\n".encode(), out)


def _parse_family(spec: str) -> ForbiddenFamily:
    try:
        return ForbiddenFamily.parse(spec)
    except ValueError as err:
        raise _usage(err)


@main.command()
@click.option("--family", required=True, help="e.g. 'clique:3,starforest:2x2'")
@click.option("--g6", multiple=True, help="graph6 string; repeatable")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def detect(family, g6, infile, fmt):
    """Report which forbidden patterns occur in each input graph."""
    fam = _parse_family(family)
    codes = list(g6)
    if infile:
        with open(infile, encoding="utf-8") as handle:
            codes += [line.strip() for line in handle if line.strip()]
    if not codes and not sys.stdin.isatty():
        codes = [line.strip() for line in sys.stdin if line.strip()]
    if not codes:
        raise click.UsageError("no input graphs; pass --g6, --in, or pipe graph6 lines")
    results = []
    for code in codes:
        try:
            g = graph6_decode(code)
        except ValueError as err:
            raise _usage(err)
        found = [pat.spec() for pat in fam.patterns if pat.occurs_in(g)]
        results.append({"graph": code, "found": found})
    if fmt == "json":
        click.echo(json.dumps(results, indent=2))
    else:
        for item in results:
            verdict = "FREE" if not item["found"] else "CONTAINS " + ",".join(item["found"])
            click.echo(f"{item['graph']}\t{verdict}")


@main.command()
@click.option("--which", type=click.Choice((*PROBLEMS, "family-pair")), required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--l", type=int, default=None)
def formula(which, n, k, s, l):
    """Evaluate a closed form; prints JSON with value, validity, source."""
    try:
        if which == "family-pair":
            e1, e2 = extremal_family_edges(n, *_need(("s", "l"), s=s, l=l))
            click.echo(json.dumps({"regular_join": e1, "capped_join": e2}))
            return
        problem = PROBLEMS[which]
        result = problem.formula(n, *_need(problem.params, k=k, s=s, l=l))
    except ValueError as err:
        raise _usage(err)
    click.echo(json.dumps(result.as_dict()))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--family", required=True)
@click.option("--jobs", type=int, default=1)
@click.option("--cache", type=click.Path(dir_okay=False), default=None)
def oracle(n, family, jobs, cache):
    """Exhaustively compute the extremal number and graphs for a family."""
    fam = _parse_family(family)
    store = ResultCache(cache) if cache else None
    try:
        record = fetch_records((n,), fam, store, jobs)[n]
    except ValueError as err:
        raise _usage(err)
    click.echo(json.dumps(record.to_json_dict()))


@main.command()
@click.option("--suite", "suites", multiple=True, type=click.Choice(SUITE_NAMES))
@click.option("--jobs", type=int, default=1)
@click.option("--cache", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "table"]), default="table")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.pass_context
def verify(ctx, suites, jobs, cache, fmt, out):
    """Run verification suites; exit 1 if any row mismatches."""
    store = ResultCache(cache) if cache else None
    try:
        reports = run_suites(suites or SUITE_NAMES, jobs=jobs, cache=store)
    except ValueError as err:
        raise _usage(err)
    _write(b"\n".join(emit_report(report, fmt) for report in reports), out)
    if not all(report.ok() for report in reports):
        ctx.exit(1)


@main.command()
@click.option("--k", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--l", type=int, default=None)
@click.option("--n-max", type=int, default=None)
@click.option("--jobs", type=int, default=1)
@click.option("--cache", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "table"]), default="table")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.pass_context
def sweep(ctx, jobs, cache, fmt, out, **params):
    """Tabulate exhaustive counts against the closed form as n grows.

    Options left out take the boundary-sweep suite's values.
    """
    given = {name: value for name, value in params.items() if value is not None}
    store = ResultCache(cache) if cache else None
    try:
        report = boundary_sweep(**given, jobs=jobs, cache=store)
    except ValueError as err:
        raise _usage(err)
    _write(emit_report(report, fmt), out)
    if not report.ok():
        ctx.exit(1)


if __name__ == "__main__":
    main()
