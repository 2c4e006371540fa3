"""Command line front end.

Exit codes: 0 when everything checked is MATCH or SKIPPED, 1 when any
verification row is MISMATCH, 2 for usage errors.  A ``ValueError`` from
the library is a usage error: every command converts it in one place,
``_Command.invoke``.
"""

from __future__ import annotations

import json
import os
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
    rest_order,
    turan_graph,
)
from .detectors import ForbiddenFamily
from .formulas import extremal_family_edges
from .graph6 import graph6_decode, graph6_encode, to_edge_list_json
from .harness import PROBLEMS, SUITE_NAMES, TOOL_VERSION, boundary_sweep, emit_report, run_suites
from .oracle import ResultCache, extremal_records


class _Command(click.Command):
    """A command that reports a library ``ValueError`` as a usage error, with its usage line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as err:
            raise click.UsageError(str(err), ctx)


class _Group(click.Group):
    command_class = _Command


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


def _in_existing_dir(ctx, param, path):
    """A --cache or --out path, refused before any work when its directory is missing."""
    folder = os.path.dirname(path or "") or "."
    if not os.path.isdir(folder):
        raise click.BadParameter(f"directory {folder!r} does not exist")
    return path


def _params(f):
    """The problem parameters --k, --s and --l, each optional."""
    for name in "lsk":  # applied innermost first, so they list k, s, l
        f = click.option(f"--{name}", type=int)(f)
    return f


_jobs = click.option("--jobs", type=int, default=1)
_cache = click.option("--cache", type=click.Path(dir_okay=False), callback=_in_existing_dir)
_out = click.option("--out", type=click.Path(dir_okay=False, writable=True), callback=_in_existing_dir)
_report = click.option("--format", "fmt", type=click.Choice(["csv", "json", "table"]), default="table")


@click.group(cls=_Group)
@click.version_option(version=TOOL_VERSION, prog_name="turanstar")
def main():
    """Extremal graphs avoiding a clique and a star forest: build, check, count."""


# name -> (required options, builder taking n and those options in order)
_BUILDERS = {
    "turan": (("k",), lambda n, k: turan_graph(n, k)),
    "complete-bipartite": (("s",), lambda n, s: complete_bipartite(s, rest_order(n, s))),
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
@_params
@click.option("--format", "fmt", type=click.Choice(["graph6", "json"]), default="graph6")
@_out
def construct(builder, n, k, s, l, fmt, out):
    """Build one named graph and print it."""
    options, build = _BUILDERS[builder]
    g = build(n, *_need(options, k=k, s=s, l=l))
    text = graph6_encode(g) if fmt == "graph6" else to_edge_list_json(g)
    _write(f"{text}\n".encode(), out)


@main.command()
@click.option("--family", required=True, help="e.g. 'clique:3,starforest:2x2'")
@click.option("--g6", multiple=True, help="graph6 string; repeatable")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def detect(family, g6, infile, fmt):
    """Report which forbidden patterns occur in each input graph."""
    fam = ForbiddenFamily.parse(family)
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
        g = graph6_decode(code)
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
@_params
def formula(which, n, k, s, l):
    """Evaluate a closed form; prints JSON with value, validity, source."""
    if which == "family-pair":
        e1, e2 = extremal_family_edges(n, *_need(("s", "l"), s=s, l=l))
        click.echo(json.dumps({"regular_join": e1, "capped_join": e2}))
        return
    problem = PROBLEMS[which]
    result = problem.formula(n, *_need(problem.params, k=k, s=s, l=l))
    click.echo(json.dumps(result.as_dict()))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--family", required=True)
@_jobs
@_cache
def oracle(n, family, jobs, cache):
    """Exhaustively compute the extremal number and graphs for a family."""
    fam = ForbiddenFamily.parse(family)
    store = ResultCache(cache) if cache else None
    record = extremal_records((n,), fam, jobs, store)[n]
    click.echo(json.dumps(record.to_json_dict()))


@main.command()
@click.option("--suite", "suites", multiple=True, type=click.Choice(SUITE_NAMES))
@_jobs
@_cache
@_report
@_out
@click.pass_context
def verify(ctx, suites, jobs, cache, fmt, out):
    """Run verification suites; exit 1 if any row mismatches."""
    store = ResultCache(cache) if cache else None
    reports = run_suites(suites or SUITE_NAMES, jobs=jobs, cache=store)
    _write(b"\n".join(emit_report(report, fmt) for report in reports), out)
    if not all(report.ok() for report in reports):
        ctx.exit(1)


@main.command()
@_params
@click.option("--n-max", type=int, default=None)
@_jobs
@_cache
@_report
@_out
@click.pass_context
def sweep(ctx, jobs, cache, fmt, out, **params):
    """Tabulate exhaustive counts against the closed form as n grows.

    Options left out take the boundary-sweep suite's values.
    """
    given = {name: value for name, value in params.items() if value is not None}
    store = ResultCache(cache) if cache else None
    report = boundary_sweep(**given, jobs=jobs, cache=store)
    _write(emit_report(report, fmt), out)
    if not report.ok():
        ctx.exit(1)


if __name__ == "__main__":
    main()
