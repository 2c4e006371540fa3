import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from turanstar import (
    BelowRangeError,
    ExtremalRecord,
    ForbiddenFamily,
    ResultCache,
    SUITE_NAMES,
    boundary_sweep,
    brute_force_ex,
    empty_graph,
    extremal_records,
    graph6_decode,
    run_suite,
    run_suites,
)
from turanstar import ORACLE_MAX_N, constructions, harness, oracle
from turanstar.canonical import LABELLING_VERSION
from turanstar.cli import main
from turanstar.constructions import (
    capped_bipartite,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    joined_capped_extremal,
    joined_regular_extremal,
    regular_triangle_free,
    turan_graph,
)
from turanstar.formulas import (
    ex_clique_matching,
    ex_clique_star_forest,
    ex_star,
    ex_triangle_star_forest,
)
from turanstar.graph6 import graph6_encode
from turanstar.harness import CSV_SCHEMA, MATCH, SuiteReport, SuiteRow, emit_report, skipped


VERIFY_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify.csv"


def fam(spec):
    return ForbiddenFamily.parse(spec)


def cache_line(record, **changes):
    """A cache line for the record as ``ResultCache.append`` writes it, with changes."""
    return json.dumps({**record.to_json_dict(), "labelling": LABELLING_VERSION, **changes})


def strip_ts(text):
    return [line for line in text.splitlines() if not line.startswith("# timestamp:")]


def fixture_section(name):
    """The lines of one suite's report in the committed verify output, minus the timestamp."""
    (section,) = [
        part
        for part in VERIFY_FIXTURE.read_text().split("\n\n")
        if f"# suite: {name}" in part.splitlines()
    ]
    return strip_ts(section)


def test_suite_names_stable():
    assert SUITE_NAMES == (
        "regular-core",
        "star-turan",
        "clique-matching",
        "clique-star-forest",
        "triangle-star-forest",
        "boundary-sweep",
    )


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_runs_clean_on_small_grid(name, tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    report = run_suite(name, cache=cache)
    assert strip_ts(emit_report(report, "csv").decode()) == fixture_section(name)
    assert report.ok(), [r for r in report.rows if r.status != MATCH][:3]
    assert report.rows
    assert report.version
    for row in report.rows:
        assert row.status == MATCH or row.status.startswith("SKIPPED(")


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")
    with pytest.raises(ValueError):
        run_suite("regular-core", jobs=0)
    with pytest.raises(ValueError):
        boundary_sweep(n_max=99)


def test_below_range_refusals_have_their_own_type():
    with pytest.raises(BelowRangeError, match=r"^need ceil\(n/2\) >= l-1, got n=2, l=3$"):
        capped_bipartite(2, 3)
    with pytest.raises(BelowRangeError, match=r"n - s >= \(l-1\)\^2 \+ 2"):
        clique_star_forest_extremal(3, 3, 1, 2)
    with pytest.raises(BelowRangeError, match=r"^need n >= l\^2 \+ 2, got n=5, l=2$"):
        regular_triangle_free(5, 2)
    # a join restates its rest's refusal, the engine's or the capped rest's
    # ceil(n/2) >= l-1 on its n - s vertices, in the caller's n, s and l
    for build, (n, s, l) in ((joined_regular_extremal, (9, 4, 4)), (joined_capped_extremal, (5, 3, 3))):
        with pytest.raises(BelowRangeError) as refusal:
            build(n, s, l)
        assert str(refusal.value) == f"no rest of degree l-1 on n - s vertices, got n={n}, s={s}, l={l}"


def test_clique_matching_candidates_apply_across_the_domain():
    # below n = 2s + 1 the compact core takes all n vertices, as the closed
    # form's Turan term does, so every n >= s makes a row that must agree
    for k, s in ((2, 1), (2, 3), (3, 2), (4, 3)):
        for n in range(s, 2 * s + 3):
            row = harness._checked_row("clique-matching", n, {"k": k, "s": s})
            assert row.status == "MATCH", row


@pytest.mark.parametrize(
    "suite, builder",
    [
        ("triangle-star-forest", "joined_regular_extremal"),
        ("triangle-star-forest", "joined_capped_extremal"),
        ("boundary-sweep", "joined_capped_extremal"),
    ],
)
def test_builder_bug_is_not_read_as_below_range(monkeypatch, suite, builder):
    def broken(*args):
        raise ValueError("builder bug")

    monkeypatch.setattr(harness, builder, broken)
    with pytest.raises(AssertionError, match=f"suite {suite} .*builder bug"):
        run_suite(suite)


def test_builder_bug_in_verify_is_a_crash_not_a_usage_error(monkeypatch):
    # a ValueError while the rows are built is the program's fault: exit 1
    # with the traceback's AssertionError, and no usage line
    def broken(*args):
        raise ValueError("builder bug")

    monkeypatch.setattr(harness, "joined_regular_extremal", broken)
    result = CliRunner().invoke(main, ["verify", "--suite", "triangle-star-forest"])
    assert result.exit_code == 1
    assert isinstance(result.exception, AssertionError)
    assert "builder bug" in str(result.exception)
    assert "Usage:" not in result.output


def test_verify_exits_1_on_a_mismatch(monkeypatch):
    # a closed form one edge off is a finding, not a usage error: the report
    # shows the MISMATCH row and verify exits 1
    def one_edge_more(n, l):
        result = ex_star(n, l)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(harness, "ex_star", one_edge_more)
    result = CliRunner().invoke(main, ["verify", "--suite", "star-turan"])
    assert result.exit_code == 1, result.output
    assert "MISMATCH" in result.output
    assert "Usage:" not in result.output


@pytest.mark.parametrize("args, error", [
    (["sweep", "--n-max", "12"], "enumeration capped at n = 11"),
    (["verify", "--suite", "no-such-suite"], "Invalid value for '--suite'"),
])
def test_bad_suite_parameters_stay_usage_errors(args, error):
    # each is refused before any row is built; test_empty_sweep_is_a_usage_error
    # covers sweep --s 10
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output and f"Error: {error}" in result.output


def test_engine_failure_in_range_is_not_read_as_below_range(monkeypatch):
    # m = 7 >= (l-1)^2 + 2 rest vertices at l = 3 feed the spare one edge,
    # which the engine is proven to do; failing to is a bug, not a refusal
    def exhausted(*args, **kwargs):
        raise BelowRangeError("not enough blocks to feed the spare vertex")

    monkeypatch.setattr(constructions, "_circulant_engine", exhausted)
    constructions._attempt_regular.cache_clear()  # else a cached (7, 2) rest skips the engine
    with pytest.raises(AssertionError, match="inside guaranteed range"):
        harness._built(lambda: joined_regular_extremal(8, 1, 3))


def test_triangle_suite_reports_sub_threshold_pair(tmp_path):
    # the (12,3,4) point: formula uses the capped form, both builds present
    report = run_suite("triangle-star-forest")
    target = [r for r in report.rows if (r.n, r.s, r.l) == (12, 3, 4)]
    assert sorted(r.construction for r in target) == [27, 28]
    assert {r.formula for r in target} == {28}
    assert all(r.free for r in target)
    assert report.ok()


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    rec = brute_force_ex(5, fam("clique:3,matching:2"))
    cache.append(rec)
    again = ResultCache(path)
    assert again.lookup(5, fam("clique:3,matching:2")) == rec
    assert again.lookup(6, fam("clique:3,matching:2")) is None


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    rec = brute_force_ex(4, fam("clique:3"))
    after = brute_force_ex(5, fam("clique:3"))
    # a blank line is skipped without a warning, and the lines around it are read
    path.write_text("this is not json\n" + cache_line(rec) + "\n\n" + cache_line(after) + "\n{\"n\": 3}\n")
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert cache.lookup(4, fam("clique:3")) == rec
    assert cache.lookup(5, fam("clique:3")) == after
    assert sum("corrupt cache line" in msg for msg in caplog.messages) == 2
    assert len(caplog.messages) == 2


@pytest.mark.parametrize(
    "forged, reason",
    [
        ({"extremal_graphs": "Cr"}, "extremal_graphs is not a list of strings: 'Cr'"),
        ({"extremal_graphs": [3]}, "extremal_graphs is not a list of strings: [3]"),
        ({"n": True}, "n is not of type int: True"),
        ({"n": 4.0}, "n is not of type int: 4.0"),
        ({"ex_value": "2"}, "ex_value is not of type int: '2'"),
        ({"graphs_visited": None}, "graphs_visited is not of type int: None"),
        ({"family": 3}, "family is not of type str: 3"),
        ({"elapsed": "0.5"}, "elapsed is not a number: '0.5'"),
        ({"elapsed": True}, "elapsed is not a number: True"),
    ],
    ids=[
        "string-graphs", "int-graphs", "bool-n", "float-n", "string-ex-value", "null-visited", "int-family",
        "string-elapsed", "bool-elapsed",
    ],
)
def test_cache_skips_lines_of_the_wrong_json_types(tmp_path, caplog, forged, reason):
    # a string would read as the tuple of its characters, a bool as 0 or 1,
    # and a family that is no string would crash the parser
    path = tmp_path / "cache.jsonl"
    records = {n: brute_force_ex(n, fam("clique:3")) for n in (4, 5)}
    path.write_text(cache_line(records[4], **forged) + "\n" + cache_line(records[5]) + "\n")
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert cache.lookup(4, fam("clique:3")) is None
    assert cache.lookup(5, fam("clique:3")) == records[5]
    assert caplog.messages == [f"skipping corrupt cache line 1: {reason}"]


def test_cache_skips_non_utf8_lines(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    records = {n: brute_force_ex(n, fam("clique:3")) for n in (4, 5)}
    path.write_bytes(
        cache_line(records[4]).encode() + b"\n"
        + b'\xff{"n": 3}\n'
        + cache_line(records[5]).encode() + b"\n"
    )
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert all(cache.lookup(n, fam("clique:3")) == records[n] for n in (4, 5))
    assert len(caplog.messages) == 1 and caplog.messages[0].startswith("skipping corrupt cache line 2:")


def test_cache_append_after_a_torn_last_line_keeps_the_record(tmp_path, caplog):
    # a writer cut off mid-line leaves no newline; the next line must not join it
    path = tmp_path / "cache.jsonl"
    records = {n: brute_force_ex(n, fam("clique:3")) for n in (4, 5, 6)}
    path.write_text(cache_line(records[4]) + "\n" + cache_line(records[5])[:20])
    cache = ResultCache(path)
    assert cache.lookup(5, fam("clique:3")) is None
    cache.append(records[6])
    cache.append(records[5])
    caplog.clear()
    with caplog.at_level("WARNING"):
        again = ResultCache(path)
    assert all(again.lookup(n, fam("clique:3")) == records[n] for n in (4, 5, 6))
    assert len(caplog.messages) == 1 and caplog.messages[0].startswith("skipping corrupt cache line 2:")
    assert path.read_text().endswith("\n" + cache_line(records[6]) + "\n" + cache_line(records[5]) + "\n")


# the triangle-free graphs on 6 vertices have at most 9 edges, in one class:
# K_{3,3}, whose canonical graph6 string is "EFz_".  "ELv_" is canonical,
# with 9 edges and a triangle.  "EImo" is canonical and triangle-free with 8
# edges, and stays triangle-free when edge 0-1 is added: a line that lowers
# ex to 8.
@pytest.mark.parametrize(
    "forged, reason",
    [
        ({"extremal_graphs": []}, "lists no extremal graph"),
        ({"ex_value": 10}, "graph 'EFz_' has 6 vertices and 9 edges, not 6 and 10"),
        ({"extremal_graphs": ["DFw"]}, "graph 'DFw' has 5 vertices and 6 edges, not 6 and 9"),
        ({"extremal_graphs": ["EFz"]}, "graph 'EFz': graph6 body length 2, expected 3 for n=6"),
        ({"extremal_graphs": ["ELv_"]}, "graph 'ELv_' is not clique:3-free"),
        ({"extremal_graphs": ["EXvO"]}, "graph 'EXvO' is not canonical"),
        ({"ex_value": 8, "extremal_graphs": ["EImo"]}, "graph 'EImo' stays clique:3-free with edge 0-1 added"),
    ],
    ids=["no-graphs", "raised-ex-value", "five-vertices", "undecodable", "triangle", "not-canonical", "not-maximal"],
)
def test_cache_skips_lines_whose_graphs_are_not_a_search_result(tmp_path, caplog, forged, reason):
    # a forged line of the right types must not answer for good: it is
    # skipped, its key searched again and the searched record appended
    path = tmp_path / "cache.jsonl"
    family = fam("clique:3")
    record = brute_force_ex(6, family)
    assert record.extremal_graphs == ("EFz_",)
    # "EXvO" is K_{3,3} under another labelling
    assert graph6_encode(complete_bipartite(3, 3).relabel((0, 2, 4, 1, 3, 5))) == "EXvO"
    forged_line = cache_line(record, **forged)
    path.write_text(forged_line + "\n")
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert cache.lookup(6, family) is None
    assert caplog.messages == [f"skipping cache line 1: {reason}"]
    assert extremal_records((6,), family, cache=cache) == {6: record}
    forged_back, searched = path.read_text().splitlines()
    assert forged_back == forged_line
    assert ExtremalRecord.from_json_dict(json.loads(searched)) == record
    assert ResultCache(path).lookup(6, family) == record


def test_cache_first_entry_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    rec = brute_force_ex(4, fam("clique:3"))
    path.write_text(cache_line(rec) + "\n" + cache_line(rec, ex_value=99) + "\n")
    cache = ResultCache(path)
    assert cache.lookup(4, fam("clique:3")).ex_value == rec.ex_value


def test_cache_lines_of_another_labelling_are_misses(tmp_path, caplog):
    # graph6 strings stored under another labelling are not canonical here
    path = tmp_path / "cache.jsonl"
    family = fam("clique:3")
    records = {n: brute_force_ex(n, family) for n in (4, 5, 6)}
    untagged = json.dumps(records[4].to_json_dict())
    path.write_text(
        untagged + "\n"
        + cache_line(records[5], labelling=LABELLING_VERSION + 1) + "\n"
        + cache_line(records[6]) + "\n"
    )
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert cache.lookup(4, family) is None
    assert cache.lookup(5, family) is None
    assert cache.lookup(6, family) == records[6]
    assert caplog.messages == [
        "skipping cache line 1: labelling version None",
        f"skipping cache line 2: labelling version {LABELLING_VERSION + 1}",
    ]
    # a miss is searched again and appended with the current tag, which then hits
    assert extremal_records((4, 5, 6), family, cache=cache) == records
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(line["n"], line["labelling"]) for line in lines[3:]] == [(4, LABELLING_VERSION), (5, LABELLING_VERSION)]
    assert all(ResultCache(path).lookup(n, family) == records[n] for n in (4, 5, 6))


def test_second_run_hits_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    first = run_suite("star-turan", cache=cache)
    assert first.fresh_oracle_runs > 0
    second = run_suite("star-turan", cache=cache)
    assert second.fresh_oracle_runs == 0
    assert second.graphs_visited == 0
    # cached rows carry the same numbers
    assert [r.as_dict() for r in second.rows] == [r.as_dict() for r in first.rows]


def test_one_leaf_sweep_reads_the_matching_suites_records(tmp_path):
    # K3 plus 2S_1 is K3 plus a 2-edge matching: one family, one cache key
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    run_suites(("clique-matching",), cache=cache)
    lines = path.read_text().count("\n")
    sweep = boundary_sweep(2, 1, 1, 8, cache=cache)
    assert (sweep.fresh_oracle_runs, sweep.graphs_visited) == (0, 0)
    assert path.read_text().count("\n") == lines
    family = fam("clique:3,matching:2")
    assert [row.oracle for row in sweep.rows] == [brute_force_ex(n, family).ex_value for n in range(3, 9)]


def json_reports(output):
    """The reports of a ``verify --format json`` run, one dict per suite."""
    return [json.loads(blob) for blob in output.split("\n\n")]


def test_verify_oracle_counters_are_pinned_cold_and_warm(tmp_path):
    args = ["verify", "--format", "json", "--cache", str(tmp_path / "cache.jsonl")]
    counters = []
    for _ in range(2):  # cold, then warm over the same cache
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        reports = json_reports(result.output)
        assert [r["suite"] for r in reports] == list(SUITE_NAMES)
        counters.append([(r["fresh_oracle_runs"], r["graphs_visited"]) for r in reports])
    assert counters[0] == [(0, 0), (11, 4336), (20, 7162), (0, 0), (36, 67483), (2, 7641)]
    assert counters[1] == [(0, 0)] * len(SUITE_NAMES)


def test_cold_verify_enumerates_each_family_once(tmp_path, monkeypatch):
    walks = []
    levels = oracle._levels

    def counted_levels(n, *families, jobs):
        walks.append((n, [family.spec() for family in families]))
        return levels(n, *families, jobs=jobs)

    monkeypatch.setattr(oracle, "_levels", counted_levels)
    args = ["verify", "--format", "csv", "--cache", str(tmp_path / "cache.jsonl")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert sorted(n for n, _ in walks) == [8, 9, 11]
    specs = [spec for _, walked in walks for spec in walked]
    assert len(specs) == len(set(specs)) == 11
    assert dict(walks)[11] == ["clique:3,starforest:2x2"]


def test_verify_builds_each_rest_once(tmp_path, monkeypatch):
    # a verify grid asks for the same rests again and again, and each built
    # one is cached; refusals raise and are not, so only returns are recorded.
    # Both rest builders run the engine alike on even orders, so each input
    # is keyed by the builder that asked for it.
    path = tmp_path / "cache.jsonl"
    run_suites(SUITE_NAMES, cache=ResultCache(path))
    constructions._attempt_regular.cache_clear()
    constructions.capped_bipartite.cache_clear()
    built = []
    engine = constructions._circulant_engine

    def recorded(total, degree, reroute_spare):
        rows = engine(total, degree, reroute_spare)
        built.append((sys._getframe(1).f_code.co_name, total, degree, reroute_spare))
        return rows

    monkeypatch.setattr(constructions, "_circulant_engine", recorded)
    run_suites(SUITE_NAMES, cache=ResultCache(path))
    assert {caller for caller, *_ in built} == {"_attempt_regular", "capped_bipartite"}
    assert len(built) == len(set(built))


def test_repeated_suite_reports_twice_and_searches_once():
    result = CliRunner().invoke(
        main, ["verify", "--suite", "star-turan", "--suite", "star-turan", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    first, second = json_reports(result.output)
    assert first["suite"] == second["suite"] == "star-turan"
    assert (first["fresh_oracle_runs"], first["graphs_visited"]) == (11, 4336)
    assert (second["fresh_oracle_runs"], second["graphs_visited"]) == (0, 0)
    assert first["rows"] == second["rows"]


def test_csv_outputs_byte_identical_apart_from_timestamp(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    a = emit_report(run_suite("triangle-star-forest", cache=cache), "csv").decode()
    b = emit_report(run_suite("triangle-star-forest", cache=cache), "csv").decode()
    assert strip_ts(a) == strip_ts(b)
    assert strip_ts(a) != []


def test_csv_layout(tmp_path):
    report = run_suite("clique-matching")
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == "# turanstar-report schema=v1"
    assert lines[1] == "# suite: clique-matching"
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == CSV_SCHEMA
    first = lines[header_at + 1].split(",")
    assert len(first) == len(CSV_SCHEMA.split(","))
    # booleans serialize lowercase, empty cells stay empty
    assert first[7] in ("true", "false")
    assert all(line.split(",")[3] == "" for line in lines[header_at + 1 :])
    assert [list(row.as_dict()) for row in report.rows[:1]] == [CSV_SCHEMA.split(",")]


def test_emit_report_json_and_table(tmp_path):
    report = run_suite("clique-matching")
    payload = json.loads(emit_report(report, "json"))
    assert payload["suite"] == "clique-matching"
    assert payload["rows"]
    assert payload["rows"][0]["status"] == "MATCH"
    table = emit_report(report, "table").decode()
    assert "rows:" in table and "status: ok" in table
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_emit_report_bytes_are_pinned():
    # one empty cell, both booleans, a SKIPPED reason holding a comma, a
    # MISMATCH, two notes and a fixed timestamp; rows go in unsorted
    report = SuiteReport(
        suite="pinned",
        rows=[
            SuiteRow(n=10, k=3, s=0, l=2, formula=12, construction=11, oracle=12, free=False, status="MISMATCH"),
            SuiteRow(n=4, k=2, s=1, l=None, formula=5, construction=5, oracle=5, free=True, status=MATCH),
            SuiteRow(
                n=7, k=2, s=1, l=3, formula=9, construction=9, oracle=10, free=True,
                status=skipped("divergence below unproven threshold, exploratory bound n>=8"),
            ),
        ],
        timestamp="2026-01-01T00:00:00+00:00",
        version="0.1.0",
        fresh_oracle_runs=2,
        graphs_visited=31,
        notes={"oracle": "skipped: pinned", "first_agreement_n": 8},
    )
    assert emit_report(report, "csv").decode() == """\
# turanstar-report schema=v1
# suite: pinned
# version: 0.1.0
# first_agreement_n: 8
# oracle: skipped: pinned
# timestamp: 2026-01-01T00:00:00+00:00
n,k,s,l,formula,construction,oracle,free,status
4,2,1,,5,5,5,true,MATCH
7,2,1,3,9,9,10,true,SKIPPED(divergence below unproven threshold, exploratory bound n>=8)
10,3,0,2,12,11,12,false,MISMATCH
"""
    assert emit_report(report, "table").decode() == """\
suite pinned (version 0.1.0)
first_agreement_n: 8
oracle: skipped: pinned
n   k  s  l  formula  construction  oracle  free   status
4   2  1     5        5             5       true   MATCH
7   2  1  3  9        9             10      true   SKIPPED(divergence below unproven threshold, exploratory bound n>=8)
10  3  0  2  12       11            12      false  MISMATCH
rows: 3  status: MISMATCH PRESENT
"""
    assert emit_report(report, "json").decode() == """\
{
  "suite": "pinned",
  "version": "0.1.0",
  "timestamp": "2026-01-01T00:00:00+00:00",
  "notes": {
    "oracle": "skipped: pinned",
    "first_agreement_n": 8
  },
  "fresh_oracle_runs": 2,
  "graphs_visited": 31,
  "rows": [
    {
      "n": 4,
      "k": 2,
      "s": 1,
      "l": null,
      "formula": 5,
      "construction": 5,
      "oracle": 5,
      "free": true,
      "status": "MATCH"
    },
    {
      "n": 7,
      "k": 2,
      "s": 1,
      "l": 3,
      "formula": 9,
      "construction": 9,
      "oracle": 10,
      "free": true,
      "status": "SKIPPED(divergence below unproven threshold, exploratory bound n>=8)"
    },
    {
      "n": 10,
      "k": 3,
      "s": 0,
      "l": 2,
      "formula": 12,
      "construction": 11,
      "oracle": 12,
      "free": false,
      "status": "MISMATCH"
    }
  ]
}
"""


@pytest.mark.xfail(
    strict=True,
    reason="emit_report writes CSV cells unquoted, so a SKIPPED reason holding a comma reads back as two "
    "cells; quoting it changes 15 lines of perfbench/fixtures/verify.csv",
)
def test_csv_rows_read_back_with_the_schema_cell_count():
    report = SuiteReport(
        suite="comma",
        rows=[SuiteRow(n=7, k=2, s=1, l=3, formula=9, construction=9, oracle=10, free=True,
                       status=skipped("below the threshold, bound n>=8"))],
        timestamp="2026-01-01T00:00:00+00:00",
        version="0.1.0",
        fresh_oracle_runs=0,
        graphs_visited=0,
    )
    lines = [line for line in emit_report(report, "csv").decode().splitlines() if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    assert header == CSV_SCHEMA.split(",")
    assert rows == [["7", "2", "1", "3", "9", "9", "10", "true", report.rows[0].status]]


@pytest.mark.xfail(
    strict=True,
    reason="the clique-star-forest suite notes that its grid sizes exceed the enumeration cap, yet 147 of "
    "its 396 rows lie at n <= 11 with no oracle cell; mending it changes perfbench/fixtures/verify.csv",
)
def test_clique_star_forest_oracle_note_holds_for_its_rows():
    report = run_suite("clique-star-forest")
    under_cap = [row for row in report.rows if row.n <= ORACLE_MAX_N]
    assert not under_cap or "exceed the enumeration cap" not in report.notes.get("oracle", "")


def test_report_sorted_rows_are_stable():
    report = run_suite("regular-core")
    keys = [r.sort_key() for r in report.sorted_rows()]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# command line


def test_cli_construct_graph6():
    runner = CliRunner()
    result = runner.invoke(main, ["construct", "--builder", "turan", "--n", "7", "--k", "3"])
    assert result.exit_code == 0
    g = graph6_decode(result.output.strip())
    assert g.edge_count == 16


def test_cli_construct_json_and_out(tmp_path):
    runner = CliRunner()
    out = tmp_path / "graph.json"
    result = runner.invoke(
        main,
        [
            "construct", "--builder", "joined-regular", "--n", "12",
            "--s", "3", "--l", "4", "--format", "json", "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    blob = json.loads(out.read_text())
    assert blob["n"] == 12
    assert len(blob["edges"]) == 27


def test_cli_construct_missing_option_is_usage_error():
    runner = CliRunner()
    result = runner.invoke(main, ["construct", "--builder", "turan", "--n", "7"])
    assert result.exit_code == 2
    # the rest builders refuse in the options given
    for builder, n, l, message in (
        ("regular", "4", "9", "need n >= l^2 + 2, got n=4, l=9"),
        ("capped-bipartite", "2", "3", "need ceil(n/2) >= l-1, got n=2, l=3"),
        ("capped-bipartite", "4", "0", "need l >= 1, got l=0"),
    ):
        result = runner.invoke(main, ["construct", "--builder", builder, "--n", n, "--l", l])
        assert result.exit_code == 2
        assert f"Error: {message}\n" in result.output


@pytest.mark.parametrize("builder", ["complete-bipartite", "joined-regular", "joined-capped"])
def test_cli_join_builders_refuse_fewer_vertices_than_the_core(builder):
    # the message names the options given, not the rest's order n - s
    for s, message in (("5", "need n >= s, got n=3, s=5"), ("-1", "need s >= 0, got s=-1")):
        result = CliRunner().invoke(main, ["construct", "--builder", builder, "--n", "3", "--s", s, "--l", "2"])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}\n" in result.output


# builder -> (n, its required options, the same graph from a direct library call)
CONSTRUCT_POINTS = {
    "turan": (10, {"k": 3}, lambda: turan_graph(10, 3)),
    "complete-bipartite": (9, {"s": 4}, lambda: complete_bipartite(4, 5)),
    "regular": (20, {"l": 4}, lambda: regular_triangle_free(20, 4)[0]),
    "capped-bipartite": (9, {"l": 3}, lambda: capped_bipartite(9, 3)[0]),
    "joined-regular": (12, {"s": 3, "l": 4}, lambda: joined_regular_extremal(12, 3, 4)),
    "joined-capped": (13, {"s": 3, "l": 4}, lambda: joined_capped_extremal(13, 3, 4)),
    "clique-matching": (11, {"k": 3, "s": 2}, lambda: clique_matching_extremal(11, 3, 2)),
    "clique-star-forest": (
        30,
        {"k": 3, "s": 1, "l": 2},
        lambda: clique_star_forest_extremal(30, 3, 1, 2),
    ),
}


def _choices(command, option):
    (param,) = [p for p in main.commands[command].params if p.name == option]
    return set(param.type.choices)


def _construct_args(builder, n, options):
    args = ["construct", "--builder", builder, "--n", str(n)]
    for name, value in options.items():
        args += [f"--{name}", str(value)]
    return args


def test_construct_points_cover_every_builder():
    assert set(CONSTRUCT_POINTS) == _choices("construct", "builder")


@pytest.mark.parametrize("builder", sorted(CONSTRUCT_POINTS))
def test_cli_construct_matches_library_call(builder):
    n, options, direct = CONSTRUCT_POINTS[builder]
    result = CliRunner().invoke(main, _construct_args(builder, n, options))
    assert result.exit_code == 0, result.output
    assert result.output == graph6_encode(direct()) + "\n"


@pytest.mark.parametrize(
    "builder,missing",
    [(b, name) for b, (_, options, _) in sorted(CONSTRUCT_POINTS.items()) for name in options],
)
def test_cli_construct_names_each_missing_option(builder, missing):
    n, options, _ = CONSTRUCT_POINTS[builder]
    rest = {name: value for name, value in options.items() if name != missing}
    result = CliRunner().invoke(main, _construct_args(builder, n, rest))
    assert result.exit_code == 2
    assert f"missing required option --{missing}" in result.output


def test_cli_detect_table_and_json():
    runner = CliRunner()
    code_c5 = "Dhc"  # C5; checked below against the decoder
    assert graph6_decode(code_c5).degree_sequence() == (2, 2, 2, 2, 2)
    result = runner.invoke(
        main, ["detect", "--family", "clique:3,matching:2", "--g6", code_c5]
    )
    assert result.exit_code == 0
    assert "CONTAINS matching:2" in result.output
    assert "clique:3" not in result.output.replace("clique:3,matching:2", "")
    result = runner.invoke(
        main,
        ["detect", "--family", "clique:3", "--g6", code_c5, "--format", "json"],
    )
    assert json.loads(result.output) == [{"graph": code_c5, "found": []}]


def test_cli_detect_from_file(tmp_path):
    runner = CliRunner()
    lines = tmp_path / "graphs.g6"
    lines.write_text("Dhc\nBw\n")
    result = runner.invoke(
        main, ["detect", "--family", "starforest:1x2", "--in", str(lines)]
    )
    assert result.exit_code == 0
    out_lines = result.output.strip().splitlines()
    assert len(out_lines) == 2
    assert out_lines[0].endswith("CONTAINS starforest:1x2")
    # with neither --g6 nor --in the graph6 lines come from stdin
    piped = runner.invoke(main, ["detect", "--family", "starforest:1x2"], input="Dhc\n")
    assert piped.exit_code == 0, piped.output
    assert piped.output.strip().splitlines() == out_lines[:1]
    empty = runner.invoke(main, ["detect", "--family", "starforest:1x2"], input="")
    assert empty.exit_code == 2
    assert "no input graphs" in empty.output


def test_cli_detect_bad_family_exits_2():
    runner = CliRunner()
    result = runner.invoke(main, ["detect", "--family", "widget:9", "--g6", "Bw"])
    assert result.exit_code == 2


def test_cli_oracle_refuses_a_family_number_int_alone_would_read():
    # int("3_0") is 30: the family would have been K30-free
    result = CliRunner().invoke(main, ["oracle", "--n", "5", "--family", "clique:3_0"])
    assert result.exit_code == 2, result.output
    assert "bad pattern 'clique:3_0'" in result.output


def test_cli_formula():
    runner = CliRunner()
    result = runner.invoke(
        main, ["formula", "--which", "triangle-star-forest", "--n", "12", "--s", "3", "--l", "4"]
    )
    assert result.exit_code == 0
    blob = json.loads(result.output)
    assert blob["value"] == 28
    assert blob["validity"] == "heuristic"
    result = runner.invoke(
        main, ["formula", "--which", "family-pair", "--n", "12", "--s", "3", "--l", "4"]
    )
    assert json.loads(result.output) == {"regular_join": 27, "capped_join": 28}
    result = runner.invoke(main, ["formula", "--which", "star", "--n", "11", "--l", "3"])
    assert json.loads(result.output) == {
        "value": 16,
        "validity": "proven",
        "source": "star",
    }


def test_cli_formula_usage_errors():
    runner = CliRunner()
    result = runner.invoke(main, ["formula", "--which", "star", "--n", "11"])
    assert result.exit_code == 2
    assert "missing required option --l\n" in result.output
    result = runner.invoke(
        main, ["formula", "--which", "clique-matching", "--n", "5", "--k", "1", "--s", "1"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("n", ["2", "-5"])
def test_cli_clique_matching_refuses_fewer_vertices_than_the_core(n):
    # 16 edges on 2 vertices, or 2 on -5, are no extremal counts
    result = CliRunner().invoke(main, ["formula", "--which", "clique-matching", "--n", n, "--k", "3", "--s", "3"])
    assert result.exit_code == 2, result.output
    assert f"Error: need n >= s, got n={n}, s=3\n" in result.output


# problem -> (arguments after --which, the closed form called directly)
FORMULA_POINTS = {
    "star": (["--n", "11", "--l", "3"], lambda: ex_star(11, 3)),
    "clique-matching": (["--n", "9", "--k", "3", "--s", "2"], lambda: ex_clique_matching(9, 3, 2)),
    "clique-star-forest": (
        ["--n", "30", "--k", "3", "--s", "1", "--l", "2"],
        lambda: ex_clique_star_forest(30, 3, 1, 2),
    ),
    "triangle-star-forest": (
        ["--n", "14", "--s", "1", "--l", "3"],
        lambda: ex_triangle_star_forest(14, 1, 3),
    ),
}


def test_formula_points_cover_every_problem():
    assert set(FORMULA_POINTS) | {"family-pair"} == _choices("formula", "which")


@pytest.mark.parametrize("which", sorted(FORMULA_POINTS))
def test_cli_formula_matches_library_call(which):
    args, direct = FORMULA_POINTS[which]
    result = CliRunner().invoke(main, ["formula", "--which", which, *args])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == direct().as_dict()


def test_cli_oracle_with_cache(tmp_path):
    runner = CliRunner()
    cache = tmp_path / "cache.jsonl"
    args = ["oracle", "--n", "5", "--family", "clique:3,matching:2", "--cache", str(cache)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    blob = json.loads(result.output)
    assert blob["ex_value"] == 4
    assert cache.exists()
    again = json.loads(runner.invoke(main, args).output)
    # a hit reports its own lookup time, not the cold run's
    assert again.pop("elapsed") != blob.pop("elapsed")
    assert again == blob


def test_cache_hit_reports_lookup_time(tmp_path):
    path = tmp_path / "cache.jsonl"
    rec = brute_force_ex(5, fam("clique:3"))
    ResultCache(path).append(dataclasses.replace(rec, elapsed=1e6))
    hit = extremal_records((5,), fam("clique:3"), cache=ResultCache(path))[5]
    assert hit == rec
    assert hit.elapsed < 1


def test_partly_filled_cache_runs_one_enumeration_for_the_misses(tmp_path, monkeypatch):
    family = fam("clique:3,starforest:2x2")
    path = tmp_path / "cache.jsonl"
    planted = {n: dataclasses.replace(brute_force_ex(n, family), graphs_visited=12345) for n in (5, 8)}
    cache = ResultCache(path)
    for n in (8, 5):
        cache.append(planted[n])
    sizes, lookups = [], []
    levels, lookup = oracle._levels, ResultCache.lookup

    def counted_levels(n, family, jobs):
        sizes.append(n)
        return levels(n, family, jobs=jobs)

    def counted_lookup(self, n, family):
        lookups.append(n)
        return lookup(self, n, family)

    monkeypatch.setattr(oracle, "_levels", counted_levels)
    monkeypatch.setattr(ResultCache, "lookup", counted_lookup)
    fresh = set()
    records = oracle.shared_records({family: range(3, 9)}, 1, cache, fresh)[family]
    assert sorted(lookups) == list(range(3, 9))
    assert sizes == [7]  # the largest miss; the hit at 8 is not searched again
    assert list(records) == list(range(3, 9))
    for n in (5, 8):  # hits come back as stored, not recomputed
        assert records[n].graphs_visited == 12345
    misses = (3, 4, 6, 7)
    monkeypatch.setattr(oracle, "_levels", levels)
    separate = {n: brute_force_ex(n, family) for n in misses}
    assert {n: records[n] for n in misses} == separate
    assert fresh == {(family, n) for n in misses}
    assert sum(records[n].graphs_visited for _, n in fresh) == sum(
        r.graphs_visited for r in separate.values()
    )
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["n"] for line in lines] == [8, 5, 3, 4, 6, 7]
    assert all(ResultCache(path).lookup(n, family) == records[n] for n in range(3, 9))


def test_cli_oracle_rejects_oversized():
    runner = CliRunner()
    result = runner.invoke(main, ["oracle", "--n", "99", "--family", "clique:3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("n", [ORACLE_MAX_N + 1, -1])
def test_cli_oracle_checks_cap_before_cache(tmp_path, caplog, n):
    # a planted line must not answer for an n the search refuses.  The line
    # at n = 12 passes the cache's checks, as the empty graph is the one
    # clique:2-free class; no graph has -1 vertices, so the line at n = -1
    # is skipped on load
    path = tmp_path / "c.jsonl"
    if n > 0:
        record = ExtremalRecord(n, fam("clique:2"), 0, (graph6_encode(empty_graph(n)),), 1, 0.0)
    else:
        record = dataclasses.replace(brute_force_ex(5, fam("clique:3")), n=n)
    path.write_text(cache_line(record) + "\n")
    with caplog.at_level("WARNING"):
        hit = ResultCache(path).lookup(n, record.family)
    if n > 0:
        assert hit == record and not caplog.messages
    else:
        assert hit is None
        assert caplog.messages == ["skipping cache line 1: graph 'DFw' has 5 vertices and 6 edges, not -1 and 6"]
    args = ["oracle", "--n", str(n), "--family", record.family.spec(), "--cache", str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert record.extremal_graphs[0] not in result.output


def test_cli_verify_single_suite(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        [
            "verify", "--suite", "clique-matching", "--format", "csv",
            "--cache", str(tmp_path / "c.jsonl"), "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert text.startswith("# turanstar-report schema=v1")
    assert "MISMATCH" not in text


def test_cli_sweep(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["sweep", "--n-max", "8", "--format", "csv", "--cache", str(tmp_path / "c.jsonl")],
    )
    assert result.exit_code == 0
    assert "pre-threshold divergence" in result.output
    assert "MISMATCH" not in result.output


def test_cli_sweep_defaults_are_the_suites():
    result = CliRunner().invoke(main, ["sweep", "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert strip_ts(result.output) == fixture_section("boundary-sweep")


def test_empty_sweep_is_a_usage_error():
    with pytest.raises(ValueError, match="empty sweep"):
        boundary_sweep(s=10)
    result = CliRunner().invoke(main, ["sweep", "--s", "10"], prog_name="turanstar")
    assert result.exit_code == 2
    assert result.output == (
        "Usage: turanstar sweep [OPTIONS]\n"
        "Try 'turanstar sweep --help' for help.\n"
        "\n"
        "Error: empty sweep: no n in s + 2 = 12 .. n_max = 11\n"
    )


def test_graph_past_the_graph6_cap_is_a_usage_error_and_json_prints_it():
    args = ["construct", "--builder", "turan", "--n", "100", "--k", "3"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "Error: short-form graph6 caps at 62 vertices, got 100\n" in result.output
    result = CliRunner().invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["n"] == 100


def test_detect_on_a_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"\xff\xfe")
    result = CliRunner().invoke(main, ["detect", "--family", "clique:3", "--in", str(path)])
    assert result.exit_code == 2
    assert "Usage: " in result.output and "can't decode byte 0xff" in result.output


@pytest.mark.parametrize("args", [
    ["oracle", "--n", "6", "--family", "clique:3", "--cache"],
    ["verify", "--suite", "star-turan", "--cache"],
    ["verify", "--suite", "star-turan", "--out"],
    ["sweep", "--n-max", "6", "--cache"],
    ["sweep", "--n-max", "6", "--out"],
    ["construct", "--builder", "turan", "--n", "7", "--k", "3", "--out"],
], ids=lambda args: f"{args[0]}{args[-1]}")
def test_output_path_in_a_missing_directory_is_refused_before_any_search(tmp_path, monkeypatch, args):
    def refuse(*_):
        raise AssertionError("searched before the path check")

    monkeypatch.setattr(oracle, "_levels", refuse)
    path = tmp_path / "missing" / "file"
    result = CliRunner().invoke(main, [*args, str(path)])
    assert result.exit_code == 2, result.output
    assert f"directory {str(path.parent)!r} does not exist" in result.output
    assert list(tmp_path.iterdir()) == []


def test_output_path_in_the_working_directory_is_accepted(tmp_path):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, ["oracle", "--n", "5", "--family", "clique:3", "--cache", "c.jsonl"])
        assert result.exit_code == 0, result.output
        assert Path("c.jsonl").exists()


def test_cli_sweep_clique_star_forest():
    result = CliRunner().invoke(
        main,
        ["sweep", "--k", "3", "--s", "1", "--l", "2", "--n-max", "9", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert "# first_agreement_n: 7" in lines
    assert not any(line.startswith("# exploratory_threshold") for line in lines)
    body = lines[lines.index(CSV_SCHEMA) + 1 :]
    assert body == [
        "3,3,1,2,3,,3,,MATCH",
        "4,3,1,2,4,4,5,,SKIPPED(pre-threshold divergence)",
        "5,3,1,2,6,6,8,,SKIPPED(pre-threshold divergence)",
        "6,3,1,2,7,7,8,,SKIPPED(pre-threshold divergence)",
        "7,3,1,2,9,9,9,,MATCH",
        "8,3,1,2,10,10,10,,MATCH",
        "9,3,1,2,12,12,12,,MATCH",
    ]


def test_cli_version():
    runner = CliRunner()
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "turanstar" in result.output
