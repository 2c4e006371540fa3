"""Fixed-corpus layer timings and independent reference counts.

Each timing calls one layer's public functions directly on inputs that do
not change between runs, so a layer's speed shows apart from the mix a
workload happens to give it.  Seeded parts (relabelling permutations,
random graphs, line order) come from the benchmark's ``--seed``.  The
reference counts check the oracle against published sequences and the
canonical form against a hard non-isomorphic pair.
"""

from __future__ import annotations

import json
import random
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import turanstar as ts
from turanstar import oracle as oracle_mod

from gate import ALL_GRAPHS_8, TRIANGLE_FREE_COUNTS, Tally, strip_timestamp
from spans import recording_levels

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def per_call(fn, budget_s: float, min_reps: int = 3) -> float:
    """Median seconds of fn() over repetitions filling about budget_s."""
    times = []
    spent = perf_counter()
    while len(times) < min_reps or perf_counter() - spent < budget_s:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def relabelled(g: ts.Graph, rng: random.Random) -> ts.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return ts.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _canonical_corpus(name: str, graphs: list[ts.Graph], rng, budget_s: float, tally: Tally) -> float:
    """Seconds per canonical_form call over relabelled copies of the corpus."""
    shuffled = [relabelled(g, rng) for g in graphs]
    forms = [ts.canonical_form(g) for g in shuffled]
    tally.check(forms == [ts.canonical_form(g) for g in graphs], f"{name}: form changed under relabelling")
    tally.check(len(set(forms)) == len(graphs), f"{name}: distinct classes share a form")
    return per_call(lambda: [ts.canonical_form(g) for g in shuffled], budget_s) / len(shuffled)


def rook_and_shrikhande() -> tuple[ts.Graph, ts.Graph]:
    """The two srg(16, 6, 2, 2): K4 x K4, and the Cayley graph of Z4^2 on ±(1,0), ±(0,1), ±(1,1)."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    index = {c: k for k, c in enumerate(cells)}
    rook = [(index[a], index[b]) for a in cells for b in cells if a < b and (a[0] == b[0]) != (a[1] == b[1])]
    steps = ((1, 0), (0, 1), (1, 1))
    shrikhande = {
        tuple(sorted((index[(i, j)], index[((i + di) % 4, (j + dj) % 4)])))
        for i, j in cells
        for di, dj in steps
    }
    return ts.build_graph(16, rook), ts.build_graph(16, sorted(shrikhande))


def canonical_timings(rng: random.Random, tally: Tally) -> dict:
    dense9 = [ts.graph6_decode(c) for c in (FIXTURES / "dense9.g6").read_text().split()]
    sparse11 = [ts.graph6_decode(c) for c in (FIXTURES / "sparse11.g6").read_text().split()]
    tally.check(len(dense9) == TRIANGLE_FREE_COUNTS[8], "dense9 corpus size")
    srg16 = list(rook_and_shrikhande())
    return {
        "canonical.dense9_us": (1e6 * _canonical_corpus("dense9", dense9, rng, 1.0, tally), "us"),
        "canonical.sparse11_us": (1e6 * _canonical_corpus("sparse11", sparse11, rng, 1.0, tally), "us"),
        "canonical.srg16_ms": (1e3 * _canonical_corpus("srg16", srg16, rng, 0.5, tally), "ms"),
    }


def check_srg_pair(tally: Tally) -> None:
    rook, shrikhande = rook_and_shrikhande()
    tally.check(
        [sorted(g.degree_sequence()) for g in (rook, shrikhande)] == [[6] * 16] * 2, "srg pair degrees"
    )
    tally.check(ts.canonical_form(rook) != ts.canonical_form(shrikhande), "rook and Shrikhande share a form")


def _random_graph(n: int, rng: random.Random) -> ts.Graph:
    p = rng.uniform(0.2, 0.7)
    return ts.build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def detector_timings(rng: random.Random) -> dict:
    """Microseconds per is_family_free call on single-pattern families."""
    corpus = [_random_graph(rng.randint(6, 11), rng) for _ in range(300)]
    corpus += [
        ts.turan_graph(40, 3),
        ts.regular_triangle_free(40, 3)[0],
        ts.joined_regular_extremal(40, 2, 3),
        ts.joined_capped_extremal(40, 2, 3),
        ts.clique_matching_extremal(40, 3, 2),
        ts.clique_star_forest_extremal(40, 3, 2, 3),
    ]
    out = {}
    for name, spec in (("clique", "clique:4"), ("matching", "matching:3"), ("starforest", "starforest:2x2")):
        family = ts.ForbiddenFamily.parse(spec)
        seconds = per_call(lambda: [ts.is_family_free(g, family) for g in corpus], 0.5)
        out[f"detectors.{name}_us"] = (1e6 * seconds / len(corpus), "us")
    return out


def builder_timing(tally: Tally) -> dict:
    """Milliseconds for the eight builders at n = 200."""
    n = 200
    builds = (
        (lambda: ts.turan_graph(n, 3), ts.turan_edges(n, 3)),
        (lambda: ts.complete_bipartite(100, 100), 100 * 100),
        (lambda: ts.regular_triangle_free(n, 5)[0], ts.ex_star(n, 5).value),
        (lambda: ts.capped_bipartite(n, 5)[0], 4 * (n // 2)),
        (lambda: ts.joined_regular_extremal(n, 2, 5), ts.extremal_family_edges(n, 2, 5)[0]),
        (lambda: ts.joined_capped_extremal(n, 2, 5), ts.extremal_family_edges(n, 2, 5)[1]),
        (lambda: ts.clique_matching_extremal(n, 3, 2), ts.ex_clique_matching(n, 3, 2).value),
        (lambda: ts.clique_star_forest_extremal(n, 3, 2, 4), ts.ex_clique_star_forest(n, 3, 2, 4).value),
    )
    for i, (build, edges) in enumerate(builds):
        tally.check(build().edge_count == edges, f"builder {i} at n=200: edge count")
    return {"constructions.n200_ms": (1e3 * per_call(lambda: [build() for build, _ in builds], 1.0), "ms")}


def harness_timings(warm_cache: Path, work: Path, expected_csv: str, rng, tally: Tally) -> dict:
    """Cache load of 10,000 appended lines, and emission of one suite report."""
    source = ts.ResultCache(warm_cache)
    records = []
    for line in warm_cache.read_text().splitlines():
        if line.strip():
            data = json.loads(line)
            records.append(source.lookup(data["n"], ts.ForbiddenFamily.parse(data["family"])))
    order = [records[i % len(records)] for i in range(10_000)]
    rng.shuffle(order)
    big = work / "cache10k.jsonl"
    big.unlink(missing_ok=True)
    writer = ts.ResultCache(big)
    for record in order:
        writer.append(record)
    load_s = per_call(lambda: ts.ResultCache(big), 0.5)
    reloaded = ts.ResultCache(big)
    tally.check(
        all(reloaded.lookup(r.n, r.family) == r for r in records), "10k cache: reloaded records differ"
    )

    report = ts.run_suite("triangle-star-forest", jobs=1, cache=ts.ResultCache(warm_cache))
    csv = ts.emit_report(report, "csv").decode()
    section = "".join(strip_timestamp(csv))
    tally.check(section in expected_csv, "triangle-star-forest report differs from the verify fixture")
    emit_s = per_call(lambda: [ts.emit_report(report, fmt) for fmt in ("csv", "json", "table")], 0.5)
    return {"harness.cache_load_10k_ms": (1e3 * load_s, "ms"), "harness.emit_ms": (1e3 * emit_s, "ms")}


@contextmanager
def level_counts():
    """Record [edge count, classes, augmentations] for every level the oracle yields."""
    seen: list[list[int]] = []
    levels = oracle_mod._levels
    oracle_mod._levels = recording_levels(levels, seen)
    try:
        yield seen
    finally:
        oracle_mod._levels = levels


def count_classes(n: int, spec: str, jobs: int = 1) -> tuple[int, ts.ExtremalRecord, float]:
    """Classes enumerated, the record, and the seconds brute_force_ex took."""
    with level_counts() as seen:
        start = perf_counter()
        record = ts.brute_force_ex(n, ts.ForbiddenFamily.parse(spec), jobs=jobs)
        seconds = perf_counter() - start
    return sum(classes for _, classes, _ in seen), record, seconds


def check_small_counts(tally: Tally) -> None:
    """Triangle-free counts for n = 1..8 against A006785."""
    for n in range(1, 9):
        classes, _, _ = count_classes(n, "clique:3")
        tally.check(classes == TRIANGLE_FREE_COUNTS[n - 1], f"{classes} triangle-free classes at n={n}")


def pool_speedup(tally: Tally) -> dict:
    """clique:3 at n = 9 on one worker and on two; records must agree."""
    classes1, one, seconds1 = count_classes(9, "clique:3", jobs=1)
    classes2, two, seconds2 = count_classes(9, "clique:3", jobs=2)
    tally.check(classes1 == TRIANGLE_FREE_COUNTS[8], f"{classes1} triangle-free classes at n=9")
    same = [(r.ex_value, r.extremal_graphs, r.graphs_visited) for r in (one, two)]
    tally.check(same[0] == same[1], "ex value, extremal codes or graphs_visited differ between 1 and 2 workers")
    tally.check(classes1 == classes2, "class counts differ between 1 and 2 workers")
    return {"oracle.pool_speedup": (seconds1 / seconds2, "ratio")}


def check_all_graphs(tally: Tally) -> None:
    """All graphs on 8 vertices, via a family nothing on 8 vertices contains."""
    classes, _, _ = count_classes(8, "clique:9")
    tally.check(classes == ALL_GRAPHS_8, f"{classes} graphs on 8 vertices")
