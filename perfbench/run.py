"""turanstar benchmark: two end-to-end workloads and per-layer timings.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload runs the ``turanstar`` command in a fresh
interpreter, one process and one oracle worker, and starts it again while
less than ``--seconds`` have been measured.  Each
repetition's output is checked against the fixed answers in
``perfbench/fixtures`` (see ``gate.py``).

``--trace 0`` prints the end-to-end metrics: medians over the repetitions.
``--trace 1`` alternates untraced runs of the command with runs that have
every layer wrapped (``spans.py``), at least one of each, then times the
layers on fixed corpora and checks reference counts (``layers.py``), and
prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result,
with provenance, is written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import Tally, check_levels, check_oracle_record, check_verify_csv, data_rows, self_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FIXTURES = HERE / "fixtures"
DEADLINE_S = 170.0
SETUP_REPS = 16  # half before the workload's repetitions, half after

# Which end-to-end metric each layer metric is meant to move, and where.
# verify_warm.wall_s, timed in the traced pass, stands for verify over a
# filled cache: every suite, no oracle.
LAYER_TARGETS = {
    "canonical": "wall_s on verify-cold and oracle-dense, and verify_warm.wall_s; dense9_us tracks "
    "oracle-dense, sparse11_us verify-cold, srg16_ms verify_warm.wall_s",
    "detectors": "wall_s on verify-cold, and verify_warm.wall_s",
    "graph6": "wall_s on oracle-dense",
    "graphs": "wall_s on oracle-dense",
    "oracle": "wall_s on oracle-dense and verify-cold",
    "constructions": "verify_warm.wall_s",
    "formulas": "verify_warm.wall_s",
    "harness": "verify_warm.wall_s",
    "cli": "setup_s on every workload",
}

WORKLOADS = ("verify-cold", "oracle-dense")
WARM_SECONDS = 6.0  # verify over a filled cache, timed in the traced pass

SUITES = (
    "regular-core",
    "star-turan",
    "clique-matching",
    "clique-star-forest",
    "triangle-star-forest",
    "boundary-sweep",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], stdout_path: Path, timeout_s: float) -> tuple[float, float, int]:
    """Run one command; returns (wall seconds, peak RSS in MB, exit code).

    The child is reaped with wait4 so its own peak memory is read.  A child
    that outlives timeout_s is killed and reported with exit code -9.
    """
    with stdout_path.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=subprocess.PIPE, cwd=ROOT)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            proc.stderr.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(stderr.decode(errors="replace")[-2000:])
    return wall, usage.ru_maxrss / 1024.0, code


def verify_args(cache: Path, out: Path) -> tuple[list[str], Path]:
    """`turanstar verify` over all suites, one worker, CSV to out."""
    return ["verify", "--jobs", "1", "--cache", str(cache), "--format", "csv", "--out", str(out)], out


def src_digest() -> str:
    digest = hashlib.sha256(platform.python_version().encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "workers": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    def __init__(self, args) -> None:
        self.args = args
        self.rng = random.Random(args.seed)
        self.tally = Tally()
        self.start = time.perf_counter()
        self.run_dir = WORK / f"run-{os.getpid()}"
        self.expected_csv = (FIXTURES / "verify.csv").read_text()
        self.expected_oracle = json.loads((FIXTURES / "oracle_dense.json").read_text())
        self.detail: dict = {}
        self.selfcheck_share = 0.0

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    # -- the command each workload runs --------------------------------------

    def command(self, rep: int) -> tuple[list[str], Path | None]:
        """CLI arguments for one repetition, and the CSV path it writes."""
        if self.args.workload == "oracle-dense":
            return ["oracle", "--n", "10", "--family", "clique:3", "--jobs", "1"], None
        return verify_args(self.run_dir / f"cold-{rep}.jsonl", self.run_dir / f"verify-{rep}.csv")

    def check_output(self, csv_out: Path | None, stdout: Path, code: int, tally: Tally) -> None:
        tally.check(code == 0, f"exit code {code}")
        if csv_out is None:
            check_oracle_record(stdout.read_text(), self.expected_oracle, tally)
        else:
            check_verify_csv(csv_out.read_text() if csv_out.exists() else "", self.expected_csv, tally)

    def run_rep(self, rep: int, traced: bool = False, command=None) -> tuple[float, float, dict | None]:
        cli_args, csv_out = command or self.command(rep)
        stdout = self.run_dir / f"stdout-{rep}.txt"
        if traced:
            trace_out = self.run_dir / "trace.json"
            argv = [sys.executable, str(HERE / "spans.py"), str(trace_out)] + cli_args
        else:
            argv = [sys.executable, "-m", "turanstar.cli"] + cli_args
        wall, rss, code = run_child(argv, stdout, self.left())
        self.check_output(csv_out, stdout, code, self.tally)
        trace = json.loads(trace_out.read_text()) if traced and trace_out.exists() else None
        return wall, rss, trace

    # -- set-up --------------------------------------------------------------

    def setup_walls(self, reps: int) -> list[float]:
        """Seconds to start a fresh interpreter and import turanstar and its CLI."""
        argv = [sys.executable, "-c", "import turanstar, turanstar.cli"]
        walls = []
        for _ in range(reps):
            wall, _, code = run_child(argv, self.run_dir / "setup.txt", self.left())
            self.tally.check(code == 0, "import failed")
            walls.append(wall)
        return walls

    def warm_cache(self) -> Path:
        """A cache filled once by a cold verify of this source tree, kept across runs."""
        prepared = WORK / f"warm-{src_digest()[:16]}.jsonl"
        if not prepared.exists():
            cache = self.run_dir / "prep.jsonl"
            args, out = verify_args(cache, self.run_dir / "prep.csv")
            argv = [sys.executable, "-m", "turanstar.cli"] + args
            _, _, code = run_child(argv, self.run_dir / "prep.txt", self.left())
            tally = Tally()
            self.check_output(out, self.run_dir / "prep.txt", code, tally)
            self.tally.check(tally.failed == 0, "warm cache preparation failed its gate")
            if tally.failed:
                return cache
            os.replace(cache, prepared)
        return prepared

    def warm_verify(self, prepared: Path) -> float:
        """Median seconds of verify over a filled cache, which it must only read."""
        lines = prepared.read_text().splitlines(True)
        self.rng.shuffle(lines)  # the seed orders the cache lines; every key is distinct
        cache = self.run_dir / "warm.jsonl"
        cache.write_text("".join(lines))
        walls = []
        while len(walls) < 3 or sum(walls) < WARM_SECONDS:
            command = verify_args(cache, self.run_dir / f"warm-{len(walls)}.csv")
            walls.append(self.run_rep(100 + len(walls), command=command)[0])
        self.tally.check(cache.read_text() == "".join(lines), "verify over a filled cache wrote to it")
        return statistics.median(walls)

    def work_units(self) -> int:
        """Suite rows checked per run of verify; classes enumerated by the dense oracle."""
        if self.args.workload == "oracle-dense":
            return sum(self.expected_oracle["level_classes"])
        return data_rows(self.expected_csv)

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self) -> dict:
        setup = self.setup_walls(SETUP_REPS // 2)
        walls, rsses = [], []
        while not walls or sum(walls) < self.args.seconds and self.left() > 2 * max(walls) + 10:
            wall, rss, _ = self.run_rep(len(walls))
            walls.append(wall)
            rsses.append(rss)
        setup += self.setup_walls(SETUP_REPS - len(setup))
        wall = statistics.median(walls)
        # Throughput is work_units / wall_s exactly, so it is kept out of the gated metrics.
        self.detail = {
            "walls_s": walls,
            "peak_rss_mb": rsses,
            "setup_s": setup,
            "throughput_per_s": self.work_units() / wall,
        }
        return {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rsses), "MB"),
        }

    def traced(self) -> dict:
        import layers

        untraced, traced = [], []
        while not untraced or sum(untraced) + sum(traced) + max(untraced) + max(traced) <= min(
            self.args.seconds, self.left() - 120
        ):
            untraced.append(self.run_rep(2 * len(untraced))[0])
            wall, _, trace = self.run_rep(2 * len(traced) + 1, traced=True)
            traced.append(wall)
        if trace is None:
            self.tally.check(False, "traced run wrote no trace")
            trace = {"calls": {}, "self_s": {}, "inclusive_s": {}, "counts": {}, "levels": []}
        if self.args.workload == "oracle-dense":
            check_levels(trace["levels"], self.expected_oracle, self.tally)
        metrics = layer_metrics(trace)
        metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
        self.detail = {"untraced_wall_s": untraced, "traced_wall_s": traced, "levels": trace["levels"]}

        warm = self.warm_cache()
        metrics["verify_warm.wall_s"] = (self.warm_verify(warm), "s")
        metrics.update(layers.canonical_timings(self.rng, self.tally))
        metrics.update(layers.detector_timings(self.rng))
        metrics.update(layers.builder_timing(self.tally))
        metrics.update(layers.harness_timings(warm, self.run_dir, self.expected_csv, self.rng, self.tally))
        metrics.update(layers.pool_speedup(self.tally))
        # 24 s of enumeration: the dense pass has already spent its time on n = 10.
        if self.args.workload != "oracle-dense" and self.left() > 60:
            layers.check_all_graphs(self.tally)
        return metrics

    def references(self) -> None:
        """Cheap independent checks, once per invocation."""
        import layers

        layers.check_small_counts(self.tally)
        layers.check_srg_pair(self.tally)
        share, problems = self_check(self.expected_csv, self.expected_oracle, self.rng)
        self.selfcheck_share = share
        self.tally.check(not problems and share > 0, "; ".join(problems) or "self-check found nothing")


def layer_metrics(trace: dict) -> dict:
    calls, self_s, inclusive, counts = trace["calls"], trace["self_s"], trace["inclusive_s"], trace["counts"]
    levels = trace["levels"]
    canonical_calls = calls.get("canonical", 0)
    free_children = counts.get("oracle.free_children", 0)
    verdicts = counts.get("detectors.verdicts", 0)
    new_classes = sum(classes for level, classes, _ in levels if level > 0)
    out = {
        "canonical.calls": (canonical_calls, "count"),
        "canonical.self_s": (self_s.get("canonical", 0.0), "s"),
        "canonical.us_per_call": (1e6 * self_s.get("canonical", 0.0) / max(canonical_calls, 1), "us"),
        "detectors.calls": (calls.get("detectors", 0), "count"),
        "detectors.self_s": (self_s.get("detectors", 0.0), "s"),
        "detectors.free_ratio": (counts.get("detectors.free", 0) / max(verdicts, 1), "ratio"),
        "graph6.calls": (calls.get("graph6", 0), "count"),
        "graph6.self_s": (self_s.get("graph6", 0.0), "s"),
        "graphs.add_edge_calls": (counts.get("graphs.add_edge", 0), "count"),
        "graphs.self_s": (self_s.get("graphs", 0.0), "s"),
        "oracle.augmentations": (sum(visited for _, _, visited in levels), "count"),
        "oracle.free_children": (free_children, "count"),
        "oracle.classes": (sum(classes for _, classes, _ in levels), "count"),
        "oracle.levels": (len(levels), "count"),
        "oracle.self_s": (self_s.get("oracle", 0.0), "s"),
        "oracle.dedup_ratio": (new_classes / max(free_children, 1), "ratio"),
        "constructions.calls": (calls.get("constructions", 0), "count"),
        "constructions.self_s": (self_s.get("constructions", 0.0), "s"),
        "formulas.self_s": (self_s.get("formulas", 0.0), "s"),
        "harness.cache_load_s": (inclusive.get("harness.cache_load_s", 0.0), "s"),
        "harness.cache_hits": (counts.get("harness.cache_hits", 0), "count"),
        "harness.cache_misses": (counts.get("harness.cache_misses", 0), "count"),
        "harness.cache_append_s": (inclusive.get("harness.cache_append_s", 0.0), "s"),
    }
    for suite in SUITES:
        out[f"harness.suite_s.{suite}"] = (inclusive.get(f"harness.suite_s.{suite}", 0.0), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "turanstar" / "__init__.py").is_file():
        print(f"no turanstar sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args)
    bench.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench.references()
        metrics = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    if args.trace:
        tally = bench.tally
        metrics["gate.failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
        metrics["gate.selfcheck_failed_frac"] = (bench.selfcheck_share, "ratio")

    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(args),
        "result": result,
        "failures": bench.tally.failures,
        "detail": bench.detail,
        "layer_targets": LAYER_TARGETS,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"], "failures": record["failures"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
