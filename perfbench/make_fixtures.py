"""Write the fixed answers and corpora under perfbench/fixtures/.

The committed fixtures were produced once from the code the benchmark was
defined on, and each was checked against an independent source where one
exists (OEIS counts, the K_{5,5} structure).  Do not regenerate them from
code under test: they are the gate that code is checked against.

    python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = HERE / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from turanstar import ForbiddenFamily  # noqa: E402
from turanstar import oracle as oracle_mod  # noqa: E402


def levels(n: int, spec: str) -> list[tuple[int, tuple[str, ...], int]]:
    """(edge count, class codes, augmentations) for each level of the search."""
    return list(oracle_mod._levels(n, ForbiddenFamily.parse(spec), jobs=1))


def verify_csv() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verify.csv"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "turanstar.cli", "verify", "--jobs", "1",
             "--cache", str(Path(tmp) / "cache.jsonl"), "--format", "csv", "--out", str(out)],
            check=True, env=env,
        )
        text = out.read_text()
    return "".join(line for line in text.splitlines(True) if not line.startswith("# timestamp:"))


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / "verify.csv").write_text(verify_csv())
    dense_levels = levels(10, "clique:3")
    found = [item for item in dense_levels if item[1]]
    dense = {
        "n": 10,
        "family": "clique:3",
        "ex_value": found[-1][0],
        "extremal_classes": len(found[-1][1]),
        "level_classes": [len(codes) for _, codes, _ in found],
        "graphs_visited": sum(visited for _, _, visited in dense_levels),
    }
    (FIXTURES / "oracle_dense.json").write_text(json.dumps(dense, indent=1) + "\n")
    for name, n, spec in (("dense9", 9, "clique:3"), ("sparse11", 11, "clique:3,starforest:2x2")):
        codes = [code for _, level, _ in levels(n, spec) for code in level]
        (FIXTURES / f"{name}.g6").write_text("\n".join(codes) + "\n")


if __name__ == "__main__":
    main()
