"""Correctness gate: program outputs against fixed answers.

Nothing here imports turanstar or compares canonical code strings, so a
change of labelling cannot break the gate.  The verify CSV must match the
committed report byte for byte apart from the ``# timestamp:`` line.  The
dense oracle's extremal graph is read by the graph6 decoder below and
checked to be K_{5,5} by its structure.
"""

from __future__ import annotations

import json
import random

# OEIS A006785: triangle-free graphs on n = 1..10 vertices, up to isomorphism.
TRIANGLE_FREE_COUNTS = (1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172)
# OEIS A000088 at n = 8: all graphs on 8 vertices, up to isomorphism.
ALL_GRAPHS_8 = 12346


class Tally:
    """Checks attempted and failed, with the first few failures spelled out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def strip_timestamp(text: str) -> list[str]:
    return [line for line in text.splitlines(True) if not line.startswith("# timestamp:")]


def data_rows(text: str) -> int:
    """Suite rows in a verify CSV: lines that are neither comments nor headers."""
    return sum(1 for line in text.splitlines() if line and line[0].isdigit())


def check_verify_csv(text: str, expected: str, tally: Tally) -> None:
    got, want = strip_timestamp(text), expected.splitlines(True)
    for i in range(max(len(got), len(want))):
        same = i < len(got) and i < len(want) and got[i] == want[i]
        tally.check(same, f"verify csv line {i + 1} differs")


def decode_graph6(code: str) -> list[set[int]]:
    """Adjacency sets of a short-form graph6 string."""
    n = ord(code[0]) - 63
    bits = []
    for ch in code[1:]:
        value = ord(ch) - 63
        bits += [value >> shift & 1 for shift in range(5, -1, -1)]
    adj: list[set[int]] = [set() for _ in range(n)]
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits[pos]:
                adj[u].add(v)
                adj[v].add(u)
            pos += 1
    return adj


def encode_graph6(adj: list[set[int]]) -> str:
    n = len(adj)
    bits = [int(u in adj[v]) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(body)


def complete_bipartite(a: int, b: int) -> list[set[int]]:
    return [set(range(a, a + b)) if v < a else set(range(a)) for v in range(a + b)]


def is_complete_bipartite(adj: list[set[int]], a: int, b: int) -> bool:
    """Two colour classes of sizes a and b, every cross pair adjacent."""
    n = len(adj)
    if n != a + b or n == 0:
        return False
    side = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in side:
                side[w] = 1 - side[v]
                stack.append(w)
            elif side[w] == side[v]:
                return False
    if len(side) != n:
        return False
    left = [v for v in range(n) if side[v] == 0]
    right = [v for v in range(n) if side[v] == 1]
    if sorted((len(left), len(right))) != sorted((a, b)):
        return False
    return all(w in adj[v] for v in left for w in right)


def check_oracle_record(stdout: str, expected: dict, tally: Tally) -> dict:
    """Gate one `turanstar oracle` JSON record; returns it parsed ({} if unreadable)."""
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        record = {}
    graphs = record.get("extremal_graphs") or []
    tally.check(record.get("ex_value") == expected["ex_value"], f"ex_value {record.get('ex_value')}")
    tally.check(len(graphs) == expected["extremal_classes"], f"{len(graphs)} extremal classes")
    half = expected["n"] // 2
    tally.check(
        len(graphs) == 1 and is_complete_bipartite(decode_graph6(graphs[0]), half, expected["n"] - half),
        "extremal graph is not K_{5,5}",
    )
    return record


def check_levels(levels: list[list[int]], expected: dict, tally: Tally) -> None:
    """Traced per-level class counts against the committed ones and A006785."""
    got = [classes for _, classes, _ in levels if classes]
    want = expected["level_classes"]
    for i in range(max(len(got), len(want))):
        tally.check(i < len(got) and i < len(want) and got[i] == want[i], f"level {i} class count")
    tally.check(sum(got) == TRIANGLE_FREE_COUNTS[expected["n"] - 1], f"{sum(got)} classes in all")


def self_check(expected_csv: str, expected_oracle: dict, rng: random.Random) -> tuple[float, list[str]]:
    """Feed the gate one doctored CSV row and one wrong ex_value.

    Returns the failed share over the doctored outputs' checks, and the
    problems found: a doctored output that passed, or a correct control
    that failed.
    """
    lines = expected_csv.splitlines(True)
    row = rng.choice([i for i, line in enumerate(lines) if line[:1].isdigit()])
    cells = lines[row].rstrip("\n").split(",")
    col = rng.choice([i for i, cell in enumerate(cells) if cell.isdigit()])
    cells[col] = str(int(cells[col]) + 1)
    doctored_csv = "".join(lines[:row] + [",".join(cells) + "\n"] + lines[row + 1 :])
    half = expected_oracle["n"] // 2
    k55 = encode_graph6(complete_bipartite(half, expected_oracle["n"] - half))
    good = {"ex_value": expected_oracle["ex_value"], "extremal_graphs": [k55]}
    bad = dict(good, ex_value=expected_oracle["ex_value"] - 1)
    cases = (
        ("verify csv", False, lambda t: check_verify_csv(expected_csv, expected_csv, t)),
        ("verify csv", True, lambda t: check_verify_csv(doctored_csv, expected_csv, t)),
        ("oracle record", False, lambda t: check_oracle_record(json.dumps(good), expected_oracle, t)),
        ("oracle record", True, lambda t: check_oracle_record(json.dumps(bad), expected_oracle, t)),
    )
    attempted = failed = 0
    problems = []
    for name, doctored, run in cases:
        tally = Tally()
        run(tally)
        if doctored:
            attempted += tally.attempted
            failed += tally.failed
            if not tally.failed:
                problems.append(f"gate passed a doctored {name}")
        elif tally.failed:
            problems.append(f"gate rejected the correct {name}")
    return failed / attempted, problems
