"""Write canonical_forms.txt: seeded relabelled graphs and their canonical forms.

Each line is ``input_graph6 form_graph6``.  The file pins the labelling
itself: a cached record stores canonical graph6 strings, so any change to
``canonical_form`` output would silently split or merge cached classes.
Regenerate only from the labelling the file is meant to pin:

    PYTHONPATH=src python tests/data/make_canonical_forms.py
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

from turanstar import (
    Graph,
    build_graph,
    canonical_form,
    clique_matching_extremal,
    clique_star_forest_extremal,
    disjoint_union,
    empty_graph,
    graph6_encode,
    join,
    joined_capped_extremal,
    joined_regular_extremal,
    turan_graph,
)

OUT = Path(__file__).with_name("canonical_forms.txt")
MAX_N = 14


def random_graphs(rng: random.Random) -> list[Graph]:
    out = []
    for n in range(1, MAX_N + 1):
        for _ in range(15):
            p = rng.uniform(0.1, 0.9)
            out.append(build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


def stars() -> list[Graph]:
    return [join(empty_graph(1), empty_graph(m)) for m in range(1, MAX_N)]


def matchings() -> list[Graph]:
    out = []
    for pairs in range(1, MAX_N // 2 + 1):
        k2s = build_graph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])
        for isolated in (0, 1, 3):
            if 2 * pairs + isolated <= MAX_N:
                out.append(disjoint_union(k2s, empty_graph(isolated)))
    return out


def complete_multipartite(rng: random.Random) -> list[Graph]:
    out = []
    for _ in range(40):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        while sum(parts) > MAX_N:
            parts.pop()
        g = empty_graph(parts[0])
        for size in parts[1:]:
            g = join(g, empty_graph(size))
        out.append(g)
    return out


def threshold_graphs(rng: random.Random) -> list[Graph]:
    """Each vertex arrives isolated or dominating."""
    out = []
    for _ in range(40):
        g = empty_graph(1)
        for _ in range(rng.randint(1, MAX_N - 1)):
            step = empty_graph(1)
            g = join(g, step) if rng.random() < 0.5 else disjoint_union(g, step)
        out.append(g)
    return out


def construction_joins() -> list[Graph]:
    out = []
    for n in range(2, MAX_N + 1):
        for s in range(0, n):
            for l in range(1, 5):
                for build in (joined_regular_extremal, joined_capped_extremal):
                    try:
                        out.append(build(n, s, l))
                    except ValueError:
                        pass
                try:
                    out.append(clique_star_forest_extremal(n, 3 + s % 2, s, l))
                except ValueError:
                    pass
            for k in (2, 3, 4):
                out.append(clique_matching_extremal(n, k, s))
        out.append(turan_graph(n, 3))
    return out


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def main() -> None:
    rng = random.Random(2024)
    graphs = random_graphs(rng) + stars() + matchings()
    graphs += complete_multipartite(rng) + threshold_graphs(rng)
    joins = construction_joins()
    graphs += rng.sample(joins, min(len(joins), 130))
    lines = {}
    for g in graphs:
        h = relabelled(g, rng)
        lines[f"{graph6_encode(h)} {canonical_form(h)}\n"] = None
    OUT.write_text("".join(lines))


if __name__ == "__main__":
    main()
