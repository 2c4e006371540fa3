import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from turanstar import (
    GRAPH6_MAX_N,
    build_graph,
    complete_bipartite,
    empty_graph,
    graph6_decode,
    graph6_encode,
    to_edge_list_json,
    turan_graph,
)

from _reference import random_graph


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_known_codes_match_networkx():
    cases = [
        empty_graph(0),
        empty_graph(1),
        empty_graph(5),
        build_graph(2, [(0, 1)]),
        build_graph(3, [(0, 1), (1, 2)]),
        turan_graph(4, 2),
        complete_bipartite(1, 4),
        turan_graph(7, 3),
    ]
    for g in cases:
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs, f"encoding mismatch for n={g.n}"


def test_decode_round_trip_small():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(0, 12), 0.5)
        assert graph6_decode(graph6_encode(g)) == g


def test_decode_matches_networkx():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 20), 0.3)
        code = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert graph6_decode(code) == g


def test_encode_rejects_oversized():
    with pytest.raises(ValueError):
        graph6_encode(empty_graph(GRAPH6_MAX_N + 1))


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("B\x07")
    with pytest.raises(ValueError):
        graph6_decode("Bww")  # trailing data
    with pytest.raises(ValueError, match="long-form"):
        graph6_decode("~??A")
    with pytest.raises(ValueError, match="header byte 62"):
        graph6_decode(">")
    with pytest.raises(ValueError, match="padding"):
        graph6_decode("A`")  # 2 vertices: one edge bit, then five that must be 0


def test_edge_list_json_round_trip():
    g = turan_graph(6, 3)
    payload = json.loads(to_edge_list_json(g))
    assert set(payload) == {"n", "edges"}
    assert build_graph(payload["n"], map(tuple, payload["edges"])) == g


@given(st.integers(0, 20), st.randoms(use_true_random=False))
def test_round_trip_property(n, rnd):
    edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.4]
    g = build_graph(n, edges)
    assert graph6_decode(graph6_encode(g)) == g
