"""graph6 and JSON edge-list serialization.

graph6 is the compact ASCII format used by the usual graph-generation tools:
one header byte encodes n (short form, n <= 62), then the upper triangle of
the adjacency matrix is packed six bits per byte, columns before rows.  Only
the short form is supported here; anything bigger travels as a JSON object
``{"n": ..., "edges": [[u, v], ...]}``.
"""

from __future__ import annotations

import json

from .graphs import Graph, build_graph

GRAPH6_MAX_N = 62


def graph6_encode(g: Graph) -> str:
    """Short-form graph6 string for a graph on at most 62 vertices."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"short-form graph6 caps at {GRAPH6_MAX_N} vertices, got {g.n}")
    out = [chr(g.n + 63)]
    bit_buf = 0
    bit_len = 0
    for v in range(1, g.n):
        for u in range(v):
            bit_buf = (bit_buf << 1) | (g.rows[u] >> v & 1)
            bit_len += 1
            if bit_len == 6:
                out.append(chr(bit_buf + 63))
                bit_buf = 0
                bit_len = 0
    if bit_len:
        bit_buf <<= 6 - bit_len
        out.append(chr(bit_buf + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    """Inverse of :func:`graph6_encode`, with strict validation."""
    if not text:
        raise ValueError("empty graph6 string")
    header = ord(text[0])
    if header == 126:
        raise ValueError("long-form graph6 (>62 vertices) is not supported")
    if not 63 <= header <= 125:
        raise ValueError(f"bad graph6 header byte {header}")
    n = header - 63
    n_bits = n * (n - 1) // 2
    body = text[1:]
    expected = (n_bits + 5) // 6
    if len(body) != expected:
        raise ValueError(f"graph6 body length {len(body)}, expected {expected} for n={n}")
    bit_pos = 0
    acc = 0
    for ch in body:
        code = ord(ch) - 63
        if not 0 <= code < 64:
            raise ValueError(f"bad graph6 body byte {ord(ch)}")
        acc = (acc << 6) | code
        bit_pos += 6
    pad = bit_pos - n_bits
    if pad and acc & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 string")
    acc >>= pad
    edges = []
    for v in range(n - 1, 0, -1):
        for u in range(v - 1, -1, -1):
            if acc & 1:
                edges.append((u, v))
            acc >>= 1
    return build_graph(n, edges)


def to_edge_list_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})
