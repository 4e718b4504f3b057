from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from hfspeed import graph6
from hfspeed.errors import ValidationError
from hfspeed.graphs import Graph, complete, cycle, edgeless, path
from oracles import all_labeled_graphs


# hand-checked vectors (the K3 and empty-triangle encodings are the
# standard reference examples for the format)
KNOWN = [
    (complete(3), "Bw"),
    (edgeless(3), "B?"),
    (edgeless(0), "?"),
    (complete(1), "@"),
    (path(4), "Ch"),
    (cycle(5), "Dhc"),
]


@pytest.mark.parametrize("g,code", KNOWN)
def test_known_vectors(g, code):
    assert graph6.encode(g) == code
    assert graph6.decode(code) == g


def test_roundtrip_exhaustive_small():
    for n in range(5):
        for g in all_labeled_graphs(n):
            assert graph6.decode(graph6.encode(g)) == g


@given(st.integers(0, 20), st.randoms(use_true_random=False))
def test_roundtrip_random(n, rnd):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rnd.random() < 0.4]
    g = Graph(n, edges)
    assert graph6.decode(graph6.encode(g)) == g


def test_networkx_agreement():
    nx = pytest.importorskip("networkx")
    import random
    rnd = random.Random(7)
    for n in range(1, 13):
        for _ in range(5):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rnd.random() < 0.5]
            g = Graph(n, edges)
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(edges)
            theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
            assert graph6.encode(g) == theirs
            back = nx.from_graph6_bytes(graph6.encode(g).encode())
            assert sorted(back.edges()) == sorted(g.edges())


def test_header_prefix_tolerated():
    assert graph6.decode(">>graph6<<Bw") == complete(3)


def test_invalid_inputs():
    with pytest.raises(ValidationError):
        graph6.decode("")
    with pytest.raises(ValidationError):
        graph6.decode("B")          # truncated body
    with pytest.raises(ValidationError):
        graph6.decode("Bw~")        # overlong body
    with pytest.raises(ValidationError):
        graph6.decode("B\x1f\x1f")  # bytes below the printable range
    with pytest.raises(ValidationError):
        graph6.decode("@w")         # nonzero padding for n=1
