from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from hfspeed.errors import CapacityError, ValidationError
from hfspeed.graphs import (
    Graph, bits, co_components, complement, complete, complete_bipartite,
    components, cycle, delete_vertex, disjoint_union,
    edgeless, find_induced_embedding, induced_subgraph, join, matching,
    path, relabel, star,
)
from oracles import all_labeled_graphs, brute_embeds_induced


def graphs_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if draw(st.booleans())]
        return Graph(n, edges)
    return build()


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValidationError):
            Graph(3, [(0, 5)])
        with pytest.raises(CapacityError):
            Graph(65)

    def test_equality_is_labeled(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(0, 1)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])

    def test_basic_accessors(self):
        g = path(4)
        assert g.degree(0) == 1 and g.degree(1) == 2
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count() == 3
        assert g.has_edge(1, 2) and not g.has_edge(0, 3)

    def test_named_shapes(self):
        assert complete(4).edge_count() == 6
        assert cycle(5).degrees() == (2, 2, 2, 2, 2)
        assert star(3) == join(complete(1), edgeless(3))
        assert matching(2).degrees() == (1, 1, 1, 1)
        assert complete_bipartite(2, 3).edge_count() == 6
        with pytest.raises(ValidationError):
            cycle(2)


class TestOperations:
    def test_induced_subgraph_order_sets_labels(self):
        p4 = path(4)
        h = induced_subgraph(p4, [0, 2, 3])
        assert h == Graph(3, [(1, 2)])
        # order matters for labels
        h2 = induced_subgraph(p4, [3, 2, 0])
        assert h2 == Graph(3, [(0, 1)])
        with pytest.raises(ValidationError):
            induced_subgraph(p4, [0, 0, 1])

    def test_delete_vertex(self):
        assert delete_vertex(path(3), 1) == edgeless(2)

    def test_complement_small(self):
        assert complement(complete(4)) == edgeless(4)
        assert complement(cycle(5)) == Graph(
            5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])

    @given(graphs_strategy())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    def test_join_and_union(self):
        g = disjoint_union(complete(2), edgeless(2))
        assert g.edge_count() == 1 and g.n == 4
        j = join(complete(1), edgeless(3))
        assert j.degrees() == (3, 1, 1, 1)

    @given(graphs_strategy(5), graphs_strategy(5))
    def test_join_is_complement_of_union(self, g, h):
        lhs = complement(join(g, h))
        rhs = disjoint_union(complement(g), complement(h))
        assert lhs == rhs

    def test_components(self):
        g = disjoint_union(path(3), complete(2))
        assert components(g) == [0b00111, 0b11000]
        # P4 and C5 are co-connected, so the join splits back cleanly
        assert co_components(join(path(4), cycle(5))) == [0b01111, 0b111110000]
        # P3 is not: P3 = join(E2, K1), and the decomposition refines it
        assert co_components(join(path(3), complete(2))) == [
            0b00101, 0b00010, 0b01000, 0b10000]

    @given(graphs_strategy(7), st.randoms(use_true_random=False))
    def test_relabel_preserves_structure(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        assert h.edge_count() == g.edge_count()
        assert sorted(h.degrees()) == sorted(g.degrees())
        for u, v in g.edges():
            assert h.has_edge(perm[u], perm[v])

    def test_masks(self):
        assert list(bits(0b10110)) == [1, 2, 4]


class TestEmbeddings:
    def test_first_witness_is_lexicographic(self):
        assert find_induced_embedding(complete(2), path(3)) == (0, 1)
        assert find_induced_embedding(path(3), cycle(5)) == (0, 1, 2)
        # P3 into the claw: leaf, centre, leaf; leaf 1 then centre 0 then leaf 2
        assert find_induced_embedding(path(3), star(3)) == (1, 0, 2)

    def test_no_embedding(self):
        assert find_induced_embedding(complete(3), cycle(5)) is None
        assert find_induced_embedding(cycle(4), complete(4)) is None
        assert find_induced_embedding(cycle(3), path(4)) is None

    def test_matches_brute_force_exhaustively(self):
        patterns = [g for n in range(4) for g in all_labeled_graphs(n)]
        hosts = list(all_labeled_graphs(4))
        for p in patterns:
            for h in hosts:
                got = find_induced_embedding(p, h)
                want = brute_embeds_induced(p, h)
                assert (got is not None) == want
                if got is not None:
                    assert induced_subgraph(h, got) == p
