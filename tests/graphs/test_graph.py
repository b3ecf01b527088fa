"""Tests for the Graph container."""

from __future__ import annotations

import pytest

from repro.graphs import Graph


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)], name="K3")


class TestConstruction:
    def test_from_edges_basics(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.neighbors(1) == (2, 3)

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 3)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph([[2], []])

    def test_duplicate_neighbour_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph([[2, 2], [1, 1]])

    def test_neighbour_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph([[5]])

    def test_node_weights_length_checked(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 2)], node_weights=[1, 2])

    def test_empty_graph(self):
        g = Graph([])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.is_connected()

    def test_networkx_roundtrip(self, triangle):
        nxg = triangle.to_networkx()
        back = Graph.from_networkx(nxg)
        assert back == triangle


class TestQueries:
    def test_degree(self, triangle):
        assert triangle.degree(1) == 2
        assert triangle.max_degree() == 2

    def test_has_edge(self, triangle):
        assert triangle.has_edge(1, 2)
        assert triangle.has_edge(2, 1)

    def test_edges_yield_canonical_order(self, triangle):
        assert sorted(triangle.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_unknown_node_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.neighbors(4)
        with pytest.raises(KeyError):
            triangle.node_weight(0)

    def test_node_weights_default_one(self, triangle):
        assert triangle.node_weights == (1, 1, 1)
        assert triangle.total_node_weight() == 3
        assert not triangle.has_node_weights

    def test_custom_node_weights(self):
        g = Graph.from_edges(2, [(1, 2)], node_weights=[5, 7])
        assert g.node_weight(1) == 5
        assert g.total_node_weight() == 12
        assert g.has_node_weights

    def test_edge_weight_default_one(self, triangle):
        assert triangle.edge_weight(1, 2) == 1
        assert not triangle.has_edge_weights

    def test_edge_weight_custom(self):
        g = Graph.from_edges(2, [(1, 2)], edge_weights={(2, 1): 9})
        assert g.edge_weight(1, 2) == 9
        assert g.edge_weight(2, 1) == 9
        assert g.has_edge_weights

    def test_known_edge_weight_reads_as_edge_weight_on_every_edge(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)], edge_weights={(3, 2): 4, (3, 4): 1})
        for u in g.nodes():
            for v in g.neighbors(u):
                assert g.known_edge_weight(u, v) == g.edge_weight(u, v)
        assert [g.known_edge_weight(u, v) for u, v in g.edges()] == [1, 4, 1]

    def test_edge_weight_missing_edge_raises(self, triangle):
        g = Graph.from_edges(3, [(1, 2)])
        with pytest.raises(KeyError):
            g.edge_weight(1, 3)

    def test_weight_one_normalized_for_equality(self):
        a = Graph.from_edges(2, [(1, 2)], edge_weights={(1, 2): 1})
        b = Graph.from_edges(2, [(1, 2)])
        assert a == b


class TestStructure:
    def test_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert not g.is_connected()
        comps = g.connected_components()
        assert comps == [[1, 2], [3, 4]]

    def test_single_node_connected(self):
        assert Graph([[]]).is_connected()

    def test_bfs_order_starts_at_start(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert g.bfs_order(2) == [2, 1, 3, 4]

    def test_bfs_order_partial_on_disconnected(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert g.bfs_order(1) == [1, 2]


class TestDerivations:
    def test_subgraph_remaps_ids(self):
        g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        sub, remap = g.subgraph([2, 3, 5])
        assert sub.num_nodes == 3
        assert remap == {2: 1, 3: 2, 5: 3}
        assert sub.has_edge(1, 2)      # old (2,3)
        assert not sub.has_edge(2, 3)  # old (3,5) absent

    def test_subgraph_keeps_weights(self):
        g = Graph.from_edges(
            3, [(1, 2), (2, 3)], node_weights=[4, 5, 6], edge_weights={(2, 3): 8}
        )
        sub, remap = g.subgraph([2, 3])
        assert sub.node_weight(remap[2] ) == 5
        assert sub.edge_weight(remap[2], remap[3]) == 8

    def test_with_node_weights(self, triangle):
        g = triangle.with_node_weights([3, 3, 3])
        assert g.total_node_weight() == 9
        assert g.num_edges == triangle.num_edges

    def test_equality_and_hash(self, triangle):
        same = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        assert triangle == same
        assert hash(triangle) == hash(same)
        assert triangle != Graph.from_edges(3, [(1, 2), (2, 3)])

    def test_repr(self, triangle):
        assert "K3" in repr(triangle)
