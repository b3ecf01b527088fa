"""Tests for the baseline partitioners."""

from __future__ import annotations

import pytest

from repro.graphs import random_connected_graph
from repro.partitioning import (
    BfsGreedyPartitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
)


class TestRoundRobin:
    def test_pattern(self, small_path):
        p = RoundRobinPartitioner().partition(small_path, 3)
        assert p.assignment == (0, 1, 2, 0, 1, 2)

    def test_balanced_node_counts(self, hex64_graph):
        p = RoundRobinPartitioner().partition(hex64_graph, 4)
        assert p.loads() == [16, 16, 16, 16]

    def test_cuts_almost_everything_on_path(self, small_path):
        p = RoundRobinPartitioner().partition(small_path, 2)
        assert p.edge_cut() == small_path.num_edges


class TestRandom:
    def test_deterministic_given_seed(self, hex64_graph):
        a = RandomPartitioner(seed=3).partition(hex64_graph, 4)
        b = RandomPartitioner(seed=3).partition(hex64_graph, 4)
        assert a.assignment == b.assignment

    def test_different_seeds_differ(self, hex64_graph):
        a = RandomPartitioner(seed=3).partition(hex64_graph, 4)
        b = RandomPartitioner(seed=4).partition(hex64_graph, 4)
        assert a.assignment != b.assignment

    def test_node_counts_balanced(self, hex64_graph):
        p = RandomPartitioner(seed=0).partition(hex64_graph, 4)
        assert p.loads() == [16, 16, 16, 16]

    def test_more_parts_than_nodes(self):
        g = random_connected_graph(3, seed=0)
        p = RandomPartitioner(seed=0).partition(g, 5)
        assert len(set(p.assignment)) == 3


class TestBfsGreedy:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_covers_and_balances(self, hex64_graph, k):
        p = BfsGreedyPartitioner(seed=1).partition(hex64_graph, k)
        loads = p.loads()
        assert sum(loads) == 64
        assert max(loads) <= 64 / k * 1.5

    def test_beats_round_robin_on_mesh(self, hex64_graph):
        greedy = BfsGreedyPartitioner(seed=1).partition(hex64_graph, 4)
        rr = RoundRobinPartitioner().partition(hex64_graph, 4)
        assert greedy.edge_cut() < rr.edge_cut()

    def test_parts_mostly_connected_on_mesh(self, hex32_graph):
        p = BfsGreedyPartitioner(seed=1).partition(hex32_graph, 4)
        # BFS growth produces connected regions; the last part absorbs
        # whatever remains and may be fragmented.
        connected = 0
        for part in range(4):
            nodes = p.nodes_of(part)
            if not nodes:
                continue
            sub, _ = hex32_graph.subgraph(nodes)
            connected += sub.is_connected()
        assert connected >= 3

    def test_weighted_nodes_balanced_by_weight(self):
        g = random_connected_graph(20, seed=2).with_node_weights(
            [5 if gid <= 4 else 1 for gid in range(1, 21)]
        )
        p = BfsGreedyPartitioner(seed=1).partition(g, 2)
        loads = p.loads()
        assert abs(loads[0] - loads[1]) <= 8

    def test_single_node_graph(self):
        g = random_connected_graph(1, seed=0)
        p = BfsGreedyPartitioner().partition(g, 2)
        assert p.assignment[0] in (0, 1)

    def test_handles_star_graph(self):
        from repro.graphs import star_graph

        p = BfsGreedyPartitioner(seed=0).partition(star_graph(9), 2)
        assert sum(p.loads()) == 10
