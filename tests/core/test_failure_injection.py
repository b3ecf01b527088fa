"""Failure-injection tests: the platform must fail loudly and promptly, not
hang or corrupt state, when plug-ins misbehave."""

from __future__ import annotations

import pytest

from repro.apps import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import CommAbortedError, DeadlockError, IDEAL, run_mpi
from repro.partitioning import MetisLikePartitioner


@pytest.fixture(scope="module")
def graph():
    return hex32()


@pytest.fixture(scope="module")
def partition(graph):
    return MetisLikePartitioner(seed=1).partition(graph, 4)


class TestNodeFunctionFailures:
    def test_exception_in_node_fn_propagates(self, graph, partition):
        def exploding(node, ctx):
            if node.global_id == 17 and node.iteration == 3:
                raise RuntimeError("node 17 exploded")
            return node.value

        platform = ICPlatform(graph, exploding, config=PlatformConfig(iterations=5))
        with pytest.raises(RuntimeError, match="node 17 exploded"):
            platform.run(partition)

    def test_exception_on_one_rank_does_not_hang_peers(self, graph, partition):
        """Ranks blocked on the dead rank's shadows abort instead of
        waiting forever."""
        owner_of_1 = partition.owner(1)

        def exploding(node, ctx):
            if ctx.rank == owner_of_1 and node.iteration == 2:
                raise ValueError("rank down")
            ctx.work(1e-5)
            return node.value

        platform = ICPlatform(graph, exploding, config=PlatformConfig(iterations=10))
        with pytest.raises(ValueError, match="rank down"):
            platform.run(partition)

    def test_negative_work_charge_rejected(self, graph, partition):
        def negative(node, ctx):
            ctx.work(-1.0)
            return node.value

        platform = ICPlatform(graph, negative, config=PlatformConfig(iterations=2))
        with pytest.raises(ValueError):
            platform.run(partition)


class TestBalancerFailures:
    def test_balancer_exception_propagates(self, graph, partition):
        class BrokenBalancer:
            def find_pairs(self, exec_times, edges):
                raise ZeroDivisionError("balancer bug")

        platform = ICPlatform(
            graph,
            make_average_fn(1e-4),
            config=PlatformConfig(
                iterations=10, dynamic_load_balancing=True, lb_period=5
            ),
            balancer=BrokenBalancer(),
        )
        with pytest.raises(ZeroDivisionError):
            platform.run(partition)

    def test_balancer_nominating_invalid_pair_fails_loudly(self, graph, partition):
        from repro.core import BusyIdlePair

        class LyingBalancer:
            def find_pairs(self, exec_times, edges):
                # busy and idle are not graph-adjacent: selection returns
                # None and the pair is skipped -- the run must SURVIVE this
                # (a plug-in may legitimately nominate stale pairs).
                return [BusyIdlePair(busy=0, idle=0)]

        platform = ICPlatform(
            graph,
            make_average_fn(1e-4),
            config=PlatformConfig(
                iterations=10, dynamic_load_balancing=True, lb_period=5
            ),
            balancer=LyingBalancer(),
        )
        result = platform.run(partition)
        assert len(result.migrations) == 0


class TestProtocolFailures:
    def test_mismatched_collective_order_deadlocks_cleanly(self):
        """A rank skipping a collective is detected, not hung."""

        def skewed(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 never enters the barrier but waits on a message
            else:
                comm.recv(source=0, tag=77)

        with pytest.raises((DeadlockError, CommAbortedError)):
            run_mpi(skewed, 2, machine=IDEAL)

    def test_wrong_graph_partition_pairing(self, graph):
        from repro.graphs import hex64

        foreign = MetisLikePartitioner(seed=1).partition(hex64(), 4)
        platform = ICPlatform(graph, make_average_fn())
        with pytest.raises(ValueError):
            platform.run(foreign)

    def test_partition_mutation_is_impossible(self, graph, partition):
        with pytest.raises((AttributeError, TypeError)):
            partition.assignment[0] = 3  # tuple: immutable

    def test_run_is_repeatable_after_failure(self, graph, partition):
        """A failed run must not poison subsequent runs (fresh clusters)."""
        def exploding(node, ctx):
            raise RuntimeError("once")

        platform = ICPlatform(graph, exploding, config=PlatformConfig(iterations=1))
        with pytest.raises(RuntimeError):
            platform.run(partition)
        # same platform object, healthy function now
        healthy = ICPlatform(
            graph, make_average_fn(0.0), config=PlatformConfig(iterations=2)
        )
        result = healthy.run(partition, machine=IDEAL)
        assert len(result.values) == 32
