"""Tests for survivor-based shrinking recovery.

The acceptance bar: a fixed seed and a single permanent crash under
``recovery_policy="shrink"`` must produce final node states bit-identical
to the fault-free run, the survivors must carry on at ``nprocs - 1``, and
the trace must account for the reconfiguration.
"""

from __future__ import annotations

import pytest

from repro.apps import make_average_fn
from repro.core import ICPlatform, PlatformConfig, redistribute_lost_nodes
from repro.graphs import hex32, hex64, path_graph
from repro.mpi import FaultPlan, ORIGIN2000
from repro.partitioning import MetisLikePartitioner


@pytest.fixture(scope="module")
def graph():
    return hex64()


@pytest.fixture(scope="module")
def partition(graph):
    return MetisLikePartitioner(seed=1).partition(graph, 4)


def run(graph, partition, policy, faults=None, iterations=12, **overrides):
    config = PlatformConfig(
        iterations=iterations,
        checkpoint_period=overrides.pop("checkpoint_period", 4),
        recovery_policy=policy,
        track_trace=True,
        **overrides,
    )
    platform = ICPlatform(graph, make_average_fn(0.3e-3), config=config)
    return platform.run(partition, machine=ORIGIN2000, faults=faults)


class TestShrinkEndToEnd:
    def test_values_bit_identical_to_fault_free(self, graph, partition):
        clean = run(graph, partition, "rollback")
        faulty = run(
            graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7")
        )
        assert faulty.values == clean.values
        assert faulty.recoveries == 1

    def test_survivors_own_everything(self, graph, partition):
        result = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7"))
        assert result.dead_ranks == (2,)
        # The final assignment reports owners by stable *world* rank: the
        # dead rank owns nothing, the three survivors own every node.
        assert set(result.final_assignment) == {0, 1, 3}
        assert len(result.values) == graph.num_nodes

    def test_crash_of_rank_zero(self, graph, partition):
        clean = run(graph, partition, "rollback")
        result = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=0@7"))
        assert result.values == clean.values
        assert result.dead_ranks == (0,)

    def test_two_sequential_crashes(self, graph, partition):
        clean = run(graph, partition, "rollback")
        result = run(
            graph,
            partition,
            "shrink",
            FaultPlan.parse("seed=3,crash=1@5,crash=3@9"),
        )
        assert result.values == clean.values
        assert result.dead_ranks == (1, 3)
        assert result.recoveries == 2
        events = result.trace.reconfiguration_events()
        assert [e.dead_ranks for e in events] == [(1,), (3,)]
        # Second event's survivor list no longer contains either dead rank.
        assert set(events[1].survivors) == {0, 2}

    def test_simultaneous_crashes(self, graph, partition):
        clean = run(graph, partition, "rollback")
        result = run(
            graph,
            partition,
            "shrink",
            FaultPlan.parse("seed=3,crash=1@7,crash=2@7"),
        )
        assert result.values == clean.values
        assert result.dead_ranks == (1, 2)
        assert result.recoveries == 1

    def test_rollback_policy_unchanged_by_flag(self, graph, partition):
        plan = "seed=3,crash=2@7"
        rollback = run(graph, partition, "rollback", FaultPlan.parse(plan))
        clean = run(graph, partition, "rollback")
        assert rollback.values == clean.values
        assert rollback.dead_ranks == ()  # resurrected, not lost

    def test_shrink_replays_bit_identically(self, graph, partition):
        a = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7"))
        b = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7"))
        assert a.elapsed == b.elapsed
        assert a.values == b.values
        assert a.final_assignment == b.final_assignment
        assert a.trace.reconfiguration_events() == b.trace.reconfiguration_events()

    def test_shrink_with_dynamic_load_balancing(self, graph, partition):
        kwargs = dict(iterations=16, dynamic_load_balancing=True, lb_period=5)
        clean = run(graph, partition, "rollback", **kwargs)
        faulty = run(
            graph,
            partition,
            "shrink",
            FaultPlan.parse("seed=3,crash=2@9"),
            **kwargs,
        )
        assert faulty.values == clean.values


class TestReconfigurationTrace:
    def test_event_contents(self, graph, partition):
        result = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7"))
        events = result.trace.reconfiguration_events()
        assert len(events) == 1
        (event,) = events
        assert event.policy == "shrink"
        assert event.iteration == 7
        assert event.dead_ranks == (2,)
        # Dense re-ranking: survivors in new-local order are world ranks.
        assert event.survivors == (0, 1, 3)
        assert event.nodes_redistributed > 0
        assert event.detection_cost == ORIGIN2000.detection_time(3)
        assert event.reconfiguration_cost > 0
        # Crash at 7 with checkpoints every 4: resume from 5.
        assert event.resumed_iteration == 5

    def test_rollback_records_reconfiguration_too(self, graph, partition):
        result = run(graph, partition, "rollback", FaultPlan.parse("seed=3,crash=2@7"))
        events = result.trace.reconfiguration_events()
        assert len(events) == 1
        (event,) = events
        assert event.policy == "rollback"
        assert event.dead_ranks == (2,)
        assert event.survivors == (0, 1, 2, 3)  # same world: rank 2 respawns
        assert event.nodes_redistributed == 0

    def test_render_mentions_reconfiguration(self, graph, partition):
        result = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7"))
        rendered = result.trace.render()
        assert "reconfiguration @ iter 7" in rendered
        assert "dead=2" in rendered

    def test_committed_iterations_complete(self, graph, partition):
        result = run(graph, partition, "shrink", FaultPlan.parse("seed=3,crash=2@7"))
        # Every iteration still has a committed record from every rank that
        # executed it; none from the dead rank after its last checkpoint.
        for iteration in range(1, 13):
            records = result.trace.of_iteration(iteration)
            ranks = sorted(r.rank for r in records)
            if iteration <= 4:
                assert ranks == [0, 1, 2, 3]
            else:
                assert ranks == [0, 1, 3]


class TestRedistributeLostNodes:
    def test_no_survivors_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            redistribute_lost_nodes(g, [0, 0, 1, 1], [1, 2], [])

    def test_affinity_wins(self):
        # Path 1-2-3-4-5; node 3 lost; ranks 0 owns {1,2}, 1 owns {4,5}.
        # Tie on affinity (one neighbour each), tie on load -> lowest rank.
        g = path_graph(5)
        assignment = [0, 0, -1, 1, 1]
        placed = redistribute_lost_nodes(g, assignment, [3], [0, 1])
        assert placed == {3: 0}
        assert assignment[2] == 0

    def test_neighbour_majority_beats_load(self):
        # Node 4 in hex32 adjacency: give one rank most of its neighbours
        # but more load; affinity must win over load.
        g = hex32()
        neighbors = g.neighbors(4)
        assignment = [1] * g.num_nodes
        for v in neighbors:
            assignment[v - 1] = 0
        assignment[4 - 1] = -1
        placed = redistribute_lost_nodes(g, assignment, [4], [0, 1])
        assert placed[4] == 0

    def test_load_feedback_spreads_ties(self):
        # Two lost nodes, each wedged between the two survivors with equal
        # affinity.  The first tie breaks to the lowest rank; that placement
        # feeds back into the load count, so the second goes to the other
        # survivor instead of piling on.
        g = path_graph(6)
        assignment = [0, -1, 1, 0, -1, 1]
        placed = redistribute_lost_nodes(g, assignment, [2, 5], [0, 1])
        assert placed == {2: 0, 5: 1}

    def test_pure_function_of_inputs(self):
        g = hex32()
        assignment = [gid % 3 for gid in range(1, g.num_nodes + 1)]
        lost = [gid for gid in g.nodes() if assignment[gid - 1] == 2]
        for gid in lost:
            assignment[gid - 1] = -1
        a1, a2 = list(assignment), list(assignment)
        p1 = redistribute_lost_nodes(g, a1, list(lost), [0, 1])
        p2 = redistribute_lost_nodes(g, a2, list(reversed(lost)), [0, 1])
        assert p1 == p2
        assert a1 == a2
