"""End-to-end tests for the ICPlatform driver."""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.apps.imbalance import make_imbalanced_average_fn, ImbalanceSchedule
from repro.core import (
    GreedyPairBalancer,
    ICPlatform,
    PlatformConfig,
    run_platform,
)
from repro.graphs import Graph, hex32, hex64
from repro.mpi import IDEAL
from repro.partitioning import MetisLikePartitioner


def sequential_average(graph: Graph, iterations: int) -> dict[int, float]:
    values = {gid: float(gid) for gid in graph.nodes()}
    for _ in range(iterations):
        values = {
            gid: (values[gid] + sum(values[v] for v in graph.neighbors(gid)))
            / (1 + graph.degree(gid))
            for gid in graph.nodes()
        }
    return values


@pytest.fixture(scope="module")
def graph():
    return hex32()


@pytest.fixture(scope="module")
def partitions(graph):
    metis = MetisLikePartitioner(seed=1)
    return {p: metis.partition(graph, p) for p in (1, 2, 4, 8)}


class TestCorrectness:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_values_match_sequential(self, graph, partitions, nprocs):
        config = PlatformConfig(iterations=6)
        result = run_platform(
            graph, make_average_fn(0.0), partitions[nprocs], config=config,
            machine=IDEAL, init_value=lambda gid: float(gid),
        )
        expected = sequential_average(graph, 6)
        for gid, value in expected.items():
            assert result.values[gid] == pytest.approx(value, abs=1e-12)

    def test_values_independent_of_partitioner(self, graph):
        from repro.partitioning import RoundRobinPartitioner

        config = PlatformConfig(iterations=4)
        a = run_platform(
            graph, make_average_fn(0.0),
            MetisLikePartitioner(seed=1).partition(graph, 4),
            config=config, machine=IDEAL, init_value=float,
        )
        b = run_platform(
            graph, make_average_fn(0.0),
            RoundRobinPartitioner().partition(graph, 4),
            config=config, machine=IDEAL, init_value=float,
        )
        assert a.values == b.values

    def test_dynamic_lb_does_not_change_results(self, graph, partitions):
        """Task migration must be semantically invisible."""
        schedule = ImbalanceSchedule(windows=((100, 0.0, 0.5),))
        node_fn = make_imbalanced_average_fn(schedule)
        base = run_platform(
            graph, node_fn, partitions[4],
            config=PlatformConfig(iterations=25), init_value=float,
        )
        dyn = run_platform(
            graph, node_fn, partitions[4],
            config=PlatformConfig(
                iterations=25, dynamic_load_balancing=True, lb_period=5,
                validate_each_iteration=True,
            ),
            balancer=GreedyPairBalancer(0.1),
            init_value=float,
        )
        assert len(dyn.migrations) > 0, "test needs actual migrations"
        for gid in base.values:
            assert dyn.values[gid] == pytest.approx(base.values[gid], abs=1e-12)

    def test_migrated_assignment_reported(self, graph, partitions):
        schedule = ImbalanceSchedule(windows=((100, 0.0, 0.5),))
        result = run_platform(
            graph, make_imbalanced_average_fn(schedule), partitions[4],
            config=PlatformConfig(
                iterations=20, dynamic_load_balancing=True, lb_period=5
            ),
            balancer=GreedyPairBalancer(0.1),
        )
        assert result.final_assignment != partitions[4].assignment
        moved = {e.global_id for e in result.migrations}
        for event in result.migrations:
            # final owner of a migrated node is the last event's target
            last = [e for e in result.migrations if e.global_id == event.global_id][-1]
            assert result.final_assignment[event.global_id - 1] == last.to_proc
        assert moved

    def test_deterministic_elapsed(self, graph, partitions):
        config = PlatformConfig(iterations=10)
        times = {
            run_platform(
                graph, make_average_fn(), partitions[4], config=config
            ).elapsed
            for _ in range(3)
        }
        assert len(times) == 1


class TestPerformanceShape:
    def test_elapsed_decreases_with_procs(self, graph, partitions):
        config = PlatformConfig(iterations=20)
        times = [
            run_platform(graph, make_average_fn(), partitions[p], config=config).elapsed
            for p in (1, 2, 4)
        ]
        assert times[0] > times[1] > times[2]

    def test_coarse_grain_scales_better(self, graph, partitions):
        from repro.apps.average import COARSE_GRAIN, FINE_GRAIN

        config = PlatformConfig(iterations=10)

        def speedup(grain):
            t1 = run_platform(
                graph, make_average_fn(grain), partitions[1], config=config
            ).elapsed
            t8 = run_platform(
                graph, make_average_fn(grain), partitions[8], config=config
            ).elapsed
            return t1 / t8

        assert speedup(COARSE_GRAIN) > speedup(FINE_GRAIN)

    def test_phase_times_sum_close_to_elapsed(self, graph, partitions):
        config = PlatformConfig(iterations=10)
        result = run_platform(graph, make_average_fn(), partitions[4], config=config)
        for phases in result.phases:
            assert phases.total() <= result.elapsed * 1.001
            assert phases.total() >= result.elapsed * 0.5

    def test_compute_phase_tracks_grain(self, graph, partitions):
        config = PlatformConfig(iterations=10)
        result = run_platform(
            graph, make_average_fn(1e-3), partitions[1], config=config, machine=IDEAL
        )
        assert result.phases[0].compute == pytest.approx(32 * 10 * 1e-3)


class TestConfiguration:
    def test_mismatched_partition_graph_rejected(self, graph):
        other = hex64()
        partition = MetisLikePartitioner(seed=1).partition(other, 2)
        platform = ICPlatform(graph, make_average_fn())
        with pytest.raises(ValueError, match="different graph"):
            platform.run(partition)

    def test_comm_rounds_requires_matching_fns(self, graph):
        with pytest.raises(ValueError, match="node functions"):
            ICPlatform(
                graph,
                [make_average_fn(), make_average_fn()],
                config=PlatformConfig(comm_rounds=3),
            )

    def test_single_fn_replicated_across_rounds(self, graph, partitions):
        config = PlatformConfig(iterations=3, comm_rounds=2)
        result = run_platform(
            graph, make_average_fn(0.0), partitions[2], config=config,
            machine=IDEAL, init_value=float,
        )
        # two rounds per iteration = 6 sweeps total
        expected = sequential_average(graph, 6)
        for gid in expected:
            assert result.values[gid] == pytest.approx(expected[gid], abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlatformConfig(iterations=-1)
        with pytest.raises(ValueError):
            PlatformConfig(lb_period=0)
        with pytest.raises(ValueError):
            PlatformConfig(comm_rounds=0)
        with pytest.raises(ValueError):
            PlatformConfig(lb_threshold=-0.5)
        with pytest.raises(ValueError):
            PlatformConfig(max_migrations_per_pair=0)

    def test_with_overrides(self):
        config = PlatformConfig(iterations=5)
        new = config.with_overrides(iterations=9, lb_period=3)
        assert (new.iterations, new.lb_period) == (9, 3)
        assert config.iterations == 5

    def test_zero_iterations_runs_init_only(self, graph, partitions):
        result = run_platform(
            graph, make_average_fn(), partitions[2],
            config=PlatformConfig(iterations=0),
        )
        assert result.values == {gid: gid for gid in graph.nodes()}
        assert result.elapsed > 0  # initialization cost

    def test_default_init_value_is_gid(self, graph, partitions):
        result = run_platform(
            graph, make_average_fn(0.0), partitions[2],
            config=PlatformConfig(iterations=0),
        )
        assert result.values[17] == 17
