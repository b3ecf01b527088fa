"""Platform-level silent-corruption detection and repair.

A ``flip=RANK@ITER[:NODE]`` fault corrupts one committed node value in
place.  What happens next depends on ``PlatformConfig.integrity``:

* ``off``/``checksum`` -- nothing notices; the corruption propagates into
  the final answer (the control case these tests pin down),
* ``digest`` -- the per-superstep digest check catches it and every rank
  rolls back past the injection,
* ``full`` -- a corrupted *boundary* node is instead re-fetched from the
  neighbor rank that already mirrors it as a shadow (surgical repair, no
  rollback); interior nodes still roll back.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.graphs.generators import grid2d
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

NPROCS = 4
ITERATIONS = 8


@pytest.fixture(scope="module")
def setup():
    graph = hex32()
    partition = MetisLikePartitioner(seed=0).partition(graph, NPROCS)
    return graph, partition


def run_once(
    graph,
    partition,
    integrity="off",
    faults=None,
    integrity_period=1,
    checkpoint_period=0,
    checkpoint_keep=2,
):
    config = PlatformConfig(
        iterations=ITERATIONS,
        integrity=integrity,
        integrity_period=integrity_period,
        checkpoint_period=checkpoint_period,
        checkpoint_keep=checkpoint_keep,
        track_trace=True,
    )
    platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
    return platform.run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
    )


def boundary_gid(graph, partition, rank):
    assignment = partition.assignment
    return next(
        g
        for g in sorted(graph.nodes())
        if assignment[g - 1] == rank
        and any(assignment[m - 1] != rank for m in graph.neighbors(g))
    )


def interior_gid(graph, partition, rank):
    assignment = partition.assignment
    return next(
        g
        for g in sorted(graph.nodes())
        if assignment[g - 1] == rank
        and all(assignment[m - 1] == rank for m in graph.neighbors(g))
    )


class TestUnprotected:
    def test_flip_escapes_silently(self, setup):
        graph, partition = setup
        clean = run_once(graph, partition)
        flipped = run_once(graph, partition, faults="flip=1@4")
        assert flipped.values != clean.values
        assert flipped.repairs == 0 and flipped.recoveries == 0
        assert flipped.trace.integrity == ()
        assert flipped.fault_report.flips == 1

    def test_checksums_do_not_protect_memory(self, setup):
        # Checksummed transport guards the wire, not the stores.
        graph, partition = setup
        clean = run_once(graph, partition)
        flipped = run_once(graph, partition, integrity="checksum", faults="flip=1@4")
        assert flipped.values != clean.values


class TestSurgicalRepair:
    def test_boundary_flip_repairs_without_rollback(self, setup):
        graph, partition = setup
        gid = boundary_gid(graph, partition, rank=1)
        clean = run_once(graph, partition)
        result = run_once(graph, partition, integrity="full", faults=f"flip=1@4:{gid}")
        assert result.values == clean.values  # zero escapes
        assert result.repairs == 1
        assert result.recoveries == 0  # no rollback happened
        (event,) = result.trace.integrity_events()
        assert event.mode == "repair"
        assert event.gid == gid
        assert event.owner == 1
        assert event.latency == 0
        assert event.replica is not None and event.replica != 1
        assert event.resumed_iteration == event.iteration  # nothing redone
        # Every rank recorded the same collective event.
        assert len(result.trace.integrity) == NPROCS

    def test_repair_costs_virtual_time(self, setup):
        graph, partition = setup
        gid = boundary_gid(graph, partition, rank=1)
        protected = run_once(graph, partition, integrity="full")
        repaired = run_once(
            graph, partition, integrity="full", faults=f"flip=1@4:{gid}"
        )
        assert repaired.elapsed > protected.elapsed

    def test_lowest_owned_default_target(self, setup):
        # flip=RANK@ITER without :NODE corrupts the lowest owned node.
        graph, partition = setup
        clean = run_once(graph, partition)
        result = run_once(graph, partition, integrity="full", faults="flip=2@3")
        assert result.values == clean.values
        assert result.repairs + result.recoveries >= 1

    def test_simultaneous_flips_on_two_ranks(self, setup):
        graph, partition = setup
        g1 = boundary_gid(graph, partition, rank=1)
        g2 = boundary_gid(graph, partition, rank=2)
        clean = run_once(graph, partition)
        result = run_once(
            graph,
            partition,
            integrity="full",
            faults=f"flip=1@4:{g1},flip=2@4:{g2}",
        )
        assert result.values == clean.values
        assert result.repairs == 2
        assert result.recoveries == 0


class TestRollbackFallback:
    def test_interior_flip_rolls_back(self, setup):
        graph, partition = setup
        gid = interior_gid(graph, partition, rank=0)
        clean = run_once(graph, partition)
        result = run_once(graph, partition, integrity="full", faults=f"flip=0@4:{gid}")
        assert result.values == clean.values
        assert result.repairs == 0
        assert result.recoveries == 1
        (event,) = result.trace.integrity_events()
        assert event.mode == "rollback"
        assert event.replica is None
        # No periodic checkpoints: rollback replays from the baseline.
        assert event.resumed_iteration == 1
        assert result.trace.rolled_back()

    def test_digest_mode_rolls_back_even_boundary(self, setup):
        graph, partition = setup
        gid = boundary_gid(graph, partition, rank=1)
        clean = run_once(graph, partition)
        result = run_once(
            graph, partition, integrity="digest", faults=f"flip=1@4:{gid}"
        )
        assert result.values == clean.values
        assert result.repairs == 0
        assert result.recoveries == 1

    def test_late_detection_forces_rollback(self, setup):
        # integrity_period=2: the flip at iteration 4 is only *agreed on* at
        # the iteration-5 exchange -- latency 1, downstream state already
        # contaminated, so even a boundary node must roll back, past the
        # (tainted) checkpoint taken at the end of iteration 4.
        graph, partition = setup
        gid = boundary_gid(graph, partition, rank=1)
        clean = run_once(graph, partition)
        result = run_once(
            graph,
            partition,
            integrity="full",
            integrity_period=2,
            checkpoint_period=2,
            faults=f"flip=1@4:{gid}",
        )
        assert result.values == clean.values
        assert result.repairs == 0
        assert result.recoveries == 1
        (event,) = result.trace.integrity_events()
        assert event.mode == "rollback"
        assert event.latency == 1
        # The iteration-4 checkpoint was discarded as tainted: the restore
        # fell back to the older retained snapshot (iteration 2).
        assert event.resumed_iteration == 3


class TestConformance:
    @pytest.mark.parametrize("seed", range(5))
    def test_zero_escapes_across_seeds(self, setup, seed):
        """Any single flip anywhere, any seed: full protection always lands
        on the fault-free answer."""
        graph, partition = setup
        rank = seed % NPROCS
        iteration = 2 + seed
        clean = run_once(graph, partition)
        result = run_once(
            graph,
            partition,
            integrity="full",
            faults=f"seed={seed},flip={rank}@{iteration}",
        )
        assert result.values == clean.values
        assert result.repairs + result.recoveries >= 1

    def test_protection_is_transparent_without_faults(self, setup):
        graph, partition = setup
        clean = run_once(graph, partition)
        for level in ("checksum", "digest", "full"):
            result = run_once(graph, partition, integrity=level)
            assert result.values == clean.values
            assert result.repairs == 0 and result.recoveries == 0

    def test_full_protection_with_dynamic_load_balancing(self):
        graph = grid2d(8, 8)
        partition = MetisLikePartitioner(seed=0).partition(graph, NPROCS)
        config = PlatformConfig(
            iterations=12,
            dynamic_load_balancing=True,
            lb_period=5,
            integrity="full",
            validate_each_iteration=True,
        )
        gid = boundary_gid(graph, partition, rank=1)
        clean_cfg = config.with_overrides(integrity="off")
        clean = ICPlatform(graph, make_average_fn(1e-4), config=clean_cfg).run(partition)
        result = ICPlatform(graph, make_average_fn(1e-4), config=config).run(
            partition,
            faults=FaultPlan.parse(f"flip=1@3:{gid}"),
        )
        assert result.values == clean.values
        assert result.repairs + result.recoveries >= 1
