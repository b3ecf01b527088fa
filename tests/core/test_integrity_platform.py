"""Platform-level silent-corruption detection and repair.

A ``flip=RANK@ITER[:NODE]`` fault corrupts one committed node value in
place.  What happens next depends on ``PlatformConfig.integrity``:

* ``off``/``checksum`` -- nothing notices; the corruption propagates into
  the final answer (the control case these tests pin down),
* ``digest`` -- the per-superstep digest check catches it on the iteration
  it fires and every rank rolls back to its newest checkpoint,
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
):
    config = PlatformConfig(
        iterations=ITERATIONS,
        integrity=integrity,
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
        assert event.iteration == 4  # agreed on the iteration it fired
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


def fault_suite_plans(graph, partition):
    """The flip plans of the fault suites, on this module's hex32 partition:
    ``name -> (plan, config overrides)``.  Explicit nodes the suites name on
    other graphs become a boundary or interior node of the same rank."""
    b1 = boundary_gid(graph, partition, rank=1)
    b2 = boundary_gid(graph, partition, rank=2)
    i0 = interior_gid(graph, partition, rank=0)
    plans = {
        "boundary": (f"flip=1@4:{b1}", {}),
        "lowest-owned": ("flip=2@3", {}),
        "two-ranks": (f"flip=1@4:{b1},flip=2@4:{b2}", {}),
        "interior": (f"flip=0@4:{i0}", {}),
        "interior-checkpointed": (f"flip=0@4:{i0}", {"checkpoint_period": 3}),
        "digest": (f"flip=1@4:{b1}", {"integrity": "digest"}),
        "digest-checkpointed": (
            f"seed=11,flip=1@4:{b1}", {"integrity": "digest", "checkpoint_period": 3}
        ),
        "flipmsg": (f"seed=11,flipmsg=0.05,flip=1@4:{b1}", {}),
        "transport": (f"seed=4,flipmsg=0.25,flip=1@5:{b1},flip=2@3", {}),
        "crash-rollback": (
            "seed=7,delay=0.05,drop=0.02,flip=0@3,crash=1@6", {"checkpoint_period": 2}
        ),
        "crash-shrink": (
            "seed=3,crash=2@5,flip=1@4,flipmsg=0.05",
            {"checkpoint_period": 3, "recovery_policy": "shrink"},
        ),
    }
    for seed in range(5):
        plans[f"seed-{seed}"] = (f"seed={seed},flip={seed % NPROCS}@{2 + seed}", {})
    for level in ("digest", "full"):
        plans[f"ci-{level}"] = (
            "seed=3,flip=1@4,flip=2@7",
            {"integrity": level, "checkpoint_period": 3, "iterations": 12},
        )
    return plans


PLAN_NAMES = list(
    fault_suite_plans(hex32(), MetisLikePartitioner(seed=0).partition(hex32(), NPROCS))
)


class TestAgreedWhenItFires:
    """The invariant that lets a rank keep only its newest checkpoint: every
    corruption is agreed on at the start of the iteration its flip fires,
    before that iteration's checkpoint is taken, so a rollback resumes at
    the newest checkpoint's iteration + 1."""

    @pytest.mark.parametrize("scheduler", ["event", "process"])
    @pytest.mark.parametrize("name", PLAN_NAMES)
    def test_every_flip_plan(self, setup, name, scheduler):
        graph, partition = setup
        text, overrides = fault_suite_plans(graph, partition)[name]
        plan = FaultPlan.parse(text)
        options = {"iterations": ITERATIONS, "integrity": "full", **overrides}
        config = PlatformConfig(track_trace=True, **options)
        result = ICPlatform(graph, make_average_fn(1e-4), config=config).run(
            partition, faults=plan, scheduler=scheduler
        )
        events = result.trace.integrity_events()
        assert result.fault_report.flips == len(plan.flips)  # every flip fired
        assert sorted((e.owner, e.iteration) for e in events) == sorted(
            (f.rank, f.iteration) for f in plan.flips
        )
        period = config.checkpoint_period
        for e in events:
            assert any(
                (f.rank, f.iteration) == (e.owner, e.iteration) and f.node in (None, e.gid)
                for f in plan.flips
            )
            if e.mode == "repair":
                assert e.resumed_iteration == e.iteration
            else:
                newest = (e.iteration - 1) // period * period if period else 0
                assert e.resumed_iteration == newest + 1
