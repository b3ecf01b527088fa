"""Conformance suite for hybrid sync/async execution.

``execution="hybrid"`` splits every superstep into a boundary phase
(computed, exchanged, and barriered exactly like BSP) and an interior
phase in which each rank chases its interior frontier locally -- no
messages, no barrier -- until it drains or ``hybrid_inner_cap`` sweeps
are spent.  For order-insensitive fixed-point workloads (the platform's
chaotic-relaxation contract) this changes the *trajectory* but not the
fixed point, while eliding the barriers and halo exchanges the extra
interior iterations would have cost under BSP.

The invariants pinned here:

* hybrid reaches the same fixed point as dense BSP (tolerance-equal
  values, equal residual) while crossing strictly fewer barriers;
* hybrid-vs-hybrid results are bit-identical across node stores,
  activation modes, both scheduler backends, and 10 perturbed host
  schedules;
* inner-iteration counters ride checkpoints: crash + rollback recovery
  reproduces the fault-free hybrid run exactly;
* dynamic load balancing (migration and repartition) resets the hybrid
  frontier soundly -- ownership moves never corrupt the fixed point.
"""

from __future__ import annotations

import functools

import pytest

from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn, residual
from repro.core import ICPlatform, PlatformConfig
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

from .test_sparse_mode import RUNS

#: Convergence tolerance of the quantized Jacobi workload below.
TOL = 1e-4


def run_plate(execution, *, converge="quiescence", iterations=200,
              scheduler=None, faults=None, seed=None, nparts=4,
              **overrides):
    graph, boundary, init = hot_edge_plate(8, 8)
    partition = MetisLikePartitioner(seed=0).partition(graph, nparts)
    config = PlatformConfig(
        iterations=iterations,
        execution=execution,
        converge=converge,
        track_trace=True,
        **overrides,
    )
    platform = ICPlatform(
        graph, make_jacobi_fn(boundary, quantize=4), init_value=init, config=config
    )
    result = platform.run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
        schedule_seed=seed,
        scheduler=scheduler,
    )
    return result, graph, boundary


def assert_same_fixed_point(a, b):
    """Tolerance-equality of two converged value maps."""
    assert a.keys() == b.keys()
    worst = max(abs(a[g] - b[g]) for g in a)
    assert worst <= TOL, f"fixed points diverge by {worst}"


class TestHybridFixedPoint:
    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_matches_bsp_with_fewer_barriers(self, store):
        bsp, graph, boundary = run_plate("bsp", store=store)
        hyb, _, _ = run_plate("hybrid", store=store)
        assert bsp.quiesced_at is not None and hyb.quiesced_at is not None
        assert_same_fixed_point(bsp.values, hyb.values)
        assert residual(graph, hyb.values, boundary) <= TOL
        # The point of the mode: interior progress per superstep means
        # fewer supersteps, hence fewer barriers and fewer halo messages.
        assert hyb.barriers < bsp.barriers
        assert hyb.messages_delivered < bsp.messages_delivered
        assert hyb.inner_sweeps > 0

    def test_inner_cap_one_still_converges(self):
        """cap=1 is the degenerate hybrid: one interior sweep per
        superstep, interleaved with the boundary exchange."""
        bsp, _, _ = run_plate("bsp")
        hyb, _, _ = run_plate("hybrid", hybrid_inner_cap=1)
        assert hyb.quiesced_at is not None
        assert_same_fixed_point(bsp.values, hyb.values)

    def test_interior_heavy_partition_saves_more(self):
        """With fewer, larger parts the interior dominates and the
        superstep savings grow -- the GraphHP sweet spot."""
        bsp, _, _ = run_plate("bsp", nparts=2)
        hyb, _, _ = run_plate("hybrid", nparts=2)
        assert_same_fixed_point(bsp.values, hyb.values)
        assert hyb.barriers < bsp.barriers

    def test_fixed_iteration_budget(self):
        """converge="fixed" runs every superstep; hybrid still agrees at
        the end because both sides are past the fixed point by then."""
        bsp, _, _ = run_plate("bsp", converge="fixed", iterations=150)
        hyb, _, _ = run_plate("hybrid", converge="fixed", iterations=150)
        assert_same_fixed_point(bsp.values, hyb.values)


class TestHybridDeterminism:
    def test_bit_identical_across_stores(self):
        obj, _, _ = run_plate("hybrid", store="object")
        soa, _, _ = run_plate("hybrid", store="soa")
        assert obj.values == soa.values
        assert obj.elapsed == soa.elapsed
        assert obj.quiesced_at == soa.quiesced_at

    def test_bit_identical_across_activation(self):
        dense, _, _ = run_plate("hybrid")
        sparse, _, _ = run_plate("hybrid", activation="sparse")
        assert dense.values == sparse.values
        assert dense.quiesced_at == sparse.quiesced_at

    @pytest.mark.parametrize("scheduler", ["process"])  # one value: stable test id
    def test_bit_identical_across_backends(self, scheduler):
        event, _, _ = run_plate("hybrid", scheduler="event", store="soa")
        other, _, _ = run_plate("hybrid", scheduler=scheduler, store="soa")
        assert event.values == other.values
        assert event.elapsed == other.elapsed
        assert event.barriers == other.barriers
        assert event.messages_delivered == other.messages_delivered

    def test_bit_identical_across_perturbed_schedules(self):
        """10 seeded host schedules: virtual outcomes may not depend on
        how the host interleaves the ranks."""
        reference, _, _ = run_plate("hybrid")
        for seed in range(RUNS):
            run, _, _ = run_plate("hybrid", seed=seed)
            assert run.values == reference.values, f"schedule {seed}"
            assert run.elapsed == reference.elapsed, f"schedule {seed}"


#: Change-driven modes whose frontier rides checkpoints: ``run_plate`` args.
ROLLBACK_MODES = {
    "hybrid": ("hybrid", {}),
    "sparse": ("bsp", {"activation": "sparse"}),
}


@functools.lru_cache(maxsize=None)
def rollback_pair(mode, store, scheduler):
    """``(fault-free, crashed-and-rolled-back)`` runs of one configuration."""
    execution, overrides = ROLLBACK_MODES[mode]
    kwargs = dict(checkpoint_period=10, store=store, scheduler=scheduler, **overrides)
    clean, _, _ = run_plate(execution, **kwargs)
    crashed, _, _ = run_plate(
        execution, recovery_policy="rollback", faults="seed=3,crash=2@20", **kwargs
    )
    return clean, crashed


class TestHybridRecoveryAndRebalance:
    @pytest.mark.parametrize("mode", sorted(ROLLBACK_MODES))
    @pytest.mark.parametrize(
        "store,scheduler", [("object", "event"), ("soa", "event"), ("soa", "process")]
    )
    def test_crash_rollback_reproduces_fault_free(self, mode, store, scheduler):
        """The frontier and the inner-iteration counter ride checkpoint
        snapshots: the restored run replays the interrupted supersteps
        exactly -- same values, same sweeps, same quiescence point as the
        fault-free run.  Its clock, barriers and messages also count the
        detection, the restore and the replayed supersteps, so those are
        pinned across stores and schedulers instead (worker processes
        restore their frontiers too)."""
        clean, crashed = rollback_pair(mode, store, scheduler)
        assert crashed.recoveries >= 1
        assert crashed.values == clean.values
        assert crashed.inner_sweeps == clean.inner_sweeps
        assert crashed.quiesced_at == clean.quiesced_at
        for run, reference in zip((clean, crashed), rollback_pair(mode, "object", "event")):
            assert run.elapsed.hex() == reference.elapsed.hex()
            assert run.inner_sweeps == reference.inner_sweeps
            assert run.barriers == reference.barriers
            assert run.messages_delivered == reference.messages_delivered

    def test_crash_shrink_converges(self):
        """Shrink recovery rebuilds stores (and hybrid frontiers) on the
        survivors; the fixed point must survive the reconfiguration."""
        bsp, graph, boundary = run_plate("bsp")
        shrunk, _, _ = run_plate(
            "hybrid",
            checkpoint_period=10,
            recovery_policy="shrink",
            faults="seed=3,crash=2@20",
        )
        assert shrunk.dead_ranks == (2,)
        assert residual(graph, shrunk.values, boundary) <= TOL
        assert_same_fixed_point(bsp.values, shrunk.values)

    @pytest.mark.parametrize("mode", ["migrate", "repartition"])
    def test_dynamic_rebalance_preserves_fixed_point(self, mode):
        """Ownership changes re-derive interior/boundary classification;
        the reset hybrid frontier must not lose pending activity."""
        bsp, graph, boundary = run_plate("bsp")
        hyb, _, _ = run_plate(
            "hybrid",
            dynamic_load_balancing=True,
            lb_period=15,
            rebalance_mode=mode,
            validate_each_iteration=True,
        )
        assert hyb.quiesced_at is not None
        assert residual(graph, hyb.values, boundary) <= TOL
        assert_same_fixed_point(bsp.values, hyb.values)
