"""Differential conformance oracle: object store vs struct-of-arrays store.

The object store (one :class:`~repro.core.node.NodeData` per node) is the
reference semantics.  A node function with a bulk kernel runs on the
struct-of-arrays store, which keeps the same logical state in contiguous
numpy arrays and swaps the per-node sweep loops for the vectorized kernel;
its scalar twin (the same function without the kernel) runs node by node
on the object store.  That substitution must be *invisible*: every platform
workload -- fault-free, crash+rollback, crash+shrink, integrity repair,
sparse activation with quiescence termination, load balancing -- has to
produce identical committed values, identical version counters, identical
virtual clocks, and an identical trace stream under both stores.  The
tests here run each workload twice and diff everything the platform
reports, then fuzz the soa store across 10 perturbed host schedules.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn
from repro.core import Checkpointer, ICPlatform, PlatformConfig, SoAStore
from repro.graphs import grid2d, hex32
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

from ..twins import on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

#: Distinct host schedules for the perturbed-schedule fuzz (conformance spec).
RUNS = 10


def run_hex(store, *, iterations=6, faults=None, seed=None, **overrides):
    graph = hex32()
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    config = PlatformConfig(iterations=iterations, track_trace=True, **overrides)
    platform = ICPlatform(graph, on_store(store, make_average_fn(1e-4)), config=config)
    return platform.run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
        schedule_seed=seed,
    )


def run_plate(store, *, iterations=150, faults=None, seed=None, **overrides):
    graph, boundary, init = hot_edge_plate(8, 8)
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    config = PlatformConfig(iterations=iterations, track_trace=True, **overrides)
    platform = ICPlatform(
        graph, on_store(store, make_jacobi_fn(boundary, quantize=4)), init_value=init,
        config=config,
    )
    return platform.run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
        schedule_seed=seed,
    )


@pytest.fixture
def checkpointed_loads(monkeypatch):
    """``store kind -> {(rank, iteration): node_compute}`` as every checkpoint
    captured it -- the per-node load window is not part of the result, so
    the tests read it where the platform itself serializes it."""
    captured: dict[str, dict] = {"object": {}, "soa": {}}
    take = Checkpointer.take

    def recording_take(self, iteration, store, **extras):
        loads = extras["node_compute"]
        assert type(loads) is dict
        kind = "soa" if isinstance(store, SoAStore) else "object"
        captured[kind][store.rank, iteration] = loads
        return take(self, iteration, store, **extras)

    monkeypatch.setattr(Checkpointer, "take", recording_take)
    return captured


def boundary_gid_of_rank(rank: int) -> int:
    """A hex32 node owned by ``rank`` with a remote neighbour (has replicas)."""
    graph = hex32()
    assignment = MetisLikePartitioner(seed=0).partition(graph, 4).assignment
    return next(
        g
        for g in sorted(graph.nodes())
        if assignment[g - 1] == rank
        and any(assignment[m - 1] != rank for m in graph.neighbors(g))
    )


def assert_identical(obj, soa):
    """Diff everything the platform reports between the two stores."""
    assert soa.values == obj.values
    assert soa.versions == obj.versions
    assert soa.elapsed == obj.elapsed
    assert soa.iterations == obj.iterations
    assert soa.trace.records == obj.trace.records
    assert soa.trace.reconfigurations == obj.trace.reconfigurations
    assert soa.trace.integrity == obj.trace.integrity
    assert soa.trace.quiescence == obj.trace.quiescence
    assert [p.as_dict() for p in soa.phases] == [p.as_dict() for p in obj.phases]
    assert soa.final_assignment == obj.final_assignment
    assert soa.migrations == obj.migrations
    assert soa.repartitions == obj.repartitions
    assert soa.messages_delivered == obj.messages_delivered
    assert soa.recoveries == obj.recoveries
    assert soa.repairs == obj.repairs
    assert soa.checkpoints == obj.checkpoints
    assert soa.dead_ranks == obj.dead_ranks
    assert soa.quiesced_at == obj.quiesced_at


class TestFaultFree:
    def test_basic_pipeline(self):
        assert_identical(run_hex("object"), run_hex("soa"))

    def test_overlapped_pipeline(self):
        assert_identical(
            run_hex("object", overlap_communication=True),
            run_hex("soa", overlap_communication=True),
        )

    def test_versions_populated(self):
        obj = run_hex("object")
        soa = run_hex("soa")
        assert obj.versions and set(obj.versions) == set(obj.values)
        assert soa.versions == obj.versions
        # Every value changes every one of the 6 iterations on this workload.
        assert set(obj.versions.values()) == {6}

    def test_two_jacobi_functions_keep_their_own_pins(self):
        """Two Jacobi functions with different boundaries in one platform
        (``comm_rounds=2``): each bulk kernel pins from its own map.  (The
        kernels once shared their pin masks through the view.)"""
        graph, boundary, init = hot_edge_plate(8, 8)
        west_edge = {gid: 40.0 for gid in range(1, 65, 8)}
        partition = MetisLikePartitioner(seed=0).partition(graph, 2)

        def run(store):
            config = PlatformConfig(iterations=3, comm_rounds=2, track_trace=True)
            node_fns = (make_jacobi_fn(boundary), make_jacobi_fn(west_edge))
            platform = ICPlatform(
                graph, on_store(store, node_fns), init_value=init, config=config
            )
            return platform.run(partition)

        assert_identical(run("object"), run("soa"))

    def test_int_values_demote_then_grow(self):
        """Int gids (the default initial values) demote the soa store to
        object dtype at its first record; 84 records a rank then grow it
        past its first 64-slot block in that dtype."""
        graph = grid2d(12, 12)
        partition = MetisLikePartitioner(seed=0).partition(graph, 2)

        def run(store):
            config = PlatformConfig(iterations=3, track_trace=True)
            fn = on_store(store, make_average_fn(1e-4))
            return ICPlatform(graph, fn, config=config).run(partition)

        assert_identical(run("object"), run("soa"))


class TestCrashRollback:
    def test_conformance(self):
        kwargs = dict(iterations=8, checkpoint_period=3, faults="seed=3,crash=2@5")
        obj = run_hex("object", **kwargs)
        soa = run_hex("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.recoveries == 1

    def test_overlapped_conformance(self):
        kwargs = dict(
            iterations=8,
            checkpoint_period=3,
            overlap_communication=True,
            faults="seed=3,crash=2@5",
        )
        assert_identical(run_hex("object", **kwargs), run_hex("soa", **kwargs))


class TestCrashShrink:
    def test_conformance(self):
        kwargs = dict(
            iterations=8,
            checkpoint_period=3,
            recovery_policy="shrink",
            faults="seed=3,crash=2@5",
        )
        obj = run_hex("object", **kwargs)
        soa = run_hex("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.dead_ranks == (2,)
        assert obj.trace.reconfiguration_events()


class TestIntegrityRepair:
    def test_conformance(self):
        gid = boundary_gid_of_rank(1)
        kwargs = dict(
            iterations=8,
            integrity="full",
            faults=f"seed=11,flipmsg=0.05,flip=1@4:{gid}",
        )
        obj = run_hex("object", **kwargs)
        soa = run_hex("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.repairs == 1
        assert obj.recoveries == 0

    def test_digest_rollback_conformance(self):
        """Digest-mode detection recovers by rollback instead of repair."""
        gid = boundary_gid_of_rank(1)
        kwargs = dict(
            iterations=8,
            integrity="digest",
            checkpoint_period=3,
            faults=f"seed=11,flip=1@4:{gid}",
        )
        obj = run_hex("object", **kwargs)
        soa = run_hex("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.recoveries >= 1


class TestSparseQuiescence:
    def test_plate_conformance(self):
        kwargs = dict(activation="sparse", converge="quiescence")
        obj = run_plate("object", **kwargs)
        soa = run_plate("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.quiesced_at is not None

    def test_hex_sparse_overlapped(self):
        kwargs = dict(activation="sparse", overlap_communication=True)
        assert_identical(run_hex("object", **kwargs), run_hex("soa", **kwargs))


class TestLoadBalancing:
    def test_migration_conformance(self):
        kwargs = dict(iterations=12, dynamic_load_balancing=True, lb_period=4)
        obj = run_hex("object", **kwargs)
        soa = run_hex("soa", **kwargs)
        assert_identical(obj, soa)

    def test_repartition_conformance(self):
        kwargs = dict(
            iterations=12,
            dynamic_load_balancing=True,
            lb_period=4,
            rebalance_mode="repartition",
        )
        assert_identical(run_hex("object", **kwargs), run_hex("soa", **kwargs))

    def test_repartition_crash_rollback_conformance(self, checkpointed_loads):
        """The bulk sweeps keep per-node loads in an array; a crash makes
        them travel through checkpoint capture and restore before the
        repartitioner weighs the graph with them."""
        kwargs = dict(
            iterations=12,
            dynamic_load_balancing=True,
            lb_period=6,
            rebalance_mode="repartition",
            checkpoint_period=2,
            faults="seed=3,crash=2@9",
        )
        obj = run_hex("object", **kwargs)
        soa = run_hex("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.recoveries == 1
        assert obj.repartitions >= 1
        loads = checkpointed_loads
        assert loads["soa"] == loads["object"]
        # Checkpoint 8 (iterations 7-8 of the second window) is the one
        # restored; checkpoint 10 holds its loads plus two more sweeps.
        for rank in range(4):
            restored, extended = (loads["object"][rank, i] for i in (8, 10))
            assert restored and all(extended[g] > restored[g] for g in restored)


class TestSlowWindow:
    """An armed ``slow=RANK:FACTOR:START:END`` window makes every charge a
    function of the clock at charge time, so the bulk sweeps' accountant
    walks the nodes one by one instead of applying a vectorized charge plan
    -- the one fallback branch it keeps.  The windows open and close in
    mid-run (and mid-sweep), on a rank that owns boundary nodes."""

    def assert_conforms(self, loads, runner, baseline, **kwargs):
        obj = runner("object", **kwargs)
        soa = runner("soa", **kwargs)
        assert_identical(obj, soa)
        assert obj.elapsed != baseline.elapsed  # the window really bit
        assert loads["soa"] == loads["object"]
        assert any(window for window in loads["object"].values())

    def test_dense(self, checkpointed_loads):
        self.assert_conforms(
            checkpointed_loads,
            run_hex,
            run_hex("object"),
            checkpoint_period=2,
            faults="slow=1:2.5:0.003:0.008",
        )

    def test_dense_overlapped(self, checkpointed_loads):
        self.assert_conforms(
            checkpointed_loads,
            run_hex,
            run_hex("object", overlap_communication=True),
            checkpoint_period=2,
            overlap_communication=True,
            faults="slow=1:2.5:0.003:0.008",
        )

    def test_sparse(self, checkpointed_loads):
        kwargs = dict(activation="sparse", converge="quiescence")
        self.assert_conforms(
            checkpointed_loads,
            run_plate,
            run_plate("object", **kwargs),
            checkpoint_period=20,
            faults="slow=1:3.0:0.05:0.12",
            **kwargs,
        )

    def test_hybrid(self, checkpointed_loads):
        kwargs = dict(execution="hybrid", converge="quiescence")
        self.assert_conforms(
            checkpointed_loads,
            run_plate,
            run_plate("object", **kwargs),
            checkpoint_period=20,
            faults="slow=1:3.0:0.05:0.3",
            **kwargs,
        )


class TestSoAScheduleFuzz:
    """The vectorized sweeps replay the scalar charge sequence; the virtual
    outcome must therefore stay schedule-independent exactly like the
    scalar path -- across 10 perturbed host schedules per scenario."""

    def test_fault_free_is_schedule_independent(self):
        reference = run_hex("object")
        for i in range(RUNS):
            fuzzed = run_hex("soa", seed=i)
            assert_identical(reference, fuzzed)

    def test_shrink_recovery_is_schedule_independent(self):
        kwargs = dict(
            iterations=8,
            checkpoint_period=3,
            recovery_policy="shrink",
            faults="seed=3,crash=2@5",
        )
        reference = run_hex("object", **kwargs)
        for i in range(RUNS):
            fuzzed = run_hex("soa", seed=i, **kwargs)
            assert_identical(reference, fuzzed)

    def test_sparse_quiescence_is_schedule_independent(self):
        kwargs = dict(activation="sparse", converge="quiescence")
        reference = run_plate("object", **kwargs)
        assert reference.quiesced_at is not None
        for i in range(RUNS):
            fuzzed = run_plate("soa", seed=i, **kwargs)
            assert_identical(reference, fuzzed)
