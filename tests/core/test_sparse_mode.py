"""Cross-mode conformance for change-driven execution.

``activation="sparse"`` (delta halo exchange + active-set computation) and
``converge="quiescence"`` (fixed-point early termination) are *performance*
modes: they must never change a single committed value.  Every test here
pins sparse results against the dense reference -- on plain sweeps, both
pipelines, multi-round applications, dynamic load balancing, crash
recovery (rollback and shrink), silent-corruption repair, and across 10
perturbed host schedules.

The conformance classes are additionally parametrized over the node-store
backend (``store="object"`` / ``store="soa"``: the kernel's scalar twin or
the kernel itself): sparse-vs-dense equality must hold whether the state
lives in per-node objects or in contiguous arrays with vectorized sweeps.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.apps.battlefield import BattlefieldApp, general_engagement
from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

from ..twins import on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

#: Distinct host schedules per fuzzed scenario (conformance spec).
RUNS = 10


def run_hex(activation, *, overlap=False, iterations=6, faults=None,
            seed=None, store="soa", **overrides):
    graph = hex32()
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    config = PlatformConfig(
        iterations=iterations,
        overlap_communication=overlap,
        activation=activation,
        track_trace=True,
        **overrides,
    )
    platform = ICPlatform(graph, on_store(store, make_average_fn(1e-4)), config=config)
    return platform.run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
        schedule_seed=seed,
    )


def run_plate(activation, *, converge="fixed", iterations=150, faults=None,
              seed=None, store="soa", **overrides):
    graph, boundary, init = hot_edge_plate(8, 8)
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    config = PlatformConfig(
        iterations=iterations,
        activation=activation,
        converge=converge,
        track_trace=True,
        **overrides,
    )
    platform = ICPlatform(
        graph,
        on_store(store, make_jacobi_fn(boundary, quantize=4)),
        init_value=init,
        config=config,
    )
    return platform.run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
        schedule_seed=seed,
    )


@pytest.mark.parametrize("store", ["object", "soa"])
class TestSparseMatchesDense:
    def test_basic_pipeline(self, store):
        dense = run_hex("dense", store=store)
        sparse = run_hex("sparse", store=store)
        assert sparse.values == dense.values
        assert sparse.final_assignment == dense.final_assignment

    def test_overlapped_pipeline(self, store):
        dense = run_hex("dense", overlap=True, store=store)
        sparse = run_hex("sparse", overlap=True, store=store)
        assert sparse.values == dense.values

    def test_diffusion_workload(self, store):
        dense = run_plate("dense", store=store)
        sparse = run_plate("sparse", store=store)
        assert sparse.values == dense.values

    def test_dynamic_load_balancing_migration(self, store):
        """Migrations change ownership mid-run; the frontier falls back to
        dense and version counters ride the migration payload."""
        dense = run_hex(
            "dense", iterations=12, dynamic_load_balancing=True, lb_period=4,
            store=store,
        )
        sparse = run_hex(
            "sparse", iterations=12, dynamic_load_balancing=True, lb_period=4,
            store=store,
        )
        assert sparse.values == dense.values
        assert sparse.migrations == dense.migrations
        assert sparse.final_assignment == dense.final_assignment

    def test_repartition_rebuild(self, store):
        dense = run_hex(
            "dense",
            iterations=12,
            dynamic_load_balancing=True,
            lb_period=4,
            rebalance_mode="repartition",
            store=store,
        )
        sparse = run_hex(
            "sparse",
            iterations=12,
            dynamic_load_balancing=True,
            lb_period=4,
            rebalance_mode="repartition",
            store=store,
        )
        assert sparse.values == dense.values
        assert sparse.repartitions == dense.repartitions

    def test_sparse_sends_fewer_messages_once_converged(self, store):
        """Past the fixed point the delta exchange goes quiet while the
        dense exchange keeps re-sending every shadow record."""
        dense = run_plate("dense", store=store)
        sparse = run_plate("sparse", store=store)
        assert sparse.values == dense.values
        assert sparse.messages_delivered < dense.messages_delivered
        assert sparse.elapsed < dense.elapsed

    def test_multi_round_kernels(self, store):
        """Two Jacobi kernels per iteration (``comm_rounds=2``): each round's
        frontier must see the other round's commits, so the plate settles
        to the dense values, and then both rounds go quiet."""
        graph, boundary, init = hot_edge_plate(8, 8)
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        node_fns = (make_jacobi_fn(boundary, quantize=4), make_jacobi_fn(boundary, quantize=4))

        def run(activation):
            config = PlatformConfig(iterations=100, comm_rounds=2, activation=activation)
            platform = ICPlatform(graph, on_store(store, node_fns), init_value=init, config=config)
            return platform.run(partition)

        dense, sparse = run("dense"), run("sparse")
        assert sparse.values == dense.values
        assert sparse.messages_delivered < dense.messages_delivered


def test_multi_round_battlefield():
    """Two node functions per iteration: the per-round dirty sets must keep
    round-1 activity from hiding round-0 work and vice versa."""
    app = BattlefieldApp(general_engagement())
    graph = app.graph()
    partition = MetisLikePartitioner(seed=0, trials=4).partition(graph, 8)

    def run(activation):
        platform = ICPlatform(
            graph,
            app.node_fns(),
            init_value=app.init_value,
            config=app.platform_config(steps=6, activation=activation),
        )
        return platform.run(partition)

    dense = run("dense")
    sparse = run("sparse")
    assert sorted(sparse.values.items()) == sorted(dense.values.items())


@pytest.mark.parametrize("store", ["object", "soa"])
class TestSparseUnderFaults:
    def test_crash_rollback(self, store):
        """Checkpoint rollback must restore version counters and the change
        frontier -- resuming with an empty frontier would freeze nodes whose
        rolled-back changes were never re-applied."""
        plan = "seed=3,crash=2@5"
        dense_clean = run_hex("dense", iterations=8, checkpoint_period=3,
                              store=store)
        sparse = run_hex(
            "sparse", iterations=8, checkpoint_period=3, faults=plan,
            store=store,
        )
        assert sparse.values == dense_clean.values
        assert sparse.recoveries == 1

    def test_crash_shrink(self, store):
        """Shrink recovery rebuilds every store from bare committed values;
        sparse mode must reset to dense sweeps and still finish identical."""
        plan = "seed=3,crash=2@5"
        dense_clean = run_hex(
            "dense", iterations=8, checkpoint_period=3,
            recovery_policy="shrink", store=store,
        )
        sparse = run_hex(
            "sparse",
            iterations=8,
            checkpoint_period=3,
            recovery_policy="shrink",
            faults=plan,
            store=store,
        )
        assert sparse.values == dense_clean.values
        assert sparse.dead_ranks == (2,)
        assert sparse.trace.reconfiguration_events()

    def test_integrity_repair(self, store):
        """A boundary memory flip under full protection heals surgically;
        the repair happens before any sweep consumes the corruption, so the
        sparse frontier needs no special handling."""
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        assignment = partition.assignment
        gid = next(
            g
            for g in sorted(graph.nodes())
            if assignment[g - 1] == 1
            and any(assignment[m - 1] != 1 for m in graph.neighbors(g))
        )
        plan = f"seed=11,flipmsg=0.05,flip=1@4:{gid}"
        dense_clean = run_hex("dense", iterations=8, integrity="full",
                              store=store)
        sparse = run_hex("sparse", iterations=8, integrity="full", faults=plan,
                         store=store)
        assert sparse.values == dense_clean.values
        assert sparse.repairs == 1
        assert sparse.recoveries == 0


@pytest.mark.parametrize("store", ["object", "soa"])
class TestQuiescence:
    def test_early_termination_sparse(self, store):
        fixed = run_plate("dense", store=store)
        quiesced = run_plate("sparse", converge="quiescence", store=store)
        assert quiesced.values == fixed.values
        assert quiesced.quiesced_at is not None
        assert quiesced.quiesced_at < 150
        assert quiesced.iterations == quiesced.quiesced_at
        events = quiesced.trace.quiescence_events()
        assert len(events) == 1
        assert events[0].iteration == quiesced.quiesced_at
        assert events[0].configured_iterations == 150
        assert events[0].saved_iterations == 150 - quiesced.quiesced_at
        assert "quiescence" in quiesced.trace.render()

    def test_early_termination_dense_activation(self, store):
        """Quiescence is independent of activation: the dense sweeps also
        count changed nodes, so the reduction sees the same zero."""
        fixed = run_plate("dense", store=store)
        quiesced = run_plate("dense", converge="quiescence", store=store)
        assert quiesced.values == fixed.values
        assert quiesced.quiesced_at is not None

    def test_same_stop_iteration_dense_and_sparse(self, store):
        dense_q = run_plate("dense", converge="quiescence", store=store)
        sparse_q = run_plate("sparse", converge="quiescence", store=store)
        assert dense_q.quiesced_at == sparse_q.quiesced_at
        assert dense_q.values == sparse_q.values

    def test_not_reached_within_budget(self, store):
        result = run_plate("sparse", converge="quiescence", iterations=10,
                           store=store)
        assert result.quiesced_at is None
        assert result.iterations == 10
        assert not result.trace.quiescence_events()

    def test_resumes_after_rollback(self, store):
        """A crash mid-run rolls the frontier back with the values; the run
        must still reach the same fixed point and quiesce at the same
        iteration as the fault-free sparse run."""
        clean = run_plate("sparse", converge="quiescence", checkpoint_period=10,
                          store=store)
        assert clean.quiesced_at is not None
        crashed = run_plate(
            "sparse",
            converge="quiescence",
            checkpoint_period=10,
            faults="seed=3,crash=1@50",
            store=store,
        )
        assert crashed.values == clean.values
        assert crashed.quiesced_at == clean.quiesced_at
        assert crashed.recoveries == 1


class TestSparseScheduleFuzz:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_sparse_run_is_schedule_independent(self, overlap):
        """Delta exchange relies on the barrier as a delivery fence and on
        parity tags; both must hold under any host interleaving."""
        reference = run_hex("sparse", overlap=overlap, iterations=6)
        for i in range(RUNS):
            fuzzed = run_hex(
                "sparse",
                overlap=overlap,
                iterations=6,
                seed=i,
            )
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.trace.records == reference.trace.records
            assert [p.as_dict() for p in fuzzed.phases] == [
                p.as_dict() for p in reference.phases
            ]

    def test_sparse_quiescence_is_schedule_independent(self):
        reference = run_plate("sparse", converge="quiescence")
        assert reference.quiesced_at is not None
        for i in range(RUNS):
            fuzzed = run_plate("sparse", converge="quiescence", seed=i)
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.quiesced_at == reference.quiesced_at
            assert fuzzed.trace.quiescence == reference.trace.quiescence

    def test_sparse_shrink_recovery_is_schedule_independent(self):
        plan = "seed=3,crash=2@5"
        reference = run_hex(
            "sparse",
            iterations=8,
            checkpoint_period=3,
            recovery_policy="shrink",
            faults=plan,
        )
        for i in range(RUNS):
            fuzzed = run_hex(
                "sparse",
                iterations=8,
                checkpoint_period=3,
                recovery_policy="shrink",
                faults=plan,
                seed=i,
            )
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.trace.records == reference.trace.records

    def test_sparse_integrity_repair_is_schedule_independent(self):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        assignment = partition.assignment
        gid = next(
            g
            for g in sorted(graph.nodes())
            if assignment[g - 1] == 1
            and any(assignment[m - 1] != 1 for m in graph.neighbors(g))
        )
        plan = f"seed=11,flipmsg=0.05,flip=1@4:{gid}"
        reference = run_hex("sparse", iterations=8, integrity="full", faults=plan)
        for i in range(RUNS):
            fuzzed = run_hex(
                "sparse",
                iterations=8,
                integrity="full",
                faults=plan,
                seed=i,
            )
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.trace.integrity == reference.trace.integrity
