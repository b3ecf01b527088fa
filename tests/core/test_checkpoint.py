"""Checkpoint/restart tests: lossless serialization, crash recovery, and
the end-to-end determinism acceptance scenario."""

from __future__ import annotations

import pytest

from repro.apps import make_average_fn, make_jacobi_fn, hot_edge_plate
from repro.apps.battlefield import BattlefieldApp, opposing_fronts, simulate_sequential
from repro.core import (
    Checkpoint,
    CheckpointError,
    Checkpointer,
    ICPlatform,
    NodeStore,
    PlatformConfig,
)
from repro.graphs import HexGrid, hex32, hex64
from repro.mpi import FaultPlan, IDEAL
from repro.partitioning import MetisLikePartitioner

from ..mpi.bsp_workload import run_bsp
from ..twins import set_pending


def make_store(graph, assignment, init_value, rank=0):
    return NodeStore(rank, graph, list(assignment), init_value)


def node_values(store: NodeStore):
    return {gid: value for gid, (value, _, _) in store.capture_state()["records"].items()}


class TestCheckpointer:
    def test_periodic_schedule(self):
        ck = Checkpointer(period=5)
        assert [it for it in range(1, 21) if ck.due(it)] == [5, 10, 15, 20]

    def test_zero_period_never_due(self):
        ck = Checkpointer(period=0)
        assert not any(ck.due(it) for it in range(1, 50))

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            Checkpointer(period=-1)

    def test_restore_without_checkpoint_raises(self):
        graph = hex32()
        store = make_store(graph, [0] * graph.num_nodes, lambda g: g)
        with pytest.raises(CheckpointError):
            Checkpointer().restore(store)

    def test_unpicklable_value_fails_loudly(self):
        graph = hex32()
        store = make_store(graph, [0] * graph.num_nodes, lambda g: g)
        store.set_value(1, lambda: None)  # not picklable
        with pytest.raises(CheckpointError, match="serialize"):
            Checkpointer().take(3, store)

    def test_take_tracks_latest_and_count(self):
        graph = hex32()
        store = make_store(graph, [0] * graph.num_nodes, lambda g: g)
        ck = Checkpointer(period=2)
        first = ck.take(0, store)
        second = ck.take(2, store, window_exec_time=1.5)
        assert isinstance(first, Checkpoint)
        assert first.nbytes > 0
        assert ck.last is second
        assert ck.taken == 2
        iteration, extras = ck.restore(store)
        assert iteration == 2
        assert extras == {"window_exec_time": 1.5}

    def test_retention_of_one(self):
        graph = hex32()
        store = make_store(graph, [0] * graph.num_nodes, lambda g: g)
        ck = Checkpointer(period=1)
        ck.take(0, store)
        ck.take(1, store)
        assert ck.last.iteration == 1
        iteration, _ = ck.restore(store)
        assert iteration == 1


class TestStoreRoundTrip:
    """capture_state/restore_state must be lossless for every application's
    value type: floats (average/diffusion) and rich objects (battlefield)."""

    def scenarios(self):
        hex_graph = hex32()
        plate, _, plate_init = hot_edge_plate(6, 6)
        bf = BattlefieldApp(
            opposing_fronts(grid=HexGrid(6, 6), depth=2, strength_per_hex=5.0)
        )
        return [
            ("average", hex_graph, lambda gid: float(gid)),
            ("diffusion", plate, plate_init),
            ("battlefield", bf.graph(), bf.init_value),
        ]

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["average", "diffusion", "battlefield"])
    def test_capture_restore_identity(self, index):
        name, graph, init_value = self.scenarios()[index]
        assignment = list(
            MetisLikePartitioner(seed=0).partition(graph, 3).assignment
        )
        store = make_store(graph, assignment, init_value, rank=1)
        snapshot = store.capture_state()
        reference = node_values(store)

        # Wreck the live store, then restore.
        for gid in list(store._slot_of):
            set_pending(store, gid, "garbage")
        store.commit_owned()
        store.restore_state(snapshot)

        assert node_values(store) == reference
        assert store.capture_state() == snapshot
        store.check_invariants()

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["average", "diffusion", "battlefield"])
    def test_pickled_checkpoint_round_trip(self, index):
        """The full Checkpointer path (pickle included) is lossless too."""
        name, graph, init_value = self.scenarios()[index]
        assignment = list(
            MetisLikePartitioner(seed=0).partition(graph, 3).assignment
        )
        store = make_store(graph, assignment, init_value, rank=0)
        reference = node_values(store)
        ck = Checkpointer()
        ck.take(7, store, migrations=[], repartitions=0)

        for gid in list(store._slot_of):
            set_pending(store, gid, None)
        store.commit_owned()
        iteration, extras = ck.restore(store)

        assert iteration == 7
        assert extras["migrations"] == []
        assert node_values(store) == reference
        store.check_invariants()

    def test_restore_rejects_foreign_rank(self):
        graph = hex32()
        store0 = make_store(graph, [0] * graph.num_nodes, lambda g: g, rank=0)
        store1 = make_store(graph, [0] * graph.num_nodes, lambda g: g, rank=1)
        with pytest.raises(ValueError):
            store1.restore_state(store0.capture_state())


class TestCrashRecovery:
    """Crash + restart must reproduce the fault-free answers exactly."""

    def test_diffusion_survives_crash(self):
        graph, boundary, init_value = hot_edge_plate(6, 6)
        partition = MetisLikePartitioner(seed=0).partition(graph, 3)
        config = PlatformConfig(iterations=12, checkpoint_period=4)

        def run(faults):
            platform = ICPlatform(
                graph, make_jacobi_fn(boundary), init_value=init_value, config=config
            )
            return platform.run(partition, machine=IDEAL, faults=faults)

        clean = run(None)
        crashed = run(FaultPlan.parse("seed=1,crash=1@7"))
        assert crashed.values == clean.values
        assert crashed.recoveries == 1
        assert crashed.fault_report.crashes == 1

    def test_battlefield_survives_crash_multi_round(self):
        """comm_rounds=2 app: the checkpoint cut must sit between whole
        iterations, not between rounds."""
        app = BattlefieldApp(
            opposing_fronts(grid=HexGrid(6, 6), depth=2, strength_per_hex=5.0)
        )
        graph = app.graph()
        partition = MetisLikePartitioner(seed=0).partition(graph, 3)
        config = app.platform_config(steps=6, checkpoint_period=2)

        platform = ICPlatform(
            graph, app.node_fns(), init_value=app.init_value, config=config
        )
        result = platform.run(
            partition, machine=IDEAL, faults=FaultPlan.parse("seed=2,crash=0@4")
        )
        assert result.recoveries == 1
        assert result.values == simulate_sequential(app, 6)

    def test_crash_without_periodic_checkpoints_replays_from_baseline(self):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 2)
        config = PlatformConfig(iterations=6, checkpoint_period=0)

        def run(faults):
            platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
            return platform.run(partition, machine=IDEAL, faults=faults)

        clean = run(None)
        crashed = run(FaultPlan.parse("crash=1@4"))
        assert crashed.values == clean.values
        assert crashed.recoveries == 1
        # baseline only: one checkpoint per rank
        assert crashed.checkpoints == 2

    def test_multiple_crashes(self):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 3)
        config = PlatformConfig(iterations=10, checkpoint_period=3)

        def run(faults):
            platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
            return platform.run(partition, machine=IDEAL, faults=faults)

        clean = run(None)
        crashed = run(FaultPlan.parse("crash=0@2,crash=2@8"))
        assert crashed.values == clean.values
        assert crashed.recoveries == 2
        assert crashed.fault_report.crashes == 2

    def test_crash_with_dynamic_load_balancing(self):
        """The rollback must restore the migration log and load window, so
        the replayed balancer re-decides the same moves."""
        from repro.apps.imbalance import ImbalanceSchedule, make_imbalanced_average_fn

        graph = hex64()
        partition = MetisLikePartitioner(seed=1).partition(graph, 4)
        schedule = ImbalanceSchedule(windows=((10**9, 0.0, 0.5),))
        config = PlatformConfig(
            iterations=16,
            dynamic_load_balancing=True,
            lb_period=5,
            checkpoint_period=4,
            validate_each_iteration=True,
        )

        def run(faults):
            platform = ICPlatform(
                graph, make_imbalanced_average_fn(schedule), config=config
            )
            return platform.run(partition, machine=IDEAL, faults=faults)

        clean = run(None)
        crashed = run(FaultPlan.parse("seed=4,crash=3@12"))
        assert crashed.values == clean.values
        assert crashed.recoveries == 1
        assert crashed.migrations == clean.migrations
        assert crashed.final_assignment == clean.final_assignment


class TestAcceptanceDeterminism:
    def test_seeded_plan_replays_bit_identically(self):
        """The PR's acceptance scenario: crash rank 2 at iteration 40 with
        5% message delay, run twice -> identical virtual end-times and
        final node states."""
        graph = hex64()
        partition = MetisLikePartitioner(seed=1).partition(graph, 4)
        config = PlatformConfig(
            iterations=45, checkpoint_period=10, track_trace=True
        )
        plan = FaultPlan.parse("seed=42,delay=0.05,crash=2@40")

        def run():
            platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
            return platform.run(partition, faults=plan)

        first = run()
        second = run()
        assert first.recoveries == 1
        assert first.elapsed == second.elapsed
        assert first.values == second.values
        assert first.trace.records == second.trace.records
        assert [p.as_dict() for p in first.phases] == [
            p.as_dict() for p in second.phases
        ]
        # the recovery overhead is visible in the rendered trace
        assert "recovery:" in first.trace.render()
        assert first.trace.recovery_overhead() > 0.0


class TestBspCheckpointing:
    def test_bsp_crash_rollback_matches_clean_run(self):
        from repro.mpi import run_mpi

        def prog(comm):
            def step(superstep, state, inbox, c):
                total = state + sum(inbox)
                out = [((c.rank + 1) % c.size, c.rank + superstep)]
                return total, out, superstep < 6
            return run_bsp(comm, step, 0, max_supersteps=10, checkpoint_every=3)

        clean = run_mpi(prog, 4)
        crashed = run_mpi(prog, 4, faults=FaultPlan.parse("seed=3,crash=1@5"))
        # states AND logical superstep counts both match the clean run
        assert crashed == clean

    def test_bsp_crash_before_first_checkpoint_uses_baseline(self):
        from repro.mpi import run_mpi

        def prog(comm):
            def step(superstep, state, inbox, c):
                return state + comm.rank + sum(inbox), [((c.rank + 1) % c.size, 1)], superstep < 4
            return run_bsp(comm, step, 0, max_supersteps=8, checkpoint_every=0)

        clean = run_mpi(prog, 3)
        crashed = run_mpi(prog, 3, faults=FaultPlan.parse("crash=2@3"))
        assert crashed == clean
