"""Conformance and hygiene suite for the ``process`` scheduler backend.

The process backend runs each rank as a real OS process with a private
node store of either kind: float halo payloads travel through per-edge
shared ring buffers, and everything else (other payloads, barriers, recv
parks, fault events, trace records) goes over a command pipe to the
parent broker.  The contract mirrors the event-scheduler suite: *virtual*
outcomes -- clocks, values, traces, fault and recovery behaviour -- are
bit-identical to the in-thread backend, for any store and any picklable
node value.  On top of conformance, this file pins down the backend's
hygiene properties: no shared-memory segment outlives a run (normal exit,
deadlock, or a SIGKILL'd worker), and the one refused combination -- a
``schedule_seed`` -- fails with
:class:`~repro.mpi.errors.UnsupportedBackendError` before anything forks.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import re
import signal
import time
from unittest import mock

import pytest

from repro.apps.average import make_average_fn
from repro.apps.battlefield import BattlefieldApp, general_engagement
from repro.core import ICPlatform, PlatformConfig
from repro.core.soastore import SoAStore
from repro.graphs import hex32
from repro.graphs.generators import cycle_graph
from repro.mpi import (
    CommAbortedError,
    DeadlockError,
    FaultPlan,
    SimCluster,
    UnsupportedBackendError,
    run_mpi,
)
from repro.graphs import HexGrid
from repro.mpi.shm import (
    ShadowRing,
    SharedSegment,
    is_shadow_payload,
    leaked_segments,
    make_run_prefix,
)
from repro.partitioning import MetisLikePartitioner

from .bsp_workload import run_bsp

BACKENDS = ("event", "process")


def _assert_no_leaked_segments():
    """Every test ends with /dev/shm clean of this platform's segments."""
    leaks = leaked_segments()
    assert not leaks, f"leaked shared-memory segments: {leaks}"


@contextlib.contextmanager
def host_untouched():
    """The body may not fork a child or create a shared-memory segment, and
    must leave no child process, descriptor (pipe) or segment behind."""
    descriptors = len(os.listdir("/proc/self/fd"))
    with mock.patch("os.fork", side_effect=AssertionError("forked a worker")) as fork, \
            mock.patch.object(
                SharedSegment, "__init__", side_effect=AssertionError("created a segment")
            ) as segment:
        yield
    assert not fork.called and not segment.called
    assert not multiprocessing.active_children()
    assert len(os.listdir("/proc/self/fd")) == descriptors
    _assert_no_leaked_segments()


# --------------------------------------------------------------------- #
# Platform conformance: identical virtual outcomes vs the event backend
# --------------------------------------------------------------------- #


def _assert_identical_to_event(platform, partition, faults=None):
    """Run ``platform`` on both schedulers; every virtual outcome matches
    and no segment is left behind.  Returns the event run."""
    event, process = (
        platform.run(
            partition,
            faults=FaultPlan.parse(faults) if faults else None,
            scheduler=backend,
        )
        for backend in BACKENDS
    )
    assert float.hex(event.elapsed) == float.hex(process.elapsed)
    assert event.values == process.values
    assert event.final_assignment == process.final_assignment
    assert event.messages_delivered == process.messages_delivered
    assert event.barriers == process.barriers
    assert event.trace.records == process.trace.records
    assert [p.as_dict() for p in event.phases] == [
        p.as_dict() for p in process.phases
    ]
    assert event.dead_ranks == process.dead_ranks
    _assert_no_leaked_segments()
    return event


class TestProcessConformance:
    def _assert_platform_identical(self, config, faults=None, init_value=float):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        platform = ICPlatform(
            graph, make_average_fn(1e-4), init_value=init_value, config=config
        )
        return _assert_identical_to_event(platform, partition, faults)

    def test_fault_free_identical(self):
        self._assert_platform_identical(
            PlatformConfig(iterations=4, track_trace=True, store="soa")
        )

    def test_quiescence_identical(self):
        """Change-driven convergence: the active frontier shrinks across
        supersteps, exercising the sparse bulk-view path and the
        quiescence vote over the command pipe."""
        self._assert_platform_identical(
            PlatformConfig(
                iterations=40,
                converge="quiescence",
                track_trace=True,
                store="soa",
            )
        )

    def test_message_faults_identical(self):
        """Per-rank fault RNG streams are drawn inside the workers, so
        drop/delay decisions and the priced retries must land on the same
        virtual clocks as the in-thread draw."""
        self._assert_platform_identical(
            PlatformConfig(iterations=6, track_trace=True, store="soa"),
            faults="seed=7,drop=0.05,delay=0.1",
        )

    def test_checkpoint_rollback_identical(self):
        """Crash + rollback recovery: checkpoint snapshots, the failure
        detector, and the resurrect-and-rerun loop all replay identically
        with ranks in separate processes."""
        self._assert_platform_identical(
            PlatformConfig(
                iterations=8,
                checkpoint_period=3,
                recovery_policy="rollback",
                track_trace=True,
                store="soa",
            ),
            faults="seed=3,crash=2@5",
        )

    def test_crash_shrink_identical(self):
        """Shrink recovery rebuilds every survivor's store from scratch
        inside its worker; the reconfiguration must be bit-identical."""
        event = self._assert_platform_identical(
            PlatformConfig(
                iterations=8,
                checkpoint_period=3,
                recovery_policy="shrink",
                track_trace=True,
                store="soa",
            ),
            faults="seed=3,crash=2@5",
        )
        assert event.dead_ranks == (2,)
        assert event.trace.reconfiguration_events()

    def test_crash_shrink_object_store_identical(self):
        """The same shrink with every worker rebuilding an object store."""
        event = self._assert_platform_identical(
            PlatformConfig(
                iterations=8,
                checkpoint_period=3,
                recovery_policy="shrink",
                track_trace=True,
                store="object",
            ),
            faults="seed=3,crash=2@5",
        )
        assert event.dead_ranks == (2,)

    def test_int_valued_soa_store_identical(self):
        """Int initial values demote each worker's SoA store to object
        dtype, exactly as they do on the event scheduler."""
        self._assert_platform_identical(
            PlatformConfig(iterations=4, track_trace=True, store="soa"),
            init_value=int,
        )

    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_battlefield_identical(self, store):
        """The paper's battlefield: structured HexState node values and two
        node functions per step, so every halo batch takes the pipe."""
        app = BattlefieldApp(general_engagement(grid=HexGrid(12, 12)))
        graph = app.graph()
        platform = ICPlatform(
            graph,
            app.node_fns(),
            init_value=app.init_value,
            config=app.platform_config(steps=4, store=store, track_trace=True),
        )
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        _assert_identical_to_event(platform, partition)

    def test_bsp_program_identical(self):
        """Raw run_mpi (no platform, no store): the command-pipe control
        plane alone reproduces the event backend's clocks."""

        def prog(comm):
            def step(superstep, state, inbox, c):
                out = [((c.rank + 1) % c.size, float(c.rank + superstep))]
                c.work((c.rank + 1) * 1e-4)
                return state + sum(inbox), out, superstep < 6

            final, steps = run_bsp(comm, step, 0.0, max_supersteps=10)
            return final, steps, comm.Wtime()

        results = {
            backend: run_mpi(prog, 4, scheduler=backend)
            for backend in BACKENDS
        }
        assert results["event"] == results["process"]
        _assert_no_leaked_segments()

    def test_cluster_reuse(self):
        """A SimCluster survives back-to-back process runs: fresh workers,
        fresh segments, identical results both times."""
        cluster = SimCluster(3, scheduler="process")

        def prog(comm):
            comm.barrier()
            return comm.allreduce(float(comm.rank)), comm.Wtime()

        first = cluster.run(prog)
        second = cluster.run(prog)
        assert first == second
        _assert_no_leaked_segments()


# --------------------------------------------------------------------- #
# The collective plane: every rendezvous is one broker verb
# --------------------------------------------------------------------- #


_STEPS = 8


def _collective_traffic(comm):
    """Sends, probes and collectives interleaved in one program.

    Each superstep isends to a neighbour, barriers on the world
    communicator, discovers the sender via ``pending_sources`` (a probe
    that must see every send made before the barrier), and votes with an
    integer allreduce -- the same shape as a change-driven platform
    superstep.
    """
    total = float(comm.rank)
    for step in range(_STEPS):
        peer = (comm.rank + 1) % comm.size
        comm.isend(total + step, dest=peer, tag=7)
        comm.work((comm.rank + 1) * 1e-5)
        comm.barrier()
        for src in comm.pending_sources(7):
            total += comm.recv(source=src, tag=7)
        total = comm.allreduce(int(total)) / comm.size
    return total, comm.Wtime()


class TestCollectivePlane:
    """On ``process`` every collective -- barrier, int or float vote --
    is one rendezvous in the parent broker, with results, counters and
    deadlock reports equal to ``event``'s."""

    def _run(self, scheduler):
        cluster = SimCluster(4, scheduler=scheduler)
        results = cluster.run(_collective_traffic)
        return results, cluster

    def test_identity_vs_event(self):
        event, _ = self._run("event")
        process, _ = self._run("process")
        assert process == event
        _assert_no_leaked_segments()

    def test_observability_counters_conform(self):
        """cluster.barriers and messages_delivered are backend-independent."""
        _, ev = self._run("event")
        _, proc = self._run("process")
        assert proc.barriers == ev.barriers
        assert proc.messages_delivered == ev.messages_delivered
        _assert_no_leaked_segments()

    def test_pipe_requests_exact(self):
        """Every worker-to-broker message is counted, and nothing else."""
        _, cluster = self._run("process")
        ranks = cluster.nprocs
        delivers = _STEPS * ranks  # one isend per rank per step
        queries = _STEPS * ranks * 2  # pending_sources + one recv
        collectives = _STEPS * ranks * 2  # barrier + allreduce, per member
        rings = 0  # a lone float is pickled through the pipe, no ring
        finishes = ranks
        assert cluster.pipe_requests == (
            delivers + queries + collectives + rings + finishes
        )
        _assert_no_leaked_segments()

    def test_fault_free_run_creates_only_ring_segments(self, tmp_path):
        """A fault-free platform run (quiescence votes, float halos) maps
        nothing but the per-edge ``-r{a}to{b}`` rings: no collective
        segment.  Workers are forked, so names are logged to a file."""
        log = tmp_path / "segments"
        log.touch()
        original = SharedSegment.__init__

        def recording(segment, name, size=0, create=False):
            if create:
                with open(log, "a") as fh:
                    fh.write(name + "\n")
            original(segment, name, size, create)

        graph = hex32()
        platform = ICPlatform(
            graph,
            make_average_fn(1e-4),
            config=PlatformConfig(iterations=6, converge="quiescence", store="soa"),
        )
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        with mock.patch.object(SharedSegment, "__init__", recording):
            platform.run(partition, scheduler="process")
        names = log.read_text().split()
        assert names
        for name in names:
            match = re.fullmatch(r"ic2mpi-\d+-[0-9a-f]+-r(\d+)to(\d+)", name)
            assert match and match[1] != match[2], name
        _assert_no_leaked_segments()

    def test_send_visible_after_barrier(self):
        """Pipe FIFO orders a worker's delivers before its next collective,
        so a probe after the barrier sees every send made before it."""

        def prog(comm):
            seen = 0
            for step in range(50):
                if comm.rank == 0:
                    comm.isend(float(step), dest=1, tag=3)
                comm.barrier()
                if comm.rank == 1:
                    sources = comm.pending_sources(3)
                    assert sources == [0], f"step {step}: missed send"
                    comm.recv(source=0, tag=3)
                    seen += 1
            return seen

        results = run_mpi(prog, 2, scheduler="process")
        assert results[1] == 50
        _assert_no_leaked_segments()

    def test_barrier_deadlock_message_identical(self):
        """A rank parked in a barrier surfaces in the deadlock report
        byte-identically on both backends.  The last rank skips the
        barrier, so the report cannot depend on which member parks last
        (a host race on ``process``): both backends name the lowest
        blocked rank."""

        def stuck(comm):
            if comm.rank != comm.size - 1:
                comm.barrier()

        messages = {}
        for scheduler in BACKENDS:
            with pytest.raises(DeadlockError) as excinfo:
                SimCluster(3, scheduler=scheduler).run(stuck)
            messages[scheduler] = str(excinfo.value)
        assert messages["process"] == messages["event"]
        _assert_no_leaked_segments()

    def test_float_allreduce(self):
        """A float vote's payloads travel in the rendezvous and conform."""

        def prog(comm):
            comm.barrier()
            return comm.allreduce(float(comm.rank) * 0.5), comm.Wtime()

        event = SimCluster(3, scheduler="event").run(prog)
        process = SimCluster(3, scheduler="process").run(prog)
        assert event == process
        _assert_no_leaked_segments()


# --------------------------------------------------------------------- #
# Deadlock and failure semantics
# --------------------------------------------------------------------- #


class TestProcessDeadlock:
    def test_recv_cycle_detected_immediately(self):
        """Pipe-FIFO determinism makes deadlock detection exact: a parked
        worker is blocked in ``conn.recv`` and cannot originate traffic,
        so all-parked proves no message is in flight.  No watchdog wait."""

        def stuck(comm):
            peer = 1 - comm.rank
            comm.recv(source=peer, tag=9)

        start = time.perf_counter()
        with pytest.raises(DeadlockError, match="tag=9"):
            run_mpi(stuck, 2, scheduler="process")
        assert time.perf_counter() - start < 5.0
        _assert_no_leaked_segments()

    def test_partial_barrier_detected(self):
        def stuck(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=5)  # never sent
            else:
                comm.barrier()

        with pytest.raises(DeadlockError, match="deadlock"):
            run_mpi(stuck, 3, scheduler="process")
        _assert_no_leaked_segments()

    def test_peers_get_comm_aborted(self):
        """The broker errs the non-victim parked ranks with the abort
        cascade, same as the in-thread backends."""

        def stuck(comm):
            try:
                comm.recv(source=(comm.rank + 1) % 3, tag=4)
            except CommAbortedError:
                return "aborted"
            return "matched"

        cluster = SimCluster(3, scheduler="process")
        with pytest.raises(DeadlockError, match="tag=4"):
            cluster.run(stuck)
        aborted = [
            cluster.state(r).result
            for r in range(3)
            if cluster.state(r).result == "aborted"
        ]
        assert len(aborted) == 2
        _assert_no_leaked_segments()

    def test_worker_process_death_surfaces(self):
        """A rank whose OS process dies outright (not a simulated crash)
        is reported as a RuntimeError and aborts the peers; its segments
        are still reaped by the parent."""

        def prog(comm):
            if comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            comm.recv(source=1 - comm.rank, tag=3)

        with pytest.raises(RuntimeError, match="worker process died"):
            run_mpi(prog, 2, scheduler="process")
        _assert_no_leaked_segments()

    def test_rank_exception_aborts_run(self):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom at rank 0")
            comm.recv(source=0, tag=1)

        with pytest.raises(ValueError, match="boom at rank 0"):
            run_mpi(prog, 2, scheduler="process")
        _assert_no_leaked_segments()


# --------------------------------------------------------------------- #
# Unsupported-configuration gates
# --------------------------------------------------------------------- #


class TestProcessGates:
    def test_schedule_seed_rejected(self):
        """The seeded run queue is the event scheduler's; worker processes
        are interleaved by the host kernel, so a seed alongside the process
        backend is an error at construction -- nothing forked, no segment."""
        with pytest.raises(UnsupportedBackendError, match="schedule_seed"):
            SimCluster(2, schedule_seed=0, scheduler="process")
        _assert_no_leaked_segments()


# --------------------------------------------------------------------- #
# Shared-memory primitives
# --------------------------------------------------------------------- #


class TestShadowRing:
    def test_payload_criterion(self):
        good = tuple((i, float(i)) for i in range(4))
        assert is_shadow_payload(good)
        assert not is_shadow_payload(good[:3])  # below fast-path floor
        assert not is_shadow_payload(list(good))  # wrong container
        assert not is_shadow_payload(good + (("x", 1.0),))

    def test_roundtrip_and_retire(self):
        prefix = make_run_prefix()
        name = f"{prefix}-ring"
        writer = ShadowRing.create(name, capacity=16)
        try:
            reader = ShadowRing.attach(name)
            try:
                payload = tuple((gid, gid * 0.5) for gid in range(1, 7))
                ref = writer.try_put(payload)
                assert ref is not None
                gids, vals = reader.read(ref)
                assert tuple(zip(gids.tolist(), vals.tolist())) == payload
                reader.retire(ref)
                # After retirement the capacity is fully reusable: fill
                # the ring to the brim, wrap-around included.
                for _ in range(5):
                    ref = writer.try_put(payload)
                    assert ref is not None
                    reader.retire(ref)
            finally:
                reader.close()
        finally:
            writer.release()
        _assert_no_leaked_segments()

    def test_try_put_backpressure(self):
        prefix = make_run_prefix()
        name = f"{prefix}-ringbp"
        writer = ShadowRing.create(name, capacity=8)
        try:
            payload = tuple((i, float(i)) for i in range(5))
            assert writer.try_put(payload) is not None
            # 5 of 8 slots consumed and never retired: the next put
            # cannot fit and must signal fallback-to-pickling.
            assert writer.try_put(payload) is None
        finally:
            writer.release()
        _assert_no_leaked_segments()


class TestSparseGeometryCache:
    def test_repeated_frontier_hits_cache(self):
        """Satellite: anonymous sparse bulk views (change-driven sweeps)
        memoize their CSR gather geometry keyed by the positions bytes."""
        import numpy as np

        graph = cycle_graph(32)
        store = SoAStore(
            0, graph, [0] * 32, init_value=lambda gid: float(gid)
        )
        positions = np.arange(4, dtype=np.intp)
        store.bulk_view(positions, iteration=0, round_idx=0)
        assert store.sparse_geom_misses == 1
        store.bulk_view(positions.copy(), iteration=1, round_idx=0)
        assert store.sparse_geom_hits == 1
        # A different frontier is a miss, not a collision.
        store.bulk_view(np.arange(8, dtype=np.intp), iteration=2, round_idx=0)
        assert store.sparse_geom_misses == 2
