"""Conformance and hygiene suite for the ``process`` scheduler backend.

The process backend runs each rank as a real OS process with a private
node store of either kind, and every message (halo batches included),
collective, recv park and finish goes over one command pipe to the
parent broker.  The contract mirrors the event-scheduler suite: *virtual*
outcomes -- clocks, values, traces, fault and recovery behaviour -- are
bit-identical to the in-thread backend, for any store and any picklable
node value.  On top of conformance, this file pins down the backend's
hygiene properties: the pipe is the only channel (no worker maps shared
memory or starts a resource tracker, and no ``/dev/shm`` entry is left on
normal exit, deadlock, or a SIGKILL'd worker), and the one refused
combination -- a ``schedule_seed`` -- fails with
:class:`~repro.mpi.errors.UnsupportedBackendError` before anything forks.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import selectors
import signal
import time
from multiprocessing import resource_tracker
from unittest import mock

import pytest

from repro.apps.average import make_average_fn
from repro.apps.battlefield import BattlefieldApp, general_engagement
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import (
    CommAbortedError,
    DeadlockError,
    FaultPlan,
    SimCluster,
    UnsupportedBackendError,
    run_mpi,
)
from repro.graphs import HexGrid
from repro.mpi import process as process_module
from repro.mpi.errors import blocked_recv_text
from repro.mpi.message import Message
from repro.mpi.shm import ShadowRing, SharedSegment, leaked_segments
from repro.partitioning import MetisLikePartitioner

from ..twins import on_store
from .bsp_workload import run_bsp

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

BACKENDS = ("event", "process")


def _raise_on_rank_one(comm):
    if comm.rank == 1:
        raise RuntimeError("rank 1 fails")
    comm.barrier()


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
    def _assert_platform_identical(self, config, faults=None, init_value=float, store="soa"):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        platform = ICPlatform(
            graph,
            on_store(store, make_average_fn(1e-4)),
            init_value=init_value,
            config=config,
        )
        return _assert_identical_to_event(platform, partition, faults)

    def test_fault_free_identical(self):
        self._assert_platform_identical(
            PlatformConfig(iterations=4, track_trace=True)
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
            )
        )

    def test_message_faults_identical(self):
        """Per-rank fault RNG streams are drawn inside the workers, so
        drop/delay decisions and the priced retries must land on the same
        virtual clocks as the in-thread draw."""
        self._assert_platform_identical(
            PlatformConfig(iterations=6, track_trace=True),
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
            ),
            faults="seed=3,crash=2@5",
            store="object",
        )
        assert event.dead_ranks == (2,)

    def test_int_valued_soa_store_identical(self):
        """Int initial values demote each worker's SoA store to object
        dtype, exactly as they do on the event scheduler."""
        self._assert_platform_identical(
            PlatformConfig(iterations=4, track_trace=True),
            init_value=int,
        )

    def test_battlefield_identical(self):
        """The paper's battlefield: structured HexState node values and two
        node functions per step, so every halo batch takes the pipe."""
        app = BattlefieldApp(general_engagement(grid=HexGrid(12, 12)))
        graph = app.graph()
        platform = ICPlatform(
            graph,
            app.node_fns(),
            init_value=app.init_value,
            config=app.platform_config(steps=4, track_trace=True),
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
        """A SimCluster survives back-to-back process runs: fresh workers
        and pipes, identical results both times."""
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
        """Every worker-to-broker message is counted, and nothing else: one
        per exchange (a send batch, a receive set, a query), one per
        collective per member, one per finish."""
        _, cluster = self._run("process")
        ranks = cluster.nprocs
        delivers = _STEPS * ranks  # one isend per rank per step
        queries = _STEPS * ranks * 2  # pending_sources + one recv
        collectives = _STEPS * ranks * 2  # barrier + allreduce, per member
        finishes = ranks
        assert cluster.pipe_requests == (
            delivers + queries + collectives + finishes
        )
        _assert_no_leaked_segments()

    def test_pipe_requests_exact_for_halo_batches(self):
        """Float halo batches -- tuples of ``(int gid, float value)``
        records, the shape the platform packs -- are plain pipe delivers,
        one request per exchange like any other, and arrive bit-equal."""

        def halo_exchange(comm):
            total = 0.0
            for step in range(_STEPS):
                batch = tuple(
                    (comm.rank * 100 + i, (comm.rank + step) / (i + 3))
                    for i in range(8)
                )
                comm.isend(batch, dest=(comm.rank + 1) % comm.size, tag=5)
                got = comm.recv(source=(comm.rank - 1) % comm.size, tag=5)
                total += sum(value for _, value in got)
            return total.hex(), comm.Wtime()

        event = SimCluster(4, scheduler="event").run(halo_exchange)
        cluster = SimCluster(4, scheduler="process")
        assert cluster.run(halo_exchange) == event
        ranks = cluster.nprocs
        delivers = _STEPS * ranks  # one 8-record batch per rank per step
        recvs = _STEPS * ranks
        finishes = ranks
        assert cluster.pipe_requests == delivers + recvs + finishes
        _assert_no_leaked_segments()

    def test_broker_registers_each_handle_once(self, monkeypatch):
        """The broker waits on one selector kept for the run: a run of n
        workers registers 2n handles, each pipe and sentinel once, however
        often the broker wakes."""
        registered = []
        register, loop = selectors.PollSelector.register, process_module._Broker.loop

        def counting_register(selector, fileobj, *args, **kwargs):
            registered.append(fileobj)
            return register(selector, fileobj, *args, **kwargs)

        def counted_loop(broker):
            with monkeypatch.context() as patch:
                patch.setattr(selectors.PollSelector, "register", counting_register)
                loop(broker)

        monkeypatch.setattr(process_module._Broker, "loop", counted_loop)
        _, cluster = self._run("process")
        assert cluster.pipe_requests > 10 * cluster.nprocs  # many wake-ups
        assert len(registered) == 2 * cluster.nprocs

    @pytest.mark.parametrize(
        "program, error",
        [
            (lambda comm: comm.allreduce(comm.rank), None),
            (_raise_on_rank_one, RuntimeError),
            (lambda comm: comm.recv((comm.rank + 1) % comm.size, tag=3), DeadlockError),
        ],
        ids=["finish", "raise", "deadlock"],
    )
    def test_broker_retires_each_handle_once(self, monkeypatch, program, error):
        """Each rank's pipe and sentinel leave the selector exactly once,
        whether the rank finishes, raises or is a deadlock victim."""
        retired = []
        unregister = selectors.PollSelector.unregister

        def counting_unregister(selector, fileobj):
            retired.append(fileobj)
            return unregister(selector, fileobj)

        monkeypatch.setattr(selectors.PollSelector, "unregister", counting_unregister)
        cluster = SimCluster(3, scheduler="process")
        with pytest.raises(error) if error else contextlib.nullcontext():
            cluster.run(program)
        assert len(retired) == len(set(retired)) == 2 * cluster.nprocs
        _assert_no_leaked_segments()

    @pytest.mark.parametrize(
        "faults, config",
        [
            (None, PlatformConfig(iterations=6, converge="quiescence")),
            (
                "seed=3,crash=2@5,flip=1@4,flipmsg=0.05",
                PlatformConfig(
                    iterations=8,
                    checkpoint_period=3,
                    recovery_policy="shrink",
                    integrity="full",
                ),
            ),
        ],
        ids=["fault_free", "crash_shrink_flip"],
    )
    def test_no_run_maps_shared_memory_or_starts_a_tracker(
        self, tmp_path, faults, config
    ):
        """The pipe is the only channel: no worker constructs a
        ``SharedSegment`` and no process calls ``ensure_running`` on the
        resource tracker -- neither on a fault-free run (quiescence votes,
        float halos) nor under a shrink recovery with memory and message
        flips.  Workers are forked, so calls are logged to a file."""
        log = tmp_path / "calls"
        log.touch()

        def logged(what, original):
            def record(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{what} in pid {os.getpid()}\n")
                return original(*args, **kwargs)

            return record

        graph = hex32()
        platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        tracker = resource_tracker.ResourceTracker
        with mock.patch.object(
            SharedSegment, "__init__", logged("SharedSegment", SharedSegment.__init__)
        ), mock.patch.object(
            resource_tracker,
            "ensure_running",
            logged("ensure_running", resource_tracker.ensure_running),
        ), mock.patch.object(
            tracker, "ensure_running", logged("ensure_running", tracker.ensure_running)
        ):
            result = platform.run(
                partition,
                faults=FaultPlan.parse(faults) if faults else None,
                scheduler="process",
            )
        assert result.values
        assert log.read_text() == ""
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
# One pipe request per exchange
# --------------------------------------------------------------------- #


def _ring_exchange(comm):
    """Each step sends to both ring neighbours in one batch, then receives
    from both in one set."""
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    total = float(comm.rank)
    for step in range(5):
        comm.neighbor_send([(right, total + step, None), (left, total / 3, None)], tag=6)
        comm.work((comm.rank + 1) * 1e-5)
        from_right, from_left = comm.neighbor_recv([right, left], tag=6)
        total = (total + from_right * 0.5 + from_left) / 2
    return total.hex(), comm.Wtime().hex()


def _reverse_arrivals(comm):
    """Rank 0 receives from ranks 1, 2 and 3 in one set while they send in
    the reverse order (3 first, each passing a token down), then all vote,
    so a second answer to rank 0's receive would be taken for the vote's."""
    got = None
    if comm.rank == 0:
        got = comm.neighbor_recv([1, 2, 3], tag=2)
    elif comm.rank == 3:
        comm.neighbor_send([(0, "from 3", None), (2, "token", None)], tag=2)
    else:
        comm.recv(comm.rank + 1, tag=2)
        comm.neighbor_send([(0, f"from {comm.rank}", None), (comm.rank - 1, "token", None)], tag=2)
    return got, comm.allreduce(comm.rank), comm.Wtime().hex()


class _RecordingConn:
    """A worker's pipe end that keeps what the broker sends it, and adds
    itself to ``log`` (shared by a group's conns) on every send."""

    def __init__(self, log=None):
        self.sent = []
        self._log = [] if log is None else log

    def send(self, obj):
        self.sent.append(obj)
        self._log.append(self)


class TestOneRequestPerExchange:
    """A worker forwards each transport call whole: one pipe request per
    send batch and one per receive set, however many messages they hold."""

    def test_ring_exchange_is_two_requests_a_step(self):
        event = SimCluster(4, scheduler="event").run(_ring_exchange)
        cluster = SimCluster(4, scheduler="process")
        assert cluster.run(_ring_exchange) == event
        # 5 steps x 4 ranks x (one send batch + one receive set), 4 finishes.
        assert cluster.pipe_requests == 5 * 4 * 2 + 4 == 44
        _assert_no_leaked_segments()

    def test_reverse_arrivals_answered_once_in_sources_order(self):
        event = SimCluster(4, scheduler="event").run(_reverse_arrivals)
        cluster = SimCluster(4, scheduler="process")
        results = cluster.run(_reverse_arrivals)
        assert results == event
        assert results[0][:2] == (["from 1", "from 2", "from 3"], 6)
        # Rank 0: one receive set; rank 3: one batch; ranks 1 and 2: a
        # receive and a batch each; four votes and four finishes.
        assert cluster.pipe_requests == 1 + 1 + 2 * 2 + 4 + 4
        _assert_no_leaked_segments()

    def test_parked_worker_answered_once_when_its_last_stream_fills(self):
        """The broker side, driven by hand: a worker parked on three
        streams gets no reply until the last one fills, then exactly one,
        with every payload in ``sources`` order."""
        cluster = SimCluster(4, scheduler="process")
        conns = [_RecordingConn() for _ in range(4)]
        broker = process_module._Broker(cluster, conns, procs=[None] * 4)
        cluster._backend._broker = broker
        try:
            broker._handle(0, ("wait_for_all", 0, 0, [1, 2, 3], 2))
            for src in (3, 2, 1):
                assert conns[0].sent == []
                msg = Message(src, 0, 2, 0, f"from {src}", 8, 0.0, 1.0)
                broker._handle(src, ("deliver_all", [msg]))
        finally:
            cluster._backend._broker = None
        [(kind, msgs)] = conns[0].sent
        assert kind == "ok"
        assert [m.payload for m in msgs] == ["from 1", "from 2", "from 3"]
        assert cluster.state(0).awaiting is None
        assert cluster.messages_delivered == 3
        assert all(conn.sent == [] for conn in conns[1:])

    def test_gather_root_answered_after_its_senders(self):
        """The broker side of a 4-member gather with root 0, driven by
        hand: each member makes one request, and the root's reply goes
        out after every sender's, as its tree receives complete after
        they sent and ran on."""
        cluster = SimCluster(4, scheduler="process")
        log = []
        conns = [_RecordingConn(log) for _ in range(4)]
        broker = process_module._Broker(cluster, conns, procs=[None] * 4)
        cluster._backend._broker = broker
        group = (0, 1, 2, 3)
        try:
            for rank in (0, 2, 1, 3):  # the root enters first
                broker._handle(
                    rank, ("rendezvous", 0, group, rank, "gather", 1.0, rank, 3, 0, 0)
                )
        finally:
            cluster._backend._broker = None
        assert broker.requests == 4
        assert [len(conn.sent) for conn in conns] == [1, 1, 1, 1]
        assert log[-1] is conns[0]
        assert conns[0].sent == [("ok", ([1.0] * 4, [0, 1, 2, 3]))]
        assert cluster.messages_delivered == 3

    def test_multi_source_deadlock_names_first_missing_source(self):
        """Rank 0 waits on sources 1 and 2; only 1 ever sends.  Both
        backends name source 2, and the worker asked once."""

        def prog(comm):
            if comm.rank == 0:
                comm.neighbor_recv([1, 2], tag=5)
            elif comm.rank == 1:
                comm.send("here", dest=0, tag=5)

        messages = {}
        for scheduler in BACKENDS:
            cluster = SimCluster(3, scheduler=scheduler)
            with pytest.raises(DeadlockError) as excinfo:
                cluster.run(prog)
            messages[scheduler] = str(excinfo.value)
        assert messages["event"] == (
            "deadlock: rank 0 waiting on (source=2, tag=5) with all ranks blocked"
        )
        assert messages["process"] == messages["event"]
        assert cluster.pipe_requests == 1 + 1 + 3  # a receive set, a send, finishes
        _assert_no_leaked_segments()


# --------------------------------------------------------------------- #
# The finish record
# --------------------------------------------------------------------- #


class _UnpicklableError(Exception):
    def __init__(self, text):
        super().__init__(text)
        self.hook = lambda: None  # a lambda does not pickle


class TestFinishRecord:
    """A worker sends its finish record once; only when it does not
    pickle does the worker find out which part is at fault."""

    def test_unpicklable_result_reported(self):
        def prog(comm):
            return (lambda: None) if comm.rank == 1 else comm.rank

        with pytest.raises(RuntimeError, match=r"^rank 1 result is not picklable: "):
            run_mpi(prog, 2, scheduler="process")
        _assert_no_leaked_segments()

    def test_unpicklable_error_reported_by_type_and_text(self):
        def prog(comm):
            if comm.rank == 1:
                raise _UnpicklableError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match=r"^_UnpicklableError: boom$"):
            run_mpi(prog, 2, scheduler="process")
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

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_peers_are_told_the_first_abort_reason(self, scheduler):
        """The deadlock report is the abort reason, and the victim raising
        it afterwards does not rewrite it: both peers of a 3-rank receive
        ring get the victim's own text, on either backend and whichever
        rank resumes first."""

        def ring(comm):
            try:
                comm.recv(source=(comm.rank + 1) % 3, tag=7)
            except CommAbortedError as exc:
                return str(exc)

        report = blocked_recv_text(0, 1, 7)
        cluster = SimCluster(3, scheduler=scheduler)
        with pytest.raises(DeadlockError) as excinfo:
            cluster.run(ring)
        assert str(excinfo.value) == report
        assert [cluster.state(r).result for r in (1, 2)] == [report, report]

    def test_worker_process_death_surfaces(self):
        """A rank whose OS process dies outright (not a simulated crash)
        is reported as a RuntimeError and aborts the peers."""

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
# The ring the backend no longer uses (kept for the ring micro-benchmark)
# --------------------------------------------------------------------- #


class TestShadowRing:
    def test_roundtrip_and_retire(self):
        name = f"ic2mpi-test-{os.getpid()}-ring"
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
        name = f"ic2mpi-test-{os.getpid()}-ringbp"
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

