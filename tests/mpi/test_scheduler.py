"""Conformance suite for the event scheduler and its seeded schedules.

The event scheduler hands the baton round a FIFO run queue; given a
``schedule_seed`` it draws the next rank from the queue and preempts the
running one on a seeded coin instead.  The contract is that *virtual*
outcomes are bit-identical either way: clocks, results, traces, fault and
recovery behaviour.  Every conformance scenario here runs on the FIFO and on
a seeded schedule and compares field by field; the seeded-schedule tests pin
the fuzzer itself (replayable, never a silent no-op, still exact about
deadlock); the exact-deadlock tests pin the scheduler's headline property --
deadlock surfaces immediately, no wall-clock timeout is waited out.
(``tests/mpi/test_process_backend.py`` holds the process backend to the
same outcomes.)
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import (
    IDEAL,
    CommAbortedError,
    DeadlockError,
    FaultPlan,
    Mailbox,
    Message,
    SimCluster,
    run_mpi,
)
from repro.mpi.communicator import Communicator
from repro.mpi.scheduler import SCHEDULERS
from repro.partitioning import MetisLikePartitioner

from ..twins import on_store
from .bsp_workload import run_bsp

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

#: ``schedule_seed`` of the two host schedules every scenario must agree on.
SCHEDULES = {"fifo": None, "seeded": 5}
#: Seeds the seeded-schedule tests sweep (as the schedule-fuzz suites do).
SEEDS = range(10)


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_default_is_event(self):
        assert SimCluster(2).scheduler == "event"

    def test_unknown_backend_rejected(self):
        assert SCHEDULERS == ("event", "process")
        with pytest.raises(ValueError, match="unknown scheduler"):
            SimCluster(2, scheduler="fibers")


# --------------------------------------------------------------------- #
# Cross-schedule conformance: identical virtual outcomes
# --------------------------------------------------------------------- #


def _bsp_prog(comm):
    def step(superstep, state, inbox, c):
        total = state + sum(inbox)
        out = [
            ((c.rank + 1) % c.size, c.rank * 100 + superstep),
            ((c.rank + 2) % c.size, superstep),
        ]
        c.work((c.rank + 1) * 1e-4)
        return total, out, superstep < 8

    final, steps = run_bsp(comm, step, 0, max_supersteps=12)
    return final, steps, comm.Wtime()


class TestCrossBackendConformance:
    """FIFO schedule vs a seeded one on the in-process backend (the class
    and test names predate the seeded scheduler; ids kept stable)."""

    def test_bsp_program_identical(self):
        results = {
            name: run_mpi(_bsp_prog, 5, machine=IDEAL, schedule_seed=seed)
            for name, seed in SCHEDULES.items()
        }
        assert results["fifo"] == results["seeded"]

    def test_bsp_with_faults_identical(self):
        """Fault decisions are drawn per rank in program order, so delay,
        drop/retry, and crash outcomes must not depend on the schedule."""
        plan = FaultPlan.parse(
            "seed=11,delay=0.2:0.002,drop=0.1,retry=12:1e-4,crash=1@4"
        )

        def prog(comm):
            def step(superstep, state, inbox, c):
                out = [((c.rank + 1) % c.size, c.rank + superstep)]
                return state + sum(inbox), out, superstep < 6

            final, steps = run_bsp(comm, step, 0, max_supersteps=10, checkpoint_every=2)
            return final, steps, comm.Wtime()

        results = {
            name: run_mpi(prog, 4, faults=plan, schedule_seed=seed)
            for name, seed in SCHEDULES.items()
        }
        assert results["fifo"] == results["seeded"]

    def _platform_run(self, store, config, faults, seed):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        platform = ICPlatform(graph, on_store(store, make_average_fn(1e-4)), config=config)
        return platform.run(
            partition,
            faults=FaultPlan.parse(faults) if faults else None,
            schedule_seed=seed,
        )

    def _assert_platform_identical(self, store, config, faults=None):
        results = {
            name: self._platform_run(store, config, faults, seed)
            for name, seed in SCHEDULES.items()
        }
        fifo, seeded = results["fifo"], results["seeded"]
        assert fifo.elapsed == seeded.elapsed
        assert fifo.values == seeded.values
        assert fifo.final_assignment == seeded.final_assignment
        assert fifo.trace.records == seeded.trace.records
        assert [p.as_dict() for p in fifo.phases] == [
            p.as_dict() for p in seeded.phases
        ]
        return fifo

    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_platform_fault_free_identical(self, store):
        self._assert_platform_identical(store, PlatformConfig(iterations=4, track_trace=True))

    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_platform_crash_shrink_identical(self, store):
        """The shrink-recovery acceptance scenario -- failure detection,
        survivor re-ranking, quarantine, checkpoint hand-off, and
        redistribution -- plays out identically on both schedules."""
        fifo = self._assert_platform_identical(
            store,
            PlatformConfig(
                iterations=8,
                checkpoint_period=3,
                recovery_policy="shrink",
                track_trace=True,
            ),
            faults="seed=3,crash=2@5",
        )
        assert fifo.dead_ranks == (2,)
        assert fifo.trace.reconfiguration_events()

    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_platform_integrity_repair_identical(self, store):
        """Checksummed transport + shadow-replica repair of a boundary-node
        memory flip: the priced NACK/retransmit rounds and the repair event
        land on the same virtual clocks on both schedules."""
        graph = hex32()
        assignment = MetisLikePartitioner(seed=0).partition(graph, 4).assignment
        gid = next(
            g
            for g in sorted(graph.nodes())
            if assignment[g - 1] == 1
            and any(assignment[m - 1] != 1 for m in graph.neighbors(g))
        )
        fifo = self._assert_platform_identical(
            store,
            PlatformConfig(iterations=8, integrity="full", track_trace=True),
            faults=f"seed=11,flipmsg=0.05,flip=1@4:{gid}",
        )
        assert fifo.repairs == 1
        assert fifo.recoveries == 0


# --------------------------------------------------------------------- #
# Exact deadlock detection (event backend)
# --------------------------------------------------------------------- #


class TestExactDeadlock:
    def test_recv_cycle_detected_immediately(self):
        """A two-rank receive cycle must surface well under 1 s of real
        time -- the event backend proves the deadlock from its run queue,
        it never waits."""

        def stuck(comm):
            peer = 1 - comm.rank
            comm.recv(source=peer, tag=9)

        start = time.perf_counter()
        with pytest.raises(DeadlockError, match="tag=9"):
            run_mpi(stuck, 2, scheduler="event")
        assert time.perf_counter() - start < 1.0

    def test_partial_barrier_detected_immediately(self):
        def stuck(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=5)  # never sent
            else:
                comm.barrier()

        start = time.perf_counter()
        with pytest.raises(DeadlockError, match="deadlock"):
            run_mpi(stuck, 3, scheduler="event")
        assert time.perf_counter() - start < 1.0

    def test_finisher_detected_deadlock(self):
        """Deadlock discovered by a *finishing* rank (the waiters blocked
        while it was still runnable): the lowest blocked rank is picked as
        the victim and raises; its peers get the abort cascade."""

        def prog(comm):
            if comm.rank == 2:
                return "done"  # finishes instantly, leaving 0 and 1 stuck
            comm.recv(source=2, tag=7)

        start = time.perf_counter()
        with pytest.raises(DeadlockError, match="tag=7"):
            run_mpi(prog, 3, scheduler="event")
        assert time.perf_counter() - start < 1.0

    def test_peers_get_comm_aborted(self):
        errors = {}

        def stuck(comm):
            try:
                comm.recv(source=(comm.rank + 1) % 3, tag=4)
            except BaseException as exc:  # noqa: BLE001 - recording for assert
                errors[comm.rank] = type(exc).__name__
                raise

        with pytest.raises(DeadlockError):
            run_mpi(stuck, 3, scheduler="event")
        assert sorted(errors.values()) == [
            "CommAbortedError",
            "CommAbortedError",
            "DeadlockError",
        ]


# --------------------------------------------------------------------- #
# The seeded schedule: replayable, never a no-op, still exact
# --------------------------------------------------------------------- #


def _handoff_order(cluster):
    """Run a ring exchange on ``cluster``; the order its ranks got to run
    in (a host-side observation no virtual result may depend on)."""
    order = []

    def prog(comm):
        for round_no in range(3):
            comm.send(round_no, dest=(comm.rank + 1) % comm.size, tag=0)
            order.append(comm.rank)
            comm.recv(source=(comm.rank - 1) % comm.size, tag=0)
            order.append(comm.rank)
            comm.barrier()
        return comm.Wtime()

    clocks = cluster.run(prog)
    return tuple(order), clocks


def _error_types(program, nprocs, seed):
    """``(what run_mpi raised, sorted per-rank exception type names)``."""
    seen = []

    def recording(comm):
        try:
            return program(comm)
        except BaseException as exc:  # noqa: BLE001 - recording for assert
            seen.append(type(exc).__name__)
            raise

    start = time.perf_counter()
    with pytest.raises(Exception) as excinfo:  # type compared by the caller
        run_mpi(recording, nprocs, schedule_seed=seed)
    assert time.perf_counter() - start < 1.0
    return type(excinfo.value), sorted(seen)


def _recv_cycle(comm):
    comm.recv(source=(comm.rank + 1) % comm.size, tag=4)


def _partial_barrier(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=5)  # never sent
    else:
        comm.barrier()


class TestSeededSchedule:
    def test_same_seed_replays_the_same_handoffs(self):
        """(program, seed) names one schedule: a second cluster, and the
        same cluster reused after a failed run, repeat it exactly."""
        cluster = SimCluster(4, schedule_seed=3)
        first = _handoff_order(cluster)

        def bad(comm):
            comm.barrier()
            if comm.rank == 2:
                raise RuntimeError("boom")
            comm.recv(source=2, tag=1)

        with pytest.raises(RuntimeError, match="boom"):
            cluster.run(bad)
        assert _handoff_order(cluster) == first
        assert _handoff_order(SimCluster(4, schedule_seed=3)) == first

    def test_seeds_perturb_the_schedule_and_nothing_else(self):
        """Ten seeds give several hand-off orders and every one preempts --
        the hook can never be a silent no-op -- yet the clocks are the
        unseeded run's."""
        fifo = SimCluster(4)
        fifo_order, clocks = _handoff_order(fifo)
        assert fifo._backend.preemptions == 0
        orders = set()
        for seed in SEEDS:
            cluster = SimCluster(4, schedule_seed=seed)
            order, seeded_clocks = _handoff_order(cluster)
            assert seeded_clocks == clocks, f"seed {seed}"
            assert sorted(order) == sorted(fifo_order)
            assert cluster._backend.preemptions > 0, f"seed {seed}"
            orders.add(order)
        assert len(orders) >= 2

    def test_schedule_dependent_program_is_caught(self):
        """A program that leaks host order into its result (arrival order
        at a barrier, via a host-side list) gets one outcome per seed and
        several across seeds -- which is how the fuzz suites catch one."""

        def outcome(seed):
            arrivals = []

            def racy(comm):
                arrivals.append(comm.rank)
                comm.barrier()
                return tuple(arrivals)

            return run_mpi(racy, 4, schedule_seed=seed)[0]

        assert outcome(None) == (0, 1, 2, 3)
        outcomes = {seed: outcome(seed) for seed in SEEDS}
        assert outcomes == {seed: outcome(seed) for seed in SEEDS}
        assert len(set(outcomes.values())) >= 2

    @pytest.mark.parametrize("stuck", [_recv_cycle, _partial_barrier])
    def test_deadlock_is_exact_under_any_seed(self, stuck):
        """Which rank completes the deadlock is the schedule's choice; that
        one rank raises DeadlockError at once and its peers are aborted is
        not."""
        for seed in SEEDS:
            assert _error_types(stuck, 3, seed) == (
                DeadlockError,
                ["CommAbortedError", "CommAbortedError", "DeadlockError"],
            ), f"seed {seed}"

    def test_rank_failure_stays_the_primary_error(self):
        def prog(comm):
            comm.send(comm.rank, dest=(comm.rank + 1) % 4, tag=0)
            comm.recv(source=(comm.rank - 1) % 4, tag=0)
            if comm.rank == 1:
                raise KeyError("rank1-bug")
            comm.barrier()

        for seed in SEEDS:
            raised, seen = _error_types(prog, 4, seed)
            assert raised is KeyError, f"seed {seed}"
            assert seen == ["CommAbortedError"] * 3 + ["KeyError"], f"seed {seed}"


# --------------------------------------------------------------------- #
# Barrier keyed by (comm_id, group)
# --------------------------------------------------------------------- #


class TestBarrierGroupKeying:
    def test_same_comm_id_disjoint_groups_do_not_cross_release(self):
        """Two hand-built sub-communicators sharing a channel id: their
        barriers must rendezvous independently.  Keyed only by comm_id,
        the first two arrivals (one from each pair) would release each
        other and the release clock would blend the two groups."""

        def prog(comm):
            cluster = comm._cluster
            world = comm.rank
            group = (0, 1) if world < 2 else (2, 3)
            sub = Communicator(cluster, world, group, comm_id=99)
            if world == 2:
                comm.work(1.0)  # only group B's release clock may see this
            sub.barrier()
            return round(comm.Wtime(), 9)

        times = run_mpi(prog, 4, machine=IDEAL, scheduler="event")
        # Group A (ranks 0, 1) never waits on rank 2's big charge...
        assert times[0] == times[1] < 0.5
        # ...while group B's release clock includes it.
        assert times[2] == times[3] >= 1.0

    def test_identical_on_both_backends(self):
        """...that is, on the FIFO and a seeded schedule (id kept stable)."""

        def prog(comm):
            cluster = comm._cluster
            world = comm.rank
            group = (0, 1) if world < 2 else (2, 3)
            sub = Communicator(cluster, world, group, comm_id=99)
            comm.work((world + 1) * 1e-3)
            sub.barrier()
            return comm.Wtime()

        results = {
            name: run_mpi(prog, 4, machine=IDEAL, schedule_seed=seed)
            for name, seed in SCHEDULES.items()
        }
        assert results["fifo"] == results["seeded"]


# --------------------------------------------------------------------- #
# Multi-rank failure aggregation
# --------------------------------------------------------------------- #


class TestErrorAggregation:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="needs add_note")
    def test_second_failure_attached_as_note(self):
        """Two ranks with *independent* original bugs: the first is
        re-raised, the second is visible as a ``__notes__`` line instead
        of being silently masked."""

        def prog(comm):
            # Ranks 1 and 2 fail before touching the transport again, so
            # neither failure can be converted into an abort of the other.
            if comm.rank == 1:
                raise KeyError("rank1-bug")
            if comm.rank == 2:
                raise ValueError("rank2-bug")
            try:
                comm.recv(source=1, tag=0)
            except CommAbortedError:
                return "aborted"

        with pytest.raises(KeyError, match="rank1-bug") as excinfo:
            run_mpi(prog, 3, scheduler="event")
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        assert "rank 2" in notes and "ValueError" in notes and "rank2-bug" in notes

    def test_single_failure_has_no_notes(self):
        def prog(comm):
            if comm.rank == 1:
                raise KeyError("solo")
            try:
                comm.recv(source=1, tag=0)
            except CommAbortedError:
                return "aborted"

        with pytest.raises(KeyError, match="solo") as excinfo:
            run_mpi(prog, 2, scheduler="event")
        assert not getattr(excinfo.value, "__notes__", [])


# --------------------------------------------------------------------- #
# Event-backend robustness: reuse, abort, quarantine
# --------------------------------------------------------------------- #


class TestEventBackendRobustness:
    def test_cluster_reusable_after_failure(self):
        cluster = SimCluster(2, scheduler="event")

        def bad(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            try:
                comm.recv(source=0, tag=0)
            except CommAbortedError:
                return None

        with pytest.raises(RuntimeError, match="boom"):
            cluster.run(bad)

        def good(comm):
            comm.send(comm.rank, dest=1 - comm.rank, tag=1)
            return comm.recv(source=1 - comm.rank, tag=1)

        assert cluster.run(good) == [1, 0]

    def test_cluster_reusable_after_deadlock(self):
        cluster = SimCluster(2, scheduler="event")

        def stuck(comm):
            comm.recv(source=1 - comm.rank, tag=9)

        with pytest.raises(DeadlockError):
            cluster.run(stuck)

        def good(comm):
            comm.send("ok", dest=1 - comm.rank, tag=1)
            return comm.recv(source=1 - comm.rank, tag=1)

        assert cluster.run(good) == ["ok", "ok"]

    def test_run_order_is_reproducible(self):
        """The cooperative schedule itself is deterministic, so even
        host-order-sensitive observations (here: global message sequence
        numbers modulo an offset) repeat exactly run over run."""

        def prog(comm):
            order = []
            for round_no in range(3):
                comm.send((comm.rank, round_no), dest=(comm.rank + 1) % 3, tag=0)
            for _ in range(3):
                order.append(comm.recv(source=(comm.rank - 1) % 3, tag=0))
            return order

        cluster = SimCluster(3, scheduler="event")
        first = cluster.run(prog)
        for _ in range(3):
            assert cluster.run(prog) == first


# --------------------------------------------------------------------- #
# Mailbox index unit tests
# --------------------------------------------------------------------- #


def _msg(src, tag, arrival, comm_id=0, payload=None):
    return Message(
        src=src,
        dest=0,
        tag=tag,
        comm_id=comm_id,
        payload=payload if payload is not None else (src, tag, arrival),
        nbytes=8,
        send_time=0.0,
        arrival_time=arrival,
    )


class TestMailbox:
    def test_fifo_within_stream(self):
        box = Mailbox()
        first, second = _msg(1, 5, 2.0), _msg(1, 5, 1.0)
        box.append(first)
        box.append(second)  # later arrival queued behind earlier send
        assert box.take(1, 5, 0) is first
        assert box.take(1, 5, 0) is second
        assert box.take(1, 5, 0) is None

    def test_any_tag_follows_send_order(self):
        box = Mailbox()
        a, b = _msg(1, 7, 1.0), _msg(1, 3, 2.0)
        box.append(a)  # injected first -> lower seq
        box.append(b)
        assert box.take(1, -1, 0) is a
        assert box.take(1, -1, 0) is b

    def test_any_source_picks_earliest_arrival(self):
        box = Mailbox()
        late, early = _msg(1, 0, 5.0), _msg(2, 0, 1.0)
        box.append(late)
        box.append(early)
        assert box.take(-1, 0, 0) is early
        assert box.take(-1, 0, 0) is late

    def test_any_source_arrival_tie_breaks_on_src(self):
        box = Mailbox()
        from_two, from_one = _msg(2, 0, 1.0), _msg(1, 0, 1.0)
        box.append(from_two)
        box.append(from_one)
        assert box.take(-1, 0, 0) is from_one

    def test_comm_isolation(self):
        box = Mailbox()
        box.append(_msg(1, 0, 1.0, comm_id=7))
        assert box.take(1, 0, 0) is None
        assert box.take(1, 0, 7) is not None

    def test_peek_does_not_consume(self):
        box = Mailbox()
        msg = _msg(1, 0, 1.0)
        box.append(msg)
        assert box.take(1, 0, 0, consume=False) is msg
        assert len(box) == 1
        assert box.take(1, 0, 0) is msg
        assert len(box) == 0 and not box

    def test_purge_counts_and_isolates(self):
        box = Mailbox()
        for arrival in (1.0, 2.0):
            box.append(_msg(1, 0, arrival))
        box.append(_msg(2, 0, 3.0))
        box.append(_msg(1, 0, 9.0, comm_id=5))
        assert box.purge(0, {1}) == 2
        assert len(box) == 2
        assert box.take(1, 0, 0) is None  # purged
        assert box.take(2, 0, 0) is not None  # untouched peer
        assert box.take(1, 0, 5) is not None  # untouched comm
        assert box.purge(0, {1, 2}) == 0  # idempotent / empty

    def test_iter_and_clear(self):
        box = Mailbox()
        for src in (1, 2, 3):
            box.append(_msg(src, src, float(src)))
        assert {m.src for m in box} == {1, 2, 3}
        box.clear()
        assert len(box) == 0 and list(box) == []
