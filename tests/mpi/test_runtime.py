"""Tests for the SimCluster runtime: execution, clocks, failures."""

from __future__ import annotations

import pytest

from repro.mpi import (
    CommAbortedError,
    DeadlockError,
    IDEAL,
    ORIGIN2000,
    SimCluster,
    run_mpi,
)


class TestRunBasics:
    def test_single_rank(self):
        assert run_mpi(lambda comm: comm.rank, 1) == [0]

    def test_results_in_rank_order(self):
        assert run_mpi(lambda comm: comm.rank * 10, 5) == [0, 10, 20, 30, 40]

    def test_extra_args_shared(self):
        results = run_mpi(lambda comm, x, y: x + y + comm.rank, 3, 100, 10)
        assert results == [110, 111, 112]

    def test_per_rank_args(self):
        results = run_mpi(
            lambda comm, tag: f"{comm.rank}:{tag}",
            3,
            per_rank_args=[("a",), ("b",), ("c",)],
        )
        assert results == ["0:a", "1:b", "2:c"]

    def test_per_rank_args_wrong_length(self):
        cluster = SimCluster(3)
        with pytest.raises(ValueError):
            cluster.run(lambda comm: None, per_rank_args=[(1,)])

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            SimCluster(0)

    def test_cluster_reports_size(self):
        cluster = SimCluster(4)
        assert cluster.nprocs == 4

    def test_rank_and_size(self):
        results = run_mpi(lambda comm: (comm.rank, comm.size), 3)
        assert results == [(0, 3), (1, 3), (2, 3)]


class TestVirtualClocks:
    def test_work_advances_clock(self):
        def fn(comm):
            assert comm.Wtime() == 0.0
            comm.work(1.5)
            return comm.Wtime()

        assert run_mpi(fn, 2, machine=IDEAL) == [1.5, 1.5]

    def test_work_returns_the_seconds_charged(self):
        def fn(comm):
            return comm.work(0.25), comm.Wtime()

        assert run_mpi(fn, 1, machine=IDEAL) == [(0.25, 0.25)]

    def test_negative_work_rejected(self):
        def fn(comm):
            comm.work(-1.0)

        with pytest.raises(ValueError):
            run_mpi(fn, 1)

    def test_clocks_are_independent(self):
        def fn(comm):
            comm.work(comm.rank * 1.0)
            return comm.Wtime()

        assert run_mpi(fn, 4, machine=IDEAL) == [0.0, 1.0, 2.0, 3.0]

    def test_barrier_synchronizes_to_max(self):
        def fn(comm):
            comm.work(comm.rank * 1.0)
            comm.barrier()
            return comm.Wtime()

        times = run_mpi(fn, 4, machine=IDEAL)
        assert times == [3.0] * 4

    def test_barrier_has_cost_on_real_machine(self):
        def fn(comm):
            comm.barrier()
            return comm.Wtime()

        times = run_mpi(fn, 4, machine=ORIGIN2000)
        expected = ORIGIN2000.barrier_time(4)
        assert all(t == pytest.approx(expected) for t in times)

    def test_repeated_barriers(self):
        def fn(comm):
            for _ in range(5):
                comm.work(0.1)
                comm.barrier()
            return round(comm.Wtime(), 6)

        times = run_mpi(fn, 3, machine=IDEAL)
        assert times == [pytest.approx(0.5)] * 3

    def test_message_costs_charged(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(b"x" * 1000, 1)
            elif comm.rank == 1:
                comm.recv(source=0)
            return comm.Wtime()

        t0, t1 = run_mpi(fn, 2, machine=ORIGIN2000)
        assert t0 == pytest.approx(ORIGIN2000.sender_cpu(1000))
        expected_recv = (
            ORIGIN2000.sender_cpu(1000)
            + ORIGIN2000.transfer_time(1000)
            + ORIGIN2000.receiver_cpu(1000)
        )
        assert t1 == pytest.approx(expected_recv)

    def test_recv_waits_for_arrival_in_virtual_time(self):
        def fn(comm):
            if comm.rank == 0:
                comm.work(5.0)  # send late
                comm.send("late", 1)
            else:
                return comm.recv(source=0), comm.Wtime()

        _, (payload, t1) = run_mpi(fn, 2, machine=IDEAL)
        assert payload == "late"
        assert t1 >= 5.0

    def test_max_clock(self):
        cluster = SimCluster(3, machine=IDEAL)

        def fn(comm):
            comm.work((comm.rank + 1) * 2.0)

        cluster.run(fn)
        assert cluster.max_clock() == pytest.approx(6.0)


class TestFailureHandling:
    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="boom"):
            run_mpi(fn, 3)

    def test_peers_blocked_on_dead_rank_are_aborted_not_hung(self):
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("dead")
            comm.recv(source=0)  # would block forever

        with pytest.raises(ValueError, match="dead"):
            run_mpi(fn, 2)

    def test_deadlock_detected(self):
        def fn(comm):
            # Everyone receives; nobody sends.
            comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises((DeadlockError, CommAbortedError)):
            run_mpi(fn, 2)

    def test_abort_wakes_blocked_ranks(self):
        def fn(comm):
            if comm.rank == 0:
                comm._cluster.abort("manual")  # type: ignore[attr-defined]
                return "aborted"
            comm.recv(source=0)

        with pytest.raises(CommAbortedError):
            run_mpi(fn, 2)


class TestErrorPathConformance:
    """Error paths must carry diagnosable information and release every
    rank -- the deadlock-detection and abort machinery's contract."""

    def test_recv_cycle_deadlock_message_names_the_wait(self):
        """The DeadlockError says who is stuck waiting on what."""

        def fn(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

        with pytest.raises((DeadlockError, CommAbortedError)) as excinfo:
            run_mpi(fn, 3)
        text = str(excinfo.value)
        assert "deadlock" in text
        assert "tag=9" in text

    def test_barrier_deadlock_message_names_the_rank(self):
        def fn(comm):
            if comm.rank == 0:
                return  # exits without entering the barrier
            comm.barrier()

        with pytest.raises((DeadlockError, CommAbortedError)) as excinfo:
            run_mpi(fn, 2)
        assert "barrier" in str(excinfo.value)

    def test_original_exception_type_survives_propagation(self):
        """SimCluster.run re-raises the *original* rank exception, not a
        wrapper -- peers get CommAbortedError, the caller gets the cause."""

        class AppSpecificError(Exception):
            pass

        def fn(comm):
            if comm.rank == 2:
                raise AppSpecificError("rank 2's own failure")
            comm.recv(source=2)  # peers block on the dead rank

        with pytest.raises(AppSpecificError, match="rank 2's own failure"):
            run_mpi(fn, 4)

    def test_abort_reason_names_failed_rank(self):
        cluster = SimCluster(2)

        def fn(comm):
            if comm.rank == 1:
                raise KeyError("lost node")
            comm.recv(source=1)

        with pytest.raises(KeyError):
            cluster.run(fn)
        assert "rank 1" in (cluster._abort_reason or "")
        assert "KeyError" in (cluster._abort_reason or "")

    def test_eager_send_send_cycle_completes(self):
        """A send/send cycle cannot deadlock under eager buffering: sends
        complete locally, each rank then drains its inbox."""

        def fn(comm):
            peer = (comm.rank + 1) % comm.size
            comm.send(comm.rank, peer, tag=4)
            return comm.recv(source=(comm.rank - 1) % comm.size, tag=4)

        assert run_mpi(fn, 4) == [3, 0, 1, 2]

    def test_message_lost_error_reaches_caller(self):
        from repro.mpi import DropSpec, FaultPlan, MessageLostError, RetryPolicy

        plan = FaultPlan(
            seed=0,
            drop=DropSpec(prob=1.0),
            retry=RetryPolicy(max_attempts=2, timeout=1e-4),
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send("doomed", 1)
            else:
                comm.recv(source=0)

        with pytest.raises(MessageLostError):
            run_mpi(fn, 2, faults=plan)

    def test_failed_run_leaves_cluster_reusable(self):
        """After an abort, a fresh run() on the same cluster starts clean."""
        cluster = SimCluster(2)

        def broken(comm):
            if comm.rank == 0:
                raise RuntimeError("first run dies")
            comm.recv(source=0)

        with pytest.raises(RuntimeError):
            cluster.run(broken)

        def healthy(comm):
            comm.barrier()
            return comm.rank

        assert cluster.run(healthy) == [0, 1]

    def test_quarantined_cluster_is_reusable(self):
        """A shrink recovery quarantines ``(comm_id, src)`` pairs so stale
        traffic from dead ranks is dropped; ``run()`` must clear them, or a
        reused cluster silently swallows a reused channel id's messages and
        the receiver hangs."""
        cluster = SimCluster(2)

        def shrink_like(comm):
            if comm.rank == 0:
                # Pretend rank 1 died mid-run: purge its comm-0 traffic.
                cluster.quarantine(0, frozenset({1}), comm_id=0)
            return comm.rank

        assert cluster.run(shrink_like) == [0, 1]

        def exchange(comm):
            if comm.rank == 1:
                comm.send("hello", 0)
                return None
            return comm.recv(source=1)

        assert cluster.run(exchange) == ["hello", None]

    def test_fault_streams_reset_on_reused_cluster(self):
        """Each run() rebuilds the per-rank fault decision streams, so the
        same cluster replays the same plan identically run after run."""
        from repro.mpi import FaultPlan

        cluster = SimCluster(
            2,
            machine=ORIGIN2000,
            faults=FaultPlan.parse("seed=9,flipmsg=0.3"),
            checksums=True,
        )

        def fn(comm):
            if comm.rank == 0:
                for i in range(30):
                    comm.send(float(i), 1, tag=1)
                return comm.Wtime()
            received = [comm.recv(source=0, tag=1) for _ in range(30)]
            return received, comm.Wtime()

        first = cluster.run(fn)
        first_report = cluster.fault_state.report()
        second = cluster.run(fn)
        assert second == first
        assert cluster.fault_state.report() == first_report
        assert first_report.corrupted > 0


class TestDeterminism:
    def test_virtual_times_are_reproducible(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for _ in range(20):
                comm.isend(comm.rank, right, tag=3)
                comm.recv(source=left, tag=3)
                comm.work(1e-4)
            return comm.Wtime()

        first = run_mpi(fn, 6)
        for _ in range(3):
            assert run_mpi(fn, 6) == first

    def test_named_source_fifo_order(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.isend(i, 1, tag=1)
                return None
            return [comm.recv(source=0, tag=1) for _ in range(50)]

        _, received = run_mpi(fn, 2)
        assert received == list(range(50))
