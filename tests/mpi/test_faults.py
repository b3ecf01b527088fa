"""Tests for the deterministic fault-injection subsystem (repro.mpi.faults)."""

from __future__ import annotations

import pytest

from repro.mpi import (
    CrashEvent,
    DelaySpec,
    DropSpec,
    FaultPlan,
    FaultState,
    IDEAL,
    MessageLostError,
    ORIGIN2000,
    RetryPolicy,
    SlowWindow,
    run_mpi,
)


class TestSpecValidation:
    def test_delay_prob_range(self):
        with pytest.raises(ValueError):
            DelaySpec(prob=1.5)
        with pytest.raises(ValueError):
            DelaySpec(prob=-0.1)

    def test_delay_extra_nonnegative(self):
        with pytest.raises(ValueError):
            DelaySpec(prob=0.5, extra=-1e-3)

    def test_drop_prob_range(self):
        with pytest.raises(ValueError):
            DropSpec(prob=2.0)

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)

    def test_retry_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, timeout=1e-3, backoff=2.0)
        assert policy.attempt_timeout(1, base=9.0) == pytest.approx(1e-3)
        assert policy.attempt_timeout(2, base=9.0) == pytest.approx(2e-3)
        assert policy.attempt_timeout(3, base=9.0) == pytest.approx(4e-3)

    def test_retry_timeout_defaults_to_machine_base(self):
        policy = RetryPolicy(backoff=3.0)
        assert policy.attempt_timeout(1, base=0.01) == pytest.approx(0.01)
        assert policy.attempt_timeout(2, base=0.01) == pytest.approx(0.03)

    def test_slow_window_validation(self):
        with pytest.raises(ValueError):
            SlowWindow(rank=-1, factor=2.0)
        with pytest.raises(ValueError):
            SlowWindow(rank=0, factor=0.5)
        with pytest.raises(ValueError):
            SlowWindow(rank=0, factor=2.0, start=1.0, end=1.0)

    def test_slow_window_active_half_open(self):
        w = SlowWindow(rank=0, factor=2.0, start=1.0, end=2.0)
        assert not w.active(0.5)
        assert w.active(1.0)  # start inclusive
        assert w.active(1.999)
        assert not w.active(2.0)  # end exclusive

    def test_slow_window_open_ended(self):
        w = SlowWindow(rank=0, factor=2.0, start=1.0)
        assert w.active(1e9)

    def test_crash_event_validation(self):
        with pytest.raises(ValueError):
            CrashEvent(rank=-1, iteration=1)
        with pytest.raises(ValueError):
            CrashEvent(rank=0, iteration=0)  # iterations are 1-based


class TestPlanParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "seed=42, delay=0.05:0.002, drop=0.01, retry=4:0.001:3.0, "
            "slow=1:2.5:0.0:0.5, crash=2@40, crash=0@7"
        )
        assert plan.seed == 42
        assert plan.delay == DelaySpec(prob=0.05, extra=0.002)
        assert plan.drop == DropSpec(prob=0.01)
        assert plan.retry == RetryPolicy(max_attempts=4, timeout=0.001, backoff=3.0)
        assert plan.slow == (SlowWindow(rank=1, factor=2.5, start=0.0, end=0.5),)
        assert plan.crashes == (
            CrashEvent(rank=2, iteration=40),
            CrashEvent(rank=0, iteration=7),
        )

    def test_defaults(self):
        plan = FaultPlan.parse("delay=0.1")
        assert plan.seed == 0
        assert plan.delay.extra == pytest.approx(1e-3)
        assert plan.drop is None
        assert plan.retry == RetryPolicy()
        assert not plan.crashes

    def test_unknown_clause_rejected(self):
        with pytest.raises(ValueError, match="unknown fault clause"):
            FaultPlan.parse("jitter=0.5")

    def test_not_key_value_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("delay")

    def test_malformed_value_rejected(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse("delay=lots")

    def test_crash_without_at_rejected(self):
        with pytest.raises(ValueError, match="crash"):
            FaultPlan.parse("crash=2")

    def test_slow_needs_rank_and_factor(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("slow=1")

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan.parse("seed=7,delay=0.05,drop=0.01,slow=1:3.0,crash=2@40")
        text = plan.describe()
        assert "seed=7" in text
        assert "delay" in text and "drop" in text
        assert "rank 1 slow" in text
        assert "rank 2 crashes at iteration 40" in text

    def test_queries(self):
        plan = FaultPlan.parse("slow=0:2.0:0.0:1.0,slow=0:3.0:0.5,crash=1@5")
        assert plan.crashes_at(5) == (CrashEvent(rank=1, iteration=5),)
        assert plan.crashes_at(6) == ()
        # overlapping windows multiply
        assert plan.compute_scale(0, 0.25) == pytest.approx(2.0)
        assert plan.compute_scale(0, 0.75) == pytest.approx(6.0)
        assert plan.compute_scale(0, 1.5) == pytest.approx(3.0)
        assert plan.compute_scale(1, 0.75) == pytest.approx(1.0)
        assert plan.perturbs_messages is False
        assert plan.with_overrides(drop=DropSpec(0.5)).perturbs_messages is True

    def test_validate_ranks_rejects_nonexistent_targets(self):
        plan = FaultPlan.parse("seed=1,crash=9@5")
        with pytest.raises(ValueError, match="crash rank 9 out of range"):
            plan.validate_ranks(4)
        slow = FaultPlan.parse("seed=1,slow=4:2.0")
        with pytest.raises(ValueError, match="slow rank 4 out of range"):
            slow.validate_ranks(4)
        FaultPlan.parse("seed=1,crash=3@5,slow=0:2.0").validate_ranks(4)

    def test_cluster_rejects_out_of_range_plan(self):
        plan = FaultPlan.parse("seed=1,crash=9@5")
        with pytest.raises(ValueError, match="out of range"):
            run_mpi(lambda comm: comm.rank, 4, faults=plan)


class TestDelayInjection:
    def test_certain_delay_shifts_arrival(self):
        plan = FaultPlan(seed=1, delay=DelaySpec(prob=1.0, extra=0.5))

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1)
                return None
            comm.recv(source=0)
            return comm.Wtime()

        _, with_delay = run_mpi(fn, 2, machine=IDEAL, faults=plan)
        _, without = run_mpi(fn, 2, machine=IDEAL)
        assert with_delay == pytest.approx(without + 0.5)

    def test_zero_prob_is_noop(self):
        plan = FaultPlan(seed=1, delay=DelaySpec(prob=0.0, extra=0.5))

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1)
                return None
            comm.recv(source=0)
            return comm.Wtime()

        assert run_mpi(fn, 2, faults=plan) == run_mpi(fn, 2)


class TestDropRetry:
    def test_certain_drop_exhausts_retries(self):
        plan = FaultPlan(
            seed=1,
            drop=DropSpec(prob=1.0),
            retry=RetryPolicy(max_attempts=3, timeout=1e-4),
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1)
            else:
                comm.recv(source=0)

        with pytest.raises(MessageLostError):
            run_mpi(fn, 2, faults=plan)

    def test_lossy_link_delivers_in_order(self):
        plan = FaultPlan(
            seed=5,
            drop=DropSpec(prob=0.4),
            retry=RetryPolicy(max_attempts=12, timeout=1e-4),
        )

        def fn(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.isend(i, 1, tag=1)
                return None
            return [comm.recv(source=0, tag=1) for _ in range(50)]

        _, received = run_mpi(fn, 2, faults=plan)
        assert received == list(range(50))

    def test_retries_cost_virtual_time(self):
        lossy = FaultPlan(seed=5, drop=DropSpec(prob=0.4), retry=RetryPolicy(timeout=1e-3))

        def fn(comm):
            if comm.rank == 0:
                for i in range(30):
                    comm.send(i, 1, tag=1)
                return comm.Wtime()
            for _ in range(30):
                comm.recv(source=0, tag=1)
            return comm.Wtime()

        lossy_times = run_mpi(fn, 2, machine=ORIGIN2000, faults=lossy)
        clean_times = run_mpi(fn, 2, machine=ORIGIN2000)
        assert lossy_times[0] > clean_times[0]
        assert lossy_times[1] > clean_times[1]


class TestSlowRanks:
    def test_work_scaled_inside_window(self):
        plan = FaultPlan(slow=(SlowWindow(rank=1, factor=3.0),))

        def fn(comm):
            comm.work(1.0)
            return comm.Wtime()

        assert run_mpi(fn, 2, machine=IDEAL, faults=plan) == [1.0, 3.0]

    def test_window_expires(self):
        plan = FaultPlan(slow=(SlowWindow(rank=0, factor=10.0, start=0.0, end=5.0),))

        def fn(comm):
            comm.work(0.1)  # inside window: charged 1.0
            comm.work(1.0)  # clock 1.0, still inside: charged 10.0
            comm.work(1.0)  # clock 11.0, expired: charged 1.0
            return comm.Wtime()

        assert run_mpi(fn, 1, machine=IDEAL, faults=plan) == [pytest.approx(12.0)]


class TestDeterminismAndReport:
    def test_same_plan_same_clocks(self):
        plan = FaultPlan.parse("seed=9,delay=0.2:0.003,drop=0.1,retry=8:1e-4")

        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for _ in range(20):
                comm.isend(comm.rank, right, tag=3)
                comm.recv(source=left, tag=3)
                comm.work(1e-4)
            return comm.Wtime()

        first = run_mpi(fn, 4, faults=plan)
        for _ in range(3):
            assert run_mpi(fn, 4, faults=plan) == first

    def test_fresh_fault_state_per_run(self):
        """Reusing one cluster must replay identically: run() reseeds."""
        from repro.mpi import SimCluster

        plan = FaultPlan.parse("seed=3,delay=0.5:0.01")
        cluster = SimCluster(2, machine=IDEAL, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1)
                return comm.Wtime()
            for _ in range(10):
                comm.recv(source=0)
            return comm.Wtime()

        assert cluster.run(fn) == cluster.run(fn)

    def test_report_counts(self):
        plan = FaultPlan.parse("seed=9,delay=1.0:0.001")
        state = FaultState(plan, nprocs=2)
        assert state.next_delay(0) == pytest.approx(0.001)
        state.count_message(0)
        state.count_message(1)
        state.count_retry(1)
        state.count_lost(1)
        state.count_crash(0)
        report = state.report()
        assert report.messages == 2
        assert report.delayed == 1
        assert report.retries == 1
        assert report.lost == 1
        assert report.crashes == 1
        assert "2 messages" in report.summary()

    def test_decision_streams_are_per_rank(self):
        plan = FaultPlan(seed=0, drop=DropSpec(prob=0.5))
        a = FaultState(plan, nprocs=2)
        b = FaultState(plan, nprocs=2)
        # rank 1's draws do not depend on how many draws rank 0 made
        for _ in range(10):
            a.next_drop(0)
        assert [a.next_drop(1) for _ in range(20)] == [
            b.next_drop(1) for _ in range(20)
        ]
