"""Tests for the heartbeat failure detector and communicator shrinking."""

from __future__ import annotations

from math import ceil, log2

import pytest

from repro.mpi import (
    IDEAL,
    ORIGIN2000,
    DetectedFailure,
    FailureDetector,
    ShrinkError,
    run_mpi,
)
from repro.mpi.faults import FaultPlan


def _run(fn, nprocs, **kwargs):
    kwargs.setdefault("machine", IDEAL)
    return run_mpi(fn, nprocs, **kwargs)


class TestDetectionTime:
    def test_timeout_plus_agreement_rounds(self):
        m = ORIGIN2000
        timeout = m.heartbeat_interval * m.heartbeat_miss
        # ceil(log2 2) == 1, so two processes pay exactly one round.
        per_round = m.detection_time(2) - timeout
        assert per_round > 0
        for p in (2, 3, 4, 8):
            expected = timeout + ceil(log2(p)) * per_round
            assert m.detection_time(p) == pytest.approx(expected)

    def test_single_process_is_just_the_timeout(self):
        m = ORIGIN2000
        assert m.detection_time(1) == m.heartbeat_interval * m.heartbeat_miss

    def test_monotone_in_world_size(self):
        m = ORIGIN2000
        times = [m.detection_time(p) for p in (1, 2, 4, 8, 16)]
        assert times == sorted(times)

    def test_ideal_machine_detects_for_free(self):
        assert IDEAL.detection_time(8) == 0.0


class TestFailureDetector:
    def test_no_plan_never_fires(self):
        det = FailureDetector(None, ORIGIN2000, 4)
        assert det.poll(1) is None
        assert det.dead_ranks == frozenset()

    def test_detects_crash_at_its_iteration(self):
        plan = FaultPlan.parse("seed=1,crash=2@5")
        det = FailureDetector(plan, ORIGIN2000, 4)
        assert det.poll(4) is None
        failure = det.poll(5)
        assert isinstance(failure, DetectedFailure)
        assert failure.iteration == 5
        assert [e.rank for e in failure.events] == [2]
        # Priced for the post-crash world of 3 survivors.
        assert failure.detection_cost == ORIGIN2000.detection_time(3)
        assert det.dead_ranks == frozenset({2})

    def test_each_crash_reported_once(self):
        plan = FaultPlan.parse("seed=1,crash=2@5")
        det = FailureDetector(plan, ORIGIN2000, 4)
        assert det.poll(5) is not None
        assert det.poll(5) is None
        assert det.poll(6) is None

    def test_simultaneous_crashes_sorted_by_rank(self):
        plan = FaultPlan.parse("seed=1,crash=3@5,crash=1@5")
        det = FailureDetector(plan, ORIGIN2000, 4)
        failure = det.poll(5)
        assert [e.rank for e in failure.events] == [1, 3]
        assert det.dead_ranks == frozenset({1, 3})


class TestShrink:
    def test_survivors_get_dense_reranked_comm(self):
        def fn(comm):
            new = comm.shrink([1])
            if comm.rank == 1:
                return ("dead", new)
            return ("alive", new.rank, new.size, new.group)

        results = _run(fn, 3)
        assert results[1] == ("dead", None)
        assert results[0] == ("alive", 0, 2, (0, 2))
        assert results[2] == ("alive", 1, 2, (0, 2))

    def test_shrunken_comm_communicates(self):
        def fn(comm):
            new = comm.shrink([0])
            if new is None:
                return None
            return new.allreduce(new.rank)

        results = _run(fn, 4)
        assert results[1:] == [3, 3, 3]

    def test_every_survivor_derives_same_channel(self):
        def fn(comm):
            new = comm.shrink([2])
            if new is None:
                return None
            # A collective on the new communicator only works if all
            # survivors derived the identical comm_id.
            return new.bcast("hello" if new.rank == 0 else None, root=0)

        assert _run(fn, 4) == ["hello", "hello", None, "hello"]

    def test_quarantine_purges_in_flight_from_dead(self):
        def fn(comm):
            if comm.rank == 1:
                comm.isend("ghost", 0, tag=7)
                return comm.shrink([1])
            new = comm.shrink([1])
            if comm.rank == 0:
                # The dead rank's message is gone from the old channel.
                assert comm.pending_sources(7) == []
            return new.size

        results = _run(fn, 3)
        assert results[0] == 2 and results[2] == 2

    def test_world_and_local_rank_mapping(self):
        def fn(comm):
            new = comm.shrink([0, 2])
            if new is None:
                return None
            return (
                new.world_rank_of(new.rank),
                new.local_rank_of(comm.rank),  # old local == world at depth 0
                new.local_rank_of(0),
            )

        results = _run(fn, 4)
        assert results[1] == (1, 0, None)
        assert results[3] == (3, 1, None)

    def test_invalid_dead_sets_rejected(self):
        def fn(comm):
            for bad in ([], [comm.size], list(range(comm.size))):
                try:
                    comm.shrink(bad)
                except ShrinkError:
                    continue
                return f"no error for {bad}"
            return "ok"

        assert _run(fn, 2) == ["ok", "ok"]
