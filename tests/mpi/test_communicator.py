"""Tests for point-to-point and collective semantics."""

from __future__ import annotations

import pytest

from repro.mpi import (
    IDEAL,
    ORIGIN2000,
    CommAbortedError,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    run_mpi,
)

#: Both execution backends: the in-thread event scheduler, and process
#: workers whose receives go over the worker pipe to the broker.
BACKENDS = ("event", "process")


def _run(fn, nprocs, **kwargs):
    kwargs.setdefault("machine", IDEAL)
    return run_mpi(fn, nprocs, **kwargs)


class TestPointToPoint:
    def test_send_recv_object(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": [1, 2]}, 1, tag=9)
                return None
            return comm.recv(source=0, tag=9)

        assert _run(fn, 2)[1] == {"a": [1, 2]}

    def test_tag_filtering(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("first", 1, tag=1)
                comm.isend("second", 1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert _run(fn, 2)[1] == ("first", "second")

    def test_invalid_dest_raises(self):
        def fn(comm):
            comm.send("x", 5)

        with pytest.raises(InvalidRankError):
            _run(fn, 2)

    def test_negative_tag_raises(self):
        def fn(comm):
            comm.send("x", 0, tag=-3)

        with pytest.raises(InvalidTagError):
            _run(fn, 2)

    def test_nbytes_override_drives_cost(self):
        from repro.mpi import ORIGIN2000

        def fn(comm):
            if comm.rank == 0:
                comm.send("tiny", 1, nbytes=10**6)
            else:
                comm.recv(source=0)
            return comm.Wtime()

        t0, _ = run_mpi(fn, 2, machine=ORIGIN2000)
        assert t0 == pytest.approx(ORIGIN2000.sender_cpu(10**6))


class TestNonblocking:
    def test_isend_completes_immediately(self):
        def fn(comm):
            if comm.rank == 0:
                return comm.isend("hello", 1).wait()  # never blocks
            return comm.recv(source=0)

        done, payload = _run(fn, 2)
        assert done is None
        assert payload == "hello"

    def test_irecv_wait(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend(123, 1, tag=4)
                return None
            req = comm.irecv(source=0, tag=4)
            return req.wait()

        assert _run(fn, 2)[1] == 123

    def test_irecv_wait_is_idempotent(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("x", 1)
                return None
            req = comm.irecv(source=0)
            return req.wait(), req.wait()

        assert _run(fn, 2)[1] == ("x", "x")

    def test_overlap_hides_transfer_time(self):
        from repro.mpi import MachineModel

        slow = MachineModel(latency=1.0)  # one-second flight time

        def fn(comm):
            if comm.rank == 0:
                comm.isend("bulk", 1)
                return None
            req = comm.irecv(source=0)
            comm.work(2.0)  # compute while in flight
            req.wait()
            return comm.Wtime()

        _, t1 = run_mpi(fn, 2, machine=slow)
        # Transfer (1 s) fully hidden behind the 2 s of compute.
        assert t1 == pytest.approx(2.0 + slow.receiver_cpu(20), rel=0.2)


@pytest.mark.parametrize("scheduler", BACKENDS)
class TestNamedReceives:
    """Every receive names its ``(source, tag)`` stream, on both backends:
    the stream's head is taken in send order, whatever else has arrived."""

    def test_named_receive_waits_for_its_source(self, scheduler):
        def fn(comm):
            if comm.rank == 1:
                comm.work(2.0)
                comm.isend("late", 0, tag=5)
            elif comm.rank == 2:
                comm.isend("early", 0, tag=5)
            else:
                # "early" is there first; the named receive still takes 1's.
                first = comm.recv(source=1, tag=5)
                return first, comm.Wtime(), comm.recv(source=2, tag=5), comm.Wtime()

        assert _run(fn, 3, scheduler=scheduler)[0] == ("late", 2.0, "early", 2.0)

    def test_stream_is_fifo_behind_other_tags(self, scheduler):
        def fn(comm):
            if comm.rank == 0:
                for tag, payload in ((1, "a"), (2, "x"), (1, "b")):
                    comm.isend(payload, 1, tag=tag)
                return None
            return comm.recv(0, tag=1), comm.recv(0, tag=1), comm.recv(0, tag=2)

        assert _run(fn, 2, scheduler=scheduler)[1] == ("a", "b", "x")

    def test_default_tags_pair(self, scheduler):
        """``send(obj, dest)`` and ``recv(source=...)`` meet on tag 0."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("d", 1)
                comm.send("e", 1, tag=0)
                return None
            return comm.recv(source=0), comm.recv(0, tag=0)

        assert _run(fn, 2, scheduler=scheduler)[1] == ("d", "e")

    def test_ring_exchange(self, scheduler):
        def fn(comm):
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            comm.isend(f"from{comm.rank}", right)
            return comm.recv(left)

        assert _run(fn, 5, scheduler=scheduler) == [f"from{(r - 1) % 5}" for r in range(5)]

    def test_send_to_self(self, scheduler):
        def fn(comm):
            comm.isend(comm.rank * 10, comm.rank, tag=3)
            return comm.recv(comm.rank, tag=3)

        assert _run(fn, 3, scheduler=scheduler) == [0, 10, 20]

    def test_irecv_posted_before_the_send(self, scheduler):
        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.isend("late", 1, tag=4)
                comm.barrier()
                return None
            req = comm.irecv(source=0, tag=4)
            comm.barrier()  # now rank 0 sends
            comm.barrier()
            return req.wait()

        assert _run(fn, 2, scheduler=scheduler)[1] == "late"

    def test_irecv_is_matched_at_wait_time(self, scheduler):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("two", 1, tag=2)
                comm.isend("one", 1, tag=1)
                return None
            req = comm.irecv(source=0, tag=1)
            two = comm.recv(source=0, tag=2)
            return req.wait(), two

        assert _run(fn, 2, scheduler=scheduler)[1] == ("one", "two")

    def test_recv_checks_its_source(self, scheduler):
        def fn(comm):
            comm.recv(source=comm.size)

        with pytest.raises(InvalidRankError):
            _run(fn, 2, scheduler=scheduler)

    def test_irecv_checks_its_source_when_posted(self, scheduler):
        def fn(comm):
            comm.irecv(source=-1)

        with pytest.raises(InvalidRankError):
            _run(fn, 2, scheduler=scheduler)

    def test_receive_from_a_silent_source_deadlocks(self, scheduler):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("other tag", 1, tag=2)
                return None
            return comm.recv(source=0, tag=1)

        with pytest.raises((DeadlockError, CommAbortedError)) as excinfo:
            _run(fn, 2, scheduler=scheduler)
        assert "tag=1" in str(excinfo.value)

    def test_receive_charges_arrival_plus_receiver_cpu(self, scheduler):
        def fn(comm):
            if comm.rank == 0:
                comm.work(1.0)
                comm.send(b"12345", 1, tag=7)
            else:
                comm.recv(source=0, tag=7)
            return comm.Wtime()

        t0, t1 = run_mpi(fn, 2, machine=ORIGIN2000, scheduler=scheduler)
        assert t0 == pytest.approx(1.0 + ORIGIN2000.sender_cpu(5))
        assert t1 == pytest.approx(
            t0 + ORIGIN2000.transfer_time(5) + ORIGIN2000.receiver_cpu(5)
        )

    def test_pending_sources_names_the_senders(self, scheduler):
        def fn(comm):
            if comm.rank in (1, 3):
                comm.isend(comm.rank, 0, tag=9)
            comm.barrier()
            if comm.rank != 0:
                return None
            before = comm.pending_sources(9)
            got = [comm.recv(source, tag=9) for source in before]
            return before, got, comm.pending_sources(9)

        assert _run(fn, 4, scheduler=scheduler)[0] == ([1, 3], [1, 3], [])

    def test_shrunk_streams_are_their_own(self, scheduler):
        """A shrunken communicator's receive names a local rank, and the
        parent's message on the same tag stays on the parent's stream."""

        def fn(comm):
            sub = comm.shrink([1], quarantine=False)
            if sub is None:
                return None
            if comm.rank == 3:  # local rank 2 of the survivors
                comm.isend("on-parent", 0, tag=1)
                sub.isend("on-shrunk", 0, tag=1)
                return sub.rank
            if comm.rank == 0:
                return sub.recv(source=2, tag=1), comm.recv(source=3, tag=1)
            return sub.rank

        assert _run(fn, 4, scheduler=scheduler) == [("on-shrunk", "on-parent"), None, 1, 2]

    def test_neighbor_recv_completes_in_the_named_order(self, scheduler):
        def fn(comm):
            if comm.rank != 3:
                comm.work(float(3 - comm.rank))  # rank 0 sends last
                comm.isend(comm.rank, 3, tag=2)
                return None
            seen = []
            got = comm.neighbor_recv((2, 0, 1), 2, each=lambda p: seen.append((p, comm.Wtime())))
            return got, seen

        got, seen = _run(fn, 4, scheduler=scheduler)[3]
        assert got == [2, 0, 1]
        assert seen == [(2, 1.0), (0, 3.0), (1, 3.0)]

    def test_messages_sent_before_a_collective_wait_behind_it(self, scheduler):
        def fn(comm):
            peer = 1 - comm.rank
            comm.isend(f"before-{comm.rank}", peer, tag=0)
            total = comm.allreduce(comm.rank + 1)
            comm.barrier()
            return total, comm.recv(peer)

        assert _run(fn, 2, scheduler=scheduler) == [(3, "before-1"), (3, "before-0")]

    def test_long_stream_keeps_send_order(self, scheduler):
        def fn(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.isend(i, 1, tag=i % 2)
                return None
            odds = [comm.recv(source=0, tag=1) for _ in range(25)]
            return [comm.recv(source=0, tag=0) for _ in range(25)], odds

        evens, odds = _run(fn, 2, scheduler=scheduler)[1]
        assert evens == list(range(0, 50, 2)) and odds == list(range(1, 50, 2))

    def test_quarantine_purges_the_dead_ranks_streams(self, scheduler):
        def fn(comm):
            if comm.rank == 1:
                comm.isend("ghost", 0, tag=1)
                comm.isend("ghost", 0, tag=2)
            elif comm.rank == 2:
                comm.isend("alive", 0, tag=1)
            comm.barrier()
            if comm.rank != 0:
                return None
            purged = comm.quarantine([1])
            return purged, comm.pending_sources(1), comm.pending_sources(2), comm.recv(2, tag=1)

        assert _run(fn, 3, scheduler=scheduler)[0] == (2, [2], [], "alive")


class TestCollectives:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast(self, nprocs, root):
        if root >= nprocs:
            pytest.skip("root outside communicator")

        def fn(comm):
            value = {"data": 42} if comm.rank == root else None
            return comm.bcast(value, root=root)

        assert _run(fn, nprocs) == [{"data": 42}] * nprocs

    @pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
    def test_gather(self, nprocs):
        def fn(comm):
            return comm.gather(comm.rank**2, root=0)

        results = _run(fn, nprocs)
        assert results[0] == [r**2 for r in range(nprocs)]
        assert all(r is None for r in results[1:])

    def test_gather_nonzero_root(self):
        def fn(comm):
            return comm.gather(comm.rank, root=2)

        results = _run(fn, 4)
        assert results[2] == [0, 1, 2, 3]
        assert results[0] is None

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_allgather(self, nprocs):
        def fn(comm):
            return comm.allgather(comm.rank * 2)

        expected = [r * 2 for r in range(nprocs)]
        assert _run(fn, nprocs) == [expected] * nprocs

    @pytest.mark.parametrize("nprocs", [1, 2, 7])
    def test_allreduce(self, nprocs):
        def fn(comm):
            return comm.allreduce(comm.rank)

        total = sum(range(nprocs))
        assert _run(fn, nprocs) == [total] * nprocs

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_alltoall(self, nprocs):
        def fn(comm):
            objs = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(objs)

        results = _run(fn, nprocs)
        for r, received in enumerate(results):
            assert received == [(src, r) for src in range(nprocs)]

    def test_alltoall_wrong_length(self):
        def fn(comm):
            comm.alltoall([1])

        with pytest.raises(ValueError):
            _run(fn, 3)

    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    def test_gather_to_the_last_rank(self, nprocs):
        def fn(comm):
            return comm.gather(-comm.rank, root=comm.size - 1)

        results = _run(fn, nprocs)
        assert results[-1] == [-r for r in range(nprocs)]
        assert results[:-1] == [None] * (nprocs - 1)

    def test_allreduce_custom_op(self):
        def fn(comm):
            return comm.allreduce(comm.rank + 1, op=max)

        assert _run(fn, 6) == [6] * 6

    def test_allreduce_noncommutative_is_rank_ordered(self):
        def fn(comm):
            return comm.allreduce(str(comm.rank), op=lambda a, b: a + b)

        assert _run(fn, 4) == ["0123"] * 4

    def test_alltoall_on_a_shrunk_comm(self):
        def fn(comm):
            sub = comm.shrink([0])
            if sub is None:
                return None
            return sub.alltoall([(comm.rank, dest) for dest in range(sub.size)])

        results = _run(fn, 4)
        assert results[0] is None
        for local, received in enumerate(results[1:]):
            assert received == [(world, local) for world in (1, 2, 3)]

    def test_shrunk_barrier_synchronizes_the_survivors_only(self):
        def fn(comm):
            sub = comm.shrink([3])
            comm.work(float(comm.rank))
            if sub is not None:
                sub.barrier()
            return comm.Wtime()

        assert _run(fn, 4) == [2.0, 2.0, 2.0, 3.0]

    def test_collectives_on_parent_and_shrunk_do_not_cross(self):
        def fn(comm):
            sub = comm.shrink([0])
            a = comm.allreduce(1)
            b = None if sub is None else sub.allgather(comm.rank)
            c = comm.bcast("p" if comm.rank == 0 else None, root=0)
            return a, b, c

        assert _run(fn, 3) == [(3, None, "p"), (3, [1, 2], "p"), (3, [1, 2], "p")]

    def test_collectives_mix_in_sequence(self):
        def fn(comm):
            a = comm.allgather(comm.rank)
            b = comm.alltoall([sum(a) + d for d in range(comm.size)])
            c = comm.gather(b, root=1)
            d = comm.allreduce(sum(b))
            return a, b, c, d

        results = _run(fn, 3)
        b = [[3 + r] * 3 for r in range(3)]
        assert [res[1] for res in results] == b
        assert results[1][2] == b
        assert results[0][2] is None and results[2][2] is None
        assert {res[3] for res in results} == {9 + 12 + 15}
        assert all(res[0] == [0, 1, 2] for res in results)

    def test_consecutive_collectives_do_not_cross(self):
        def fn(comm):
            a = comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
            b = comm.bcast(comm.rank if comm.rank == 1 else None, root=1)
            c = comm.allreduce(1)
            return (a, b, c)

        assert _run(fn, 4) == [(0, 1, 4)] * 4
