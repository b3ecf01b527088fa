"""Tests for point-to-point and collective semantics."""

from __future__ import annotations

import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    IDEAL,
    InvalidRankError,
    InvalidTagError,
    Status,
    run_mpi,
)


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

    def test_any_tag_takes_first(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("x", 1, tag=42)
                return None
            status = Status()
            payload = comm.recv(source=0, tag=ANY_TAG, status=status)
            return payload, status.tag

        assert _run(fn, 2)[1] == ("x", 42)

    def test_any_source_earliest_virtual_arrival_wins(self):
        def fn(comm):
            if comm.rank == 1:
                comm.work(2.0)
                comm.isend("late", 0, tag=5)
            elif comm.rank == 2:
                comm.isend("early", 0, tag=5)
            # Real-time rendezvous: both messages are in the mailbox before
            # rank 0 receives, so selection is by *virtual* arrival time.
            comm.barrier()
            if comm.rank == 0:
                status = Status()
                payload = comm.recv(source=ANY_SOURCE, tag=5, status=status)
                return payload, status.source

        results = _run(fn, 3)
        assert results[0] == ("early", 2)

    def test_status_fields(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(b"12345", 1, tag=7)
                return None
            status = Status()
            comm.recv(source=0, tag=7, status=status)
            return (status.source, status.tag, status.nbytes)

        assert _run(fn, 2)[1] == (0, 7, 5)

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

    def test_sendrecv(self):
        def fn(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(f"from{comm.rank}", peer, source=peer)

        assert _run(fn, 2) == ["from1", "from0"]

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
                req = comm.isend("hello", 1)
                done, _ = req.test()
                return done
            return comm.recv(source=0)

        done, payload = _run(fn, 2)
        assert done is True
        assert payload == "hello"

    def test_irecv_wait(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend(123, 1, tag=4)
                return None
            req = comm.irecv(source=0, tag=4)
            return req.wait()

        assert _run(fn, 2)[1] == 123

    def test_irecv_test_polls(self):
        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.isend("late", 1, tag=4)
                comm.barrier()
                return None
            req = comm.irecv(source=0, tag=4)
            done_before, _ = req.test()
            comm.barrier()  # now rank 0 sends
            comm.barrier()
            done_after, payload = req.test()
            return done_before, done_after, payload

        result = _run(fn, 2)[1]
        assert result == (False, True, "late")

    def test_irecv_wait_is_idempotent(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("x", 1)
                return None
            req = comm.irecv(source=0)
            return req.wait(), req.wait()

        assert _run(fn, 2)[1] == ("x", "x")

    def test_irecv_cancel(self):
        def fn(comm):
            req = comm.irecv(source=1 - comm.rank, tag=99)
            req.cancel()
            comm.barrier()
            return req.wait()

        assert _run(fn, 2) == [None, None]

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


class TestProbe:
    def test_probe_does_not_consume(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("keep", 1, tag=6)
                return None
            status = comm.probe(source=0, tag=6)
            payload = comm.recv(source=0, tag=6)
            return status.source, payload

        assert _run(fn, 2)[1] == (0, "keep")

    def test_iprobe(self):
        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
                return None
            before = comm.iprobe(source=0)
            comm.barrier()
            return before

        # rank 1 probes before rank 0 has sent anything: must be False
        assert _run(fn, 2)[1] is False

    def test_probe_preserves_fifo(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend("a", 1, tag=1)
                comm.isend("b", 1, tag=1)
                return None
            comm.probe(source=0, tag=1)
            return comm.recv(source=0, tag=1), comm.recv(source=0, tag=1)

        assert _run(fn, 2)[1] == ("a", "b")


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

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 6])
    def test_scatter(self, nprocs):
        def fn(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert _run(fn, nprocs) == [f"item{i}" for i in range(nprocs)]

    def test_scatter_wrong_length(self):
        def fn(comm):
            comm.scatter([1], root=0)

        with pytest.raises(ValueError):
            _run(fn, 2)

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_allgather(self, nprocs):
        def fn(comm):
            return comm.allgather(comm.rank * 2)

        expected = [r * 2 for r in range(nprocs)]
        assert _run(fn, nprocs) == [expected] * nprocs

    def test_reduce_default_sum(self):
        def fn(comm):
            return comm.reduce(comm.rank + 1, root=0)

        results = _run(fn, 5)
        assert results[0] == 15
        assert results[1] is None

    def test_reduce_custom_op(self):
        def fn(comm):
            return comm.reduce(comm.rank + 1, op=max, root=0)

        assert _run(fn, 6)[0] == 6

    def test_reduce_noncommutative_is_rank_ordered(self):
        def fn(comm):
            return comm.reduce(str(comm.rank), op=lambda a, b: a + b, root=0)

        assert _run(fn, 4)[0] == "0123"

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

    def test_consecutive_collectives_do_not_cross(self):
        def fn(comm):
            a = comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
            b = comm.bcast(comm.rank if comm.rank == 1 else None, root=1)
            c = comm.allreduce(1)
            return (a, b, c)

        assert _run(fn, 4) == [(0, 1, 4)] * 4


class TestCommManagement:
    def test_dup_isolates_traffic(self):
        def fn(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.isend("on-parent", 1, tag=1)
                dup.isend("on-dup", 1, tag=1)
                return None
            got_dup = dup.recv(source=0, tag=1)
            got_parent = comm.recv(source=0, tag=1)
            return got_parent, got_dup

        assert _run(fn, 2)[1] == ("on-parent", "on-dup")

    def test_split_groups(self):
        def fn(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            return (color, sub.rank, sub.size, sub.allreduce(comm.rank))

        results = _run(fn, 4)
        # evens: ranks 0,2 -> sum 2; odds: 1,3 -> sum 4
        assert results[0] == (0, 0, 2, 2)
        assert results[2] == (0, 1, 2, 2)
        assert results[1] == (1, 0, 2, 4)
        assert results[3] == (1, 1, 2, 4)

    def test_split_none_color(self):
        def fn(comm):
            sub = comm.split(0 if comm.rank == 0 else None)
            return sub if sub is None else sub.size

        results = _run(fn, 3)
        assert results == [1, None, None]

    def test_split_key_reorders(self):
        def fn(comm):
            sub = comm.split(0, key=-comm.rank)  # reverse order
            return sub.rank

        assert _run(fn, 3) == [2, 1, 0]

    def test_split_barrier_works_in_subgroup(self):
        def fn(comm):
            sub = comm.split(comm.rank % 2)
            sub.work(float(comm.rank))
            sub.barrier()
            return sub.Wtime()

        times = _run(fn, 4)
        assert times[0] == times[2] == pytest.approx(2.0)
        assert times[1] == times[3] == pytest.approx(3.0)


class TestPrefixCollectives:
    @pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
    def test_scan_sum(self, nprocs):
        def fn(comm):
            return comm.scan(comm.rank + 1)

        results = _run(fn, nprocs)
        expected = [sum(range(1, r + 2)) for r in range(nprocs)]
        assert results == expected

    def test_scan_noncommutative(self):
        def fn(comm):
            return comm.scan(str(comm.rank), op=lambda a, b: a + b)

        assert _run(fn, 4) == ["0", "01", "012", "0123"]

    @pytest.mark.parametrize("nprocs", [1, 3, 6])
    def test_exscan(self, nprocs):
        def fn(comm):
            return comm.exscan(comm.rank + 1)

        results = _run(fn, nprocs)
        assert results[0] is None
        for r in range(1, nprocs):
            assert results[r] == sum(range(1, r + 1))

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_reduce_scatter(self, nprocs):
        def fn(comm):
            # rank s contributes s*10 + d for destination d
            objs = [comm.rank * 10 + d for d in range(comm.size)]
            return comm.reduce_scatter(objs)

        results = _run(fn, nprocs)
        for d in range(nprocs):
            expected = sum(s * 10 + d for s in range(nprocs))
            assert results[d] == expected

    def test_reduce_scatter_wrong_length(self):
        def fn(comm):
            comm.reduce_scatter([1])

        with pytest.raises(ValueError):
            _run(fn, 3)

    def test_scan_mixes_with_other_collectives(self):
        def fn(comm):
            a = comm.scan(1)
            b = comm.allreduce(a)
            c = comm.exscan(b)
            return (a, b, c)

        results = _run(fn, 3)
        # scan: 1,2,3 ; allreduce: 6 everywhere ; exscan of 6: None,6,12
        assert results == [(1, 6, None), (2, 6, 6), (3, 6, 12)]
