"""Tests for the communication buffers."""

from __future__ import annotations

import pytest

from repro.core import BUFFER_RECORD_TYPE, CommBuffers


def pack(buffers: CommBuffers, proc: int, gid: int, value) -> None:
    """Append one record to ``proc``'s buffer: a sweep of one."""
    buffers.pack_all([(proc, [0], [gid])], [value])


class TestCommBuffers:
    def test_pack_and_iterate(self):
        buffers = CommBuffers(4)
        pack(buffers, 1, 10, 100)
        pack(buffers, 1, 11, 110)
        pack(buffers, 3, 12, 120)
        assert buffers.outgoing(1) == [(10, 100), (11, 110)]
        assert buffers.nonempty_procs() == [1, 3]
        assert buffers.total_records() == 3
        assert dict(iter(buffers)) == {1: [(10, 100), (11, 110)], 3: [(12, 120)]}

    def test_reset(self):
        buffers = CommBuffers(2)
        pack(buffers, 0, 1, 2)
        buffers.reset()
        assert buffers.total_records() == 0
        assert buffers.nonempty_procs() == []

    def test_invalid_proc_rejected(self):
        buffers = CommBuffers(2)
        with pytest.raises(IndexError):
            pack(buffers, 2, 1, 2)
        with pytest.raises(IndexError):
            pack(buffers, -1, 1, 2)

    def test_invalid_nprocs_rejected(self):
        with pytest.raises(ValueError):
            CommBuffers(0)

    def test_int_records_use_committed_struct_size(self):
        buffers = CommBuffers(2)
        pack(buffers, 1, 5, 42)
        pack(buffers, 1, 6, 43)
        assert buffers.nbytes(1) == 2 * BUFFER_RECORD_TYPE.size_of()

    def test_fat_records_use_estimator(self):
        buffers = CommBuffers(2)
        pack(buffers, 1, 5, [1.0] * 10)
        # 4 bytes id + 16 container + 10 floats
        assert buffers.nbytes(1) == 4 + 16 + 80

    def test_record_with_nbytes_attribute(self):
        class Fat:
            nbytes = 1000

        buffers = CommBuffers(2)
        pack(buffers, 0, 1, Fat())
        assert buffers.nbytes(0) == 1004

    def test_empty_buffer_nbytes_zero(self):
        assert CommBuffers(2).nbytes(1) == 0


def _walked_nbytes(records):
    """The wire size as ``nbytes`` used to compute it: a walk at send time."""
    from repro.mpi.datatypes import INT
    from repro.mpi.timing import estimate_nbytes

    total = 0
    for _, value in records:
        if isinstance(value, bool | int):
            total += BUFFER_RECORD_TYPE.size_of()
        else:
            total += INT.size_of() + estimate_nbytes(value)
    return total


class TestRunningWireSize:
    """Packing keeps each buffer's wire size as a running integer sum."""

    def _payloads(self):
        from repro.apps.battlefield.state import Departure, HexState

        fat = HexState(gid=3, red=2.5, blue=1.0, departures=(Departure(4, "red", 0.5),))
        return [7, -1, True, False, 0.25, float("inf"), HexState(gid=1), fat, (1, 2.0), None]

    def test_equals_the_walk_for_every_payload_kind(self):
        buffers = CommBuffers(3)
        for gid, value in enumerate(self._payloads()):
            pack(buffers, gid % 2 + 1, gid, value)
            for q in range(3):
                assert buffers.nbytes(q) == _walked_nbytes(buffers.outgoing(q))
        assert buffers.nbytes(1) > 0 and buffers.nbytes(2) > 0
        buffers.reset()
        assert [buffers.nbytes(q) for q in range(3)] == [0, 0, 0]
        pack(buffers, 2, 9, 0.5)
        assert buffers.nbytes(2) == _walked_nbytes([(9, 0.5)])

    @pytest.mark.parametrize("bulk", [False, True])
    def test_equals_the_walk_after_a_packing_phase(self, bulk):
        """A peripheral sweep packing every peripheral value, computed by
        the looped node function or by the bulk kernel."""
        from repro.apps.average import make_average_fn
        from repro.core import ComputeContext, NodeStore, PlatformCosts, SoAStore
        from repro.core.compute import _PERIPHERAL, _sweep
        from repro.graphs import hex32
        from repro.mpi import IDEAL, run_mpi

        graph = hex32()
        assignment = [gid % 3 for gid in range(32)]

        def fn(comm):
            make_store = SoAStore if bulk else NodeStore
            store = make_store(comm.rank, graph, list(assignment), lambda gid: gid / 4)
            ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
            buffers = CommBuffers(comm.size)
            _sweep(store, make_average_fn(), ctx, buffers, None, _PERIPHERAL)
            assert buffers.total_records() > 0
            return [
                (buffers.nbytes(q), _walked_nbytes(buffers.outgoing(q)))
                for q in range(comm.size)
            ]

        for sizes in run_mpi(fn, 3, machine=IDEAL):
            assert all(running == walked for running, walked in sizes)
            assert any(running for running, _ in sizes)


class TestPackAll:
    """``pack_all`` is a loop of one-record packs, one extend per buffer."""

    def _batches(self):
        from repro.apps.battlefield.state import Departure, HexState

        fat = HexState(gid=3, red=2.5, blue=1.0, departures=(Departure(4, "red", 0.5),))
        return {
            "floats": [0.25, -0.0, float("inf"), 1e308],
            "ints": [7, -1, 2**40],
            "bools": [True, False],
            "none": [None, None],
            "tuples": [(1, 2.0), ()],
            "hexstate": [HexState(gid=1), fat],
            "mixed": [0.5, 3, None, True, (1.0,), fat, 2.0],
            "empty": [],
        }

    @pytest.mark.parametrize(
        "kind", ["floats", "ints", "bools", "none", "tuples", "hexstate", "mixed", "empty"]
    )
    def test_equals_a_loop_of_one_record_packs(self, kind):
        values = self._batches()[kind]
        gids = list(range(10, 10 + len(values)))
        batched, looped = CommBuffers(3), CommBuffers(3)
        for buffers in (batched, looped):
            pack(buffers, 2, 1, 0.5)  # a batch extends what is already there
        # Every record to buffer 2, the odd rows to buffer 1 as well.
        odd = list(range(1, len(values), 2))
        destinations = [(2, list(range(len(values))), gids), (1, odd, [gids[i] for i in odd])]
        batched.pack_all(destinations, values)
        for proc, rows, row_gids in destinations:
            for i, gid in zip(rows, row_gids):
                pack(looped, proc, gid, values[i])
        for q in range(3):
            assert batched.outgoing(q) == looped.outgoing(q)
            assert batched.nbytes(q) == looped.nbytes(q) == _walked_nbytes(looped.outgoing(q))
        assert [type(v) for _, v in batched.outgoing(2)] == [type(v) for _, v in looped.outgoing(2)]

    @pytest.mark.parametrize("proc", [3, -1])
    def test_invalid_proc_rejected_before_appending(self, proc):
        buffers = CommBuffers(3)
        with pytest.raises(IndexError):
            buffers.pack_all([(1, [0], [1]), (proc, [0, 1], [1, 2])], [0.5, 0.25])
        assert buffers.total_records() == 0
        assert [buffers.nbytes(q) for q in range(3)] == [0, 0, 0]

    def test_delta_sweep_packs_like_the_looped_node_function(self):
        """A change-driven peripheral sweep with a mixed pack mask (pinned
        nodes keep their value and are not packed) and nodes shadowed by
        two ranks: the bulk kernel's buffers, record for record, are the
        looped node function's."""
        from repro.apps.diffusion import make_jacobi_fn
        from repro.core import ComputeContext, NodeStore, PlatformCosts, SoAStore
        from repro.core.compute import _PERIPHERAL, Frontier, _sweep
        from repro.graphs import hex32
        from repro.mpi import IDEAL, run_mpi

        graph = hex32()
        assignment = [gid % 3 for gid in range(32)]
        boundary = {gid: gid / 4 for gid in graph.nodes() if gid % 4 == 0}
        node_fn = make_jacobi_fn(boundary)

        def fn(comm):
            out = []
            for make_store in (NodeStore, SoAStore):
                store = make_store(comm.rank, graph, list(assignment), lambda gid: gid / 4)
                ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
                buffers = CommBuffers(comm.size)
                _sweep(store, node_fn, ctx, buffers, Frontier(1), _PERIPHERAL)
                out.append([(buffers.outgoing(q), buffers.nbytes(q)) for q in range(comm.size)])
            looped, bulk = out
            assert bulk == looped
            packed = {gid for records, _ in bulk for gid, _ in records}
            periph = {gid for gid, _ in store.peripherals()}
            multi = {gid for gid, procs in store.peripherals() if len(procs) > 1}
            return packed < periph and bool(packed & multi)

        assert all(run_mpi(fn, 3, machine=IDEAL))
