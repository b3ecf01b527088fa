"""Tests for the compute/communicate superstep (Figures 8 and 8a)."""

from __future__ import annotations

import pytest

from repro.core import (
    CommBuffers,
    ComputeContext,
    NodeStore,
    NodeView,
    PlatformCosts,
    superstep,
)
from repro.graphs import Graph, hex32
from repro.mpi import IDEAL, run_mpi


def sequential_average(graph: Graph, iterations: int) -> dict[int, float]:
    """Reference: synchronous neighbour-average with init value = gid."""
    values = {gid: float(gid) for gid in graph.nodes()}
    for _ in range(iterations):
        values = {
            gid: (values[gid] + sum(values[v] for v in graph.neighbors(gid)))
            / (1 + graph.degree(gid))
            for gid in graph.nodes()
        }
    return values


def average_fn(node: NodeView, ctx: ComputeContext) -> float:
    vals = [node.value, *node.neighbor_values()]
    return sum(vals) / len(vals)


def run_sweeps(graph, assignment, nprocs, iterations, overlap):
    def fn(comm):
        store = NodeStore(comm.rank, graph, list(assignment), lambda gid: float(gid))
        ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
        buffers = CommBuffers(comm.size)
        for i in range(1, iterations + 1):
            ctx.iteration = i
            superstep(comm, store, average_fn, ctx, buffers, overlap=overlap)
        return store.owned_values()

    results = run_mpi(fn, nprocs, machine=IDEAL)
    merged: dict[int, float] = {}
    for r in results:
        merged.update(r)
    return merged


class TestSweepCorrectness:
    # The ids are the two orders' historical names (test ids are pinned).
    @pytest.mark.parametrize(
        "overlap",
        [pytest.param(False, id="sweep_basic"), pytest.param(True, id="sweep_overlapped")],
    )
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
    def test_matches_sequential_reference(self, overlap, nprocs):
        graph = hex32()
        assignment = [gid % nprocs for gid in range(32)]
        parallel = run_sweeps(graph, assignment, nprocs, 5, overlap)
        expected = sequential_average(graph, 5)
        assert parallel.keys() == expected.keys()
        for gid in expected:
            assert parallel[gid] == pytest.approx(expected[gid], abs=1e-12)

    def test_basic_and_overlapped_agree_exactly(self):
        graph = hex32()
        assignment = [gid % 4 for gid in range(32)]
        basic = run_sweeps(graph, assignment, 4, 7, overlap=False)
        overlapped = run_sweeps(graph, assignment, 4, 7, overlap=True)
        assert basic == overlapped

    def test_empty_rank_participates_without_deadlock(self):
        graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assignment = [0, 0, 1, 1]
        merged = run_sweeps(graph, assignment, 3, 3, overlap=False)  # rank 2 idle
        assert set(merged) == {1, 2, 3, 4}


class TestOverlapPerformance:
    def test_overlapped_is_not_slower(self):
        """Figure 8a exists to hide communication latency: on a machine with
        real latency, the overlapped pipeline must not be slower."""
        from repro.mpi import MachineModel

        machine = MachineModel(latency=500e-6)
        graph = hex32()
        assignment = [gid % 4 for gid in range(32)]

        def runner(overlap):
            def fn(comm):
                store = NodeStore(
                    comm.rank, graph, list(assignment), lambda gid: float(gid)
                )
                ctx = ComputeContext(comm, PlatformCosts(), 32)
                buffers = CommBuffers(comm.size)
                for i in range(1, 11):
                    ctx.iteration = i
                    ctx.work(2e-3)  # internal compute to hide latency behind
                    superstep(comm, store, average_fn, ctx, buffers, overlap=overlap)
                comm.barrier()
                return comm.Wtime()

            return max(run_mpi(fn, 4, machine=machine))

        assert runner(overlap=True) <= runner(overlap=False)


class TestContextAccounting:
    def test_work_counts_into_compute_bucket(self):
        graph = Graph.from_edges(2, [(1, 2)])

        def fn(comm):
            store = NodeStore(comm.rank, graph, [0, 0], lambda gid: gid)
            ctx = ComputeContext(comm, PlatformCosts(), 2)
            ctx.work(0.5)
            return ctx.compute_time, ctx.comm_overhead_time

        assert run_mpi(fn, 1, machine=IDEAL)[0] == (0.5, 0.0)

    def test_pack_unpack_count_into_comm_overhead(self):
        graph = Graph.from_edges(2, [(1, 2)])
        assignment = [0, 1]

        def fn(comm):
            store = NodeStore(comm.rank, graph, list(assignment), lambda gid: gid)
            ctx = ComputeContext(comm, PlatformCosts(), 2)
            buffers = CommBuffers(2)
            superstep(comm, store, average_fn, ctx, buffers)
            return ctx.comm_overhead_time

        overheads = run_mpi(fn, 2, machine=IDEAL)
        assert all(o > 0 for o in overheads)

    def test_bookkeeping_counter_tracks_charges(self):
        graph = hex32()
        assignment = [0] * 32

        def fn(comm):
            store = NodeStore(comm.rank, graph, list(assignment), lambda gid: gid)
            ctx = ComputeContext(comm, PlatformCosts(), 32)
            buffers = CommBuffers(1)
            superstep(comm, store, average_fn, ctx, buffers)
            return ctx.bookkeeping_time, comm.Wtime()

        book, wtime = run_mpi(fn, 1, machine=IDEAL)[0]
        assert book > 0
        assert book == pytest.approx(wtime)  # no grain, no comm on 1 rank

    def test_context_exposes_rank_and_size(self):
        graph = Graph.from_edges(2, [(1, 2)])

        def fn(comm):
            ctx = ComputeContext(comm, PlatformCosts(), 2)
            return ctx.rank, ctx.nprocs

        assert run_mpi(fn, 3, machine=IDEAL) == [(0, 3), (1, 3), (2, 3)]

    def test_node_view_helpers(self):
        view = NodeView(
            global_id=1, value=10.0, neighbors=((2, 20.0), (3, 30.0)), iteration=4
        )
        assert view.neighbor_values() == [20.0, 30.0]
        assert view.iteration == 4
        assert view.round == 0
