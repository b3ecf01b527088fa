"""Tests for the BSP execution layer and the vertex-centric API."""

from __future__ import annotations

import pytest

from repro.core.bsp import VertexContext, run_bsp, run_vertex_program
from repro.graphs import Graph, cycle_graph, hex32, path_graph
from repro.mpi import IDEAL, SimCluster
from repro.partitioning import MetisLikePartitioner, RoundRobinPartitioner


def run_on_cluster(fn, nprocs):
    return SimCluster(nprocs, machine=IDEAL).run(fn)


class TestRawBsp:
    def test_token_ring(self):
        """Pass a counter around the ring once per superstep; stop at 3 laps."""

        def fn(comm):
            def step(superstep, state, inbox, comm_):
                token = inbox[0] if inbox else (comm_.rank == 0 and 0)
                if inbox or (superstep == 0 and comm_.rank == 0):
                    value = inbox[0] if inbox else 0
                    if value >= 3 * comm_.size:
                        return value, [], False
                    return value, [((comm_.rank + 1) % comm_.size, value + 1)], False
                return state, [], False

            return run_bsp(comm, step, None, max_supersteps=50)

        results = run_on_cluster(fn, 4)
        values = [state for state, _ in results]
        assert max(v for v in values if v is not None and v is not False) >= 11

    def test_halts_when_quiet(self):
        def fn(comm):
            def step(superstep, state, inbox, comm_):
                return "done", [], False  # everyone halts instantly

            return run_bsp(comm, step, "start")

        results = run_on_cluster(fn, 3)
        assert all(state == "done" for state, steps in results)
        assert all(steps <= 2 for _, steps in results)

    def test_max_supersteps_bound(self):
        def fn(comm):
            def step(superstep, state, inbox, comm_):
                return superstep, [(comm_.rank, "ping")], True  # never quiet

            return run_bsp(comm, step, None, max_supersteps=7)

        results = run_on_cluster(fn, 2)
        assert all(steps == 7 for _, steps in results)


class _MaxValueProgram:
    """Classic Pregel example: flood-fill the global maximum vertex value."""

    def initial_value(self, gid: int, graph: Graph) -> int:
        return gid * 7 % 23  # arbitrary but deterministic

    def compute(self, value, inbox, ctx: VertexContext):
        new_value = max([value, *inbox])
        if new_value != value or ctx.superstep == 0:
            ctx.send_to_neighbors(new_value)
        else:
            ctx.vote_to_halt()
        return new_value


class _DistanceProgram:
    """Single-source shortest paths (hop counts) from vertex 1."""

    INF = 10**9

    def initial_value(self, gid: int, graph: Graph) -> int:
        return 0 if gid == 1 else self.INF

    def compute(self, value, inbox, ctx: VertexContext):
        best = min([value, *inbox])
        if best < value or (ctx.superstep == 0 and ctx.gid == 1):
            ctx.send_to_neighbors(best + 1)
            value = best
        else:
            value = best
            ctx.vote_to_halt()
        return value


class TestVertexPrograms:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_max_value_floods(self, nprocs):
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, nprocs)
        values, supersteps = run_vertex_program(
            graph, partition, _MaxValueProgram(), machine=IDEAL
        )
        expected = max(gid * 7 % 23 for gid in graph.nodes())
        assert set(values.values()) == {expected}
        assert supersteps >= 2

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_sssp_hop_counts(self, nprocs):
        graph = path_graph(10)
        partition = RoundRobinPartitioner().partition(graph, nprocs)
        values, _ = run_vertex_program(
            graph, partition, _DistanceProgram(), machine=IDEAL
        )
        assert values == {gid: gid - 1 for gid in graph.nodes()}

    def test_sssp_on_cycle(self):
        graph = cycle_graph(8)
        partition = MetisLikePartitioner(seed=0).partition(graph, 2)
        values, _ = run_vertex_program(
            graph, partition, _DistanceProgram(), machine=IDEAL
        )
        assert values[5] == 4  # opposite side of the ring
        assert values[8] == 1

    def test_partition_choice_is_transparent(self):
        graph = hex32()
        a = run_vertex_program(
            graph,
            MetisLikePartitioner(seed=0).partition(graph, 4),
            _MaxValueProgram(),
            machine=IDEAL,
        )[0]
        b = run_vertex_program(
            graph,
            RoundRobinPartitioner().partition(graph, 3),
            _MaxValueProgram(),
            machine=IDEAL,
        )[0]
        assert a == b

    def test_compute_grain_charges_time(self):
        graph = path_graph(6)
        partition = RoundRobinPartitioner().partition(graph, 2)
        _, steps = run_vertex_program(
            graph, partition, _DistanceProgram(), machine=IDEAL, compute_grain=1e-3
        )
        assert steps > 1  # grain charging must not break convergence

    def test_send_to_arbitrary_vertex(self):
        class PointToPoint:
            def initial_value(self, gid, graph):
                return None

            def compute(self, value, inbox, ctx):
                if ctx.superstep == 0 and ctx.gid == 1:
                    ctx.send_to(6, "hello from 1")
                ctx.vote_to_halt()
                return inbox[0] if inbox else value

        graph = path_graph(6)
        partition = RoundRobinPartitioner().partition(graph, 3)
        values, _ = run_vertex_program(graph, partition, PointToPoint(), machine=IDEAL)
        assert values[6] == "hello from 1"
        assert values[2] is None
