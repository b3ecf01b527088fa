"""Tests for the raw BSP workload and the vertex-centric API.

``run_vertex_program`` is a node function over ``ICPlatform.run`` (sparse
activation, quiescence termination).  Its reference is the engine it
replaced: :func:`reference_vertex_program` below, which runs every vertex
program on its own superstep loop over the raw-communicator workload in
``tests/mpi/bsp_workload.py``, kept here verbatim so the suite still has an
independent derivation of Pregel's schedule.  Both must agree on every
value and on the superstep count, on both schedulers.  (A vertex program
has no bulk kernel, so it always runs on the object store.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bsp import VertexContext, run_vertex_program
from repro.graphs import (
    Graph,
    cycle_graph,
    hex32,
    path_graph,
    preferential_attachment,
    random_connected_graph,
)
from repro.mpi import IDEAL, ORIGIN2000, SimCluster
from repro.partitioning import MetisLikePartitioner, RoundRobinPartitioner
from repro.partitioning.base import Partition

from ..mpi.bsp_workload import BspMessage, run_bsp


def run_on_cluster(fn, nprocs):
    return SimCluster(nprocs, machine=IDEAL).run(fn)


class TestRawBsp:
    def test_token_ring(self):
        """Pass a counter around the ring once per superstep; stop at 3 laps."""

        def fn(comm):
            def step(superstep, state, inbox, comm_):
                if inbox or (superstep == 0 and comm_.rank == 0):
                    value = inbox[0] if inbox else 0
                    if value >= 3 * comm_.size:
                        return value, [], False
                    return value, [((comm_.rank + 1) % comm_.size, value + 1)], False
                return state, [], False

            return run_bsp(comm, step, None, max_supersteps=50)

        # Rank r last holds the counter at superstep 8 + r (rank 0 at 12,
        # where it stops); the quiet superstep 12 is the 13th.
        assert run_on_cluster(fn, 4) == [(12, 13), (9, 13), (10, 13), (11, 13)]

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


class _CountDown:
    """Stays active *without sending* while its counter runs down, then
    tells its neighbours the superstep it reached zero, once, and halts;
    the value totals what it heard."""

    def initial_value(self, gid: int, graph: Graph) -> tuple[int, int]:
        return gid % 5, 0

    def compute(self, value, inbox, ctx: VertexContext):
        count, heard = value[0], value[1] + sum(inbox)
        if count > 0:
            return count - 1, heard
        if count == 0:
            ctx.send_to_neighbors(ctx.superstep)
        ctx.vote_to_halt()
        return -1, heard


class _Twice:
    """Max-flood that sends two messages per superstep and counts every
    message it receives, so a lost or repeated payload shows in the value."""

    def initial_value(self, gid: int, graph: Graph) -> tuple[int, int]:
        return gid * 7 % 23, 0

    def compute(self, value, inbox, ctx: VertexContext):
        best, received = max([value[0], *inbox]), value[1] + len(inbox)
        if best != value[0] or ctx.superstep == 0:
            ctx.send_to_neighbors(best)
            ctx.send_to_neighbors(best - 1)
        else:
            ctx.vote_to_halt()
        return best, received


class _Forever:
    """Never halts: runs to ``max_supersteps``, sending every other step."""

    def initial_value(self, gid: int, graph: Graph) -> int:
        return 0

    def compute(self, value, inbox, ctx: VertexContext):
        if ctx.superstep % 2 == 0:
            ctx.send_to_neighbors(ctx.gid)
        return value + sum(inbox)


class _PageRank:
    """``examples/bsp_pagerank.py``'s program: float sums over the inbox."""

    DAMPING, HORIZON = 0.85, 30

    def __init__(self, graph: Graph) -> None:
        self.num_vertices = graph.num_nodes

    def initial_value(self, gid: int, graph: Graph) -> float:
        return 1.0 / self.num_vertices

    def compute(self, value, inbox, ctx: VertexContext):
        if ctx.superstep > 0:
            value = (1 - self.DAMPING) / self.num_vertices + self.DAMPING * sum(inbox)
        if ctx.superstep < self.HORIZON:
            if ctx.neighbors:
                ctx.send_to_neighbors(value / len(ctx.neighbors))
        else:
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


# --------------------------------------------------------------------- #
# The adapter against the engine it replaced
# --------------------------------------------------------------------- #


@dataclass
class _VertexState:
    value: Any
    halted: bool = False


def reference_vertex_program(
    graph: Graph,
    partition: Partition,
    program,
    max_supersteps: int = 100,
    machine=ORIGIN2000,
    compute_grain: float = 0.0,
    scheduler: str | None = None,
) -> tuple[dict[int, Any], int]:
    """``run_vertex_program`` as its own BSP engine, body verbatim but for
    one spot: ``send_to_neighbors`` now records a payload once, so the
    per-edge fan-out it used to queue is spelled out where the messages
    are addressed."""
    assignment = partition.assignment

    def rank_main(comm):
        owned = [gid for gid in graph.nodes() if assignment[gid - 1] == comm.rank]
        states = {
            gid: _VertexState(program.initial_value(gid, graph)) for gid in owned
        }
        inboxes: dict[int, list[Any]] = {}

        def step(superstep, state, rank_inbox, comm_):
            # deliver messages that arrived last superstep
            for gid, payload in rank_inbox:
                inboxes.setdefault(gid, []).append(payload)
                if gid in states:
                    states[gid].halted = False
            outgoing: list[BspMessage] = []
            active = False
            for gid in owned:
                vertex = states[gid]
                if vertex.halted and gid not in inboxes:
                    continue
                inbox = inboxes.pop(gid, [])
                ctx = VertexContext(gid, superstep, graph.neighbors(gid))
                if compute_grain:
                    comm_.work(compute_grain)
                vertex.value = program.compute(vertex.value, inbox, ctx)
                vertex.halted = ctx._halted
                if not ctx._halted:
                    active = True
                for payload in ctx._sent:
                    for target_gid in ctx.neighbors:
                        outgoing.append(
                            (assignment[target_gid - 1], (target_gid, payload))
                        )
            return state, outgoing, active

        _, supersteps = run_bsp(comm, step, None, max_supersteps=max_supersteps)
        return {gid: states[gid].value for gid in owned}, supersteps

    cluster = SimCluster(partition.nparts, machine=machine, scheduler=scheduler)
    results = cluster.run(rank_main)
    values: dict[int, Any] = {}
    supersteps = 0
    for rank_values, rank_steps in results:
        values.update(rank_values)
        supersteps = max(supersteps, rank_steps)
    return values, supersteps


#: Every scheduler the adapter must agree with the reference on.
BACKENDS = ["event", "process"]


def adapter(graph, partition, program, scheduler, **kwargs):
    """``run_vertex_program`` on ``scheduler``."""
    return run_vertex_program(
        graph, partition, program, machine=IDEAL, scheduler=scheduler, **kwargs
    )


PAGERANK_GRAPH = preferential_attachment(100, edges_per_node=2, seed=7)

#: ``(graph, partitioner, program, ranks, supersteps)``: the engine's counts
#: on the suite's and the example's programs.
PINNED = {
    "maxflood-hex32": (hex32(), MetisLikePartitioner(seed=0), _MaxValueProgram(), (1, 2, 4), 7),
    "sssp-path10": (path_graph(10), RoundRobinPartitioner(), _DistanceProgram(), (1, 3), 11),
    "sssp-cycle8": (cycle_graph(8), MetisLikePartitioner(seed=0), _DistanceProgram(), (2,), 6),
    "pagerank": (
        PAGERANK_GRAPH, MetisLikePartitioner(seed=1), _PageRank(PAGERANK_GRAPH), (1, 4, 8), 31
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", PINNED)
def test_adapter_reproduces_the_engine(case, backend):
    graph, partitioner, program, ranks, supersteps = PINNED[case]
    for nprocs in ranks:
        partition = partitioner.partition(graph, nprocs)
        ref_values, ref_steps = reference_vertex_program(graph, partition, program, machine=IDEAL)
        values, steps = adapter(graph, partition, program, backend)
        assert steps == ref_steps == supersteps
        if isinstance(program, _PageRank):
            # Inboxes arrive in adjacency order here, in rank order there:
            # the float sums may differ in the last bits.
            assert values.keys() == ref_values.keys()
            assert all(abs(values[g] - ref_values[g]) < 1e-15 for g in values)
        else:
            assert values == ref_values


def test_adapter_inboxes_do_not_depend_on_the_partition():
    """Adjacency-ordered inboxes: PageRank's float sums are bit-identical at
    every rank count."""
    program = _PageRank(PAGERANK_GRAPH)
    partitions = [MetisLikePartitioner(seed=1).partition(PAGERANK_GRAPH, n) for n in (1, 4, 8)]
    runs = [adapter(PAGERANK_GRAPH, p, program, BACKENDS[0]) for p in partitions]
    assert runs[1] == runs[0] and runs[2] == runs[0]


PROGRAMS = (_MaxValueProgram, _DistanceProgram, _CountDown, _Twice, _Forever)


@st.composite
def vertex_runs(draw):
    """A random connected graph, a random assignment over ``nprocs`` ranks
    plus, half the time, one rank left empty, and a superstep cap (often out
    of reach, so the programs that halt end by quiescence)."""
    num_nodes = draw(st.integers(2, 14))
    degree = draw(st.sampled_from([2.0, 3.0, 4.5]))
    graph = random_connected_graph(num_nodes, avg_degree=degree, seed=draw(st.integers(0, 999)))
    nprocs = draw(st.integers(1, 3))
    assignment = draw(st.lists(st.integers(0, nprocs - 1), min_size=num_nodes, max_size=num_nodes))
    partition = Partition.from_assignment(graph, assignment, nprocs + draw(st.integers(0, 1)))
    return graph, partition, draw(st.just(40) | st.integers(0, 12))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(vertex_runs())
def test_adapter_matches_the_engine_on_random_runs(run):
    graph, partition, cap = run
    for make_program in PROGRAMS:
        program = make_program()
        expected = reference_vertex_program(graph, partition, program, cap, machine=IDEAL)
        for backend in BACKENDS:
            assert adapter(graph, partition, program, backend, max_supersteps=cap) == expected
