"""BSP execution layer (the thesis's closing future-work item).

"We will also explore extending it to applications that use the BSP model
[HMS98], as this model essentially divides the computation from
communication phases as iC2mpi does."

Two levels are provided:

* :func:`run_bsp` -- raw BSPlib-flavoured supersteps over a communicator:
  a step function computes locally and emits addressed messages; the layer
  exchanges them (one combined message per destination rank, like BSPlib's
  message combining) and barriers.

* :class:`VertexProgram` / :func:`run_vertex_program` -- a Pregel-style
  vertex-centric API on top: each graph vertex receives its inbox, updates
  its value, sends messages along edges, and may vote to halt; execution
  stops when every vertex halts and no messages are in flight, or after
  ``max_supersteps``.  Vertices are distributed by a
  :class:`~repro.partitioning.base.Partition`, re-using the platform's
  partitioner plug-ins.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..graphs.graph import Graph
from ..mpi.communicator import Communicator
from ..mpi.runtime import SimCluster
from ..mpi.timing import ORIGIN2000, MachineModel
from ..partitioning.base import Partition

__all__ = ["BspMessage", "run_bsp", "VertexProgram", "VertexContext", "run_vertex_program"]

#: Tag for superstep exchanges.
TAG_BSP = 20

BspMessage = tuple[int, Any]  # (destination rank, payload)

StepFn = Callable[[int, Any, list[Any], "Communicator"], tuple[Any, list[BspMessage], bool]]


def run_bsp(
    comm: Communicator,
    step_fn: StepFn,
    initial_state: Any,
    max_supersteps: int = 1000,
    checkpoint_every: int = 0,
) -> tuple[Any, int]:
    """Run BSP supersteps until global quiescence.

    Args:
        comm: The communicator.
        step_fn: ``(superstep, state, inbox, comm) -> (state, outgoing,
            active)``; ``outgoing`` is a list of ``(dest_rank, payload)``;
            ``active=False`` votes to halt.  Execution ends when every rank
            votes to halt AND no messages were sent in the superstep.
        initial_state: Rank-local starting state.
        max_supersteps: Safety bound.
        checkpoint_every: Snapshot ``(state, inbox)`` every this many
            supersteps (0 = only the pre-superstep-0 baseline).  When the
            cluster carries a :class:`~repro.mpi.faults.FaultPlan` with
            crash events (``iteration`` = 1-based superstep number), the
            loop rolls every rank back to the last snapshot and re-runs --
            the same coordinated recovery the platform layer performs.

    Returns:
        ``(final state, supersteps executed)`` -- the count is the logical
        superstep number, not inflated by crash-forced re-execution.
    """
    state = initial_state
    inbox: list[Any] = []

    fault_state = getattr(comm, "faults", None)
    plan = fault_state.plan if fault_state is not None else None
    has_crashes = plan is not None and bool(plan.crashes)
    snapshot: tuple[int, bytes] | None = None
    if has_crashes or checkpoint_every:
        snapshot = (0, pickle.dumps((state, inbox), protocol=pickle.HIGHEST_PROTOCOL))
    handled_crashes: set[tuple[int, int]] = set()

    superstep = 0
    while superstep < max_supersteps:
        if has_crashes:
            crashes = [
                c
                for c in plan.crashes_at(superstep + 1)
                if (c.rank, c.iteration) not in handled_crashes
            ]
            if crashes:
                for c in crashes:
                    handled_crashes.add((c.rank, c.iteration))
                    if c.rank == comm.rank and fault_state is not None:
                        fault_state.count_crash(comm.rank)
                # Noticing the failure is not free: every rank charges the
                # heartbeat-timeout + agreement-round latency the machine
                # model prices for this world size.
                comm.work(comm.machine.detection_time(comm.size))
                saved_superstep, payload = snapshot
                state, inbox = pickle.loads(payload)
                comm.barrier()
                superstep = saved_superstep
                continue
        state, outgoing, active = step_fn(superstep, state, inbox, comm)
        # Combine per destination (BSPlib-style) and exchange via alltoall,
        # which doubles as the superstep barrier.
        combined: list[list[Any]] = [[] for _ in range(comm.size)]
        for dest, payload in outgoing:
            combined[dest].append(payload)
        arrived = comm.alltoall(combined)
        inbox = [payload for batch in arrived for payload in batch]
        still_going = comm.allreduce(1 if (outgoing or active) else 0) > 0
        if not still_going:
            return state, superstep + 1
        if checkpoint_every and (superstep + 1) % checkpoint_every == 0:
            snapshot = (
                superstep + 1,
                pickle.dumps((state, inbox), protocol=pickle.HIGHEST_PROTOCOL),
            )
        superstep += 1
    return state, max_supersteps


# --------------------------------------------------------------------- #
# Vertex-centric (Pregel-flavoured) layer
# --------------------------------------------------------------------- #


class VertexContext:
    """Per-vertex API handed to the vertex program each superstep."""

    def __init__(self, gid: int, superstep: int, neighbors: tuple[int, ...]) -> None:
        self.gid = gid
        self.superstep = superstep
        self.neighbors = neighbors
        self._outgoing: list[tuple[int, Any]] = []
        self._halted = False

    def send_to(self, target_gid: int, payload: Any) -> None:
        """Queue a message for ``target_gid`` (delivered next superstep)."""
        self._outgoing.append((target_gid, payload))

    def send_to_neighbors(self, payload: Any) -> None:
        """Queue the same message along every incident edge."""
        for v in self.neighbors:
            self._outgoing.append((v, payload))

    def vote_to_halt(self) -> None:
        """Become inactive until a message wakes this vertex."""
        self._halted = True


class VertexProgram(Protocol):
    """A Pregel-style vertex program."""

    def initial_value(self, gid: int, graph: Graph) -> Any:
        """Value of ``gid`` before superstep 0."""
        ...

    def compute(self, value: Any, inbox: list[Any], ctx: VertexContext) -> Any:
        """One superstep for one vertex; returns the new value."""
        ...


@dataclass
class _VertexState:
    value: Any
    halted: bool = False


def run_vertex_program(
    graph: Graph,
    partition: Partition,
    program: VertexProgram,
    max_supersteps: int = 100,
    machine: MachineModel = ORIGIN2000,
    compute_grain: float = 0.0,
    scheduler: str | None = None,
) -> tuple[dict[int, Any], int]:
    """Execute a vertex program over a partitioned graph.

    Args:
        graph: The application graph (messages travel along its edges or to
            arbitrary gids via ``send_to``).
        partition: Vertex-to-rank mapping (any partitioner plug-in output).
        program: The vertex program.
        max_supersteps: Bound on supersteps.
        machine: Virtual-machine cost model.
        compute_grain: Seconds charged per vertex compute call.
        scheduler: Simulated-cluster execution backend (see
            :class:`~repro.mpi.runtime.SimCluster`).

    Returns:
        ``(gid -> final value, supersteps executed)``.
    """
    assignment = partition.assignment

    def rank_main(comm: Communicator):
        owned = [gid for gid in graph.nodes() if assignment[gid - 1] == comm.rank]
        states = {
            gid: _VertexState(program.initial_value(gid, graph)) for gid in owned
        }
        # Sparse inboxes: only vertices with pending messages hold an entry,
        # so the halted-vertex fast path below is a dict-membership test --
        # no per-vertex empty-list churn on supersteps where most of the
        # graph has gone quiet.
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
                for target_gid, payload in ctx._outgoing:
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
