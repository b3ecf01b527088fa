"""Pregel-style vertex programs (the thesis's closing future-work item).

"We will also explore extending it to applications that use the BSP model
[HMS98], as this model essentially divides the computation from
communication phases as iC2mpi does."

A :class:`VertexProgram` runs as a node function on :class:`ICPlatform`
with sparse activation, which skips exactly the vertices Pregel skips
(halted, no message), and quiescence termination.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Protocol

from ..graphs.graph import Graph
from ..mpi.timing import ORIGIN2000, MachineModel
from ..partitioning.base import Partition
from .compute import ComputeContext, NodeView
from .config import PlatformConfig
from .platform import ICPlatform

__all__ = ["VertexProgram", "VertexContext", "run_vertex_program"]


class VertexContext:
    """Per-vertex API handed to the vertex program each superstep."""

    def __init__(self, gid: int, superstep: int, neighbors: tuple[int, ...]) -> None:
        self.gid = gid
        self.superstep = superstep
        self.neighbors = neighbors
        self._sent: list[Any] = []
        self._halted = False

    def send_to_neighbors(self, payload: Any) -> None:
        """Send ``payload`` along every incident edge.  Next superstep a
        vertex's inbox holds what its neighbours sent, neighbour by
        neighbour in adjacency order, each one's payloads in call order."""
        self._sent.append(payload)

    def vote_to_halt(self) -> None:
        """Become inactive until a message wakes this vertex."""
        self._halted = True


class VertexProgram(Protocol):
    """A Pregel-style vertex program."""

    def initial_value(self, gid: int, graph: Graph) -> Any:
        """Value of ``gid`` before superstep 0."""

    def compute(self, value: Any, inbox: list[Any], ctx: VertexContext) -> Any:
        """One superstep for one vertex; returns the new value."""


class _Vertex(NamedTuple):
    """A vertex as a node value: value, vote, iteration of its last compute (0 = none), sends."""

    value: Any
    halted: bool
    at: int
    sent: tuple[Any, ...]


def run_vertex_program(
    graph: Graph,
    partition: Partition,
    program: VertexProgram,
    max_supersteps: int = 100,
    machine: MachineModel = ORIGIN2000,
    compute_grain: float = 0.0,
    scheduler: str | None = None,
) -> tuple[dict[int, Any], int]:
    """Run ``program`` on ``partition`` (``machine`` model, ``scheduler`` backend)
    for at most ``max_supersteps``, charging ``compute_grain`` seconds per
    ``compute`` call; returns ``(gid -> final value, supersteps executed)``."""

    def node_fn(view: NodeView, ctx: ComputeContext) -> _Vertex:
        vertex, superstep = view.value, view.iteration - 1
        # A neighbour's sends are fresh if it computed in the last iteration.
        inbox = [p for _, nb in view.neighbors if nb.at == superstep for p in nb.sent]
        if vertex.halted and not inbox:
            return vertex  # unchanged, so it wakes none of its neighbours
        vctx = VertexContext(view.global_id, superstep, tuple(gid for gid, _ in view.neighbors))
        if compute_grain:
            ctx.work(compute_grain)
        value = program.compute(vertex.value, inbox, vctx)
        return _Vertex(value, vctx._halted, view.iteration, tuple(vctx._sent))

    # BSP whatever the default: a hybrid superstep recomputes interior vertices.
    config = PlatformConfig(
        iterations=max_supersteps, execution="bsp", activation="sparse", converge="quiescence"
    )
    init = lambda gid: _Vertex(program.initial_value(gid, graph), False, 0, ())
    platform = ICPlatform(graph, node_fn, init_value=init, config=config)
    result = platform.run(partition, machine=machine, scheduler=scheduler)
    # Quiescence shows one iteration after the last superstep that computed.
    steps = result.iterations if result.quiesced_at is None else result.quiesced_at - 1
    return {gid: vertex.value for gid, vertex in result.values.items()}, steps
