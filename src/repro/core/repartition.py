"""Load-aware repartitioning from scratch (the migration alternative).

Section 4.3 frames the trade-off: "Invoking the initialization phase for
re-partitioning from scratch can be very costly" -- which is why the thesis
migrates single tasks instead.  Section 8 promises a "comprehensive
evaluation of static and dynamic partitioners".  This module implements the
costly alternative so the platform can actually run that comparison:

1. every rank reports the *measured* per-node compute seconds of the last
   window (tracked by :class:`~repro.core.compute.ComputeContext`),
2. rank 0 builds a node-weighted copy of the application graph and runs a
   static partitioner plug-in on it (weights make the partitioner
   load-aware, which the original static partition was not),
3. the new assignment is broadcast, committed values are allgathered, and
   every rank rebuilds its :class:`NodeStore` from scratch -- paying the
   full initialization cost again, exactly the expense the thesis warns
   about.

The rebuild is semantically invisible: committed values are carried over,
so results are bit-identical with and without repartitioning.
"""

from __future__ import annotations

from typing import Any, Callable

from ..graphs.graph import Graph
from ..mpi.communicator import Communicator
from ..partitioning.base import Partitioner
from .compute import ComputeContext
from .nodestore import NodeStore

__all__ = ["measured_node_weights", "repartition_phase"]

#: Weight resolution: measured seconds are quantized to this many buckets
#: relative to the cheapest node (integer weights for the partitioners).
_WEIGHT_SCALE = 20


def measured_node_weights(
    graph: Graph, loads: dict[int, float], default: float | None = None
) -> list[int]:
    """Convert measured per-node seconds into integer partitioner weights.

    Nodes without measurements (e.g. a window with zero grain) get the
    median measured load, or 1 when nothing was measured at all.

    Args:
        graph: The application graph (defines the id range).
        loads: ``gid -> seconds`` merged across ranks.
        default: Load assumed for unmeasured nodes (None = median).
    """
    if not loads:
        return [1] * graph.num_nodes
    values = sorted(loads.values())
    if default is None:
        default = values[len(values) // 2]
    floor = min(values)
    if floor <= 0:
        floor = max(values) or 1.0
    weights = []
    for gid in graph.nodes():
        seconds = loads.get(gid, default)
        weights.append(max(1, round(seconds / floor * _WEIGHT_SCALE / 10)))
    return weights


def repartition_phase(
    comm: Communicator,
    store: NodeStore,
    repartitioner: Partitioner,
    ctx: ComputeContext,
    init_cost_fn: Callable[[NodeStore], float] | None = None,
) -> tuple[NodeStore, bool]:
    """Re-partition from scratch using measured node loads (collective).

    Args:
        comm: World communicator.
        store: The current node store (consumed; a fresh one is returned).
        repartitioner: Static partitioner plug-in to re-run.
        ctx: Compute context carrying the per-node load window.
        init_cost_fn: Optional virtual-cost charge for the rebuild; default
            charges ``init_node_cost``/``init_shadow_cost`` like the
            platform's initialization phase.

    Returns:
        ``(new store, changed)`` -- ``changed`` is False when the new
        assignment equals the old one (store returned unchanged).
    """
    graph = store.graph

    # ---- 1. gather measured loads ------------------------------------
    gathered = comm.gather(ctx.node_loads(), root=0)
    new_assignment: list[int] | None = None
    if comm.rank == 0:
        merged: dict[int, float] = {}
        assert gathered is not None
        for chunk in gathered:
            merged.update(chunk)
        weights = measured_node_weights(graph, merged)
        weighted = graph.with_node_weights(weights)
        partition = repartitioner.partition(weighted, comm.size)
        new_assignment = list(partition.assignment)
    new_assignment = comm.bcast(new_assignment, root=0)
    assert new_assignment is not None

    if new_assignment == store.assignment:
        return store, False

    # ---- 2. carry committed values over (full exchange) ---------------
    own_values = store.owned_values()
    all_values: dict[int, Any] = {}
    for chunk in comm.allgather(own_values):
        all_values.update(chunk)

    # ---- 3. rebuild the store from scratch ----------------------------
    # Mutate the shared assignment list in place so any aliases (the
    # platform hands the same list to the store) stay consistent.
    store.assignment[:] = new_assignment
    new_store = type(store)(
        comm.rank,
        graph,
        store.assignment,
        init_value=lambda gid: all_values[gid],
    )
    if init_cost_fn is not None:
        comm.work(init_cost_fn(new_store))
    else:
        costs = ctx.costs
        comm.work(
            costs.init_node_cost * new_store.num_owned()
            + costs.init_shadow_cost * new_store.num_shadows()
        )
    comm.barrier()
    return new_store, True
