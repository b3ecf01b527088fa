"""Task migration (section 4.3 and Appendix C's ``task_migrate``).

A single migration involves three processor roles (Table 1):

* the **busy** processor sends the task: it removes the migrating node from
  its peripheral list (keeping the data record -- the node becomes a shadow
  here), promotes internal neighbours to peripheral, and ships the data of
  the migrating node's neighbours to the idle processor;
* the **idle** processor receives the task: it installs the neighbour data
  in its data node list, adds the node to its peripheral list,
  and may promote peripheral nodes to internal;
* every processor **holding a shadow** of the migrating node updates its
  ``shadow_for_procs`` bookkeeping so future updates flow from the new
  owner.

All ranks keep their own copy of the node-to-processor map (``output_arr``)
and patch it identically, so the roles fall out of local state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mpi.communicator import Communicator
from .compute import ComputeContext
from .loadbalance import BusyIdlePair, LoadBalancer, build_processor_edges
from .nodestore import NodeStore

__all__ = ["MigrationEvent", "select_migrating_node", "migrate_node", "load_balance_phase", "TAG_MIGRATE"]

#: Tag for migration payloads (distinct from the shadow exchange).
TAG_MIGRATE = 2


@dataclass(frozen=True)
class MigrationEvent:
    """Record of one executed migration (for logs and tests)."""

    iteration: int
    global_id: int
    from_proc: int
    to_proc: int


def select_migrating_node(store: NodeStore, to_proc: int) -> int | None:
    """Pick the task to migrate: the candidate minimizing the edge-cut delta.

    Candidates are the busy processor's peripheral nodes that are shadows
    for ``to_proc`` (Appendix C's ``GetMigratingNode``).  For each, the
    score counts neighbours left behind on the busy processor (edges that
    *become* cut) minus neighbours already on ``to_proc`` (edges that stop
    being cut); the minimum wins, ties broken by peripheral-list order.

    Returns None when no candidate exists.
    """
    assignment = store.assignment
    best_gid: int | None = None
    best_score = 0
    for gid, node in store.peripheral.items():
        if to_proc not in node.shadow_for_procs:
            continue
        score = 0
        for v in node.neighboring_nodes:
            owner = assignment[v - 1]
            if owner == store.rank:
                score += 1
            elif owner == to_proc:
                score -= 1
        if best_gid is None or score < best_score:
            best_gid = gid
            best_score = score
    return best_gid


def migrate_node(
    comm: Communicator,
    store: NodeStore,
    gid: int,
    from_proc: int,
    to_proc: int,
    ctx: ComputeContext,
) -> None:
    """Execute one migration; every rank must call this collectively.

    The caller must already have patched ``store.assignment[gid - 1]`` to
    ``to_proc`` on *every* rank (the thesis updates ``output_arr`` before
    ``task_migrate`` runs).
    """
    if store.assignment[gid - 1] != to_proc:
        raise ValueError(
            f"assignment for node {gid} must be patched to {to_proc} before migrating"
        )
    costs = ctx.costs
    if comm.rank == from_proc:
        node = store.release_node(gid)
        payload: list[tuple[int, Any, int]] = []
        for v in node.neighboring_nodes:
            record = store.data_records[v]
            payload.append((v, record.data, record.version))
        # The idle side also needs the migrating node's own latest value --
        # it holds it as a shadow, but ship it anyway so state is exact even
        # mid-window (the thesis relies on the shadow being fresh).  Version
        # counters ride along so the delta exchange stays consistent after
        # the ownership change.
        payload.append((gid, node.data.data, node.data.version))
        ctx._comm_overhead(costs.migrate_fixed_cost + costs.migrate_item_cost * len(payload))
        comm.isend(payload, to_proc, tag=TAG_MIGRATE)
    elif comm.rank == to_proc:
        payload = comm.recv(source=from_proc, tag=TAG_MIGRATE)
        ctx._comm_overhead(costs.migrate_fixed_cost + costs.migrate_item_cost * len(payload))
        neighbor_values = [entry for entry in payload if entry[0] != gid]
        own = next((entry for entry in payload if entry[0] == gid), None)
        if own is not None:
            record = store.ensure_record(gid, own[1], version=own[2])
            record.data = own[1]
        store.adopt_node(gid, neighbor_values)
    # Every rank (including busy/idle) re-derives node kinds and shadow
    # lists from the patched assignment.
    store.refresh_ownership()


def load_balance_phase(
    comm: Communicator,
    store: NodeStore,
    balancer: LoadBalancer,
    exec_time: float,
    ctx: ComputeContext,
    iteration: int,
    max_migrations_per_pair: int = 1,
) -> list[MigrationEvent]:
    """The full periodic load-balancing + task-migration phase.

    1. Rank 0 gathers per-processor execution times (processor-graph node
       weights) and communication buffer sizes (edge weights).
    2. Rank 0 runs the balancer to obtain busy-idle pairs; broadcasts them.
    3. For each pair, the busy processor selects the migrating node
       (minimum edge-cut delta) and broadcasts it; all ranks patch their
       ``output_arr`` copy and execute the migration collectively.

    The thesis executes non-conflicting migrations in parallel and
    serializes the Table-1 conflict cases; on the virtual-time substrate
    each migration's cost is dominated by its own messages, so the
    collective loop reproduces the same accounting.

    Returns the executed migrations (identical on every rank).
    """
    times = comm.gather(exec_time, root=0)
    sizes = comm.gather(store.buffer_sizes(comm.size), root=0)
    pairs: list[BusyIdlePair] | None = None
    if comm.rank == 0:
        assert times is not None and sizes is not None
        edges = build_processor_edges(sizes)
        ctx._comm_overhead(ctx.costs.lb_stat_cost * comm.size)
        pairs = balancer.find_pairs(times, edges)
    pairs = comm.bcast(pairs, root=0)

    events: list[MigrationEvent] = []
    for pair in pairs:
        for _ in range(max_migrations_per_pair):
            gid: int | None = None
            if comm.rank == pair.busy:
                gid = select_migrating_node(store, pair.idle)
            gid = comm.bcast(gid, root=pair.busy)
            if gid is None:
                break
            store.assignment[gid - 1] = pair.idle
            migrate_node(comm, store, gid, pair.busy, pair.idle, ctx)
            events.append(
                MigrationEvent(
                    iteration=iteration,
                    global_id=gid,
                    from_proc=pair.busy,
                    to_proc=pair.idle,
                )
            )
    return events
