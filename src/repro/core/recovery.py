"""Survivor-based shrinking recovery (ULFM-style) for the platform loop.

The rollback policy of :mod:`repro.core.checkpoint` resurrects a crashed
rank and re-runs everyone.  This module implements the alternative a real
deployment usually wants: **keep computing on the survivors**.  When the
failure detector fires, the survivors

1. fetch the dead rank's last checkpoint -- modelled as the dying rank's
   final message to the lowest-ranked survivor (the coordinator), so the
   transfer pays normal alpha-beta cost as if pulled from stable storage;
2. shrink the communicator (:meth:`~repro.mpi.communicator.Communicator.
   shrink`) into a dense re-ranked survivor world and quarantine any
   in-flight traffic from the dead rank;
3. restore their own checkpoints, merge in the dead rank's checkpointed
   partition, and redistribute the lost nodes across survivors with a
   deterministic edge-cut-aware greedy (the same affinity criterion task
   migration uses, applied in bulk);
4. rebuild their :class:`~repro.core.nodestore.NodeStore` from carried-over
   committed values -- the ``repartition_phase`` idiom, which keeps final
   results bit-identical to a fault-free run -- and resume the BSP loop on
   ``nprocs - 1`` ranks.

Every step is a pure function of (checkpoint state, dead set, graph), so
the reconfiguration is identical across host thread schedules; the
schedule-fuzz suite pins this down.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

from ..graphs.graph import Graph
from ..mpi.communicator import Communicator
from .checkpoint import Checkpointer
from .compute import ComputeContext
from .nodestore import NodeStore

__all__ = ["TAG_RECOVERY", "ShrinkOutcome", "redistribute_lost_nodes", "shrink_reconfigure", "send_dying_checkpoint"]

#: Tag for recovery-protocol messages (dead-rank checkpoint hand-off).
TAG_RECOVERY = 3


@dataclass
class ShrinkOutcome:
    """What :func:`shrink_reconfigure` hands back to the platform loop.

    Attributes:
        comm: The dense re-ranked survivor communicator.
        store: The rebuilt node store (owned by the calling rank).
        saved_iteration: Checkpoint iteration everyone rolled back to.
        extras: This rank's checkpointed loop extras (verbatim).
        survivors: Surviving *world* ranks in new-local-rank order.
        nodes_redistributed: Graph nodes reassigned away from dead ranks.
    """

    comm: Communicator
    store: NodeStore
    saved_iteration: int
    extras: dict[str, Any]
    survivors: tuple[int, ...]
    nodes_redistributed: int


def redistribute_lost_nodes(
    graph: Graph,
    assignment: list[int],
    lost_gids: list[int],
    survivor_ranks: list[int],
) -> dict[int, int]:
    """Greedily reassign ``lost_gids`` across ``survivor_ranks``.

    The criterion is the one task migration uses, applied in bulk: place
    each node where it has the most already-placed neighbours (minimizing
    new edge cut), breaking ties toward the least-loaded survivor and then
    the lowest rank.  Nodes are processed in ascending gid order and
    placements feed back into later affinity counts, so the result is a
    pure function of its inputs -- no PRNG, no host-schedule dependence.

    Args:
        graph: The application graph.
        assignment: Current node-to-rank map (1-based gid indexing); values
            for ``lost_gids`` are ignored, survivors' entries must already
            be in the target rank space.  Mutated in place as nodes are
            placed.
        lost_gids: Nodes whose owner died (any order; processed sorted).
        survivor_ranks: Candidate ranks, in the target rank space.

    Returns:
        ``gid -> adopting rank`` for every lost node.
    """
    if not survivor_ranks:
        raise ValueError("cannot redistribute nodes with no survivors")
    lost = set(lost_gids)
    load = {r: 0 for r in survivor_ranks}
    for gid in graph.nodes():
        if gid not in lost and assignment[gid - 1] in load:
            load[assignment[gid - 1]] += 1
    placed: dict[int, int] = {}
    for gid in sorted(lost):
        affinity = {r: 0 for r in survivor_ranks}
        for v in graph.neighbors(gid):
            owner = placed.get(v, assignment[v - 1] if v not in lost else None)
            if owner in affinity:
                affinity[owner] += 1
        best = min(
            survivor_ranks, key=lambda r: (-affinity[r], load[r], r)
        )
        placed[gid] = best
        assignment[gid - 1] = best
        load[best] += 1
    return placed


def send_dying_checkpoint(comm: Communicator, checkpointer: Checkpointer, dead_locals: list[int]) -> None:
    """Dying rank's last act: ship its checkpoint to the coordinator.

    Models the survivors fetching the victim's snapshot from stable
    storage: the payload travels as an ordinary message (paying alpha-beta
    transfer cost for its full serialized size) to the lowest-ranked
    survivor, who later broadcasts it on the shrunken communicator.  Must
    be called *before* the rank returns; the eager-buffered send completes
    immediately, so the dying thread never blocks.
    """
    ck = checkpointer.last
    if ck is None:
        raise RuntimeError("dying rank has no checkpoint to hand off")
    dead = set(dead_locals)
    coordinator = next(r for r in range(comm.size) if r not in dead)
    comm.isend(
        (ck.iteration, ck.payload),
        coordinator,
        tag=TAG_RECOVERY,
        nbytes=ck.nbytes,
    )


def shrink_reconfigure(
    comm: Communicator,
    store: NodeStore,
    ctx: ComputeContext,
    checkpointer: Checkpointer,
    dead_locals: list[int],
) -> ShrinkOutcome:
    """Survivor side of the shrink protocol (collective over survivors).

    Ordering is load-bearing for determinism: the coordinator drains the
    dying ranks' checkpoint messages on the *old* communicator first, the
    shrink itself exchanges nothing, the broadcast of the dead payloads on
    the *new* communicator happens-after that drain for every survivor,
    and only then is the old channel quarantined -- so no survivor can
    purge a checkpoint message the coordinator still needs, regardless of
    host thread interleaving.

    Args:
        comm: The communicator the failure occurred on.
        store: This rank's node store (restored and rebuilt; the shared
            assignment list is remapped into the new dense rank space).
        ctx: Compute context; its ``comm`` is left untouched (the platform
            swaps communicators after charging phase costs).
        checkpointer: Holds this rank's newest snapshot.
        dead_locals: Comm-local ranks that died (all survivors agree).

    Returns:
        A :class:`ShrinkOutcome`; virtual cost of the restore/rebuild has
        been charged to this rank's clock.
    """
    costs = ctx.costs
    dead = sorted(set(dead_locals))
    survivors_old = [r for r in range(comm.size) if r not in set(dead)]

    # ---- 1. coordinator drains the dying ranks' checkpoint hand-off ----
    dead_payloads: list[tuple[int, bytes]] | None = None
    if comm.rank == survivors_old[0]:
        dead_payloads = [
            comm.recv(source=d, tag=TAG_RECOVERY) for d in dead
        ]

    # ---- 2. shrink (pure local derivation) + broadcast the payloads ----
    new_comm = comm.shrink(dead, quarantine=False)
    assert new_comm is not None  # survivors only
    dead_payloads = new_comm.bcast(dead_payloads, root=0)

    # ---- 3. old channel is now safe to quarantine ----------------------
    comm.quarantine(dead)

    # ---- 4. everyone rolls back to the common checkpoint ---------------
    saved_iteration, extras = checkpointer.restore(store)
    comm.work(costs.restore_item_cost * store.num_records())

    # ---- 5. merge the dead partitions into a full value map ------------
    lost_gids: list[int] = []
    dead_values: dict[int, Any] = {}
    for (ck_iteration, payload), d in zip(dead_payloads, dead):
        snap = pickle.loads(payload)["store"]
        if ck_iteration != saved_iteration:
            raise RuntimeError(
                f"dead rank {comm.world_rank_of(d)} checkpointed iteration "
                f"{ck_iteration}, survivors restored {saved_iteration}: "
                "checkpoint schedules diverged"
            )
        for gid, (value, _most_recent, _version) in snap["records"].items():
            if snap["assignment"][gid - 1] == snap["rank"]:
                lost_gids.append(gid)
                dead_values[gid] = value
    all_values = dict(dead_values)
    for chunk in new_comm.allgather(store.owned_values()):
        all_values.update(chunk)

    # ---- 6. remap survivors into the dense rank space, adopt the lost --
    remap = {old: new for new, old in enumerate(survivors_old)}
    new_assignment = [
        remap.get(owner, -1) for owner in store.assignment
    ]
    placed = redistribute_lost_nodes(
        store.graph,
        new_assignment,
        lost_gids,
        list(range(new_comm.size)),
    )

    # ---- 7. rebuild the store from carried-over committed values -------
    store.assignment[:] = new_assignment
    new_store = type(store)(
        new_comm.rank,
        store.graph,
        store.assignment,
        init_value=lambda gid: all_values[gid],
    )
    adopted = sum(1 for r in placed.values() if r == new_comm.rank)
    comm.work(
        costs.init_node_cost * new_store.num_owned()
        + costs.init_shadow_cost * new_store.num_shadows()
        + costs.migrate_item_cost * adopted
    )
    new_comm.barrier()
    return ShrinkOutcome(
        comm=new_comm,
        store=new_store,
        saved_iteration=saved_iteration,
        extras=extras,
        survivors=tuple(comm.world_rank_of(r) for r in survivors_old),
        nodes_redistributed=len(placed),
    )
