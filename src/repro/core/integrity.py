"""Silent-corruption detection and surgical repair for the platform loop.

PRs 1-2 made the platform robust to *fail-stop* faults; this module covers
*transient* faults: a bit flip in a committed node value between supersteps
(:class:`~repro.mpi.faults.MemoryFlipEvent`).  The protection is layered:

* **Per-superstep partition digests.**  At the end of every iteration each
  rank digests each owned node's committed value
  (:func:`~repro.mpi.faults.state_digest`); at the start of the next
  iteration it re-digests and diffs.  Committed values are immutable
  between a commit and the next sweep, so any mismatch *is* corruption --
  detection reads the memory, never the fault plan.  Detected claims are
  folded into a small collective exchange (the existing barrier/allreduce
  point of the loop), so every rank reaches the same recovery decision.
* **Shadow-node replicas.**  A *boundary* (peripheral) node's committed
  value is already mirrored on every neighbor rank at the start of an
  iteration -- the shadow exchange shipped exactly that value last sweep.
  Those mirrors act as authoritative replicas: when the corruption is
  caught before any sweep consumed it, the owner re-fetches the value
  point-to-point from the lowest-ranked replica holder and the run
  continues -- no rollback, no wasted work.
* **Checkpoint rollback fallback.**  Interior nodes have no replica, and a
  claim detected late (``integrity_period > 1``) has already contaminated
  downstream state; both fall back to the PR-1 checkpoint machinery,
  discarding snapshots taken since the injection so the restore point is
  guaranteed clean (:meth:`~repro.core.checkpoint.Checkpointer.
  discard_since`).

All costs are priced in virtual time through the machine model's
``digest_time`` / ``repair_time`` terms plus the ordinary message costs of
the claim exchange and the replica fetch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mpi.communicator import Communicator
from ..mpi.faults import FaultState, corrupt_value, state_digest
from ..mpi.timing import estimate_nbytes
from .nodestore import NodeStore

__all__ = [
    "TAG_INTEGRITY",
    "CorruptionClaim",
    "IntegrityDecision",
    "IntegrityGuard",
    "inject_memory_flips",
]

#: Message tag reserved for replica-repair fetches.
TAG_INTEGRITY = 4


def inject_memory_flips(
    store: NodeStore,
    fault_state: FaultState,
    world_rank: int,
    iteration: int,
    applied: set[tuple[int, int, int | None]],
) -> list[int]:
    """Apply this rank's scheduled memory flips for ``iteration``.

    Only the owning rank mutates anything: the flip corrupts the node's
    *committed* value in place, bypassing the commit path -- exactly what an
    undetected memory upset between supersteps would do.  Events already in
    ``applied`` are skipped (a rollback must not re-fire the same flip), and
    an event whose explicit node is not owned here (it migrated away) is a
    no-op.

    Returns:
        Global ids corrupted on this rank, in the order applied.
    """
    flipped: list[int] = []
    for event in fault_state.plan.flips_at(iteration, world_rank):
        key = (event.rank, event.iteration, event.node)
        if key in applied:
            continue
        applied.add(key)
        if event.node is not None:
            if not store.owns(event.node):
                continue
            gid = event.node
        else:
            owned = store.owned_gids()
            if not owned:
                continue
            gid = min(owned)
        record = store.data_records[gid]
        record.data = corrupt_value(record.data, iteration * 31 + gid)
        fault_state.count_flip(world_rank)
        flipped.append(gid)
    return flipped


@dataclass(frozen=True)
class CorruptionClaim:
    """One corrupted node, as claimed by its owner in the digest exchange.

    Attributes:
        owner: Communicator-local rank owning the corrupted node.
        gid: Global id of the corrupted node.
        flip_iteration: Iteration at whose start the owner first saw the
            digest mismatch (== the injection iteration: committed values
            cannot legitimately change between the reference digest and the
            re-check).
        holders: Communicator-local ranks holding this node as a shadow
            (its replica set); empty for interior nodes.
    """

    owner: int
    gid: int
    flip_iteration: int
    holders: tuple[int, ...]


@dataclass(frozen=True)
class IntegrityDecision:
    """The collective verdict of one claim exchange.

    Every rank derives the same decision from the same (allgathered)
    claims, so repair and rollback stay collective and deterministic.

    Attributes:
        iteration: Iteration at whose start the exchange ran.
        claims: All ranks' claims, in (owner, gid) order.
        repair: True when every claim is surgically repairable: caught the
            superstep it was injected (nothing consumed it yet), a replica
            exists, and replica repair is enabled.
        min_flip_iteration: Earliest injection among the claims -- the
            rollback path must restore a checkpoint older than this.
    """

    iteration: int
    claims: tuple[CorruptionClaim, ...]
    repair: bool
    min_flip_iteration: int


class IntegrityGuard:
    """Per-rank driver of the digest/replica protection.

    Args:
        comm: The rank's current communicator.
        store: The rank's node store.
        repair: Allow shadow-replica surgical repair (``integrity="full"``);
            otherwise every confirmed corruption rolls back.
        period: Exchange claims every this many iterations (local digest
            checks still run every iteration -- corruption must be observed
            before the sweep overwrites the evidence).
    """

    def __init__(
        self,
        comm: Communicator,
        store: NodeStore,
        repair: bool,
        period: int = 1,
    ) -> None:
        self.comm = comm
        self.store = store
        self.repair = repair
        self.period = period
        self.reference: dict[int, int] = {}
        #: gid -> iteration of the first local digest mismatch, not yet
        #: resolved by a repair or rollback.
        self.pending: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def rebind(self, comm: Communicator, store: NodeStore) -> None:
        """Point the guard at a new communicator/store (shrink recovery)."""
        self.comm = comm
        self.store = store
        self.pending.clear()
        self.refresh()

    def reset_after_restore(self) -> None:
        """Re-baseline after a checkpoint restore: the restored state is
        clean, so outstanding claims and stale references are dropped."""
        self.pending.clear()
        self.refresh()

    # ------------------------------------------------------------------ #
    # Digest maintenance
    # ------------------------------------------------------------------ #

    def _digest_owned(self) -> tuple[dict[int, int], float]:
        """Digest every owned committed value; returns (digests, cpu cost)."""
        digests: dict[int, int] = {}
        cost = 0.0
        machine = self.comm.machine
        for node in self.store.owned_nodes():
            value = node.data.data
            digests[node.global_id] = state_digest(value)
            cost += machine.digest_time(estimate_nbytes(value))
        return digests, cost

    def refresh(self) -> None:
        """Take the end-of-iteration reference digests (cost charged)."""
        digests, cost = self._digest_owned()
        self.reference = digests
        self.comm.work(cost)

    # ------------------------------------------------------------------ #
    # Detection + decision
    # ------------------------------------------------------------------ #

    def check(self, iteration: int) -> IntegrityDecision | None:
        """Start-of-iteration integrity check.

        Re-digests owned committed values against the reference (every
        iteration), then -- on exchange iterations -- folds the pending
        claims into a collective exchange and returns the common decision.

        Returns:
            ``None`` when there is nothing to recover from (either no
            exchange was due, or the exchange carried no claims); otherwise
            the collective :class:`IntegrityDecision`.
        """
        current, cost = self._digest_owned()
        self.comm.work(cost)
        for gid, digest in current.items():
            if gid in self.reference and digest != self.reference[gid]:
                self.pending.setdefault(gid, iteration)
        if self.period > 1 and (iteration - 1) % self.period != 0:
            return None
        claims = [
            CorruptionClaim(
                owner=self.comm.rank,
                gid=gid,
                flip_iteration=flip_iteration,
                holders=self.store.own_node(gid).shadow_for_procs
                if self.store.owns(gid)
                else (),
            )
            for gid, flip_iteration in sorted(self.pending.items())
        ]
        gathered = self.comm.allgather(claims)
        flat = tuple(c for per_rank in gathered for c in per_rank)
        if not flat:
            return None
        repair = self.repair and all(
            c.flip_iteration == iteration and c.holders for c in flat
        )
        return IntegrityDecision(
            iteration=iteration,
            claims=flat,
            repair=repair,
            min_flip_iteration=min(c.flip_iteration for c in flat),
        )

    # ------------------------------------------------------------------ #
    # Surgical repair
    # ------------------------------------------------------------------ #

    def repair_from_replicas(
        self, decision: IntegrityDecision, fault_state: FaultState | None
    ) -> int:
        """Re-fetch every claimed node from its lowest-ranked replica.

        Collective: replica holders send, owners receive and splice, and a
        trailing barrier re-aligns the clocks.  The shadow value a holder
        ships is the owner's own committed value as of the last shadow
        exchange -- which, because repair only runs at latency 0, is exactly
        the pre-flip value.

        Returns:
            Nodes repaired *on this rank* (as owner).
        """
        comm = self.comm
        machine = comm.machine
        repaired = 0
        for claim in decision.claims:
            replica = min(claim.holders)
            if comm.rank == replica:
                value = self.store.data_records[claim.gid].data
                comm.isend((claim.gid, value), claim.owner, tag=TAG_INTEGRITY)
            if comm.rank == claim.owner:
                gid, value = comm.recv(source=replica, tag=TAG_INTEGRITY)
                record = self.store.data_records[gid]
                record.data = value
                comm.work(machine.repair_time(estimate_nbytes(value)))
                self.reference[gid] = state_digest(value)
                self.pending.pop(gid, None)
                if fault_state is not None:
                    fault_state.count_repair(comm.rank)
                repaired += 1
        comm.barrier()
        return repaired
