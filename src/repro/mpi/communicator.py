"""mpi4py-style communicator on top of the virtual-time runtime.

Lower-case methods (``send``/``recv``/``bcast``/...) transport arbitrary
Python objects, mirroring mpi4py's pickle-based interface; costs are charged
to the per-rank virtual clocks through the cluster's
:class:`~repro.mpi.timing.MachineModel`.

In addition to the MPI surface, a communicator exposes :meth:`work`, which
replaces the paper's dummy grain loops: ``comm.work(0.3e-3)`` charges a
0.3 ms fine-grain node computation to this rank's clock.

Every receive names its source and tag: ``recv`` and ``irecv(...).wait()``
are :meth:`Communicator.neighbor_recv` on one source, and a message is
matched by the head of its ``(source, tag)`` stream, in send order.

Determinism contract: every method reads and writes only the calling
rank's own ``RankState`` (clock, counters) plus the cluster transport
entry points (``deliver_all`` for every send; ``wait_for_all`` for every
receive; ``collective`` for ``barrier`` and the four collectives below).
No cross-rank state is touched directly, which is what lets the process
scheduler run communicators in separate OS processes
(:mod:`repro.mpi.process`) while staying bit-identical to the in-thread
backend.

Collectives: ``bcast``, ``gather``, ``allgather`` and ``allreduce`` are one
rendezvous each, under any fault plan.  Each member draws the fault
decisions of its own tree sends on entry, and
:mod:`repro.mpi.collectives` replays the charges, fault legs and flipped
values of the trees of point-to-point messages they stand for; counters
and the collective tag sequence advance as if the trees ran.  Their
traffic never enters a mailbox.  ``alltoall`` is point-to-point.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from . import collectives
from .errors import InvalidRankError, InvalidTagError, MessageLostError, ShrinkError
from .faults import CLEAN, corrupt_value
from .message import Message, RecvRequest, Request, SendRequest
from .timing import estimate_nbytes

__all__ = ["Communicator"]

#: Tags at or above this value are reserved for internal collective traffic.
_COLLECTIVE_TAG_BASE = 1 << 30


class Communicator:
    """A group of ranks exchanging messages on a private channel.

    Args:
        cluster: The owning :class:`~repro.mpi.runtime.SimCluster`.
        world_rank: This rank's id in the cluster (not in the group).
        group: Tuple of world ranks forming this communicator, in local-rank
            order (``group[local] == world``).
        comm_id: Hashable channel id; messages never cross channels.
    """

    def __init__(self, cluster: Any, world_rank: int, group: tuple[int, ...], comm_id: Any) -> None:
        self._cluster = cluster
        self._world_rank = world_rank
        self._group = group
        self._comm_id = comm_id
        self._rank = group.index(world_rank)
        self._own = cluster.state(world_rank)  # this rank's RankState
        self._coll_seq = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._group)

    @property
    def machine(self):
        """The machine cost model this communicator charges against."""
        return self._cluster.machine

    @property
    def group(self) -> tuple[int, ...]:
        """World ranks of the members, in local-rank order."""
        return self._group

    def world_rank_of(self, local: int) -> int:
        """World rank of communicator-local rank ``local``."""
        self._check_peer(local)
        return self._group[local]

    def local_rank_of(self, world: int) -> int | None:
        """Local rank of world rank ``world`` (None if not a member)."""
        try:
            return self._group.index(world)
        except ValueError:
            return None

    @property
    def faults(self):
        """The cluster's per-run :class:`~repro.mpi.faults.FaultState`
        (None when no fault plan is armed).  The platform's recovery loop
        reads the plan's crash schedule through this."""
        return self._cluster.fault_state

    def __repr__(self) -> str:
        return f"Communicator(rank={self._rank}, size={self.size}, id={self._comm_id!r})"

    # ------------------------------------------------------------------ #
    # Virtual time
    # ------------------------------------------------------------------ #

    def Wtime(self) -> float:  # noqa: N802 - mpi4py spelling
        """This rank's virtual clock, seconds."""
        return self._own.clock

    def work(self, seconds: float) -> float:
        """Charge ``seconds`` of pure computation to this rank's clock.

        This is the substitute for the thesis's dummy ``for`` loops that
        injected the 0.3 ms / 3 ms node grains.  When a fault plan marks
        this rank as transiently slow, the charge is inflated by the active
        :class:`~repro.mpi.faults.SlowWindow` factor.

        Returns:
            The virtual seconds actually charged (>= ``seconds``).
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative work: {seconds}")
        return self._charge_cpu(seconds)

    def _state(self):
        return self._own

    def _charge_cpu(self, seconds: float) -> float:
        """Charge CPU time, inflated by any active slow-rank fault window."""
        state = self._own
        faults = self._cluster.fault_state
        if faults is not None and faults.plan.slow:  # once per node update: skip the call
            seconds *= faults.plan.compute_scale(self._world_rank, state.clock)
        state.clock += seconds
        return seconds

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise InvalidRankError(f"rank {peer} outside [0, {self.size})")

    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> None:
        """Eagerly-buffered blocking send of a Python object.

        Args:
            obj: Payload (any Python object).
            dest: Destination local rank.
            tag: Message tag (non-negative).
            nbytes: Override the estimated wire size (drives the cost model).
        """
        self.isend(obj, dest, tag=tag, nbytes=nbytes)

    def isend(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> Request:
        """Nonblocking send; the returned request is already complete."""
        self.neighbor_send(((dest, obj, nbytes),), tag)
        return SendRequest()

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next ``tag`` message from ``source``;
        returns the payload.  The default tag is ``send``'s."""
        return self.neighbor_recv((source,), tag)[0]

    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        """Nonblocking receive; complete it with ``req.wait()``.

        The receive is *matched at wait time*; posting is free.  Waiting
        advances the clock to ``max(now, arrival) + receiver_cpu`` which is
        how overlapped compute (Figure 8a) hides transfer latency.
        """
        self._check_peer(source)
        return RecvRequest(self, source, tag)

    def _complete_all(
        self, msgs: Iterable[Message], each: Callable[[Any], Any] | None = None
    ) -> list[Any]:
        """The one receiver routine: complete ``msgs`` in order, returning
        their payloads; ``each(payload)`` runs right after each completion
        and may charge time (so the clock is re-read per message)."""
        cluster = self._cluster
        faults, checksums = cluster.fault_state, cluster.checksums
        receiver_cpu, me = cluster.machine.receiver_cpu, self._world_rank
        # No checksum leg, and no slow window to scale the CPU charge.
        plain = not checksums and (faults is None or not faults.plan.slow)
        if not plain:
            link, received = (cluster.machine, checksums, faults), collectives.received
        state = self._own
        payloads = []
        for msg in msgs:
            clock = max(state.clock, msg.arrival_time)
            if plain:
                state.clock = clock + receiver_cpu(msg.nbytes)
            else:
                if msg.corrupt_attempts:
                    faults.count_retransmit(me, msg.corrupt_attempts)
                state.clock = received(link, me, clock, msg.nbytes, msg.corrupt_attempts)
            payloads.append(msg.payload)
            if each is not None:
                each(msg.payload)
        return payloads

    def pending_sources(self, tag: int) -> list[int]:
        """Local ranks with a queued message for ``tag`` on this channel.

        Sender discovery for the delta halo exchange: empty shadow sends are
        elided, so the receiver cannot post one receive per graph neighbour
        -- after the sweep barrier it asks which peers actually sent.  Sends
        are eagerly buffered at injection, so every message isent before a
        peer entered the barrier is already queued here; the result is a
        pure function of the program, never of the host schedule.
        """
        return self._cluster.pending_sources(self._world_rank, tag, self._comm_id)

    def neighbor_send(
        self, outgoing: Iterable[tuple[int, Any, int | None]], tag: int
    ) -> list[Message]:
        """Isend each ``(dest, payload, nbytes)`` in order -- one
        fixed-topology exchange's sends (``nbytes=None``: estimated) -- and
        return the stamped messages.

        This is the one sender routine (``isend`` is a batch of one).
        Charges are made message by message on a *local* clock -- sender
        CPU, the checksum leg, every lost attempt's ack timeout and resend,
        the delay and flip draws -- which is exact because each is a
        function of this rank's clock and its private fault streams only;
        the cluster then takes the lot in one ``deliver_all``.  An error
        part-way (bad destination, retry budget exhausted) leaves the clock
        where the failed message put it and the messages before it
        delivered.  ``outgoing`` must not charge time while iterated.
        """
        if tag < 0:
            raise InvalidTagError(f"tag must be >= 0, got {tag}")
        cluster = self._cluster
        machine, faults, checksums = cluster.machine, cluster.fault_state, cluster.checksums
        group, src, comm_id, me = self._group, self._rank, self._comm_id, self._world_rank
        size = len(group)
        sender_cpu, transfer = machine.sender_cpu, machine.transfer_time_between
        # No checksum leg, and no slow window to scale the CPU charges.
        plain = not checksums and (faults is None or not faults.plan.slow)
        perturbed = faults is not None and faults.plan.perturbs_messages
        link = machine, checksums, faults
        state = self._own
        clock = state.clock
        msgs: list[Message] = []
        sized = sized_nbytes = None  # the payload last estimated, and its size
        drops, extra_flight, corrupt_attempts, lost = 0, 0.0, 0, None  # a drawn fate's
        try:
            for dest, payload, nbytes in outgoing:
                if not 0 <= dest < size:
                    self._check_peer(dest)
                if nbytes is None:
                    if sized_nbytes is None or payload is not sized:  # fan-out: size once
                        sized, sized_nbytes = payload, estimate_nbytes(payload)
                    nbytes = sized_nbytes
                if perturbed:
                    fate = faults.draw_send(me, checksums, dest, tag)
                    drops, extra_flight, corrupt_attempts, token, lost = fate
                    if token is not None:
                        payload = corrupt_value(payload, token)
                if plain and not drops:
                    clock += sender_cpu(nbytes)
                else:
                    clock = collectives.sent(link, me, clock, nbytes, drops)
                if lost is not None:
                    raise MessageLostError(lost)
                # src is the communicator-local rank (what the receiver
                # matches on); dest the world rank (whose mailbox it is).
                to = group[dest]
                arrive = clock + transfer(nbytes, me, to) + extra_flight
                msgs.append(
                    Message(src, to, tag, comm_id, payload, nbytes, clock, arrive, corrupt_attempts)
                )
        finally:
            state.clock = clock
            cluster.deliver_all(msgs)
        return msgs

    def neighbor_recv(
        self,
        sources: Sequence[int],
        tag: int,
        each: Callable[[Any], Any] | None = None,
    ) -> list[Any]:
        """Receive one ``tag`` message from every source, completing them in
        ``sources`` order; returns the payloads in that order.

        This is the one receive routine (``recv`` is a batch of one).
        ``each(payload)`` runs right after each completion (Figure 8a's
        receive-unpack interleaving); it may charge time but must not
        communicate.  The rank parks once for the whole set instead of once
        per message (a process worker forwards the set in one request).  A
        source outside the group raises
        :class:`~repro.mpi.errors.InvalidRankError` and one named twice
        ``ValueError``, both before anything is taken.
        """
        size = len(self._group)
        for source in sources:
            if not 0 <= source < size:
                self._check_peer(source)
        if len(set(sources)) != len(sources):
            raise ValueError(f"neighbor_recv names a source twice: {list(sources)}")
        msgs = self._cluster.wait_for_all(self._world_rank, self._comm_id, sources, tag)
        return self._complete_all(msgs, each)

    # ------------------------------------------------------------------ #
    # Collectives: one rendezvous plus a charge-exact replay of the tree
    # ------------------------------------------------------------------ #

    def _next_coll_tag(self) -> int:
        tag = _COLLECTIVE_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        return tag

    def _peers(self, but: int) -> list[int]:
        """Every local rank except ``but``, ascending."""
        return [r for r in range(len(self._group)) if r != but]

    def _replayed(self, name: str, payload: Any, root: int = 0, op: Any = None) -> Any:
        """This member's result of collective ``name``: one rendezvous of the
        group, replayed by :func:`~repro.mpi.collectives.replay`, standing
        for one or (``all*``) two trees of ``size - 1`` messages, their tags
        and counts.  The member draws its own sends' fates on entry and
        counts its retransmits after; a lost message raises where the tree
        sends it: on entry, or a broadcast forward after its receive."""
        cluster, group, rank = self._cluster, self._group, self._rank
        faults, checksums = cluster.fault_state, cluster.checksums
        fates = lost = None
        if faults is not None and faults.plan.perturbs_messages:
            fates = []
            for dest, offset in collectives.sends(name, len(group), root, rank):
                tag = _COLLECTIVE_TAG_BASE + self._coll_seq + offset
                fate = faults.draw_send(self._world_rank, checksums, dest, tag)
                fates.append(fate)
                if fate.lost is not None:
                    if offset == 0 and (name != "bcast" or rank == root):
                        raise MessageLostError(fate.lost)
                    lost = fate.lost
                    break
            if all(fate is CLEAN for fate in fates):
                fates = None
        rounds = 2 if name.startswith("all") else 1
        tag = _COLLECTIVE_TAG_BASE + self._coll_seq + rounds - 1  # the broadcast's
        self._coll_seq += rounds
        link = cluster.machine, checksums, faults

        def complete(clocks: list[float], published: list[Any]) -> tuple[list[float], Any]:
            return collectives.replay(name, link, group, root, clocks, published, op)

        # A gather's tree senders run on without waiting for the root.
        last = root if name == "gather" else None
        results, retransmits = cluster.collective(
            self, name, (payload, fates), complete, rounds * (len(group) - 1), last=last
        )
        if retransmits[rank]:
            faults.count_retransmit(self._world_rank, retransmits[rank])
        if results[rank] is collectives.UNREACHED:  # its parent never sends: wait for the abort
            v = (rank - (root if name == "bcast" else 0)) % len(group)
            source = (rank - v + (v & (v - 1))) % len(group)
            cluster.wait_for_all(self._world_rank, self._comm_id, [source], tag)
        if lost is not None:
            raise MessageLostError(lost)
        return results[rank]

    def barrier(self) -> None:
        """Synchronize all ranks; clocks jump to the common release time."""
        self._cluster.collective(self, "barrier", 0, self._release, barriers=1)

    def _release(self, clocks: list[float], payloads: list[Any]) -> tuple[list[float], None]:
        release = max(clocks) + self._cluster.machine.barrier_time(len(clocks))
        return [release] * len(clocks), None

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to everyone (binomial tree)."""
        self._check_peer(root)
        return self._replayed("bcast", obj if self._rank == root else None, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank at ``root`` (rank order)."""
        self._check_peer(root)
        return self._replayed("gather", obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather at rank 0 then broadcast the assembled list."""
        return self._replayed("allgather", obj)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce to rank 0 then broadcast the result to all ranks.

        Every member folds the same values in the same ascending order, so
        ``op`` must be the same on every rank (as MPI requires).
        """
        return self._replayed("allreduce", obj, op=op)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank i receives ``objs[i]`` of each peer."""
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} items")
        tag = self._next_coll_tag()
        peers = self._peers(self._rank)
        self.neighbor_send([(r, objs[r], None) for r in peers], tag)
        out = self.neighbor_recv(peers, tag)
        out.insert(self._rank, objs[self._rank])
        return out

    # ------------------------------------------------------------------ #
    # Communicator management
    # ------------------------------------------------------------------ #

    def shrink(
        self, dead: Iterable[int], quarantine: bool = True
    ) -> "Communicator | None":
        """ULFM-style survivor communicator excluding ``dead`` local ranks.

        All *survivors* must call this collectively with the same ``dead``
        set (dead ranks, by definition, do not call anything).  No messages
        are exchanged: the survivor group, the new dense ranking (relative
        order preserved), and the channel id are all pure functions of the
        current group and the dead set, so every survivor derives the same
        communicator without synchronizing -- exactly what a recovery path
        needs when part of the machine is gone.

        Args:
            dead: Communicator-local ranks declared failed.
            quarantine: Also purge this rank's in-flight messages from the
                dead ranks on the *old* channel.  Pass ``False`` when the
                caller still needs to drain a dying rank's last messages
                (e.g. its final checkpoint) and quarantine explicitly later.

        Returns:
            The shrunken communicator, or ``None`` when called by a rank
            that is itself in ``dead``.

        Raises:
            ShrinkError: Empty dead set, out-of-range ranks, or no survivors.
        """
        dead_set = frozenset(dead)
        if not dead_set:
            raise ShrinkError("shrink requires at least one dead rank")
        for r in dead_set:
            if not 0 <= r < self.size:
                raise ShrinkError(f"dead rank {r} outside [0, {self.size})")
        if len(dead_set) >= self.size:
            raise ShrinkError("shrink would leave an empty communicator")
        survivors = tuple(r for r in range(self.size) if r not in dead_set)
        new_group = tuple(self._group[r] for r in survivors)
        # Channel id derived from the dead set, not a counter: survivors
        # agree on who died without synchronizing.
        new_id = (self._comm_id, "shrink", tuple(sorted(dead_set)))
        if quarantine:
            self.quarantine(dead_set)
        if self._rank in dead_set:
            return None
        return Communicator(self._cluster, self._world_rank, new_group, new_id)

    def quarantine(self, dead: Iterable[int]) -> int:
        """Purge in-flight messages from ``dead`` local ranks on this channel.

        Idempotent; returns the number of messages discarded.  Used after a
        shrink so stale traffic from the failed rank can never match a
        receive posted on the old communicator.
        """
        return self._cluster.quarantine(
            self._world_rank, frozenset(dead), self._comm_id
        )
