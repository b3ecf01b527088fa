"""The fault and checksum legs of one message, and charge-exact replays of
the collective trees.

A fault plan or a checksummed link adds legs to a message's sender CPU,
transfer and receiver CPU: slow windows scale both CPU charges, the sender
pays a checksum and every lost attempt's ack timeout and resend, the flight
gains any drawn delay, and the receiver pays each NACKed attempt's
retransmit penalty and the verify.  :func:`sent` and :func:`received` are
those legs, called by the point-to-point routines of
:class:`~repro.mpi.communicator.Communicator` and the replays below alike;
``link`` is ``(machine, checksums, fault state or None)``.

A collective is one rendezvous: every member publishes its entry clock,
payload and the fates (:class:`~repro.mpi.faults.SendFate`) of its own tree
sends, listed by :func:`sends`.  :func:`replay` computes every member's
exit clock, result and retransmits from those alone, bit-identical to the
trees of point-to-point messages the collective stands for; a member a
lost broadcast forward never reaches takes home :data:`UNREACHED`.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Sequence

from .faults import CLEAN, SendFate, corrupt_value
from .timing import _CONTAINER_NBYTES, estimate_nbytes

__all__ = ["UNREACHED", "fold", "received", "replay", "sends", "sent"]

UNREACHED = object()  # a member's result when a lost forward stopped its message


def _unscaled(rank: int, clock: float) -> float:
    """``FaultPlan.compute_scale`` of a run with no fault plan."""
    return 1.0


def sent(link: tuple, me: int, clock: float, nbytes: int, drops: int = 0) -> float:
    """World rank ``me``'s clock after sending: CPU and checksum, each scaled
    where it starts, then per lost attempt an ack timeout and a resend."""
    machine, checksums, faults = link
    scale = _unscaled if faults is None else faults.plan.compute_scale
    clock += machine.sender_cpu(nbytes) * scale(me, clock)
    if checksums:
        # The protection overhead: paid on every payload, fault plan or not.
        clock += machine.checksum_time(nbytes) * scale(me, clock)
    for attempt in range(1, drops + 1):
        clock += faults.plan.retry.attempt_timeout(attempt, machine.ack_timeout(nbytes))
        clock += machine.sender_cpu(nbytes) * scale(me, clock)
    return clock


def received(link: tuple, me: int, clock: float, nbytes: int, corrupt: int = 0) -> float:
    """World rank ``me``'s clock after taking a message that has arrived by
    ``clock``: per corrupted attempt a failed verify, NACK and resend (sends
    are eager, so the receiver waits them out), one clean verify, the CPU."""
    machine, checksums, faults = link
    scale = _unscaled if faults is None else faults.plan.compute_scale
    if checksums:
        for _ in range(corrupt):
            clock += machine.retransmit_penalty(nbytes)
        clock += machine.checksum_time(nbytes) * scale(me, clock)
    return clock + machine.receiver_cpu(nbytes) * scale(me, clock)


@lru_cache(maxsize=None)
def _tree(n: int) -> tuple[tuple[int, ...], ...]:
    """Per virtual rank, its children in the binomial tree over ``n``
    members, in send order (decreasing mask)."""
    kids = []
    for v in range(n):
        mask = (v & -v if v else 1 << (n - 1).bit_length()) >> 1
        row = []
        while mask:
            if v + mask < n:
                row.append(v + mask)
            mask >>= 1
        kids.append(tuple(row))
    return tuple(kids)


def sends(name: str, n: int, root: int, me: int) -> list[tuple[int, int]]:
    """``(destination, tag offset)`` of member ``me``'s sends in collective
    ``name``'s trees, in order; ``allgather``/``allreduce`` gather to root
    0 (offset 0), then broadcast from it (offset 1)."""
    if name == "bcast":
        return [((c + root) % n, 0) for c in _tree(n)[(me - root) % n]]
    out = [(root, 0)] if me != root else []
    if name.startswith("all"):
        out += [(c, 1) for c in _tree(n)[me]]
    return out


class _Wire:
    """The messages of one replay: ``plain`` (no checksums, slow window or
    fate) has the trees add CPU and transfer charges inline; otherwise
    ``send`` takes the sender's next fate, ``receive`` counts retransmits."""

    def __init__(self, link: tuple, group: Sequence[int], fates: Sequence[Any]) -> None:
        self.link, self.group = link, group
        self.retransmits = [0] * len(group)
        faults = link[2]
        self.plain = not (link[1] or (faults is not None and faults.plan.slow) or any(fates))
        if not self.plain:
            self.draws = [repeat(CLEAN) if f is None else iter(f) for f in fates]

    def send(self, q: int, clock: float, nbytes: int, to: int, value: Any):
        """Member ``q`` sends ``value`` to member ``to``: its clock after,
        the arrival time, the message's fate and the value delivered."""
        fate: SendFate = next(self.draws[q])
        machine, group = self.link[0], self.group
        clock = sent(self.link, group[q], clock, nbytes, fate.drops)
        arrival = clock + machine.transfer_time_between(nbytes, group[q], group[to]) + fate.extra
        if fate.token is not None:
            value = corrupt_value(value, fate.token)
        return clock, arrival, fate, value

    def receive(self, q: int, clock: float, arrival: float, nbytes: int, fate: SendFate) -> float:
        """Member ``q``'s clock after taking a message."""
        self.retransmits[q] += fate.corrupt
        return received(self.link, self.group[q], max(clock, arrival), nbytes, fate.corrupt)


def gather(wire: _Wire, root: int, clocks: Sequence[float], values: list[Any], sizes: list[int]):
    """Every non-root sends its ``sizes[q]``-byte value to ``root``, which
    receives them in ascending source order: the exit clocks and the root's
    list.  A flipped value is re-sized in ``sizes``, as a tree forwarding
    the list would size it."""
    machine, group = wire.link[0], wire.group
    c = list(clocks)
    got = list(values)
    t = c[root]
    for q, size in enumerate(sizes):
        if q == root:
            continue
        if wire.plain:
            c[q] += machine.sender_cpu(size)
            arrival = c[q] + machine.transfer_time_between(size, group[q], group[root])
            t = max(t, arrival) + machine.receiver_cpu(size)
        else:
            c[q], arrival, fate, got[q] = wire.send(q, c[q], size, root, values[q])
            t = wire.receive(root, t, arrival, size, fate)
            if fate.token is not None:
                sizes[q] = estimate_nbytes(got[q])
    c[root] = t
    return c, got


def bcast(wire: _Wire, root: int, clocks: Sequence[float], value: Any, nbytes: int):
    """Binomial tree from ``root`` of the ``nbytes``-byte ``value``: each
    member receives from its parent, then forwards what it received to its
    children in decreasing-mask order.  Visiting virtual ranks ascending is
    a valid execution order, since every parent's virtual rank is smaller
    than its children's.  The exit clocks and what each member holds."""
    machine, group, transfer = wire.link[0], wire.group, wire.link[0].transfer_time_between
    send, recv = machine.sender_cpu(nbytes), machine.receiver_cpu(nbytes)
    c = list(clocks)
    n = len(c)
    held = [value] * n  # by local rank
    inbox: list[Any] = [None] * n  # by virtual rank: the parent's message
    for v, children in enumerate(_tree(n)):
        r = (v + root) % n
        t = c[r]
        if wire.plain:
            if v:
                t = max(t, inbox[v]) + recv
            for child in children:
                t += send
                inbox[child] = t + transfer(nbytes, group[r], group[(child + root) % n])
        else:
            if v:
                if inbox[v] is None:  # a lost forward upstream stopped its message
                    held[r] = UNREACHED
                    continue
                arrival, fate, held[r], nbytes = inbox[v]
                t = wire.receive(r, t, arrival, nbytes, fate)
                if fate.token is not None:  # forwarded as the tree sizes it
                    nbytes = estimate_nbytes(held[r])
            for child in children:
                t, arrival, fate, got = wire.send(r, t, nbytes, (child + root) % n, held[r])
                if fate.lost is not None:  # the sender raises; later children wait
                    break
                inbox[child] = arrival, fate, got, nbytes
        c[r] = t
    return c, held


def fold(items: Sequence[Any], op: Callable[[Any, Any], Any] | None) -> Any:
    """``op`` (default: addition) over ``items`` in ascending order."""
    combine = op if op is not None else operator.add
    acc = items[0]
    for item in items[1:]:
        acc = combine(acc, item)
    return acc


def replay(
    name: str, link: tuple, group: Sequence[int], root: int, clocks: Sequence[float],
    published: Sequence[tuple[Any, Any]], op: Callable[[Any, Any], Any] | None = None,
) -> tuple[list[float], tuple[list[Any], list[int]]]:
    """Exit clocks, then per-member results and retransmit counts, of
    collective ``name`` over the members' published ``(payload, fates)``;
    ``group[local]`` is member ``local``'s world rank.  ``allgather`` and
    ``allreduce`` :func:`gather` to root 0, then :func:`bcast` the list or
    its fold."""
    payloads = [payload for payload, _ in published]
    wire = _Wire(link, group, [fates for _, fates in published])
    if name == "bcast":
        clocks, results = bcast(wire, root, clocks, payloads[root], estimate_nbytes(payloads[root]))
    else:
        sizes = [estimate_nbytes(payload) for payload in payloads]
        clocks, got = gather(wire, root, clocks, payloads, sizes)
        if name == "allgather":  # the list's estimate, without re-sizing its items
            clocks, results = bcast(wire, 0, clocks, got, _CONTAINER_NBYTES + sum(sizes))
        elif name == "allreduce":
            total = fold(got, op)
            clocks, results = bcast(wire, 0, clocks, total, estimate_nbytes(total))
        else:
            results = [None] * len(group)
            results[root] = got
    return clocks, (results, wire.retransmits)
