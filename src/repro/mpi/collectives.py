"""Charge-exact replays of the collective trees.

A fault-free collective runs as one rendezvous: every member publishes its
entry clock and payload, and :func:`replay` then computes every member's
exit clock at once.  The clock functions transcribe, charge for charge,
what the point-to-point trees of :class:`~repro.mpi.communicator.
Communicator` make their messages cost -- sender CPU, the checksum legs,
the link transfer between the two *world* ranks, the receiver's wait and
CPU -- so the clocks are bit-identical to the trees'.  They are pure
functions of ``(machine, checksums, group, root, entry clocks, payload
sizes)``: ``group[local]`` is the world rank of member ``local``, and
``clocks`` and ``sizes`` are indexed by local rank.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from .timing import _CONTAINER_NBYTES, MachineModel, estimate_nbytes

__all__ = ["bcast", "fold", "gather", "replay", "scatter"]


def gather(
    machine: MachineModel, checksums: bool, group: Sequence[int], root: int,
    clocks: Sequence[float], sizes: Sequence[int],
) -> list[float]:
    """Every non-root sends its ``sizes[q]``-byte payload to ``root``, which
    receives them in ascending source order."""
    c = list(clocks)
    arrival = [0.0] * len(c)
    to = group[root]
    for q, size in enumerate(sizes):
        if q != root:
            t = c[q] + machine.sender_cpu(size)
            if checksums:
                t += machine.checksum_time(size)
            c[q] = t
            arrival[q] = t + machine.transfer_time_between(size, group[q], to)
    t = c[root]
    for q, size in enumerate(sizes):
        if q != root:
            t = max(t, arrival[q])
            if checksums:
                t += machine.checksum_time(size)
            t += machine.receiver_cpu(size)
    c[root] = t
    return c


def scatter(
    machine: MachineModel, checksums: bool, group: Sequence[int], root: int,
    clocks: Sequence[float], sizes: Sequence[int],
) -> list[float]:
    """``root`` sends a ``sizes[q]``-byte payload to every other ``q`` in
    ascending order; each receives its one message."""
    c = list(clocks)
    t = c[root]
    me = group[root]
    for q, size in enumerate(sizes):
        if q != root:
            t += machine.sender_cpu(size)
            if checksums:
                t += machine.checksum_time(size)
            u = max(c[q], t + machine.transfer_time_between(size, me, group[q]))
            if checksums:
                u += machine.checksum_time(size)
            c[q] = u + machine.receiver_cpu(size)
    c[root] = t
    return c


def bcast(
    machine: MachineModel, checksums: bool, group: Sequence[int], root: int,
    clocks: Sequence[float], nbytes: int,
) -> list[float]:
    """Binomial tree from ``root`` of one ``nbytes`` payload: each member
    receives from its parent, then sends to its children in decreasing-mask
    order.  Visiting virtual ranks ascending is a valid execution order,
    since every parent's virtual rank is smaller than its children's."""
    c = list(clocks)
    n = len(c)
    send = machine.sender_cpu(nbytes)
    recv = machine.receiver_cpu(nbytes)
    check = machine.checksum_time(nbytes) if checksums else 0.0
    arrival = [0.0] * n  # indexed by virtual rank
    lowbit = 1
    while lowbit < n:
        lowbit <<= 1
    for v in range(n):
        r = (v + root) % n
        t = c[r]
        if v:
            lowbit = v & -v
            t = max(t, arrival[v])
            if checksums:
                t += check
            t += recv
        mask = lowbit >> 1
        while mask:
            child = v + mask
            if child < n:
                t += send
                if checksums:
                    t += check
                arrival[child] = t + machine.transfer_time_between(
                    nbytes, group[r], group[(child + root) % n]
                )
            mask >>= 1
        c[r] = t
    return c


def fold(items: Sequence[Any], op: Callable[[Any, Any], Any] | None) -> Any:
    """``op`` (default: addition) over ``items`` in ascending order."""
    combine = op if op is not None else operator.add
    acc = items[0]
    for item in items[1:]:
        acc = combine(acc, item)
    return acc


def replay(
    name: str,
    link: tuple[MachineModel, bool, Sequence[int]],
    root: int,
    clocks: Sequence[float],
    payloads: Sequence[Any],
    op: Callable[[Any, Any], Any] | None = None,
) -> tuple[list[float], Any]:
    """Exit clocks and result of collective ``name`` over the published
    ``payloads``; ``link`` is ``(machine, checksums, group)``.  ``reduce``
    is a :func:`gather` (its root folds the list); ``allgather`` and
    ``allreduce`` gather to root 0, then :func:`bcast` the list or its fold.
    """
    if name == "bcast":
        return bcast(*link, root, clocks, estimate_nbytes(payloads[root])), payloads[root]
    if name == "scatter":
        items = payloads[root]
        return scatter(*link, root, clocks, [estimate_nbytes(item) for item in items]), items
    sizes = [estimate_nbytes(payload) for payload in payloads]
    clocks = gather(*link, root, clocks, sizes)
    if name == "allgather":  # the list's estimate, without re-sizing its items
        return bcast(*link, 0, clocks, _CONTAINER_NBYTES + sum(sizes)), payloads
    if name == "allreduce":
        total = fold(payloads, op)
        return bcast(*link, 0, clocks, estimate_nbytes(total)), total
    return clocks, payloads
