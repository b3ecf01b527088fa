"""Message, status, request, and mailbox objects for the simulated MPI
runtime."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .communicator import Communicator

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Mailbox",
    "Message",
    "Status",
    "Request",
    "SendRequest",
    "RecvRequest",
]

#: Wildcard source rank for receives (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE = -1

#: Wildcard tag for receives (mirrors ``MPI_ANY_TAG``).
ANY_TAG = -1

_seq = itertools.count()


@dataclass
class Message:
    """One in-flight message inside the simulated network.

    Attributes:
        src: Sending rank (communicator-local).
        dest: Receiving rank (communicator-local).
        tag: User (or internal collective) tag.
        comm_id: Identifier of the communicator the message travels on, so
            split/dup'ed communicators never intercept each other's traffic.
        payload: The Python object being transported.
        nbytes: Estimated wire size, drives the cost model.
        send_time: Sender's virtual clock when the message was injected.
        arrival_time: Virtual time at which the payload is available at the
            destination (``send_time + transfer_time``).
        corrupt_attempts: On a checksummed transport, how many consecutive
            transmission attempts of this message were corrupted in flight
            (each one costs the receiver a verify + NACK + retransmit round
            before the clean copy is accepted).  The payload itself stays
            clean -- corruption never escapes a checksummed link.
        seq: Global injection sequence number; used only as a deterministic
            tie-break for ``ANY_SOURCE`` matching.
    """

    src: int
    dest: int
    tag: int
    comm_id: int
    payload: Any
    nbytes: int
    send_time: float
    arrival_time: float
    corrupt_attempts: int = 0
    seq: int = field(default_factory=lambda: next(_seq))

    def matches(self, source: int, tag: int, comm_id: int) -> bool:
        """Whether this message satisfies a receive posted with the triple."""
        if comm_id != self.comm_id:
            return False
        if source != ANY_SOURCE and source != self.src:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True


class Mailbox:
    """Indexed per-rank message store with O(1)-ish receive matching.

    Messages are bucketed into per-``(comm_id, src, tag)`` deques at
    delivery time, so the four receive-matching shapes cost:

    * named source, named tag -- head of one deque, O(1);
    * named source, ``ANY_TAG`` -- min over that source's *stream heads*
      by injection sequence (a sender's ``seq`` values are assigned in its
      program order, so this is exactly the sender's send order);
    * ``ANY_SOURCE`` -- min over per-source stream heads by
      ``(arrival_time, src)``, the runtime's deterministic wildcard rule.

    All costs scale with the number of *active streams*, never with the
    number of queued messages -- the flat-list predecessor rescanned every
    message on every wakeup, which dominated the runtime's profile on
    message-heavy workloads.  Matching results are bit-identical to the
    old linear scan: per-stream deque order is delivery order, which for a
    single ``(src, tag)`` stream is MPI's non-overtaking send order.
    """

    __slots__ = ("_comms", "_size")

    def __init__(self) -> None:
        # comm_id -> src -> tag -> deque[Message] (deques are never empty).
        self._comms: dict[Any, dict[int, dict[int, deque[Message]]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self):
        """All queued messages (diagnostics only; no meaningful order)."""
        for by_src in self._comms.values():
            for by_tag in by_src.values():
                for stream in by_tag.values():
                    yield from stream

    def append(self, msg: Message) -> None:
        """File ``msg`` into its ``(comm_id, src, tag)`` stream.

        Emptied streams are pruned (:meth:`_pop`), so most appends of a
        steady exchange open a fresh one: each level is looked up first
        and only created on a miss.
        """
        by_src = self._comms.get(msg.comm_id)
        if by_src is None:
            by_src = self._comms[msg.comm_id] = {}
        by_tag = by_src.get(msg.src)
        if by_tag is None:
            by_tag = by_src[msg.src] = {}
        stream = by_tag.get(msg.tag)
        if stream is None:
            by_tag[msg.tag] = deque((msg,))
        else:
            stream.append(msg)
        self._size += 1

    def has(self, comm_id: Any, source: int, tag: int) -> bool:
        """Whether the named ``(comm_id, source, tag)`` stream has a message."""
        by_src = self._comms.get(comm_id)
        return by_src is not None and tag in by_src.get(source, ())

    def clear(self) -> None:
        """Drop every queued message."""
        self._comms.clear()
        self._size = 0

    @staticmethod
    def _head(by_tag: dict[int, deque[Message]], tag: int) -> Message | None:
        """Earliest-sent message of one source matching ``tag``."""
        if tag != ANY_TAG:
            stream = by_tag.get(tag)
            return stream[0] if stream else None
        best: Message | None = None
        for stream in by_tag.values():
            head = stream[0]
            if best is None or head.seq < best.seq:
                best = head
        return best

    def take(
        self, source: int, tag: int, comm_id: Any, consume: bool = True
    ) -> Message | None:
        """Pop (or peek at, with ``consume=False``) the best match.

        Named source: FIFO within that source's streams.  ``ANY_SOURCE``:
        the per-source heads compete on ``(arrival_time, src)`` -- virtual
        time, never host time, so the choice is schedule-independent.
        """
        by_src = self._comms.get(comm_id)
        if not by_src:
            return None
        if source != ANY_SOURCE:
            by_tag = by_src.get(source)
            if not by_tag:
                return None
            msg = self._head(by_tag, tag)
        else:
            msg = None
            for by_tag in by_src.values():
                head = self._head(by_tag, tag)
                if head is not None and (
                    msg is None
                    or (head.arrival_time, head.src) < (msg.arrival_time, msg.src)
                ):
                    msg = head
        if msg is None or not consume:
            return msg
        self._pop(msg)
        return msg

    def _pop(self, msg: Message) -> None:
        """Remove the head of ``msg``'s stream (``msg`` itself) and prune
        emptied index levels so wildcard scans never visit dead streams."""
        by_src = self._comms[msg.comm_id]
        by_tag = by_src[msg.src]
        stream = by_tag[msg.tag]
        stream.popleft()
        self._size -= 1
        if not stream:
            del by_tag[msg.tag]
            if not by_tag:
                del by_src[msg.src]
                if not by_src:
                    del self._comms[msg.comm_id]

    def sources_with(self, comm_id: Any, tag: int) -> list[int]:
        """Sources holding at least one queued message for ``(comm_id, tag)``.

        The delta shadow exchange elides empty sends, so after a barrier a
        receiver cannot derive its sender set from the graph topology -- it
        asks the mailbox instead.  Sends are eagerly buffered at injection
        time, which makes this query deterministic once every peer's sends
        of the sweep happen-before the barrier release.
        """
        by_src = self._comms.get(comm_id)
        if not by_src:
            return []
        return sorted(src for src, by_tag in by_src.items() if tag in by_tag)

    def purge(self, comm_id: Any, srcs: Iterable[int]) -> int:
        """Drop every message from ``srcs`` on ``comm_id``; return count.

        Quarantine support: a whole source's bucket is unlinked in one
        dictionary pop instead of rebuilding a flat list."""
        by_src = self._comms.get(comm_id)
        if not by_src:
            return 0
        dropped = 0
        for src in srcs:
            by_tag = by_src.pop(src, None)
            if by_tag:
                dropped += sum(len(stream) for stream in by_tag.values())
        if not by_src:
            del self._comms[comm_id]
        self._size -= dropped
        return dropped


@dataclass
class Status:
    """Completion information for a receive (mirrors ``MPI_Status``)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0

    def update_from(self, msg: Message) -> None:
        """Populate the fields from a matched message."""
        self.source = msg.src
        self.tag = msg.tag
        self.nbytes = msg.nbytes


class Request:
    """Base class for nonblocking-operation handles."""

    def wait(self, status: Status | None = None) -> Any:
        """Block until the operation completes; return the received payload
        (receives) or ``None`` (sends)."""
        raise NotImplementedError

    def test(self, status: Status | None = None) -> tuple[bool, Any]:
        """Non-blocking completion probe: ``(done, payload-or-None)``."""
        raise NotImplementedError

    def cancel(self) -> None:
        """Cancel the request if it has not completed (best effort)."""
        raise NotImplementedError


class SendRequest(Request):
    """Handle for ``isend``.

    The simulated network is eagerly buffered: the payload is copied into the
    destination mailbox at injection time, so a send request is complete the
    moment it is created.  ``wait`` therefore never blocks -- exactly the
    behaviour the platform relies on when it fires ``MPI_Isend`` for every
    neighbouring processor before doing any receives (Figure 8).
    """

    def __init__(self, msg: Message) -> None:
        self._msg = msg

    def wait(self, status: Status | None = None) -> None:
        if status is not None:
            status.source = self._msg.src
            status.tag = self._msg.tag
            status.nbytes = self._msg.nbytes
        return None

    def test(self, status: Status | None = None) -> tuple[bool, Any]:
        self.wait(status)
        return True, None

    def cancel(self) -> None:  # already delivered; cancelling is a no-op
        return None


class RecvRequest(Request):
    """Handle for ``irecv``.

    Completion is deferred until ``wait``/``test``: the matching message (if
    any) is pulled from the mailbox at that point, and the receiver's clock
    advances to ``max(now, arrival)`` -- which is precisely what lets the
    overlapped Figure-8a pipeline hide transfer time behind the internal-node
    computation.
    """

    def __init__(self, comm: "Communicator", source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._payload: Any = None
        self._cancelled = False

    def wait(self, status: Status | None = None) -> Any:
        if self._cancelled:
            return None
        if not self._done:
            self._payload = self._comm._complete_recv(self._source, self._tag, status)
            self._done = True
        elif status is not None:
            # Status was already consumed on the first wait; re-waits keep it.
            pass
        return self._payload

    def test(self, status: Status | None = None) -> tuple[bool, Any]:
        if self._cancelled:
            return True, None
        if self._done:
            return True, self._payload
        payload, ok = self._comm._try_recv(self._source, self._tag, status)
        if ok:
            self._done = True
            self._payload = payload
            return True, payload
        return False, None

    def cancel(self) -> None:
        if not self._done:
            self._cancelled = True
