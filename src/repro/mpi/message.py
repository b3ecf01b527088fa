"""Message, request, and mailbox objects for the simulated MPI runtime.

Every receive names its ``(source, tag)`` stream on one communicator, so
matching is one rule: the head of that stream, which is the sender's
send order (MPI's non-overtaking rule)."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .communicator import Communicator

__all__ = [
    "Mailbox",
    "Message",
    "Request",
    "SendRequest",
    "RecvRequest",
]


@dataclass
class Message:
    """One in-flight message inside the simulated network.

    Attributes:
        src: Sending rank (communicator-local).
        dest: Receiving world rank (whose mailbox the message goes to).
        tag: User (or internal collective) tag.
        comm_id: Identifier of the communicator the message travels on, so
            a shrunken communicator never intercepts its parent's traffic.
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


class Mailbox:
    """Per-rank message store, one FIFO stream per ``(comm_id, src, tag)``.

    Messages are bucketed into per-stream deques at delivery time, so a
    receive pops the head of one deque in O(1), whatever else is queued.
    Deque order is delivery order, which for a single ``(src, tag)`` stream
    is MPI's non-overtaking send order.
    """

    __slots__ = ("_comms", "_size")

    def __init__(self) -> None:
        # comm_id -> src -> tag -> deque[Message] (deques are never empty).
        self._comms: dict[Any, dict[int, dict[int, deque[Message]]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        """All queued messages (diagnostics only; no meaningful order)."""
        for by_src in self._comms.values():
            for by_tag in by_src.values():
                for stream in by_tag.values():
                    yield from stream

    def append(self, msg: Message) -> None:
        """File ``msg`` into its ``(comm_id, src, tag)`` stream.

        Emptied streams are pruned (:meth:`take`), so most appends of a
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

    def take(self, source: int, tag: int, comm_id: Any) -> Message | None:
        """Pop the head of the ``(comm_id, source, tag)`` stream (None when
        it is empty), pruning emptied index levels."""
        by_src = self._comms.get(comm_id)
        if by_src is None:
            return None
        by_tag = by_src.get(source)
        if by_tag is None:
            return None
        stream = by_tag.get(tag)
        if stream is None:
            return None
        msg = stream.popleft()
        self._size -= 1
        if not stream:
            del by_tag[tag]
            if not by_tag:
                del by_src[source]
                if not by_src:
                    del self._comms[comm_id]
        return msg

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


class Request:
    """Base class for nonblocking-operation handles."""

    def wait(self) -> Any:
        """Block until the operation completes; return the received payload
        (receives) or ``None`` (sends)."""
        raise NotImplementedError


class SendRequest(Request):
    """Handle for ``isend``.

    The simulated network is eagerly buffered: the payload is copied into the
    destination mailbox at injection time, so a send request is complete the
    moment it is created.  ``wait`` therefore never blocks -- exactly the
    behaviour the platform relies on when it fires ``MPI_Isend`` for every
    neighbouring processor before doing any receives (Figure 8).
    """

    def wait(self) -> None:
        return None


class RecvRequest(Request):
    """Handle for ``irecv``.

    Completion is deferred until ``wait``: the message is pulled from its
    stream at that point, and the receiver's clock advances to
    ``max(now, arrival)`` -- which is precisely what lets the overlapped
    Figure-8a pipeline hide transfer time behind the internal-node
    computation.  A second ``wait`` returns the same payload.
    """

    def __init__(self, comm: "Communicator", source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._payload: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._payload = self._comm.neighbor_recv((self._source,), self._tag)[0]
            self._done = True
        return self._payload
