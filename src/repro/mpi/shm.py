"""Shared-memory primitives for the multiprocess execution backend.

Two building blocks, both over named POSIX ``multiprocessing.shared_memory``
segments:

* :class:`SharedSegment` -- segment lifecycle.  The creator owns the name
  and unlinks it; attachers map an existing name read-write.  Both sides
  install :func:`weakref.finalize` guards so a segment cannot outlive the
  Python objects that know about it.  The whole fork tree shares one
  ``resource_tracker`` process (started eagerly via :func:`ensure_tracker`
  before the first fork) whose cache is a *set*, so the duplicate
  registration CPython 3.11 makes on attach collapses into the creator's
  and exactly one ``unlink`` -- from whichever process performs it --
  balances the books.

* :class:`ShadowRing` -- a single-producer/single-consumer ring of
  ``(gid, value)`` halo records, one per directed worker pair.  The
  producer copies the shadow payload into two parallel ``int64``/``float64``
  arrays and ships a tiny :class:`RingRef` descriptor through the control
  pipe instead of pickling the records; the consumer slices the arrays
  back out.  Two monotonically increasing sequence counters live in the
  segment header: ``head`` (records produced) and ``tail`` (records
  retired).  The descriptor travelling through the (synchronizing) pipe
  establishes the producer->consumer happens-before edge, so the counters
  only guard *space reclamation*: the producer refuses a put that would
  overrun un-retired records and the caller falls back to the pickle path.
  Consumption can complete out of order (a receiver may match tag B before
  tag A); the consumer retires spans and advances ``tail`` over the
  contiguous completed prefix.

Node stores and collectives are not among them: each worker keeps its
store in private memory, only halo values cross processes, and every
collective rendezvous is held by the parent broker (:mod:`repro.mpi.process`).

Crash safety: every creator registers its segment names with the parent
broker, and the parent force-unlinks every registered name (plus anything
matching the run prefix under ``/dev/shm``) after the workers are joined --
so a ``SIGKILL``-ed worker cannot leak segments.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Sequence

import numpy as np

__all__ = [
    "RingRef",
    "SharedSegment",
    "ShadowRing",
    "ensure_tracker",
    "force_unlink",
    "is_shadow_payload",
    "leaked_segments",
    "make_run_prefix",
    "unlink_prefix",
]

#: Fewest records for which the ring fast path beats pickling the tuple.
FASTPATH_MIN_RECORDS = 4

#: Default per-edge ring capacity, records (16 bytes each -> 512 KiB).
DEFAULT_RING_CAPACITY = 1 << 15

_HEADER_SLOTS = 2  # head, tail -- int64 each
_HEADER_BYTES = _HEADER_SLOTS * 8


def make_run_prefix() -> str:
    """Unique, parseable segment-name prefix for one backend execution."""
    return f"ic2mpi-{os.getpid()}-{secrets.token_hex(4)}"


def ensure_tracker() -> None:
    """Start the ``resource_tracker`` daemon *before* forking workers.

    Forked children inherit the already-running tracker, so every
    register/unregister in the tree lands in one shared cache.  Without
    this, the first worker to create a segment would lazily spawn its own
    tracker, which then "cleans up" (unlinks!) the segment the moment the
    worker exits."""
    resource_tracker.ensure_running()


class SharedSegment:
    """One named shared-memory segment with deterministic cleanup.

    Args:
        name: Segment name (no leading slash).
        size: Byte size; required when creating.
        create: Create-and-own (the owner unlinks) vs attach-to-existing.
    """

    def __init__(self, name: str, size: int = 0, create: bool = False) -> None:
        self.name = name
        self.owner = create
        self._shm = shared_memory.SharedMemory(name=name, create=create, size=size)
        # CPython 3.11 registers on *attach* too; with one fork-shared
        # tracker whose cache is a set, the duplicate collapses into the
        # creator's registration and the single unlink retires it.
        self._finalizer = weakref.finalize(
            self, _finalize_segment, self._shm, create
        )

    @property
    def buf(self) -> memoryview:
        return self._shm.buf

    @property
    def size(self) -> int:
        return self._shm.size

    def close(self) -> None:
        """Drop this process's mapping (the name survives if owned elsewhere)."""
        self._finalizer.detach()
        try:
            self._shm.close()
        except Exception:
            pass

    def release(self) -> None:
        """Close and, when owning, unlink the name."""
        self._finalizer.detach()
        _finalize_segment(self._shm, self.owner)


def _finalize_segment(shm: shared_memory.SharedMemory, owner: bool) -> None:
    try:
        shm.close()
    except BufferError:
        # A numpy view over the buffer is still alive: leave the mapping to
        # process exit and neutralize ``SharedMemory.__del__`` so it does
        # not retry the close and print an ignored exception.
        shm._buf = None
        shm._mmap = None
    except Exception:
        pass
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


def force_unlink(name: str) -> bool:
    """Unlink a segment by name from any process; returns whether it existed.

    Used by the parent broker to reap segments created by workers (normal
    exit or crash): the fork tree shares one resource tracker, so the
    attach-and-unlink here also retires the dead creator's registration.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        # Already unlinked -- whoever did it also retired the tracker entry.
        return False
    except Exception:
        return False
    _finalize_segment(shm, owner=True)
    return True


def leaked_segments(prefix: str = "ic2mpi-") -> list[str]:
    """Live ``/dev/shm`` entries from this platform (empty == no leaks)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def unlink_prefix(prefix: str) -> int:
    """Force-unlink every ``/dev/shm`` segment carrying ``prefix``."""
    count = 0
    for name in leaked_segments(prefix):
        if force_unlink(name):
            count += 1
    return count


# --------------------------------------------------------------------- #
# Halo-exchange fast path
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RingRef:
    """Pipe-sized descriptor of a span parked in a :class:`ShadowRing`."""

    name: str
    start: int
    count: int


def is_shadow_payload(payload: Any) -> bool:
    """Whether a payload is a halo batch the ring can carry losslessly:
    a tuple of ``(int gid, float value)`` pairs (the exact shape
    :func:`repro.core.compute` packs -- bools are excluded by the strict
    type checks, so reconstruction round-trips bit-for-bit)."""
    if type(payload) is not tuple or len(payload) < FASTPATH_MIN_RECORDS:
        return False
    for item in payload:
        if (
            type(item) is not tuple
            or len(item) != 2
            or type(item[0]) is not int
            or type(item[1]) is not float
        ):
            return False
        if not -(2**63) <= item[0] < 2**63:
            return False
    return True


class ShadowRing:
    """SPSC ring of halo records over one shared segment.

    Layout: ``int64 head | int64 tail | int64 gids[cap] | float64 vals[cap]``.
    ``head``/``tail`` are monotonically increasing record counts; positions
    wrap modulo ``capacity`` so a span may straddle the end (read/write as
    two slices).
    """

    def __init__(self, segment: SharedSegment, capacity: int) -> None:
        self.segment = segment
        self.capacity = capacity
        buf = segment.buf
        self._ctl = np.frombuffer(buf, dtype=np.int64, count=_HEADER_SLOTS)
        self._gids = np.frombuffer(
            buf, dtype=np.int64, count=capacity, offset=_HEADER_BYTES
        )
        self._vals = np.frombuffer(
            buf,
            dtype=np.float64,
            count=capacity,
            offset=_HEADER_BYTES + 8 * capacity,
        )
        # Consumer-side bookkeeping for out-of-order retirement.
        self._done_spans: dict[int, int] = {}

    @staticmethod
    def nbytes_for(capacity: int) -> int:
        return _HEADER_BYTES + 16 * capacity

    @classmethod
    def create(cls, name: str, capacity: int = DEFAULT_RING_CAPACITY) -> "ShadowRing":
        segment = SharedSegment(name, size=cls.nbytes_for(capacity), create=True)
        ring = cls(segment, capacity)
        ring._ctl[0] = 0
        ring._ctl[1] = 0
        return ring

    @classmethod
    def attach(cls, ref_name: str) -> "ShadowRing":
        segment = SharedSegment(ref_name, create=False)
        capacity = (segment.size - _HEADER_BYTES) // 16
        return cls(segment, capacity)

    # ------------------------------ producer -------------------------- #

    def try_put(self, payload: Sequence[tuple[int, float]]) -> RingRef | None:
        """Copy a shadow batch in; ``None`` when it does not fit (caller
        falls back to pickling through the pipe)."""
        n = len(payload)
        head = int(self._ctl[0])
        tail = int(self._ctl[1])
        if n > self.capacity - (head - tail):
            return None
        start = head % self.capacity
        gids = np.fromiter((p[0] for p in payload), dtype=np.int64, count=n)
        vals = np.fromiter((p[1] for p in payload), dtype=np.float64, count=n)
        first = min(n, self.capacity - start)
        self._gids[start : start + first] = gids[:first]
        self._vals[start : start + first] = vals[:first]
        if first < n:
            self._gids[: n - first] = gids[first:]
            self._vals[: n - first] = vals[first:]
        self._ctl[0] = head + n
        return RingRef(name=self.segment.name, start=head, count=n)

    # ------------------------------ consumer -------------------------- #

    def read(self, ref: RingRef) -> tuple[np.ndarray, np.ndarray]:
        """The span's ``(gids, values)`` as fresh (copied) arrays."""
        start = ref.start % self.capacity
        n = ref.count
        first = min(n, self.capacity - start)
        gids = np.empty(n, dtype=np.int64)
        vals = np.empty(n, dtype=np.float64)
        gids[:first] = self._gids[start : start + first]
        vals[:first] = self._vals[start : start + first]
        if first < n:
            gids[first:] = self._gids[: n - first]
            vals[first:] = self._vals[: n - first]
        return gids, vals

    def retire(self, ref: RingRef) -> None:
        """Mark the span consumed; advance ``tail`` over the contiguous
        retired prefix (spans may retire out of order)."""
        self._done_spans[ref.start] = ref.start + ref.count
        tail = int(self._ctl[1])
        while tail in self._done_spans:
            tail = self._done_spans.pop(tail)
        self._ctl[1] = tail

    def _drop_views(self) -> None:
        self._ctl = self._gids = self._vals = None  # type: ignore[assignment]

    def close(self) -> None:
        self._drop_views()
        self.segment.close()

    def release(self) -> None:
        self._drop_views()
        self.segment.release()
