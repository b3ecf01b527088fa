"""Shared-memory halo ring, kept for the ring micro-benchmark only.

The multiprocess backend (:mod:`repro.mpi.process`) maps no shared memory:
a worker sends every message, halo batches included, through its pipe to
the parent broker.  What is left here has no caller in the platform:

* :class:`ShadowRing` (with :class:`SharedSegment`, :class:`RingRef` and
  :data:`DEFAULT_RING_CAPACITY`) -- a single-producer/single-consumer ring
  of ``(gid, value)`` records over one named POSIX segment, the halo
  transport the process backend used before its pipe carried everything.
  ``benchmarks/perf/micro.py --kind ring`` still times one round trip of
  it, so it stays until that micro goes.
* :func:`leaked_segments` -- the ``/dev/shm`` entries named ``ic2mpi-*``;
  ``benchmarks/perf/sample.py`` fails a sample that leaves any behind.

The ring: the producer copies a batch into two parallel
``int64``/``float64`` arrays and returns a :class:`RingRef` descriptor;
the consumer slices the span back out and retires it.  Two monotonically
increasing counters live in the segment header: ``head`` (records
produced) and ``tail`` (records retired).  The producer refuses a put
that would overrun un-retired records; spans may retire out of order, and
``tail`` advances over the contiguous retired prefix.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

__all__ = ["RingRef", "SharedSegment", "ShadowRing", "leaked_segments"]

#: Default per-edge ring capacity, records (16 bytes each -> 512 KiB).
DEFAULT_RING_CAPACITY = 1 << 15

_HEADER_SLOTS = 2  # head, tail -- int64 each
_HEADER_BYTES = _HEADER_SLOTS * 8


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


def leaked_segments(prefix: str = "ic2mpi-") -> list[str]:
    """Live ``/dev/shm`` entries from this platform (empty == no leaks)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


# --------------------------------------------------------------------- #
# The ring
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RingRef:
    """Pipe-sized descriptor of a span parked in a :class:`ShadowRing`."""

    name: str
    start: int
    count: int


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
        """Copy a shadow batch in; ``None`` when it does not fit."""
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
