"""Communication buffers for the shadow exchange.

"An array of pointers to an array of structures, one for each neighbouring
processor, is used for the communication buffers" (section 4.2).  Here each
outgoing buffer is a list of ``(global_id, value)`` records; the committed
struct datatype gives the exact wire size the cost model charges.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from ..mpi.datatypes import INT, StructType
from ..mpi.timing import estimate_nbytes

__all__ = ["ShadowRecord", "CommBuffers", "BUFFER_RECORD_TYPE"]

#: The thesis's ``buffer_data_node``: two ints (globalID, data), committed.
BUFFER_RECORD_TYPE = StructType([(2, INT)], name="buffer_data_node").commit()

ShadowRecord = tuple[int, Any]  # (global_id, value)

_INT_RECORD_NBYTES = BUFFER_RECORD_TYPE.size_of()
_ID_NBYTES = INT.size_of()


def _record_nbytes(value: Any) -> int:
    """Wire size of one ``(global_id, value)`` record (see :meth:`CommBuffers.pack`)."""
    if isinstance(value, bool | int):
        return _INT_RECORD_NBYTES
    return _ID_NBYTES + estimate_nbytes(value)


_FLOAT_RECORD_NBYTES = _record_nbytes(0.0)


class CommBuffers:
    """Per-destination outgoing shadow buffers for one rank.

    Args:
        nprocs: Number of processors (buffer slots, including self; the
            self slot stays empty).
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self._out: list[list[ShadowRecord]] = [[] for _ in range(nprocs)]
        # Wire size of each buffer, summed record by record as they are
        # packed (integers, so the running sum is exact).
        self._nbytes = [0] * nprocs

    def reset(self) -> None:
        """Empty every buffer (start of a sweep)."""
        for buf in self._out:
            buf.clear()
        self._nbytes = [0] * self.nprocs

    def pack(self, proc: int, gid: int, value: Any) -> None:
        """Append an updated peripheral record to ``proc``'s buffer.

        Integer-valued records cost exactly the committed struct size on
        the wire; other payloads fall back to the generic estimator (plus 4
        bytes for the id), so the battlefield's fat hex records are charged
        realistically.
        """
        if not 0 <= proc < self.nprocs:
            raise IndexError(f"processor {proc} outside [0, {self.nprocs})")
        self._out[proc].append((gid, value))
        self._nbytes[proc] += _record_nbytes(value)

    def pack_all(self, proc: int, gids: Sequence[int], values: Sequence[Any]) -> None:
        """:meth:`pack` each ``(gids[i], values[i])`` in order, as one
        extend of ``proc``'s buffer (a batch of plain floats is sized in
        one multiplication)."""
        if not 0 <= proc < self.nprocs:
            raise IndexError(f"processor {proc} outside [0, {self.nprocs})")
        self._out[proc].extend(zip(gids, values))
        if set(map(type, values)) <= {float}:
            self._nbytes[proc] += len(values) * _FLOAT_RECORD_NBYTES
        else:
            self._nbytes[proc] += sum(map(_record_nbytes, values))

    def outgoing(self, proc: int) -> list[ShadowRecord]:
        """The records queued for ``proc``."""
        return self._out[proc]

    def nonempty_procs(self) -> list[int]:
        """Destinations with queued records, ascending."""
        return [q for q, buf in enumerate(self._out) if buf]

    def total_records(self) -> int:
        """Records queued across all destinations."""
        return sum(len(buf) for buf in self._out)

    def nbytes(self, proc: int) -> int:
        """Wire size of ``proc``'s buffer (see :meth:`pack`)."""
        return self._nbytes[proc]

    def __iter__(self) -> Iterator[tuple[int, list[ShadowRecord]]]:
        for q, buf in enumerate(self._out):
            if buf:
                yield q, buf
