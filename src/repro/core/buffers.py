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
#: A buffer and what a sweep puts in it: ``(proc, rows, gids)``.
Destination = tuple[int, Sequence[int], Sequence[int]]

_INT_RECORD_NBYTES = BUFFER_RECORD_TYPE.size_of()
_ID_NBYTES = INT.size_of()


def _record_nbytes(value: Any) -> int:
    """Wire size of one ``(global_id, value)`` record (see
    :meth:`CommBuffers.pack_all`)."""
    if isinstance(value, bool | int):
        return _INT_RECORD_NBYTES
    return _ID_NBYTES + estimate_nbytes(value)


_FLOAT_RECORD_NBYTES = _record_nbytes(0.0)
_FLOAT = {float}


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

    def pack_all(self, destinations: Sequence[Destination], values: Sequence[Any]) -> None:
        """Append one sweep's updated peripheral records: for each
        ``(proc, rows, gids)``, ``(gids[j], values[rows[j]])`` to ``proc``'s
        buffer, in order (every ``proc`` checked before anything is).

        Integer-valued records cost exactly the committed struct size on
        the wire; other payloads the generic estimator's (plus 4 bytes for
        the id), so the battlefield's fat hex records are charged
        realistically.  Each value is sized once (plain floats not at all).
        """
        for proc, _, _ in destinations:
            if not 0 <= proc < self.nprocs:
                raise IndexError(f"processor {proc} outside [0, {self.nprocs})")
        out, nbytes, pick = self._out, self._nbytes, values.__getitem__
        if {*map(type, values)} <= _FLOAT:
            for proc, rows, gids in destinations:
                out[proc].extend(zip(gids, map(pick, rows)))
                nbytes[proc] += len(rows) * _FLOAT_RECORD_NBYTES
            return
        size = [*map(_record_nbytes, values)].__getitem__
        for proc, rows, gids in destinations:
            out[proc].extend(zip(gids, map(pick, rows)))
            nbytes[proc] += sum(map(size, rows))

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
        """Wire size of ``proc``'s buffer (see :meth:`pack_all`)."""
        return self._nbytes[proc]

    def __iter__(self) -> Iterator[tuple[int, list[ShadowRecord]]]:
        for q, buf in enumerate(self._out):
            if buf:
                yield q, buf
