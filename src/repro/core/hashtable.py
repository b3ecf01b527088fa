"""The node-data hash table (section 4.1).

"Hash tables are implemented as an array of pointers to sorted linked lists
which contain the locations for node data.  A modulo hash function is
applied on the node global ID (key) to obtain the location for node data."

The table plays the thesis's dual role: amortized O(1) access to any node's
:class:`~repro.core.node.NodeData` during computation (owned *and* shadow
nodes alike), and the lookup path for updating shadow data after
communication.  The hash function follows the appendix code,
``(3 ** gid) mod table_length``, computed with modular exponentiation.

A plain dict would do the same job in Python; the explicit bucket structure
is kept because the thesis treats bucket behaviour as part of the design
(and the tests exercise it directly).  One behaviour of the appendix's hash
is recorded rather than "fixed": 3 has order ``2**(k-2)`` modulo ``2**k``, so
a power-of-two length reaches only ``length / 4`` buckets (16 of the default
64) -- no longer paid per node update, see ``NodeStore.neighbor_records``.
"""

from __future__ import annotations

from typing import Iterator

from .node import NodeData

__all__ = ["NodeHashTable", "DEFAULT_TABLE_LENGTH"]

#: The appendix header uses 10; larger keeps buckets short for big graphs.
DEFAULT_TABLE_LENGTH = 64


class NodeHashTable:
    """Bucketed modulo-hash table mapping global IDs to node data records.

    Args:
        length: Number of buckets (the appendix's ``HASH_TABLE_LENGTH``).
    """

    def __init__(self, length: int = DEFAULT_TABLE_LENGTH) -> None:
        if length < 1:
            raise ValueError(f"table length must be >= 1, got {length}")
        self._length = length
        self._buckets: list[list[NodeData]] = [[] for _ in range(length)]
        self._count = 0

    @property
    def length(self) -> int:
        """Number of buckets."""
        return self._length

    def hash_index(self, gid: int) -> int:
        """The appendix's hash: ``(3 ** gid) mod length``."""
        if gid < 1:
            raise KeyError(f"global IDs are 1-based, got {gid}")
        return pow(3, gid, self._length)

    def insert(self, record: NodeData) -> bool:
        """Insert a record; returns False (no-op) if the gid is present.

        Mirrors the appendix's duplicate check when inserting shadows that
        several peripheral nodes reference.
        """
        bucket = self._buckets[self.hash_index(record.global_id)]
        for existing in bucket:
            if existing.global_id == record.global_id:
                return False
        # Buckets are kept sorted by gid ("sorted linked lists").
        lo, hi = 0, len(bucket)
        while lo < hi:
            mid = (lo + hi) // 2
            if bucket[mid].global_id < record.global_id:
                lo = mid + 1
            else:
                hi = mid
        bucket.insert(lo, record)
        self._count += 1
        return True

    def get(self, gid: int) -> NodeData | None:
        """Look up the data record for ``gid`` (None when absent)."""
        for record in self._buckets[self.hash_index(gid)]:
            if record.global_id == gid:
                return record
            if record.global_id > gid:  # sorted bucket: early exit
                return None
        return None

    def __getitem__(self, gid: int) -> NodeData:
        record = self.get(gid)
        if record is None:
            raise KeyError(f"node {gid} not in hash table")
        return record

    def __contains__(self, gid: int) -> bool:
        return self.get(gid) is not None

    def remove(self, gid: int) -> bool:
        """Remove the record for ``gid``; returns whether it was present."""
        bucket = self._buckets[self.hash_index(gid)]
        for idx, record in enumerate(bucket):
            if record.global_id == gid:
                bucket.pop(idx)
                self._count -= 1
                return True
            if record.global_id > gid:
                return False
        return False

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[NodeData]:
        for bucket in self._buckets:
            yield from bucket

    def gids(self) -> list[int]:
        """All stored global IDs (ascending)."""
        return sorted(record.global_id for record in self)

    def bucket_lengths(self) -> list[int]:
        """Per-bucket occupancy, for distribution tests."""
        return [len(bucket) for bucket in self._buckets]

    def clear(self) -> None:
        """Drop every record."""
        self._buckets = [[] for _ in range(self._length)]
        self._count = 0
