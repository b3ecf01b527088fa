"""Struct-of-arrays node store: contiguous numpy state behind the NodeStore API.

The object store keeps one :class:`~repro.core.node.NodeData` instance per
node -- flexible, but at 100k+ nodes the per-record attribute traffic and
hash-bucket scans dominate wall time.  :class:`SoAStore` keeps the same
*logical* state in parallel numpy arrays (values, pending values, version
counters, halt flags), in the style of gpaw's grid descriptors:

::

    slot:            0      1      2      3    ...
    _values     [ 12.5 | 17.0 |  3.25 |  8.0 | ... ]   float64 (or object)
    _pending    [  --  | 16.5 |  --   |  7.5 | ... ]   valid where mask set
    _pend_mask  [  F   |  T   |  F    |  T   | ... ]   bool
    _versions   [  3   |  5   |  0    |  2   | ... ]   int64
    _halted     [  F   |  F   |  T    |  F   | ... ]   bool
    _gids       [  7   |  12  |  31   |  40  | ... ]   int64
                   ^ slot assignment via the _slot_of dict

Everything above the record layer is inherited unchanged: ownership
surgery, checkpoint capture/restore, integrity repair, and migration all go
through the same :meth:`NodeStore._add_record` seam and see per-record
*proxy* objects (:class:`_ArrayRecord`) that read and write the arrays.
Proxies are cached one-per-gid so the object-identity invariants of the
base class (``hash_table.get(gid) is data_records[gid]``) keep holding.

Exactness rules (the differential oracle demands byte-identical results
against the object store):

* Reads return the *exact* Python objects the object store would hold:
  ``float(arr[slot])`` is lossless for float64, versions come back as
  Python ints.  Checkpoint payloads, wire records, and integrity digests
  therefore pickle identically.
* The float64 fast path only engages while every stored value is exactly
  of type :class:`float`.  The first non-float write demotes the whole
  store to object dtype (preserving the original objects), so arbitrary
  application values (battlefield dicts, ints, numpy scalars) behave
  exactly as in the object store.
* Bulk kernels (:class:`BulkView`) sum neighbour segments over a *closed*
  adjacency (self value prepended per segment) with a column-sweep
  accumulation that reproduces the scalar left-to-right summation order
  bit-for-bit (``np.add.reduceat`` would reduce pairwise -- off by an
  ulp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..graphs.graph import concat_ranges
from .nodestore import NodeStore

__all__ = ["SoAStore", "BulkView", "ChargePlan"]

#: Retained sparse gather geometries per topology epoch, evicted LRU
#: (delta and hybrid frontiers often alternate between a small number of
#: stable active sets).
_SPARSE_GEOMETRY_SLOTS = 8


# --------------------------------------------------------------------- #
# Exact segmented sums
# --------------------------------------------------------------------- #


def _ranges_sum(flat: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per-range sums ``sum(flat[starts[i]:ends[i]])``, left-to-right.

    ``np.add.reduceat`` is the obvious tool but it reduces segments
    *pairwise* (``(a+b)+(c+d)``), which differs from Python's sequential
    ``((a+b)+c)+d`` in the last ulp -- enough to flip a ``round()`` and
    break the differential oracle.  Instead the segments are accumulated
    column by column: pass ``k`` adds the ``k``-th element of every range
    still that long, so each range is summed strictly left to right from
    zero, bit for bit like the scalar path's ``reduce(add, [...], 0)``
    (builtin ``sum()`` stopped being that sequence in Python 3.12, which
    compensates float sums).  The pass count is the maximum range length
    (a graph degree), while each pass is one vectorized gather-add over
    all ranges.  Empty ranges sum to ``0.0``.
    """
    k = len(starts)
    out = np.zeros(k, dtype=flat.dtype)
    if k == 0:
        return out
    lens = np.asarray(ends) - np.asarray(starts)
    for col in range(int(lens.max())):
        sel = np.nonzero(lens > col)[0]
        out[sel] += flat[starts[sel] + col]
    return out


# --------------------------------------------------------------------- #
# Bulk view (what a vectorized node kernel sees)
# --------------------------------------------------------------------- #


@dataclass
class BulkView:
    """A batch of nodes presented to a bulk kernel as arrays.

    The neighbourhood is a *closed* CSR: segment ``i`` of
    ``closed_values`` is ``[own value, neighbour 1, neighbour 2, ...]`` --
    exactly the list the scalar path reduces left to right, in the same
    order, so segmented sums match the scalar results bit-for-bit.

    Attributes:
        gids: Global IDs of the nodes in this view (sweep order).
        values: Committed own values, aligned with ``gids``.
        closed_values: Concatenated closed neighbourhood segments.
        indptr: ``len(gids)+1`` segment offsets into ``closed_values``.
        degrees: Neighbour counts, aligned with ``gids``.
        iteration: Current platform iteration (0-based).
        round: Current communication round.
        plan: What the sweep's virtual-cost accountant needs to charge for
            these nodes (:class:`ChargePlan`); kernels ignore it.
    """

    gids: np.ndarray
    values: np.ndarray
    closed_values: np.ndarray
    indptr: np.ndarray
    degrees: np.ndarray
    iteration: int
    round: int
    plan: "ChargePlan"

    def __len__(self) -> int:
        return len(self.gids)

    def sum_closed(self) -> np.ndarray:
        """Own value plus neighbour values per node, added in scalar order."""
        return _ranges_sum(self.closed_values, self.indptr[:-1], self.indptr[1:])

    def sum_neighbors(self) -> np.ndarray:
        """``sum(neighbour values)`` per node (0 for isolated nodes)."""
        return _ranges_sum(self.closed_values, self.indptr[:-1] + 1, self.indptr[1:])


@dataclass(slots=True)
class ChargePlan:
    """The nodes of one bulk view as the virtual-cost accountant sees them.

    Built from arrays the store already holds (never from ``OwnNode``
    lists) and cached wherever the view's gather geometry is cached, so a
    geometry hit is a plan hit.  The store knows no cost constants: the
    compute layer folds them with these arrays into charge matrices and
    memoizes those in ``templates``.

    Attributes:
        gids: Global IDs in sweep order -- internal nodes, then peripheral.
        degrees: Neighbour counts, aligned with ``gids``.
        split: Number of leading internal nodes.
        dests: ``shadow_for_procs`` of each peripheral node, aligned with
            ``gids[split:]``.
        templates: The compute layer's memo (dies with the plan).
    """

    gids: np.ndarray
    degrees: np.ndarray
    split: int
    dests: list[tuple[int, ...]]
    templates: dict[Any, Any] = field(default_factory=dict)


@dataclass
class _BulkTopo:
    """Cached sweep-order topology of the owned set (one per surgery epoch)."""

    order_gids: list[int]
    order_gids_arr: np.ndarray
    slot_of_order: np.ndarray
    internal_count: int
    indptr: np.ndarray
    flat_slots: np.ndarray
    degrees: np.ndarray
    #: Sweep position of the ``i``-th smallest owned gid: maps a frontier's
    #: gid-ordered local indices to positions with one fancy index.
    by_gid: np.ndarray
    #: The dense (whole owned set) charge plan.
    plan: ChargePlan
    view_caches: dict[str, tuple] = field(default_factory=dict)
    #: Anonymous sparse gather geometries keyed by the positions bytes
    #: (bounded LRU over dict insertion order; see
    #: :meth:`SoAStore.bulk_view`).
    sparse_cache: dict[bytes, tuple] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Per-record proxy
# --------------------------------------------------------------------- #


class _ArrayRecord:
    """A NodeData-shaped window onto one slot of the arrays.

    Cached one-per-gid by the store so identity checks
    (``data_records[gid] is hash_table.get(gid)``) behave exactly as with
    real :class:`~repro.core.node.NodeData` instances.
    """

    __slots__ = ("_store", "global_id")

    def __init__(self, store: "SoAStore", gid: int) -> None:
        self._store = store
        self.global_id = gid

    @property
    def data(self) -> Any:
        return self._store._read_value(self._store._slot_of[self.global_id])

    @data.setter
    def data(self, value: Any) -> None:
        self._store._write_value(self._store._slot_of[self.global_id], value)

    @property
    def most_recent_data(self) -> Any:
        return self._store._read_pending(self._store._slot_of[self.global_id])

    @most_recent_data.setter
    def most_recent_data(self, value: Any) -> None:
        self._store._write_pending(self._store._slot_of[self.global_id], value)

    @property
    def version(self) -> int:
        return int(self._store._versions[self._store._slot_of[self.global_id]])

    @version.setter
    def version(self, value: int) -> None:
        self._store._versions[self._store._slot_of[self.global_id]] = value

    @property
    def halted(self) -> bool:
        return bool(self._store._halted[self._store._slot_of[self.global_id]])

    @halted.setter
    def halted(self, value: bool) -> None:
        self._store._halted[self._store._slot_of[self.global_id]] = bool(value)

    def commit(self) -> bool:
        """Mirror :meth:`NodeData.commit` on the array slots."""
        pending = self.most_recent_data
        if pending is None:
            return False
        changed = pending != self.data
        self.data = pending
        self.most_recent_data = None
        if changed:
            self.version += 1
        return changed

    def __repr__(self) -> str:
        return f"NodeData(gid={self.global_id}, data={self.data!r}, v{self.version})"


# --------------------------------------------------------------------- #
# dict / hash-table facades
# --------------------------------------------------------------------- #


class _SoARecords:
    """``data_records`` facade: a gid-keyed mapping over the arrays."""

    __slots__ = ("_store",)

    def __init__(self, store: "SoAStore") -> None:
        self._store = store

    def __getitem__(self, gid: int) -> _ArrayRecord:
        if gid not in self._store._slot_of:
            raise KeyError(gid)
        return self._store._proxy(gid)

    def get(self, gid: int, default: Any = None) -> Any:
        if gid not in self._store._slot_of:
            return default
        return self._store._proxy(gid)

    def __contains__(self, gid: int) -> bool:
        return gid in self._store._slot_of

    def __len__(self) -> int:
        return len(self._store._slot_of)

    def __iter__(self) -> Iterator[int]:
        return iter(list(self._store._order))

    def keys(self) -> list[int]:
        return list(self._store._order)

    def values(self) -> Iterator[_ArrayRecord]:
        for gid in list(self._store._order):
            yield self._store._proxy(gid)

    def items(self) -> Iterator[tuple[int, _ArrayRecord]]:
        for gid in list(self._store._order):
            yield gid, self._store._proxy(gid)

    def __delitem__(self, gid: int) -> None:
        self._store._remove_record(gid)

    def clear(self) -> None:
        for gid in list(self._store._order):
            self._store._remove_record(gid)


class _SoAHashTable:
    """``hash_table`` facade with the :class:`NodeHashTable` read API.

    Lookups are O(1) dict hits; the modulo-hash bucket *accounting*
    (``hash_index`` / ``bucket_lengths``) is still answered for
    diagnostics, computed from the same appendix hash function.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "SoAStore") -> None:
        self._store = store

    @property
    def length(self) -> int:
        return self._store._table_length

    def hash_index(self, gid: int) -> int:
        if gid < 1:
            raise KeyError(f"global IDs are 1-based, got {gid}")
        return pow(3, gid, self._store._table_length)

    def get(self, gid: int) -> _ArrayRecord | None:
        if gid not in self._store._slot_of:
            return None
        return self._store._proxy(gid)

    def __getitem__(self, gid: int) -> _ArrayRecord:
        if gid not in self._store._slot_of:
            raise KeyError(f"node {gid} not in hash table")
        return self._store._proxy(gid)

    def __contains__(self, gid: int) -> bool:
        return gid in self._store._slot_of

    def insert(self, record: Any) -> bool:
        raise TypeError(
            "SoAStore manages its hash index internally; "
            "add records through the store API"
        )

    def remove(self, gid: int) -> bool:
        if gid not in self._store._slot_of:
            return False
        self._store._remove_record(gid)
        return True

    def __len__(self) -> int:
        return len(self._store._slot_of)

    def __iter__(self) -> Iterator[_ArrayRecord]:
        # Bucket order, sorted within buckets -- same order as the real table.
        buckets: dict[int, list[int]] = {}
        for gid in self._store._slot_of:
            buckets.setdefault(self.hash_index(gid), []).append(gid)
        for index in sorted(buckets):
            for gid in sorted(buckets[index]):
                yield self._store._proxy(gid)

    def gids(self) -> list[int]:
        return sorted(self._store._slot_of)

    def bucket_lengths(self) -> list[int]:
        lengths = [0] * self._store._table_length
        for gid in self._store._slot_of:
            lengths[self.hash_index(gid)] += 1
        return lengths


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


class SoAStore(NodeStore):
    """Struct-of-arrays drop-in for :class:`NodeStore`.

    Same constructor, same API, same observable behaviour (the
    differential oracle in ``tests/core/test_store_conformance.py`` pins
    this); node state lives in contiguous numpy arrays and the hot
    commit/shadow-update paths run vectorized.
    """

    # -------------------------- record layer -------------------------- #

    def _init_record_storage(self, hash_table_length: int) -> None:
        self._table_length = hash_table_length
        self._slot_of: dict[int, int] = {}
        self._order: list[int] = []
        self._free: list[int] = []
        self._high_water = 0
        self._float_mode = True
        self._values = np.empty(0, dtype=np.float64)
        self._pending = np.empty(0, dtype=np.float64)
        self._pending_mask = np.zeros(0, dtype=bool)
        self._versions = np.zeros(0, dtype=np.int64)
        self._halted = np.zeros(0, dtype=bool)
        self._gids = np.zeros(0, dtype=np.int64)
        self._proxies: dict[int, _ArrayRecord] = {}
        self._topo: _BulkTopo | None = None
        # Sparse gather-geometry memo telemetry (pinned by
        # benchmarks/test_extensions.py::test_soa_store).
        self.sparse_geom_hits = 0
        self.sparse_geom_misses = 0
        self.data_records = _SoARecords(self)  # type: ignore[assignment]
        self.hash_table = _SoAHashTable(self)  # type: ignore[assignment]

    def _capacity(self) -> int:
        return len(self._values)

    def _grow(self, minimum: int) -> None:
        new_cap = max(64, 2 * self._capacity(), minimum)
        pad = new_cap - self._capacity()
        value_dtype = self._values.dtype
        self._values = np.concatenate([self._values, np.zeros(pad, dtype=value_dtype)])
        self._pending = np.concatenate([self._pending, np.zeros(pad, dtype=value_dtype)])
        if value_dtype == object:
            self._pending[-pad:] = None
        self._pending_mask = np.concatenate([self._pending_mask, np.zeros(pad, dtype=bool)])
        self._versions = np.concatenate([self._versions, np.zeros(pad, dtype=np.int64)])
        self._halted = np.concatenate([self._halted, np.zeros(pad, dtype=bool)])
        self._gids = np.concatenate([self._gids, np.zeros(pad, dtype=np.int64)])

    def _new_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if self._high_water == self._capacity():
            self._grow(self._high_water + 1)
        slot = self._high_water
        self._high_water += 1
        return slot

    def _demote(self) -> None:
        """Switch from the float64 fast path to object dtype, preserving
        every stored value exactly (float64 entries become Python floats,
        as the object store would hold them)."""
        values = np.empty(self._capacity(), dtype=object)
        values[:] = self._values.tolist()
        pending = np.empty(self._capacity(), dtype=object)
        pending[:] = None
        pending_list = self._pending.tolist()
        for slot in np.flatnonzero(self._pending_mask):
            pending[slot] = pending_list[slot]
        self._values = values
        self._pending = pending
        self._float_mode = False

    def _read_value(self, slot: int) -> Any:
        value = self._values[slot]
        return float(value) if self._float_mode else value

    def _write_value(self, slot: int, value: Any) -> None:
        if self._float_mode and type(value) is not float:
            self._demote()
        self._values[slot] = value

    def _read_pending(self, slot: int) -> Any:
        if not self._pending_mask[slot]:
            return None
        value = self._pending[slot]
        return float(value) if self._float_mode else value

    def _write_pending(self, slot: int, value: Any) -> None:
        if value is None:
            self._pending_mask[slot] = False
            if not self._float_mode:
                self._pending[slot] = None
            return
        if self._float_mode and type(value) is not float:
            self._demote()
        self._pending[slot] = value
        self._pending_mask[slot] = True

    def _proxy(self, gid: int) -> _ArrayRecord:
        proxy = self._proxies.get(gid)
        if proxy is None:
            proxy = self._proxies[gid] = _ArrayRecord(self, gid)
        return proxy

    def _add_record(
        self,
        gid: int,
        value: Any,
        most_recent: Any = None,
        version: int = 0,
        halted: bool = False,
    ) -> _ArrayRecord:
        if gid in self._slot_of:
            raise KeyError(f"rank {self.rank} already holds a record for node {gid}")
        slot = self._new_slot()
        self._slot_of[gid] = slot
        self._order.append(gid)
        self._gids[slot] = gid
        self._versions[slot] = version
        self._halted[slot] = bool(halted)
        self._pending_mask[slot] = False
        self._write_value(slot, value)
        self._write_pending(slot, most_recent)
        self._topo = None
        return self._proxy(gid)

    def _add_records(self, gids: Sequence[int], values: Sequence[Any]) -> list[_ArrayRecord]:
        """One array write per column -- when that is exactly the
        per-record loop: plain floats only (anything else demotes, at the
        record the loop would demote at), fresh distinct gids (a held one
        is the loop's ``KeyError``), no freed slot to reuse first."""
        count = len(gids)
        if (
            not self._float_mode
            or self._free
            or set(map(type, values)) - {float}
            or len(set(gids)) != count
            or not self._slot_of.keys().isdisjoint(gids)
        ):
            return super()._add_records(gids, values)
        start, stop = self._high_water, self._high_water + count
        if stop > self._capacity():
            # The capacity the loop's doublings would have reached.
            capacity = max(64, self._capacity())
            while capacity < stop:
                capacity *= 2
            self._grow(capacity)
        self._high_water = stop
        self._slot_of.update(zip(gids, range(start, stop)))
        self._order.extend(gids)
        # Slots past the high-water mark were never handed out: version 0,
        # not halted, nothing pending, as allocated.
        self._gids[start:stop] = gids
        self._values[start:stop] = values
        self._topo = None
        proxies = list(map(_ArrayRecord, repeat(self), gids))
        self._proxies.update(zip(gids, proxies))
        return proxies

    def _remove_record(self, gid: int) -> None:
        slot = self._slot_of.pop(gid)
        self._order.remove(gid)
        self._free.append(slot)
        self._pending_mask[slot] = False
        self._halted[slot] = False
        if not self._float_mode:
            self._values[slot] = None
            self._pending[slot] = None
        self._proxies.pop(gid, None)
        self._topo = None

    def _invalidate_topology_cache(self) -> None:
        super()._invalidate_topology_cache()
        self._topo = None

    # ------------------------- vectorized ops ------------------------- #

    def commit_owned(self) -> list[int]:
        topo = self.bulk_topology()
        slots = topo.slot_of_order
        if len(slots) == 0:
            return []
        pending_here = self._pending_mask[slots]
        if not pending_here.any():
            return []
        sel = np.flatnonzero(pending_here)
        sel_slots = slots[sel]
        if self._float_mode:
            changed_here = self._pending[sel_slots] != self._values[sel_slots]
        else:
            changed_here = np.fromiter(
                (
                    self._pending[slot] != self._values[slot]
                    for slot in sel_slots.tolist()
                ),
                dtype=bool,
                count=len(sel_slots),
            )
        self._values[sel_slots] = self._pending[sel_slots]
        self._pending_mask[sel_slots] = False
        if not self._float_mode:
            self._pending[sel_slots] = None
        bumped = sel_slots[changed_here]
        self._versions[bumped] += 1
        return topo.order_gids_arr[sel[changed_here]].tolist()

    def _owned_column(self, column: np.ndarray) -> dict[int, Any]:
        """``gid -> column[slot]`` over the owned set in sweep order, boxed
        by ``tolist`` into the exact objects the per-record reads return."""
        topo = self.bulk_topology()
        return dict(zip(topo.order_gids, column[topo.slot_of_order].tolist()))

    def owned_values(self) -> dict[int, Any]:
        return self._owned_column(self._values)

    def owned_versions(self) -> dict[int, int]:
        return self._owned_column(self._versions)

    def update_shadow(self, gid: int, value: Any) -> bool:
        slot = self._slot_of.get(gid)
        if slot is None:
            raise KeyError(f"rank {self.rank} received shadow for unknown node {gid}")
        if self._read_value(slot) == value:
            return False
        self._write_value(slot, value)
        self._versions[slot] += 1
        return True

    def update_shadows(self, records: Iterable[tuple[int, Any]]) -> list[int]:
        """One message's shadow records in a single compare/write/bump pass.

        Only when that is exactly the per-record loop: every value a plain
        float on the float64 fast path, every gid known and distinct.
        Anything else (a demoting value, an unknown gid's ``KeyError``, a
        repeated gid) takes the loop, record by record.
        """
        records = tuple(records)
        gids, values = zip(*records) if records else ((), ())
        distinct = set(gids)
        slot_of = self._slot_of
        if (
            not self._float_mode
            or set(map(type, values)) != {float}
            or len(distinct) != len(gids)
            or not slot_of.keys() >= distinct
        ):
            return super().update_shadows(records)
        slots = np.fromiter(map(slot_of.__getitem__, gids), np.intp, len(gids))
        fresh = np.array(values)
        changed = self._values[slots] != fresh
        hit = slots[changed]
        self._values[hit] = fresh[changed]
        self._versions[hit] += 1
        return [gid for gid, moved in zip(gids, changed.tolist()) if moved]

    # --------------------------- bulk views --------------------------- #

    def bulk_topology(self) -> _BulkTopo:
        """The sweep-order owned set as arrays (cached per surgery epoch)."""
        topo = self._topo
        if topo is not None:
            return topo
        gids = [*self.internal, *self.peripheral]
        gids_arr = np.array(gids, dtype=np.int64)
        # gid -> slot as an array, so the owned rows of the graph's CSR
        # (each behind its own gid) translate in one fancy index.
        held = np.fromiter(self._slot_of.values(), np.int64, len(self._slot_of))
        slot_of = np.full(self.graph.num_nodes + 1, -1, dtype=np.int64)
        slot_of[self._gids[held]] = held
        closed_lens, closed = self.graph.csr().rows(gids_arr - 1, closed=True)
        flat_slots = slot_of[closed]
        if len(flat_slots) and flat_slots.min() < 0:
            raise KeyError(int(closed[np.argmin(flat_slots)]))
        slots = slot_of[gids_arr]
        indptr = np.zeros(len(gids) + 1, dtype=np.intp)
        np.cumsum(closed_lens, out=indptr[1:])
        degrees = closed_lens - 1
        topo = _BulkTopo(
            order_gids=gids,
            order_gids_arr=gids_arr,
            slot_of_order=slots,
            internal_count=len(self.internal),
            indptr=indptr,
            flat_slots=flat_slots,
            degrees=degrees,
            by_gid=np.argsort(gids_arr),
            plan=ChargePlan(
                gids_arr,
                degrees,
                len(self.internal),
                [node.shadow_for_procs for node in self.peripheral.values()],
            ),
        )
        self._topo = topo
        return topo

    def bulk_view(
        self,
        positions: np.ndarray | None,
        iteration: int,
        round_idx: int,
        key: str | None = None,
    ) -> BulkView:
        """Gather a :class:`BulkView` for the given sweep positions.

        ``positions=None`` means the full owned set in sweep order; explicit
        positions list internal nodes before peripheral ones, as every sweep
        does (the view's :class:`ChargePlan` splits them there).  When
        ``key`` is given, the gather geometry is memoized on the topology
        (reused until the next ownership surgery).
        Anonymous sparse views (``positions`` given, no ``key`` -- the
        change-driven sweeps, whose active frontier varies) are memoized
        too, keyed by the positions bytes in a small LRU per topology
        epoch: once the frontier stabilizes (or alternates between a few
        working sets), the CSR slice geometry is reused across supersteps
        instead of being rebuilt every sweep.  Hybrid execution leans on
        this hardest -- a converging interior frontier revisits the same
        position sets across inner sweeps.  The charge plan rides the same
        slot as the geometry.
        """
        topo = self.bulk_topology()
        cached = topo.view_caches.get(key) if key is not None else None
        memo_key: bytes | None = None
        if cached is None and key is None and positions is not None:
            positions = np.asarray(positions, dtype=np.intp)
            memo_key = positions.tobytes()
            cached = topo.sparse_cache.get(memo_key)
            if cached is not None:
                self.sparse_geom_hits += 1
                # Move-to-end: dict insertion order + oldest-first eviction
                # below makes the memo a true LRU.
                topo.sparse_cache[memo_key] = topo.sparse_cache.pop(memo_key)
        if cached is None:
            if positions is None:
                geometry = (
                    topo.order_gids_arr,
                    topo.slot_of_order,
                    topo.flat_slots,
                    topo.indptr,
                    topo.degrees,
                    topo.plan,
                )
            else:
                positions = np.asarray(positions, dtype=np.intp)
                starts = topo.indptr[positions]
                lens = topo.indptr[positions + 1] - starts
                offsets = np.zeros(len(positions) + 1, dtype=np.intp)
                np.cumsum(lens, out=offsets[1:])
                flat_idx = concat_ranges(starts, lens, offsets[1:])
                gids_arr = topo.order_gids_arr[positions]
                # Internal nodes come first, so the ends tell a pure part.
                n_int = topo.internal_count
                if not len(positions) or positions[-1] < n_int:
                    split = len(positions)
                elif positions[0] >= n_int:
                    split = 0
                else:
                    split = int(np.count_nonzero(positions < n_int))
                dests = topo.plan.dests
                geometry = (
                    gids_arr,
                    topo.slot_of_order[positions],
                    topo.flat_slots[flat_idx],
                    offsets,
                    lens - 1,
                    ChargePlan(
                        gids_arr,
                        lens - 1,
                        split,
                        [dests[p - n_int] for p in positions[split:].tolist()],
                    ),
                )
            if key is not None:
                topo.view_caches[key] = geometry
            elif memo_key is not None:
                self.sparse_geom_misses += 1
                if len(topo.sparse_cache) >= _SPARSE_GEOMETRY_SLOTS:
                    topo.sparse_cache.pop(next(iter(topo.sparse_cache)))
                topo.sparse_cache[memo_key] = geometry
        else:
            geometry = cached
        gids_arr, own_slots, flat_slots, indptr, degrees, plan = geometry
        return BulkView(
            gids=gids_arr,
            values=self._values[own_slots],
            closed_values=self._values[flat_slots],
            indptr=indptr,
            degrees=degrees,
            iteration=iteration,
            round=round_idx,
            plan=plan,
        )

    def scatter_pending(
        self, positions: np.ndarray | None, out: np.ndarray, boxed_from: int = 0
    ) -> list:
        """Install a bulk kernel's results as the pending values.

        Returns the stored values from index ``boxed_from`` on as exact
        Python objects: the packers put the peripheral tail on the wire and
        nobody reads the rest, so boxing it would be wasted work.
        """
        topo = self.bulk_topology()
        slots = (
            topo.slot_of_order
            if positions is None
            else topo.slot_of_order[np.asarray(positions, dtype=np.intp)]
        )
        if self._float_mode:
            arr = np.asarray(out, dtype=np.float64)
            self._pending[slots] = arr
            self._pending_mask[slots] = True
            return arr[boxed_from:].tolist()
        normalized = [
            value.item() if isinstance(value, np.generic) else value
            for value in (out.tolist() if isinstance(out, np.ndarray) else out)
        ]
        for slot, value in zip(slots.tolist(), normalized):
            self._pending[slot] = value
            self._pending_mask[slot] = value is not None
        return normalized[boxed_from:]
