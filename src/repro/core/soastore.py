"""Struct-of-arrays node store: contiguous numpy state behind the NodeStore API.

The object store keeps one :class:`~repro.core.node.NodeData` instance per
node -- flexible, but at 100k+ nodes the per-record attribute traffic
dominates wall time.  :class:`SoAStore` keeps the same *logical* records in
parallel numpy arrays (values, pending values, version counters), in the
style of gpaw's grid descriptors:

::

    slot:            0      1      2      3    ...
    _values     [ 12.5 | 17.0 |  3.25 |  8.0 | ... ]   float64 (or object)
    _pending    [  --  | 16.5 |  --   |  7.5 | ... ]   valid where mask set
    _pend_mask  [  F   |  T   |  F    |  T   | ... ]   bool
    _versions   [  3   |  5   |  0    |  2   | ... ]   int64
                   ^ slot of a gid via the _slot_of dict (record order)

Everything above the record layer is inherited unchanged: the owned-set
layout and its surgery (build, release, adopt, refresh, restore), the
communication topology, checkpoint capture/restore and the invariants.
Code outside the stores reads and writes records by gid
(``value_of``/``set_value``/``version_of``/``ensure_record``/...), which
this store answers from its columns; there is no per-record object.  The
sweep-order arrays a bulk sweep gathers through (:class:`_BulkTopo`) are
derived from the layout once per surgery epoch.

The platform builds this store exactly when every node function ships a
bulk kernel (``fn.bulk``) and the ranks average at least
``BULK_MIN_NODES_PER_RANK`` nodes, and the object store otherwise: the
arrays pay off only through vectorised sweeps over enough nodes, and a
node-by-node sweep over them is slower than over plain records.

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
  adjacency (self value prepended per segment) with a column sweep --
  one contiguous gather per column, added unmasked while every segment
  is that long and masked to the longer ones after -- that reproduces
  the scalar left-to-right summation order bit-for-bit
  (``np.add.reduceat`` would reduce pairwise -- off by an ulp).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..graphs.graph import concat_ranges
from .nodestore import ChargePlan, NodeStore

__all__ = ["SoAStore", "BulkView"]

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
    (a graph degree), while each pass is one contiguous gather-add over
    all ranges: a plain ``+=`` while every range is still that long, then
    an add masked to the ranges that are (the gather clamped into
    ``flat`` for the others, whose sums the mask leaves alone).  Empty
    ranges sum to ``0.0``.
    """
    k = len(starts)
    out = np.zeros(k, dtype=flat.dtype)
    if k == 0:
        return out
    lens = np.asarray(ends) - np.asarray(starts)
    shortest, last = int(lens.min()), len(flat) - 1
    for col in range(int(lens.max())):
        if col < shortest:
            out += flat[starts + col]
        else:
            np.add(out, flat[np.minimum(starts + col, last)], out=out, where=lens > col)
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
            these nodes (:class:`~repro.core.nodestore.ChargePlan`);
            kernels ignore it.
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


@dataclass
class _BulkTopo:
    """Cached sweep-order topology of the owned set (one per surgery epoch)."""

    order_gids_arr: np.ndarray
    slot_of_order: np.ndarray
    indptr: np.ndarray
    flat_slots: np.ndarray
    #: The dense (whole owned set) charge plan.
    plan: ChargePlan
    view_caches: dict[str, tuple] = field(default_factory=dict)
    #: Anonymous sparse gather geometries keyed by the positions bytes
    #: (bounded LRU over dict insertion order; see
    #: :meth:`SoAStore.bulk_view`).
    sparse_cache: dict[bytes, tuple] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


class SoAStore(NodeStore):
    """Struct-of-arrays drop-in for :class:`NodeStore`.

    Same constructor, same owned-set layout, same gid-level record calls,
    same observable behaviour (the differential oracle in
    ``tests/core/test_store_conformance.py`` pins this); node state lives in
    contiguous numpy arrays and the hot commit/shadow-update paths run
    vectorized.  It sweeps in bulk only: no record objects, so no scalar
    sweep rows.
    """

    # -------------------------- record layer -------------------------- #

    def _init_record_storage(self) -> None:
        #: ``gid -> slot``; slots are handed out in record order and never
        #: freed, so the ``i``-th record entered holds slot ``i``.
        self._slot_of: dict[int, int] = {}
        self._float_mode = True
        self._values = np.empty(0, dtype=np.float64)
        self._pending = np.empty(0, dtype=np.float64)
        self._pending_mask = np.zeros(0, dtype=bool)
        self._versions = np.zeros(0, dtype=np.int64)
        self._topo: _BulkTopo | None = None
        # Sparse gather-geometry memo telemetry (pinned by
        # benchmarks/test_extensions.py::test_soa_store).
        self.sparse_geom_hits = 0
        self.sparse_geom_misses = 0

    def _held(self) -> dict[int, int]:
        return self._slot_of

    def _record_states(self) -> Iterator[tuple[int, Any, Any, int]]:
        for gid, slot in self._slot_of.items():
            yield gid, self._read_value(slot), self._read_pending(slot), int(self._versions[slot])

    def _slot(self, gid: int) -> int:
        slot = self._slot_of.get(gid)
        if slot is None:
            raise KeyError(f"rank {self.rank} holds no data for node {gid}")
        return slot

    def value_of(self, gid: int) -> Any:
        return self._read_value(self._slot(gid))

    def set_value(self, gid: int, value: Any) -> None:
        self._write_value(self._slot(gid), value)

    def version_of(self, gid: int) -> int:
        return int(self._versions[self._slot(gid)])

    def _set_version(self, gid: int, version: int) -> None:
        self._versions[self._slot(gid)] = version

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

    def _add_record(self, gid: int, value: Any, most_recent: Any = None, version: int = 0) -> None:
        if gid in self._slot_of:
            raise KeyError(f"rank {self.rank} already holds a record for node {gid}")
        slot = len(self._slot_of)
        if slot == self._capacity():
            self._grow(slot + 1)
        self._slot_of[gid] = slot
        self._versions[slot] = version
        self._write_value(slot, value)
        self._write_pending(slot, most_recent)
        self._topo = None

    def _add_records(self, gids: Sequence[int], values: Sequence[Any]) -> None:
        """One array write per column -- when that is exactly the
        per-record loop: plain floats only (anything else demotes, at the
        record the loop would demote at), fresh distinct gids (a held one
        is the loop's ``KeyError``)."""
        count = len(gids)
        if (
            not self._float_mode
            or set(map(type, values)) - {float}
            or len(set(gids)) != count
            or not self._slot_of.keys().isdisjoint(gids)
        ):
            return super()._add_records(gids, values)
        start = len(self._slot_of)
        stop = start + count
        if stop > self._capacity():
            # The capacity the loop's doublings would have reached.
            capacity = max(64, self._capacity())
            while capacity < stop:
                capacity *= 2
            self._grow(capacity)
        self._slot_of.update(zip(gids, range(start, stop)))
        # Slots past the last record were never handed out: version 0,
        # nothing pending, as allocated.
        self._values[start:stop] = values
        self._topo = None

    def _invalidate_topology_cache(self) -> None:
        super()._invalidate_topology_cache()
        self._topo = None

    # ------------------------- vectorized ops ------------------------- #

    def commit_owned(self) -> np.ndarray:
        """:meth:`NodeStore.commit_owned` on the arrays; the changed gids
        come back as an int64 array (in sweep order), not a list."""
        topo = self.bulk_topology()
        slots, gids = topo.slot_of_order, topo.order_gids_arr
        pending = self._pending_mask[slots]
        if not pending.any():
            return gids[:0]
        # After a dense sweep every owned slot is pending: no gathers.
        if not pending.all():
            slots, gids = slots[pending], gids[pending]
        fresh = self._pending[slots]
        if self._float_mode:
            changed = fresh != self._values[slots]
        else:
            changed = np.fromiter(
                map(operator.ne, fresh, self._values[slots]), dtype=bool, count=len(slots)
            )
        self._values[slots] = fresh
        self._pending_mask[slots] = False
        if not self._float_mode:
            self._pending[slots] = None
        self._versions[slots] += changed
        return gids[changed]

    def _owned_column(self, column: np.ndarray) -> dict[int, Any]:
        """``gid -> column[slot]`` over the owned set in sweep order, boxed
        by ``tolist`` into the exact objects the per-record reads return."""
        return dict(zip(self._owned, column[self.bulk_topology().slot_of_order].tolist()))

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
        plan = self.charge_plan()
        gids_arr = plan.gids
        # gid -> slot as an array, so the owned rows of the graph's CSR
        # (each behind its own gid) translate in one fancy index.
        held = np.fromiter(self._slot_of, np.int64, len(self._slot_of))
        slot_of = np.full(self.graph.num_nodes + 1, -1, dtype=np.int64)
        slot_of[held] = np.arange(len(held))
        closed_lens, closed = self.graph.csr().rows(gids_arr - 1, closed=True)
        flat_slots = slot_of[closed]
        if len(flat_slots) and flat_slots.min() < 0:
            raise KeyError(int(closed[np.argmin(flat_slots)]))
        indptr = np.zeros(len(gids_arr) + 1, dtype=np.intp)
        np.cumsum(closed_lens, out=indptr[1:])
        topo = _BulkTopo(
            order_gids_arr=gids_arr,
            slot_of_order=slot_of[gids_arr],
            indptr=indptr,
            flat_slots=flat_slots,
            plan=plan,
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
        does (the view's :meth:`charge_plan` splits them there).  When
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
                    topo.slot_of_order,
                    topo.flat_slots,
                    topo.indptr,
                    topo.plan,
                )
            else:
                positions = np.asarray(positions, dtype=np.intp)
                starts = topo.indptr[positions]
                lens = topo.indptr[positions + 1] - starts
                offsets = np.zeros(len(positions) + 1, dtype=np.intp)
                np.cumsum(lens, out=offsets[1:])
                flat_idx = concat_ranges(starts, lens, offsets[1:])
                geometry = (
                    topo.slot_of_order[positions],
                    topo.flat_slots[flat_idx],
                    offsets,
                    self.charge_plan(positions),
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
        own_slots, flat_slots, indptr, plan = geometry
        return BulkView(
            gids=plan.gids,
            values=self._values[own_slots],
            closed_values=self._values[flat_slots],
            indptr=indptr,
            degrees=plan.degrees,
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
