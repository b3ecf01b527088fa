"""Struct-of-arrays node store: the record columns as numpy arrays.

:class:`SoAStore` is :class:`~repro.core.nodestore.NodeStore` with the
data node list's columns (value, pending, version) held in numpy arrays
instead of Python lists, in the style of gpaw's grid descriptors; the
pending column carries a mask beside it (``None`` is not a float)::

    slot:            0      1      2      3    ...
    _values     [ 12.5 | 17.0 |  3.25 |  8.0 | ... ]   float64 (or object)
    _pending    [  --  | 16.5 |  --   |  7.5 | ... ]   valid where mask set
    _pend_mask  [  F   |  T   |  F    |  T   | ... ]   bool
    _versions   [  3   |  5   |  0    |  2   | ... ]   int64

The gid -> slot map, the record methods, the owned-set layout and its
surgery, the per-epoch topology, checkpoints and the invariants are the
base class's.  This store adds what the arrays are for: its column hooks
(float boxing, demotion, doubling growth), one array pass in place of each
per-record loop (the initial records, commit, shadow install, the owned
columns) and the bulk sweep of a node class -- a :class:`BulkView`
gathered through the topology, and :meth:`SoAStore.scatter_pending`.

The platform builds this store exactly when every node function ships a
bulk kernel (``fn.bulk``) and the ranks average at least
``BULK_MIN_NODES_PER_RANK`` nodes, and the list store otherwise: the
arrays pay off only through vectorised sweeps over enough nodes, and
numpy's fixed per-call cost loses on a few nodes a part.

Exactness rules (the differential oracle demands byte-identical results
against the list store):

* Reads return the *exact* Python objects the list store would hold:
  ``float(arr[slot])`` is lossless for float64, versions come back as
  Python ints.  Checkpoint payloads, wire records, and integrity digests
  therefore pickle identically.
* The float64 fast path only engages while every stored value is exactly
  of type :class:`float`.  The first non-float write demotes the whole
  store to object dtype (preserving the original objects), so arbitrary
  application values (battlefield dicts, ints, numpy scalars) behave
  exactly as in the list store.
* Bulk kernels (:class:`BulkView`) sum neighbour segments over a *closed*
  adjacency (self value prepended per segment) with a column sweep --
  one contiguous gather per column, added unmasked while every segment
  is that long and masked to the longer ones after -- that reproduces
  the scalar left-to-right summation order bit-for-bit
  (``np.add.reduceat`` would reduce pairwise -- off by an ulp).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from ..graphs.graph import concat_ranges
from .nodestore import ChargePlan, Gather, NodeStore

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
        slots: The nodes' slots, where the sweep installs the results.
    """

    gids: np.ndarray
    values: np.ndarray
    closed_values: np.ndarray
    indptr: np.ndarray
    degrees: np.ndarray
    iteration: int
    round: int
    plan: "ChargePlan"
    slots: np.ndarray

    def __len__(self) -> int:
        return len(self.gids)

    def sum_closed(self) -> np.ndarray:
        """Own value plus neighbour values per node, added in scalar order."""
        return _ranges_sum(self.closed_values, self.indptr[:-1], self.indptr[1:])

    def sum_neighbors(self) -> np.ndarray:
        """``sum(neighbour values)`` per node (0 for isolated nodes)."""
        return _ranges_sum(self.closed_values, self.indptr[:-1] + 1, self.indptr[1:])


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


class SoAStore(NodeStore):
    """:class:`NodeStore` over numpy columns.

    Same constructor, same owned-set layout, same gid-level record calls,
    same observable behaviour (the differential oracle in
    ``tests/core/test_store_conformance.py`` pins this); the hot
    commit/shadow-update paths run vectorized.  It sweeps in bulk only.
    """

    # ------------------------- column hooks --------------------------- #

    def _init_record_storage(self) -> None:
        super()._init_record_storage()
        self._float_mode = True
        self._values = np.empty(0, dtype=np.float64)
        self._pending = np.empty(0, dtype=np.float64)
        self._pending_mask = np.zeros(0, dtype=bool)
        self._versions = np.zeros(0, dtype=np.int64)
        # Sparse gather-geometry memo telemetry (pinned by
        # benchmarks/test_extensions.py::test_soa_store).
        self.sparse_geom_hits = 0
        self.sparse_geom_misses = 0

    def _reserve(self, stop: int) -> None:
        """Grow the columns, doubling from 64 slots, so a batch lands on
        the capacity its records would reach one by one."""
        capacity = len(self._values)
        if stop <= capacity:
            return
        grown = max(64, capacity)
        while grown < stop:
            grown *= 2
        pad = grown - capacity
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
        as the list store would hold them)."""
        values = np.empty(len(self._values), dtype=object)
        values[:] = self._values.tolist()
        pending = np.empty(len(self._values), dtype=object)
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

    # ------------------------- vectorized ops ------------------------- #

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
        self._reserve(start + count)
        self._slot_of.update(zip(gids, range(start, start + count)))
        # Slots past the last record were never handed out: version 0,
        # nothing pending, as allocated.
        self._values[start : start + count] = values

    def commit_owned(self) -> np.ndarray:
        """:meth:`NodeStore.commit_owned` on the arrays; the changed gids
        come back as an int64 array (in sweep order), not a list."""
        topo = self.topology()
        slots, gids = topo.slots, topo.gids
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
        return dict(zip(self._owned, column[self.topology().slots].tolist()))

    def owned_values(self) -> dict[int, Any]:
        return self._owned_column(self._values)

    def owned_versions(self) -> dict[int, int]:
        return self._owned_column(self._versions)

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

    def bulk_view(
        self, positions: np.ndarray | None, iteration: int, round_idx: int, part: int = 0
    ) -> BulkView:
        """Gather a :class:`BulkView` for the given sweep positions.

        ``positions`` are ascending positions of one node class; ``None``
        means every node of class ``part`` (0 internal, 1 peripheral), the
        topology's own gather.  The gather geometry of explicit positions
        -- and their charge plan with it -- is memoized in the topology's
        ``sparse`` LRU, keyed by the positions bytes: once a change-driven
        frontier stabilizes (or alternates between a few working sets), the
        CSR slice geometry is reused across supersteps instead of being
        rebuilt every sweep.  Hybrid execution leans on this hardest -- a
        converging interior frontier revisits the same position sets
        across inner sweeps.
        """
        topo = self.topology()
        if positions is None:
            geometry = topo.classes[part]
        else:
            positions = np.asarray(positions, dtype=np.intp)
            memo, memo_key = topo.sparse, positions.tobytes()
            geometry = memo.pop(memo_key, None)
            if geometry is not None:
                self.sparse_geom_hits += 1
            else:
                self.sparse_geom_misses += 1
                starts = topo.indptr[positions]
                lens = topo.indptr[positions + 1] - starts
                offsets = np.zeros(len(positions) + 1, dtype=np.intp)
                np.cumsum(lens, out=offsets[1:])
                flat_idx = concat_ranges(starts, lens, offsets[1:])
                geometry = Gather(
                    topo.slots[positions],
                    topo.flat_slots[flat_idx],
                    offsets,
                    self.charge_plan(positions),
                )
                if len(memo) >= _SPARSE_GEOMETRY_SLOTS:
                    memo.pop(next(iter(memo)))
            # Re-inserted at the end: dict order plus oldest-first eviction
            # makes the memo an LRU.
            memo[memo_key] = geometry
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
            slots=own_slots,
        )

    def scatter_pending(self, slots: np.ndarray, out: Any) -> np.ndarray | list:
        """Install a bulk kernel's results as the pending values of
        ``slots`` (a view's).

        Returns the stored values: the float64 array on the fast path
        (``tolist`` boxes them exactly; only packed values need it), else
        the exact Python objects.
        """
        if self._float_mode:
            arr = np.asarray(out, dtype=np.float64)
            self._pending[slots] = arr
            self._pending_mask[slots] = True
            return arr
        normalized = [
            value.item() if isinstance(value, np.generic) else value
            for value in (out.tolist() if isinstance(out, np.ndarray) else out)
        ]
        for slot, value in zip(slots.tolist(), normalized):
            self._pending[slot] = value
            self._pending_mask[slot] = value is not None
        return normalized
