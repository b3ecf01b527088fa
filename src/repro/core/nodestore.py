"""Per-processor node store: the initialization phase's data structures.

Each rank keeps (section 4.1):

* the **internal node list** -- owned nodes with every neighbour local,
* the **peripheral node list** -- owned nodes with >= 1 remote neighbour,
  each with its ``shadow_for_procs`` (the remote processors owning a
  neighbour),
* the **data node list** -- a record per owned node *and* per shadow node
  (remote neighbours of peripherals), indexed by gid.

The two node lists are one *owned-set layout*: the owned gids in sweep
order (the internal class first), the internal count, and each peripheral
node's ``shadow_for_procs``.  Sweep order matters because virtual charges
are order-sensitive float sums; it is ascending gids per class after a
build or a restore, a class keeps its relative order across a
re-classification, and an adopted node joins the end of its class.

The data node list is a ``gid -> slot`` map plus three columns indexed by
slot::

    slot:        0      1      2    ...
    value     [ 12.5 | 17.0 |  3.25 | ... ]   what neighbours read
    pending   [ None | 16.5 | None  | ... ]   the fresh value, until commit
    version   [  3   |  5   |  0    | ... ]   changes since initialization

The pending value waits for the commit at the end of the sweep because the
old one "might still be required for the computation purposes of the
neighboring nodes".  A version counts *changes*: owners bump it at commit,
shadow holders at install, only when the value differs, so owner and
replica counters agree under the dense and the delta exchange alike.
Slots are handed out in entry order and never freed, so record order is
slot order.  The thesis indexes the list with a hash table of sorted
buckets; the virtual-time model prices each probe (``hash_lookup_cost`` in
:meth:`~repro.core.compute.ComputeContext.node_cost`), and on the host the
map is a dict.  The record methods (:meth:`NodeStore.value_of`,
:meth:`NodeStore.set_value`, :meth:`NodeStore.version_of`,
:meth:`NodeStore.update_shadow`, :meth:`NodeStore.ensure_record`, ...)
exist once, over four column hooks and ``_reserve``: this class keeps the
columns as Python lists, the struct-of-arrays store
(:mod:`repro.core.soastore`) as numpy arrays.

What the sweeps derive from the layout -- the owned nodes' slots and
closed neighbourhoods, each class's dense :class:`ChargePlan` and gather
(slices of those), the shadow records owed per processor and the looped
kernel's rows -- is one :class:`Topology`, built at the first ask after
each ownership surgery; a change-driven sweep slices its nodes' rows and
gathers out of it.

The store also implements the data-structure surgery of task migration
(section 4.3): demoting a migrated node to a shadow on the busy side,
adopting it on the idle side, promoting/demoting internal and peripheral
nodes, and rebuilding ``shadow_for_procs`` after ownership changes.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..graphs.graph import Graph, sorted_unique

__all__ = ["NodeStore", "ChargePlan", "Gather", "Topology"]

InitValueFn = Callable[[int], Any]

#: One looped-sweep row: gid, slot, and the neighbours' gids and slots
#: (adjacency order).
SweepRow = tuple[int, int, tuple[int, ...], tuple[int, ...]]


@dataclass(slots=True)
class ChargePlan:
    """The nodes of one class in one sweep as the virtual-cost accountant
    sees them (:meth:`NodeStore.charge_plan`).  The store knows no cost
    constants: the compute layer memoizes what it derives (charge rows,
    pack lists) in ``templates``, which live as long as the plan -- a
    surgery epoch dense, one sweep sparse.

    Attributes:
        gids: Global IDs in sweep order.
        degrees: Neighbour counts, aligned with ``gids``.
        dests: ``shadow_for_procs`` of each node, aligned with ``gids``;
            empty for internal nodes, which have none.
        templates: The compute layer's memo (dies with the plan).
    """

    gids: np.ndarray
    degrees: np.ndarray
    dests: list[tuple[int, ...]]
    templates: dict[Any, Any] = field(default_factory=dict)


class Gather(NamedTuple):
    """Nodes of one class as a bulk view gathers them: their slots, their
    closed neighbourhoods as slots (``flat_slots``, as :class:`Topology`
    lays them out, at offsets ``indptr`` from 0) and their plan."""

    slots: np.ndarray
    flat_slots: np.ndarray
    indptr: np.ndarray
    plan: ChargePlan


@dataclass(slots=True)
class Topology:
    """What the sweeps derive from the owned-set layout, once per surgery
    epoch (:meth:`NodeStore.topology`).

    Attributes:
        gids: The owned gids in sweep order.
        degrees: Their neighbour counts.
        slots: The slot of each owned node, in sweep order.
        indptr: ``len(slots)+1`` offsets into ``flat_slots``.
        flat_slots: Each owned node's closed neighbourhood as slots -- the
            node, then its neighbours in adjacency order -- node after node.
        owed: ``processor -> shadow records owed to it``.
        spans: Each class's positions: internal ``[0, split)``, peripheral
            ``[split, n)``.
        classes: Each class's dense :class:`Gather` (slices of the above).
        rows: The looped kernel's rows (:meth:`NodeStore.sweep_rows`),
            resolved at the first ask.
    """

    gids: np.ndarray
    degrees: np.ndarray
    slots: np.ndarray
    indptr: np.ndarray
    flat_slots: np.ndarray
    owed: Counter
    spans: tuple[slice, slice]
    classes: tuple[Gather, Gather]
    rows: list[SweepRow] | None = None


class NodeStore:
    """All node bookkeeping for one rank.

    Args:
        rank: This processor's id.
        graph: The application program graph (shared, read-only).
        assignment: The node-to-processor map (the thesis's ``output_arr``);
            this list is *owned by the caller* and mutated during task
            migration -- the store reads it on demand.
        init_value: ``gid -> initial node value`` (the thesis initializes
            ``data = globalID``; applications plug in their own).
    """

    def __init__(
        self,
        rank: int,
        graph: Graph,
        assignment: list[int],
        init_value: InitValueFn,
    ) -> None:
        self.rank = rank
        self.graph = graph
        self.assignment = assignment
        #: The owned-set layout: gids in sweep order, the first ``_split``
        #: internal, and ``_dests[i]`` the ``shadow_for_procs`` of the
        #: peripheral node ``_owned[_split + i]``.
        self._owned: list[int] = []
        self._split = 0
        self._dests: list[tuple[int, ...]] = []
        self._init_record_storage()
        #: :meth:`topology`'s memo (``None`` until asked).
        self._topology: Topology | None = None
        self._build(init_value)

    # ------------------------------------------------------------------ #
    # Initialization phase
    # ------------------------------------------------------------------ #

    def _shadow_procs_of(self, gid: int) -> tuple[int, ...]:
        """Distinct remote processors owning neighbours of ``gid``."""
        own = self.assignment[gid - 1]
        procs = {
            self.assignment[v - 1]
            for v in self.graph.neighbors(gid)
            if self.assignment[v - 1] != own
        }
        return tuple(sorted(procs))

    def _classify(self, gids: np.ndarray, procs: np.ndarray) -> np.ndarray:
        """Lay out the owned ``gids`` as array passes over the graph's CSR:
        which of their adjacency entries name a remote neighbour, hence
        which nodes are peripheral and for whom.  The layout lists the
        internal ones, then the peripheral ones, each class in the order of
        ``gids``.  Returns the remote neighbours, row after row in
        adjacency order (``procs`` is the assignment as an array)."""
        rank = self.rank
        lens, flat = self.graph.csr().rows(gids - 1)
        flat_procs = procs[flat - 1]
        crossing = np.flatnonzero(flat_procs != rank)
        # ``shadow_for_procs``: the distinct (position in ``gids``, remote
        # processor) pairs, grouped by position.
        width = int(procs.max(initial=0)) + 1
        at = np.searchsorted(np.cumsum(lens), crossing, side="right")
        pairs = sorted_unique(at * width + flat_procs[crossing])
        positions, pair_procs = np.divmod(pairs, width)
        cuts = np.flatnonzero(np.diff(positions, prepend=-1)).tolist()
        pair_procs = pair_procs.tolist()
        self._dests = [tuple(pair_procs[a:b]) for a, b in zip(cuts, [*cuts[1:], None])]
        peripheral = np.zeros(len(gids), dtype=bool)
        peripheral[positions[cuts]] = True
        self._owned = np.concatenate((gids[~peripheral], gids[peripheral])).tolist()
        self._split = len(gids) - len(self._dests)
        return flat[crossing]

    def _build(self, init_value: InitValueFn) -> None:
        """Figure 6's initialisation: classify the owned nodes (ascending
        gids per class), then hold a record for each of them and for each
        shadow they need.  Python touches a node only to read its initial
        value."""
        procs = np.asarray(self.assignment, dtype=np.int64)
        owned = np.flatnonzero(procs == self.rank) + 1
        remote = self._classify(owned, procs)
        # Shadows in first-discovery order: peripheral nodes ascending, each
        # one's remote neighbours in adjacency order, a gid once.
        by_gid = np.argsort(remote, kind="stable")
        ranked = remote[by_gid]
        shadows = remote[np.sort(by_gid[np.flatnonzero(np.diff(ranked, prepend=0))])]
        held = owned.tolist() + shadows.tolist()
        self._add_records(held, list(map(init_value, held)))

    # ------------------------------------------------------------------ #
    # Record layer: the gid -> slot map over the columns
    # ------------------------------------------------------------------ #

    def _init_record_storage(self) -> None:
        """Create the empty data node list."""
        #: ``gid -> slot``, in entry order: the ``i``-th record holds slot ``i``.
        self._slot_of: dict[int, int] = {}
        self._values: list[Any] = []
        self._pending: list[Any] = []
        self._versions: list[int] = []

    # The column hooks, which the struct-of-arrays store overrides.  The
    # bulk passes (commit, the owned columns, the looped kernel) index the
    # lists directly; that store replaces each with an array pass.

    def _reserve(self, stop: int) -> None:
        """Make the slots below ``stop`` addressable."""
        pad = stop - len(self._values)
        if pad > 0:
            self._values += [None] * pad
            self._pending += [None] * pad
            self._versions += [0] * pad

    def _read_value(self, slot: int) -> Any:
        return self._values[slot]

    def _write_value(self, slot: int, value: Any) -> None:
        self._values[slot] = value

    def _read_pending(self, slot: int) -> Any:
        """The pending value (``None``: nothing pending)."""
        return self._pending[slot]

    def _write_pending(self, slot: int, value: Any) -> None:
        self._pending[slot] = value

    def _record_states(self) -> Iterator[tuple[int, Any, Any, int]]:
        """``(gid, value, pending value, version)`` per record, in record
        order (:meth:`capture_state`'s source)."""
        versions = self._versions
        for gid, slot in self._slot_of.items():
            yield gid, self._read_value(slot), self._read_pending(slot), int(versions[slot])

    def _add_record(self, gid: int, value: Any, most_recent: Any = None, version: int = 0) -> None:
        """Create the data record for ``gid`` in the next slot.

        The single seam through which every record enters the store:
        initialization, migration adoption, and checkpoint restore all pass
        through here.
        """
        if gid in self._slot_of:
            raise KeyError(f"rank {self.rank} already holds a record for node {gid}")
        slot = len(self._slot_of)
        self._reserve(slot + 1)
        self._slot_of[gid] = slot
        self._versions[slot] = version
        self._write_value(slot, value)
        self._write_pending(slot, most_recent)

    def _add_records(self, gids: Sequence[int], values: Sequence[Any]) -> None:
        """:meth:`_add_record` for a batch of fresh records (default
        ``most_recent``/``version``), in order: the seam the initialisation
        phase fills a store through, which the struct-of-arrays store
        overrides with one array write."""
        for gid, value in zip(gids, values):
            self._add_record(gid, value)

    def _slot(self, gid: int) -> int:
        slot = self._slot_of.get(gid)
        if slot is None:
            raise KeyError(f"rank {self.rank} holds no data for node {gid}")
        return slot

    def value_of(self, gid: int) -> Any:
        """Committed value of any locally known node."""
        return self._read_value(self._slot(gid))

    def set_value(self, gid: int, value: Any) -> None:
        """Overwrite the committed value of a locally known node in place
        (no version bump: migration payloads, integrity flips and repairs)."""
        self._write_value(self._slot(gid), value)

    def version_of(self, gid: int) -> int:
        """Version counter of any locally known node."""
        return int(self._versions[self._slot(gid)])

    def _set_version(self, gid: int, version: int) -> None:
        self._versions[self._slot(gid)] = version

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def owned_gids(self) -> list[int]:
        """Global IDs of the owned nodes in sweep order (internal first)."""
        return list(self._owned)

    def num_owned(self) -> int:
        """Count of nodes this rank computes."""
        return len(self._owned)

    def num_internal(self) -> int:
        """Count of internal nodes: the leading part of :meth:`owned_gids`."""
        return self._split

    def peripherals(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(gid, shadow_for_procs)`` per peripheral node, in sweep order."""
        return list(zip(self._owned[self._split :], self._dests))

    def owns(self, gid: int) -> bool:
        """Whether this rank owns ``gid``."""
        return gid in self._owned

    def shadow_procs(self, gid: int) -> tuple[int, ...]:
        """``shadow_for_procs`` of ``gid``: the processors holding it as a
        shadow -- ``()`` for an internal node or one this rank does not own."""
        try:
            position = self._owned.index(gid, self._split)
        except ValueError:
            return ()
        return self._dests[position - self._split]

    def holds(self, gid: int) -> bool:
        """Whether the data node list holds a record for ``gid``."""
        return gid in self._slot_of

    def num_records(self) -> int:
        """Length of the data node list (owned and shadow records)."""
        return len(self._slot_of)

    def num_shadows(self) -> int:
        """Count of shadow records (every owned node holds a record too)."""
        return self.num_records() - self.num_owned()

    def shadow_gids(self) -> list[int]:
        """Global IDs present as shadows (data held, not owned)."""
        owned = set(self._owned)
        return sorted(gid for gid in self._slot_of if gid not in owned)

    def owned_values(self) -> dict[int, Any]:
        """``gid -> committed value`` for every owned node (sweep order).

        The currency of every store rebuild (repartitioning, shrink
        recovery): committed values are partition-independent, so carrying
        them into a fresh store reproduces results bit-identically under a
        different ownership map.
        """
        values, slot_of = self._values, self._slot_of
        return {gid: values[slot_of[gid]] for gid in self._owned}

    def owned_versions(self) -> dict[int, int]:
        """``gid -> version counter`` for every owned node (sweep order)."""
        versions, slot_of = self._versions, self._slot_of
        return {gid: versions[slot_of[gid]] for gid in self._owned}

    def buffer_sizes(self, nprocs: int) -> list[int]:
        """Shadow records owed to each processor.

        ``sizes[q]`` = number of this rank's peripheral nodes that are
        shadows for processor ``q`` -- exactly the thesis's
        ``buffer_size_for_communication`` array.
        """
        owed = self.topology().owed
        return [owed[q] for q in range(nprocs)]

    def neighbor_procs(self) -> list[int]:
        """Processors this rank pushes shadow updates to."""
        return sorted(self.topology().owed)

    # ------------------------------------------------------------------ #
    # The per-epoch topology
    # ------------------------------------------------------------------ #

    def topology(self) -> Topology:
        """The owned-set layout's :class:`Topology`, built at the first ask
        after each surgery (a neighbour of an owned node without a record
        is a ``KeyError`` naming it)."""
        topo = self._topology
        if topo is not None:
            return topo
        gids = np.array(self._owned, dtype=np.int64)
        # gid -> slot as an array, so the owned nodes' closed rows of the
        # graph's CSR translate in one fancy index.
        held = np.fromiter(self._slot_of, np.int64, len(self._slot_of))
        slot_of = np.full(self.graph.num_nodes + 1, -1, dtype=np.int64)
        slot_of[held] = np.arange(len(held))
        closed_lens, closed = self.graph.csr().rows(gids - 1, closed=True)
        flat_slots = slot_of[closed]
        if len(flat_slots) and flat_slots.min() < 0:
            raise KeyError(int(closed[np.argmin(flat_slots)]))
        indptr = np.zeros(len(gids) + 1, dtype=np.intp)
        np.cumsum(closed_lens, out=indptr[1:])
        degrees, slots = closed_lens - 1, slot_of[gids]
        spans = (slice(0, self._split), slice(self._split, len(gids)))
        classes = []
        for span, dests in zip(spans, ([], list(self._dests))):
            bounds = indptr[span.start : span.stop + 1]
            flat = flat_slots[bounds[0] : bounds[-1]]
            if span.start:  # offsets from 0, as the internal class's are
                bounds = bounds - bounds[0]
            plan = ChargePlan(gids[span], degrees[span], dests)
            classes.append(Gather(slots[span], flat, bounds, plan))
        owed = Counter(chain.from_iterable(self._dests))
        topo = self._topology = Topology(
            gids, degrees, slots, indptr, flat_slots, owed, spans, tuple(classes)
        )
        return topo

    def sweep_rows(self) -> list[SweepRow]:
        """Per sweep position, what the looped kernel needs of the node: its
        gid and slot and its neighbours' gids and slots in adjacency order
        -- the list-forming step's lookups, done once per surgery epoch
        instead of once per node update (resolved at the first ask; a bulk
        run never asks)."""
        topo = self.topology()
        if topo.rows is None:
            owned = self._owned
            slots, bounds = topo.flat_slots.tolist(), topo.indptr.tolist()
            topo.rows = [
                (gid, slots[a], nbrs, tuple(slots[a + 1 : b]))
                for gid, nbrs, a, b in zip(
                    owned, self.graph.neighbor_rows(owned), bounds, bounds[1:]
                )
            ]
        return topo.rows

    def charge_plan(self, positions: np.ndarray) -> ChargePlan:
        """The :class:`ChargePlan` of the nodes at ``positions`` of the
        owned-set layout: ascending, and all of one class."""
        topo, split = self.topology(), self._split
        dests: list[tuple[int, ...]] = []
        if len(positions) and positions[0] >= split:
            dests = [self._dests[p - split] for p in positions.tolist()]
        return ChargePlan(topo.gids[positions], topo.degrees[positions], dests)

    def _invalidate_topology_cache(self) -> None:
        """Drop the epoch's :class:`Topology`; must run after ownership
        surgery (release/adopt/refresh/restore)."""
        self._topology = None

    # ------------------------------------------------------------------ #
    # Commit (end of a compute sweep)
    # ------------------------------------------------------------------ #

    def commit_owned(self) -> Sequence[int]:
        """Promote every owned node's pending value, consuming it (a node
        skipped by the next sweep must not re-promote a stale value).

        Returns the gids whose committed value actually *changed* (in sweep
        order) -- the raw material of the delta halo exchange and the
        quiescence count.  Each change bumps the node's version counter.
        This store returns a list; the struct-of-arrays store an array.
        """
        values, pending, versions = self._values, self._pending, self._versions
        changed = []
        for gid, slot, _, _ in self.sweep_rows():
            fresh = pending[slot]
            if fresh is None:
                continue
            pending[slot] = None
            if fresh != values[slot]:
                versions[slot] += 1
                changed.append(gid)
            values[slot] = fresh
        return changed

    def update_shadow(self, gid: int, value: Any) -> bool:
        """Install a received shadow value (post-communication update).

        Returns whether the shadow actually changed; the version counter is
        bumped only then, keeping replica versions identical to the owner's
        under both the dense (every value re-sent) and delta (changed values
        only) exchanges.
        """
        slot = self._slot_of.get(gid)
        if slot is None:
            raise KeyError(f"rank {self.rank} received shadow for unknown node {gid}")
        if self._read_value(slot) == value:
            return False
        self._write_value(slot, value)
        self._versions[slot] += 1
        return True

    def update_shadows(self, records: Iterable[tuple[int, Any]]) -> list[int]:
        """Install one message's ``(gid, value)`` shadow records, in order;
        returns the gids whose shadow actually changed (record order)."""
        return [gid for gid, value in records if self.update_shadow(gid, value)]

    # ------------------------------------------------------------------ #
    # Task-migration surgery (section 4.3)
    # ------------------------------------------------------------------ #

    def release_node(self, gid: int) -> None:
        """Busy side: stop owning ``gid``; its data record *stays* (the node
        becomes a shadow here)."""
        try:
            position = self._owned.index(gid)
        except ValueError:
            raise KeyError(f"rank {self.rank} cannot release unowned node {gid}") from None
        del self._owned[position]
        if position < self._split:
            self._split -= 1
        else:
            del self._dests[position - self._split]
        self._invalidate_topology_cache()

    def adopt_node(self, gid: int, neighbor_values: Sequence[tuple[Any, ...]]) -> None:
        """Idle side: take ownership of ``gid``, at the end of its class.

        ``neighbor_values`` carries the data of the migrating node's
        neighbours shipped by the busy processor -- ``(gid, value)`` pairs,
        or ``(gid, value, version)`` triples when the sender ships its
        delta-exchange version counters; records are created or refreshed,
        in order, so the next compute sweep finds everything locally.  The
        caller must already have updated ``assignment``.
        """
        if self.owns(gid):
            raise KeyError(f"rank {self.rank} already owns node {gid}")
        for ngid, value, *version in neighbor_values:
            self.ensure_record(ngid, value, *version)
            self.set_value(ngid, value)
        if not self.holds(gid):
            raise KeyError(f"rank {self.rank} adopting node {gid} without its data record")
        procs = self._shadow_procs_of(gid)
        if procs:
            self._owned.append(gid)
            self._dests.append(procs)
        else:
            self._owned.insert(self._split, gid)
            self._split += 1
        self._invalidate_topology_cache()

    def ensure_record(self, gid: int, value: Any, version: int | None = None) -> None:
        """Create the data record for ``gid`` unless one is held; a given
        ``version`` is installed either way."""
        if not self.holds(gid):
            self._add_record(gid, value, version=version or 0)
        elif version is not None:
            self._set_version(gid, version)

    def refresh_ownership(self) -> None:
        """Re-derive node kinds and shadow lists from the current assignment.

        Called on *every* rank after a migration: on the busy processor
        internal nodes neighbouring the migrated one become peripheral; on
        the idle processor peripheral nodes may turn internal; every other
        shadow-holding processor updates ``shadow_for_procs`` (the thesis
        rebuilds these arrays in ``task_migrate``).  Each class keeps the
        owned nodes' current relative order.
        """
        procs = np.asarray(self.assignment, dtype=np.int64)
        self._classify(np.array(self._owned, dtype=np.int64), procs)
        self._invalidate_topology_cache()

    # ------------------------------------------------------------------ #
    # Checkpoint support (used by :mod:`repro.core.checkpoint`)
    # ------------------------------------------------------------------ #

    def capture_state(self) -> dict[str, Any]:
        """Snapshot every mutable piece of the store into plain data.

        The snapshot covers the node-to-processor map and the full data
        node list (committed *and* in-flight values); node values are
        deep-copied so later sweeps cannot mutate the snapshot through
        shared references.  The result is picklable whenever the
        application's node values are.
        """
        return {
            "rank": self.rank,
            "assignment": list(self.assignment),
            "records": {
                gid: (copy.deepcopy(value), copy.deepcopy(pending), version)
                for gid, value, pending, version in self._record_states()
            },
            # Both read by nothing, but a shrink recovery prices the dead
            # rank's snapshot by its pickled length (``Checkpoint.nbytes``):
            # the (always empty) list of halted nodes and the thesis's
            # bucket count stay in it so those clocks do not move.
            "halted": [],
            "hash_table_length": 64,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild the store from a :meth:`capture_state` snapshot.

        The shared ``assignment`` list is patched in place (it is owned by
        the caller, exactly as during migration), the data node list is
        rebuilt record by record, and the layout is re-derived as a build
        derives it -- leaving the store exactly as it was at snapshot time.
        """
        if state["rank"] != self.rank:
            raise ValueError(
                f"rank {self.rank} cannot restore a checkpoint of rank {state['rank']}"
            )
        self.assignment[:] = state["assignment"]
        self._init_record_storage()
        for gid, (data, most_recent, version) in state["records"].items():
            self._add_record(gid, copy.deepcopy(data), copy.deepcopy(most_recent), version)
        procs = np.asarray(self.assignment, dtype=np.int64)
        self._classify(np.flatnonzero(procs == self.rank) + 1, procs)
        self._invalidate_topology_cache()

    # ------------------------------------------------------------------ #
    # Invariants (test hook)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Raise AssertionError on any broken store invariant."""
        owned, split, rank, held = self._owned, self._split, self.rank, self._slot_of
        assert len(set(owned)) == len(owned), "node in the owned set twice"
        assert 0 <= split <= len(owned) and len(self._dests) == len(owned) - split
        for position, gid in enumerate(owned):
            assert self.assignment[gid - 1] == rank, f"owned node {gid} not assigned here"
            expected = self._shadow_procs_of(gid)
            if position < split:
                assert not expected, f"internal node {gid} has remote neighbours on {expected}"
            else:
                procs = self._dests[position - split]
                assert procs == expected, f"node {gid}: shadow_for_procs {procs} != {expected}"
                assert expected, f"peripheral node {gid} has no remote neighbours"
            # Every owned node and every neighbour of one has data.
            assert gid in held, f"rank {rank}: no data for owned node {gid}"
            for v in self.graph.neighbors(gid):
                assert v in held, f"rank {rank}: no data for neighbour {v} of {gid}"
        # A resolved topology describes the current layout and slots.
        topo = self._topology
        if topo is not None:
            assert topo.gids.tolist() == owned, f"rank {rank}: stale topology"
            assert topo.spans == (slice(0, split), slice(split, len(owned)))
            assert [c.plan.dests for c in topo.classes] == [[], self._dests]
            assert topo.owed == Counter(chain.from_iterable(self._dests))
            closed = [(gid, *self.graph.neighbors(gid)) for gid in owned]
            assert topo.slots.tolist() == [held[gid] for gid in owned]
            assert topo.flat_slots.tolist() == [held[v] for row in closed for v in row], (
                f"rank {rank}: stale neighbourhood slots"
            )
            rows = topo.rows
            if rows is not None:
                assert len(rows) == len(closed), f"rank {rank}: {len(rows)} sweep rows"
                for row, (gid, *nbrs) in zip(rows, closed):
                    fresh = (gid, held[gid], tuple(nbrs), tuple([held[v] for v in nbrs]))
                    assert row == fresh, f"rank {rank}: stale neighbour row at {gid}"
