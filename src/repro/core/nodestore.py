"""Per-processor node store: the initialization phase's data structures.

Each rank keeps (section 4.1):

* the **internal node list** -- owned nodes with every neighbour local,
* the **peripheral node list** -- owned nodes with >= 1 remote neighbour,
  each with its ``shadow_for_procs`` (the remote processors owning a
  neighbour),
* the **data node list** -- a record per owned node *and* per shadow node
  (remote neighbours of peripherals), indexed by gid.

The two node lists are one *owned-set layout*, shared by both stores: the
owned gids in sweep order (the internal class first), the internal count,
and each peripheral node's ``shadow_for_procs``.  Sweep order matters
because virtual charges are order-sensitive float sums; it is ascending
gids per class after a build or a restore, a class keeps its relative
order across a re-classification, and an adopted node joins the end of its
class.

The thesis indexes the data node list with a hash table of sorted buckets.
The virtual-time model prices each probe (``hash_lookup_cost`` in
:meth:`~repro.core.compute.ComputeContext.node_cost`); on the host,
``data_records`` is a dict and every lookup is one dict hit.  Everything
outside the stores and the scalar sweep reads and writes records by gid
(:meth:`NodeStore.value_of`, :meth:`NodeStore.set_value`,
:meth:`NodeStore.version_of`, :meth:`NodeStore.ensure_record`, ...), which
the struct-of-arrays store answers from its columns.

The store also implements the data-structure surgery of task migration
(section 4.3): demoting a migrated node to a shadow on the busy side,
adopting it on the idle side, promoting/demoting internal and peripheral
nodes, and rebuilding ``shadow_for_procs`` after ownership changes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..graphs.graph import Graph, sorted_unique
from .node import NodeData

__all__ = ["NodeStore", "ChargePlan"]

InitValueFn = Callable[[int], Any]

#: One scalar-sweep row: gid, record, neighbour gids, neighbour records
#: (adjacency order) and ``shadow_for_procs`` (``()`` for an internal node).
SweepRow = tuple[int, NodeData, tuple[int, ...], tuple[NodeData, ...], tuple[int, ...]]


@dataclass(slots=True)
class ChargePlan:
    """The nodes of one sweep as the virtual-cost accountant sees them,
    built from the owned-set layout (:meth:`NodeStore.charge_plan`).  The
    store knows no cost constants: the compute layer memoizes what it
    derives (charge rows, pack lists) in ``templates``, which live as long
    as the plan -- a surgery epoch dense, a geometry LRU slot sparse.

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
        # Memoized communication topology (cleared by ownership surgery).
        self._buffer_sizes_cache: dict[int, list[int]] = {}
        self._neighbor_procs_cache: list[int] | None = None
        #: :meth:`sweep_rows`' memo (``None`` until a looped sweep asks).
        self._sweep_rows: list[SweepRow] | None = None
        #: :meth:`charge_plan`'s dense plan (``None`` until a sweep asks).
        self._dense_plan: ChargePlan | None = None
        #: Bumped by every :meth:`_invalidate_topology_cache`: whoever
        #: derives arrays from the owned set (the change-driven frontier)
        #: compares it to tell when they are stale.
        self.surgery_epoch = 0
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
    # Record layer (overridden by the struct-of-arrays store)
    # ------------------------------------------------------------------ #

    def _init_record_storage(self) -> None:
        """Create the empty data node list."""
        self.data_records: dict[int, NodeData] = {}

    def _held(self) -> Mapping[int, Any]:
        """The data node list's index: keyed by every held gid, in the
        order the records entered."""
        return self.data_records

    def _record_states(self) -> Iterator[tuple[int, Any, Any, int]]:
        """``(gid, value, pending value, version)`` per record, in record
        order (:meth:`capture_state`'s source)."""
        for gid, record in self.data_records.items():
            yield gid, record.data, record.most_recent_data, record.version

    def _add_record(self, gid: int, value: Any, most_recent: Any = None, version: int = 0) -> None:
        """Create the data record for ``gid``.

        The single seam through which every record enters the store:
        initialization, migration adoption, and checkpoint restore all pass
        through here, so a subclass can swap the record representation
        (the struct-of-arrays store) without touching those flows.
        """
        if gid in self.data_records:
            raise KeyError(f"rank {self.rank} already holds a record for node {gid}")
        self.data_records[gid] = NodeData(gid, value, most_recent, version)

    def _add_records(self, gids: Sequence[int], values: Sequence[Any]) -> None:
        """:meth:`_add_record` for a batch of fresh records (default
        ``most_recent``/``version``), in order: the seam the initialisation
        phase fills a store through, which the struct-of-arrays store
        overrides with one array write."""
        for gid, value in zip(gids, values):
            self._add_record(gid, value)

    def _record(self, gid: int) -> NodeData:
        record = self.data_records.get(gid)
        if record is None:
            raise KeyError(f"rank {self.rank} holds no data for node {gid}")
        return record

    def value_of(self, gid: int) -> Any:
        """Committed value of any locally known node."""
        return self._record(gid).data

    def set_value(self, gid: int, value: Any) -> None:
        """Overwrite the committed value of a locally known node in place
        (no version bump: migration payloads, integrity flips and repairs)."""
        self._record(gid).data = value

    def version_of(self, gid: int) -> int:
        """Version counter of any locally known node."""
        return self._record(gid).version

    def _set_version(self, gid: int, version: int) -> None:
        self._record(gid).version = version

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
        return gid in self._held()

    def num_records(self) -> int:
        """Length of the data node list (owned and shadow records)."""
        return len(self._held())

    def num_shadows(self) -> int:
        """Count of shadow records (every owned node holds a record too)."""
        return self.num_records() - self.num_owned()

    def shadow_gids(self) -> list[int]:
        """Global IDs present as shadows (data held, not owned)."""
        owned = set(self._owned)
        return sorted(gid for gid in self._held() if gid not in owned)

    def owned_values(self) -> dict[int, Any]:
        """``gid -> committed value`` for every owned node (sweep order).

        The currency of every store rebuild (repartitioning, shrink
        recovery): committed values are partition-independent, so carrying
        them into a fresh store reproduces results bit-identically under a
        different ownership map.
        """
        records = self.data_records
        return {gid: records[gid].data for gid in self._owned}

    def owned_versions(self) -> dict[int, int]:
        """``gid -> version counter`` for every owned node (sweep order)."""
        records = self.data_records
        return {gid: records[gid].version for gid in self._owned}

    def buffer_sizes(self, nprocs: int) -> list[int]:
        """Shadow records owed to each processor.

        ``sizes[q]`` = number of this rank's peripheral nodes that are
        shadows for processor ``q`` -- exactly the thesis's
        ``buffer_size_for_communication`` array.  The scan result is
        memoized (the load-balance phase asks every period but the answer
        only changes when ownership does); migration surgery invalidates it
        via :meth:`_invalidate_topology_cache`.
        """
        cached = self._buffer_sizes_cache.get(nprocs)
        if cached is None:
            cached = [0] * nprocs
            for procs in self._dests:
                for proc in procs:
                    cached[proc] += 1
            self._buffer_sizes_cache[nprocs] = cached
        return list(cached)

    def neighbor_procs(self) -> list[int]:
        """Processors this rank pushes shadow updates to (memoized)."""
        if self._neighbor_procs_cache is None:
            self._neighbor_procs_cache = sorted({p for procs in self._dests for p in procs})
        return list(self._neighbor_procs_cache)

    def sweep_rows(self) -> list[SweepRow]:
        """Per sweep position, what the scalar sweep needs of the node: its
        gid, its record, its neighbours' gids and records in adjacency
        order, and its ``shadow_for_procs`` -- the list-forming step's
        lookups, done once per surgery epoch instead of once per node
        update.

        Resolved at the first scalar sweep or commit that asks (a bulk run
        never asks).  Only ownership surgery can stale a row: records enter
        through :meth:`_add_record` and are only dropped wholesale by a
        restore (which invalidates); all else writes ``record.data`` in
        place.
        """
        rows = self._sweep_rows
        if rows is None:
            records, owned = self.data_records, self._owned
            dests = [()] * self._split + self._dests
            rows = self._sweep_rows = [
                (gid, records[gid], row, tuple([records[v] for v in row]), procs)
                for gid, row, procs in zip(owned, self.graph.neighbor_rows(owned), dests)
            ]
        return rows

    def charge_plan(self, positions: np.ndarray | None = None) -> ChargePlan:
        """The :class:`ChargePlan` of the nodes at ``positions`` of the
        owned-set layout (internal ones first, as every sweep lists them),
        or of the whole layout (``None``: memoized per surgery epoch)."""
        dense = self._dense_plan
        if dense is None:
            gids = np.array(self._owned, dtype=np.int64)
            indptr = self.graph.csr().indptr
            degrees = indptr[gids] - indptr[gids - 1]
            dense = self._dense_plan = ChargePlan(gids, degrees, self._split, list(self._dests))
        if positions is None:
            return dense
        split = int(np.count_nonzero(positions < self._split))
        dests = [dense.dests[p - self._split] for p in positions[split:].tolist()]
        return ChargePlan(dense.gids[positions], dense.degrees[positions], split, dests)

    def _invalidate_topology_cache(self) -> None:
        """Drop memoized buffer sizes / neighbour procs / sweep rows / the
        dense charge plan; must run after ownership surgery
        (release/adopt/refresh/restore)."""
        self._buffer_sizes_cache.clear()
        self._neighbor_procs_cache = None
        self._sweep_rows = None
        self._dense_plan = None
        self.surgery_epoch += 1

    # ------------------------------------------------------------------ #
    # Commit (end of a compute sweep)
    # ------------------------------------------------------------------ #

    def commit_owned(self) -> Sequence[int]:
        """Promote ``most_recent_data`` for every owned node.

        Returns the gids whose committed value actually *changed* (in sweep
        order) -- the raw material of the delta halo exchange and the
        quiescence count.  Each change bumps the node's version counter.
        This store returns a list; the struct-of-arrays store an array.
        """
        return [row[0] for row in self.sweep_rows() if row[1].commit()]

    def update_shadow(self, gid: int, value: Any) -> bool:
        """Install a received shadow value (post-communication update).

        Returns whether the shadow actually changed; the version counter is
        bumped only then, keeping replica versions identical to the owner's
        under both the dense (every value re-sent) and delta (changed values
        only) exchanges.
        """
        record = self.data_records.get(gid)
        if record is None:
            raise KeyError(f"rank {self.rank} received shadow for unknown node {gid}")
        if record.data == value:
            return False
        record.data = value
        record.version += 1
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
        owned, split, rank, held = self._owned, self._split, self.rank, self._held()
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
        # Every resolved sweep row names the current records.
        rows = self._sweep_rows
        if rows is not None:
            assert [row[0] for row in rows] == owned
            records = self.data_records
            for position, (gid, record, nbrs, kept, procs) in enumerate(rows):
                assert record is records[gid] and nbrs == self.graph.neighbors(gid)
                assert procs == (self._dests[position - split] if position >= split else ())
                fresh = [records[v] for v in nbrs]
                assert [*map(id, kept)] == [*map(id, fresh)], (
                    f"rank {rank}: stale neighbour row at {gid}"
                )
