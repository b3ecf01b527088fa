"""Per-processor node store: the initialization phase's data structures.

Each rank keeps (section 4.1):

* the **internal node list** -- owned nodes with every neighbour local,
* the **peripheral node list** -- owned nodes with >= 1 remote neighbour,
* the **data node list** -- :class:`NodeData` records for owned nodes *and*
  shadow nodes (remote neighbours of peripherals), indexed by gid.

The thesis indexes the data node list with a hash table of sorted buckets.
The virtual-time model prices each probe (``hash_lookup_cost`` in
:meth:`~repro.core.compute.ComputeContext.node_cost`); on the host,
``data_records`` is a dict and every lookup is one dict hit.

The store also implements the data-structure surgery of task migration
(section 4.3): demoting a migrated node to a shadow on the busy side,
adopting it on the idle side, promoting/demoting internal and peripheral
nodes, and rebuilding ``shadow_for_procs`` after ownership changes.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..graphs.graph import Graph, sorted_unique
from .node import INTERNAL, PERIPHERAL, NodeData, OwnNode

__all__ = ["NodeStore"]

InitValueFn = Callable[[int], Any]


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
        self.internal: dict[int, OwnNode] = {}
        self.peripheral: dict[int, OwnNode] = {}
        self._init_record_storage()
        # Memoized communication topology (cleared by ownership surgery
        # *and* by halt-flag changes -- see :meth:`set_halted`).
        self._buffer_sizes_cache: dict[int, list[int]] = {}
        self._neighbor_procs_cache: list[int] | None = None
        #: :meth:`neighbor_records`' memo (``None`` until a scalar sweep asks).
        self._neighbor_records: dict[int, tuple[NodeData, ...]] | None = None
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

    def _make_own_node(self, gid: int) -> OwnNode:
        shadows = self._shadow_procs_of(gid)
        kind = PERIPHERAL if shadows else INTERNAL
        return OwnNode(
            global_id=gid,
            kind=kind,
            owning_proc=self.rank,
            data=self.data_records[gid],
            neighboring_nodes=self.graph.neighbors(gid),
            shadow_for_procs=shadows,
        )

    def _build(self, init_value: InitValueFn) -> None:
        """Figure 6's initialisation as array passes over the graph's CSR:
        which nodes are owned, which of their adjacency entries name a
        remote neighbour, hence which nodes are peripheral, for whom, and
        which shadows they need.  Python touches a node to read its initial
        value, and :meth:`_own` to make its :class:`OwnNode`."""
        rank = self.rank
        procs = np.asarray(self.assignment, dtype=np.int64)
        owned = np.flatnonzero(procs == rank)
        lens, flat = self.graph.csr().rows(owned)
        flat_procs = procs[flat - 1]
        crossing = np.flatnonzero(flat_procs != rank)
        remote = flat[crossing]
        # Shadows in first-discovery order: peripheral nodes ascending, each
        # one's remote neighbours in adjacency order, a gid once.
        by_gid = np.argsort(remote, kind="stable")
        ranked = remote[by_gid]
        shadows = remote[np.sort(by_gid[np.flatnonzero(np.diff(ranked, prepend=0))])]
        # ``shadow_for_procs``: the distinct (owned position, remote
        # processor) pairs, grouped by position.
        width = int(procs.max(initial=0)) + 1
        at = np.searchsorted(np.cumsum(lens), crossing, side="right")
        pairs = sorted_unique(at * width + flat_procs[crossing])
        positions, pair_procs = np.divmod(pairs, width)
        cuts = np.flatnonzero(np.diff(positions, prepend=-1)).tolist()
        pair_procs = pair_procs.tolist()
        dests = [tuple(pair_procs[a:b]) for a, b in zip(cuts, [*cuts[1:], None])]
        peripheral = np.zeros(len(owned), dtype=bool)
        peripheral[positions[cuts]] = True

        held = (owned + 1).tolist() + shadows.tolist()
        self._add_records(held, list(map(init_value, held)))
        order = np.concatenate((owned[~peripheral], owned[peripheral])) + 1
        self._own(order.tolist(), len(owned) - len(dests), dests)

    def _own(self, gids: list[int], split: int, dests: list[tuple[int, ...]]) -> None:
        """Make a fresh build's node lists: ``gids`` in sweep order, the first
        ``split`` internal, the rest peripheral, ``dests`` their shadow procs."""
        rank, records, rows = self.rank, self.data_records, self.graph.neighbor_rows
        for gid, row in zip(gids[:split], rows(gids[:split])):
            self.internal[gid] = OwnNode(gid, INTERNAL, rank, records[gid], row)
        for gid, row, procs in zip(gids[split:], rows(gids[split:]), dests):
            self.peripheral[gid] = OwnNode(gid, PERIPHERAL, rank, records[gid], row, procs)

    # ------------------------------------------------------------------ #
    # Record layer (overridden by the struct-of-arrays store)
    # ------------------------------------------------------------------ #

    def _init_record_storage(self) -> None:
        """Create the empty data node list."""
        self.data_records: dict[int, NodeData] = {}

    def _add_record(
        self,
        gid: int,
        value: Any,
        most_recent: Any = None,
        version: int = 0,
        halted: bool = False,
    ) -> None:
        """Create the data record for ``gid``.

        The single seam through which every record enters the store:
        initialization, migration adoption, and checkpoint restore all pass
        through here, so a subclass can swap the record representation
        (the struct-of-arrays store) without touching those flows.
        """
        if gid in self.data_records:
            raise KeyError(f"rank {self.rank} already holds a record for node {gid}")
        record = NodeData(gid, value, most_recent, version=version, halted=halted)
        self.data_records[gid] = record

    def _add_records(self, gids: Sequence[int], values: Sequence[Any]) -> None:
        """:meth:`_add_record` for a batch of fresh records (default
        ``most_recent``/``version``/``halted``), in order: the seam the
        initialisation phase fills a store through, which the
        struct-of-arrays store overrides with one array write."""
        for gid, value in zip(gids, values):
            self._add_record(gid, value)

    def _reset_records(self) -> None:
        """Drop every record and start empty (checkpoint restore)."""
        self._init_record_storage()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def owned_nodes(self) -> Iterator[OwnNode]:
        """Internal nodes first, then peripheral (the Figure-8 sweep order)."""
        yield from self.internal.values()
        yield from self.peripheral.values()

    def owned_gids(self) -> list[int]:
        """Global IDs of the owned nodes in sweep order (internal first)."""
        return [*self.internal, *self.peripheral]

    def num_owned(self) -> int:
        """Count of nodes this rank computes."""
        return len(self.internal) + len(self.peripheral)

    def num_internal(self) -> int:
        """Count of internal nodes: the leading part of :meth:`owned_gids`."""
        return len(self.internal)

    def own_node(self, gid: int) -> OwnNode:
        """The OwnNode record for an owned gid."""
        node = self.internal.get(gid) or self.peripheral.get(gid)
        if node is None:
            raise KeyError(f"rank {self.rank} does not own node {gid}")
        return node

    def owns(self, gid: int) -> bool:
        """Whether this rank owns ``gid``."""
        return gid in self.internal or gid in self.peripheral

    def num_shadows(self) -> int:
        """Count of shadow records (every owned node holds a record too)."""
        return len(self.data_records) - self.num_owned()

    def shadow_gids(self) -> list[int]:
        """Global IDs present as shadows (data held, not owned)."""
        return sorted(gid for gid in self.data_records if not self.owns(gid))

    def owned_values(self) -> dict[int, Any]:
        """``gid -> committed value`` for every owned node.

        The currency of every store rebuild (repartitioning, shrink
        recovery): committed values are partition-independent, so carrying
        them into a fresh store reproduces results bit-identically under a
        different ownership map.
        """
        return {node.global_id: node.data.data for node in self.owned_nodes()}

    def owned_versions(self) -> dict[int, int]:
        """``gid -> version counter`` for every owned node (sweep order)."""
        return {node.global_id: node.data.version for node in self.owned_nodes()}

    def value_of(self, gid: int) -> Any:
        """Committed value of any locally known node."""
        record = self.data_records.get(gid)
        if record is None:
            raise KeyError(f"rank {self.rank} holds no data for node {gid}")
        return record.data

    def buffer_sizes(self, nprocs: int) -> list[int]:
        """Shadow records owed to each processor.

        ``sizes[q]`` = number of this rank's *active* peripheral nodes that
        are shadows for processor ``q`` -- exactly the thesis's
        ``buffer_size_for_communication`` array.  Halted peripherals are
        excluded: a halted node publishes no updates, so counting it would
        overstate the communication load the balancer reasons about.  The
        scan result is memoized (the load-balance phase asks every period
        but the answer only changes when ownership or halt flags do);
        migration surgery *and* :meth:`set_halted` invalidate it via
        :meth:`_invalidate_topology_cache`.
        """
        cached = self._buffer_sizes_cache.get(nprocs)
        if cached is None:
            cached = [0] * nprocs
            for node in self.peripheral.values():
                if node.data.halted:
                    continue
                for proc in node.shadow_for_procs:
                    cached[proc] += 1
            self._buffer_sizes_cache[nprocs] = cached
        return list(cached)

    def neighbor_procs(self) -> list[int]:
        """Processors this rank pushes shadow updates to (memoized).

        Like :meth:`buffer_sizes`, halted peripherals do not count: they
        produce no updates, so a processor reachable only through halted
        boundary nodes is not a communication neighbour for load-balance
        purposes.
        """
        if self._neighbor_procs_cache is None:
            procs: set[int] = set()
            for node in self.peripheral.values():
                if node.data.halted:
                    continue
                procs.update(node.shadow_for_procs)
            self._neighbor_procs_cache = sorted(procs)
        return list(self._neighbor_procs_cache)

    def neighbor_records(self) -> dict[int, tuple[NodeData, ...]]:
        """``gid -> its neighbours' data records`` in adjacency order, for
        every owned node: the list-forming step's lookups, done once per
        surgery epoch instead of once per node update.

        Resolved at the first scalar sweep that asks (a bulk run never
        asks).  Only ownership surgery can stale a row: records enter through
        :meth:`_add_record` and leave through :meth:`_reset_records` (whose
        callers invalidate) and :meth:`prune_stale_shadows` (never one an
        owned node references); all else writes ``record.data`` in place.
        """
        rows = self._neighbor_records
        if rows is None:
            records = self.data_records
            rows = self._neighbor_records = {
                node.global_id: tuple([records[v] for v in node.neighboring_nodes])
                for node in self.owned_nodes()
            }
        return rows

    def _invalidate_topology_cache(self) -> None:
        """Drop memoized buffer sizes / neighbour procs / neighbour records.

        Must run after ownership surgery (release/adopt/refresh/restore)
        *and* after any halt-flag change -- both inputs feed the memoized
        scans.  (Halt flags originally bypassed this, so a halted vertex
        kept its stale buffer accounting across migrations.)
        """
        self._buffer_sizes_cache.clear()
        self._neighbor_procs_cache = None
        self._neighbor_records = None
        self.surgery_epoch += 1

    # ------------------------------------------------------------------ #
    # Halt flags
    # ------------------------------------------------------------------ #

    def is_halted(self, gid: int) -> bool:
        """Whether the locally known node ``gid`` has voted to halt."""
        record = self.data_records.get(gid)
        if record is None:
            raise KeyError(f"rank {self.rank} holds no data for node {gid}")
        return record.halted

    def set_halted(self, gid: int, halted: bool = True) -> bool:
        """Set the halt flag of a locally known node.

        Returns whether the flag actually changed.  A change invalidates
        the memoized communication topology: halted peripherals are
        excluded from :meth:`buffer_sizes` / :meth:`neighbor_procs`, so the
        memo is stale the moment a flag flips.
        """
        record = self.data_records.get(gid)
        if record is None:
            raise KeyError(f"rank {self.rank} holds no data for node {gid}")
        if bool(record.halted) == bool(halted):
            return False
        record.halted = bool(halted)
        self._invalidate_topology_cache()
        return True

    def halted_gids(self) -> list[int]:
        """Global IDs of locally known halted nodes (ascending)."""
        return sorted(
            gid for gid, record in self.data_records.items() if record.halted
        )

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
        changed: list[int] = []
        for node in self.owned_nodes():
            if node.data.commit():
                changed.append(node.global_id)
        return changed

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

    def release_node(self, gid: int) -> OwnNode:
        """Busy side: stop owning ``gid``; its data record *stays* (the node
        becomes a shadow here).  Returns the removed OwnNode."""
        node = self.peripheral.pop(gid, None)
        if node is None:
            node = self.internal.pop(gid, None)
        if node is None:
            raise KeyError(f"rank {self.rank} cannot release unowned node {gid}")
        self._invalidate_topology_cache()
        return node

    def adopt_node(
        self, gid: int, neighbor_values: Sequence[tuple[int, ...]]
    ) -> OwnNode:
        """Idle side: take ownership of ``gid``.

        ``neighbor_values`` carries the data of the migrating node's
        neighbours shipped by the busy processor -- ``(gid, value)`` pairs,
        or ``(gid, value, version)`` triples when the sender ships its
        delta-exchange version counters; records are created or refreshed so
        the next compute sweep finds everything locally.  The caller must
        already have updated ``assignment``.
        """
        if self.owns(gid):
            raise KeyError(f"rank {self.rank} already owns node {gid}")
        for ngid, value, *rest in neighbor_values:
            version = rest[0] if rest else 0
            record = self.data_records.get(ngid)
            if record is None:
                self._add_record(ngid, value, version=version)
            else:
                record.data = value
                if rest:
                    record.version = version
        if gid not in self.data_records:
            raise KeyError(
                f"rank {self.rank} adopting node {gid} without its data record"
            )
        node = self._make_own_node(gid)
        (self.peripheral if node.is_peripheral else self.internal)[gid] = node
        self._invalidate_topology_cache()
        return node

    def ensure_record(self, gid: int, value: Any, version: int | None = None) -> NodeData:
        """Create (or return) the data record for ``gid``."""
        record = self.data_records.get(gid)
        if record is None:
            self._add_record(gid, value, version=version or 0)
            record = self.data_records[gid]
        elif version is not None:
            record.version = version
        return record

    def refresh_ownership(self) -> None:
        """Re-derive node kinds and shadow lists from the current assignment.

        Called on *every* rank after a migration: on the busy processor
        internal nodes neighbouring the migrated one become peripheral; on
        the idle processor peripheral nodes may turn internal; every other
        shadow-holding processor updates ``shadow_for_procs`` (the thesis
        rebuilds these arrays in ``task_migrate``).
        """
        owned = list(self.owned_nodes())
        self.internal.clear()
        self.peripheral.clear()
        for old in owned:
            node = self._make_own_node(old.global_id)
            (self.peripheral if node.is_peripheral else self.internal)[
                node.global_id
            ] = node
        self._invalidate_topology_cache()

    def prune_stale_shadows(self) -> list[int]:
        """Drop shadow records no longer adjacent to any owned node.

        The thesis never prunes (the migrated node's data must stay; other
        stale entries are simply never read again).  Pruning is an optional
        hygiene extension used by long-running dynamic workloads; returns
        the dropped gids.
        """
        needed: set[int] = set()
        for node in self.owned_nodes():
            needed.add(node.global_id)
            needed.update(node.neighboring_nodes)
        stale = [gid for gid in self.data_records if gid not in needed]
        for gid in stale:
            del self.data_records[gid]
        return stale

    # ------------------------------------------------------------------ #
    # Checkpoint support (used by :mod:`repro.core.checkpoint`)
    # ------------------------------------------------------------------ #

    def capture_state(self) -> dict[str, Any]:
        """Snapshot every mutable piece of the store into plain data.

        The snapshot covers the node-to-processor map, the full data node
        list (committed *and* in-flight values) and the halt flags; node
        values are deep-copied so later sweeps cannot mutate the snapshot
        through shared references.  The result is picklable whenever the
        application's node values are.
        """
        return {
            "rank": self.rank,
            "assignment": list(self.assignment),
            "records": {
                gid: (
                    copy.deepcopy(record.data),
                    copy.deepcopy(record.most_recent_data),
                    record.version,
                )
                for gid, record in self.data_records.items()
            },
            "halted": self.halted_gids(),
            # Read by nothing, but a shrink recovery prices the dead rank's
            # snapshot by its pickled length (``Checkpoint.nbytes``): the
            # thesis's bucket count stays in it so those clocks do not move.
            "hash_table_length": 64,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild the store from a :meth:`capture_state` snapshot.

        The shared ``assignment`` list is patched in place (it is owned by
        the caller, exactly as during migration), the data node list is
        rebuilt record by record, and the internal/peripheral classification
        is re-derived -- leaving the store exactly as it was at snapshot
        time.
        """
        if state["rank"] != self.rank:
            raise ValueError(
                f"rank {self.rank} cannot restore a checkpoint of rank {state['rank']}"
            )
        self.assignment[:] = state["assignment"]
        self._reset_records()
        halted = set(state.get("halted", ()))
        for gid, (data, most_recent, version) in state["records"].items():
            self._add_record(
                gid,
                copy.deepcopy(data),
                copy.deepcopy(most_recent),
                version=version,
                halted=gid in halted,
            )
        self.internal.clear()
        self.peripheral.clear()
        for gid in self.graph.nodes():
            if self.assignment[gid - 1] == self.rank:
                node = self._make_own_node(gid)
                (self.peripheral if node.is_peripheral else self.internal)[gid] = node
        self._invalidate_topology_cache()

    # ------------------------------------------------------------------ #
    # Invariants (test hook)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Raise AssertionError on any broken store invariant."""
        for gid, node in self.internal.items():
            assert node.kind == INTERNAL, f"node {gid} in internal list with kind {node.kind}"
            assert not node.shadow_for_procs
            assert self.assignment[gid - 1] == self.rank, f"internal {gid} not owned"
            for v in node.neighboring_nodes:
                assert self.assignment[v - 1] == self.rank, (
                    f"internal node {gid} has remote neighbour {v}"
                )
        for gid, node in self.peripheral.items():
            assert node.kind == PERIPHERAL
            assert self.assignment[gid - 1] == self.rank, f"peripheral {gid} not owned"
            expected = self._shadow_procs_of(gid)
            assert node.shadow_for_procs == expected, (
                f"node {gid}: shadow_for_procs {node.shadow_for_procs} != {expected}"
            )
            assert expected, f"peripheral node {gid} has no remote neighbours"
        assert not (set(self.internal) & set(self.peripheral)), "node in both lists"
        # Every owned node and every neighbour of a peripheral node has data.
        for node in self.owned_nodes():
            assert node.global_id in self.data_records
            for v in node.neighboring_nodes:
                assert v in self.data_records, (
                    f"rank {self.rank}: no data for neighbour {v} of {node.global_id}"
                )
        # OwnNode.data aliases the data record, and so does every resolved
        # neighbour row.
        rows = self._neighbor_records
        assert rows is None or rows.keys() == {n.global_id for n in self.owned_nodes()}
        for node in self.owned_nodes():
            assert node.data is self.data_records[node.global_id]
            if rows is not None:
                fresh = [self.data_records[v] for v in node.neighboring_nodes]
                assert [*map(id, rows[node.global_id])] == [*map(id, fresh)], (
                    f"rank {self.rank}: stale neighbour row at {node.global_id}"
                )
