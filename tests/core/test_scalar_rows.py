"""The looped kernel's rows: resolved once per surgery epoch, never stale.

``NodeStore.sweep_rows()`` hands the looped kernel (the node function
called node by node on the list store), per position of the owned-set
layout, the node's slot and its neighbours' *slots*, translated from the
data node list's index once per surgery epoch (part of the store's
per-epoch topology) instead of looked up once per node update.  A stale
row would make a node compute from a slot that no longer holds its
neighbour, silently, so the rows are held to the probing path they replaced
-- which lives on *here*, as the reference (``reference_views`` /
``probing_oracle`` look each value up by gid at the time of asking, as the
deleted ``_form_view`` did):

* after every kind of store surgery one sweep sees the views the reference
  forms -- node by node on the list store, gathered by the bulk view on
  the struct-of-arrays store -- and ``check_invariants()`` (which also
  holds the topology, and every cached row, to the index) passes;
* whole platform runs -- migration, crash + shrink rebuild, integrity repair
  -- re-check every row each time a sweep asks for them;
* a deterministic count floor: forming views never probes the index, and
  a sweep probes it once per shadow record received;
* a bulk run never resolves a row at all.

Mutation check: deleting ``self._topology = None`` from
``NodeStore._invalidate_topology_cache`` fails nine tests here: both
stores' cases of ``TestRowsFollowSurgery`` and of the migration runs (BSP
and hybrid) of ``TestPlatformRuns``, and ``TestProbeCounts`` (a rollback
restores the slots and the layout it started from, a shrink builds a new
store and a repair writes in place, so those runs rightly pass).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.average import make_average_fn
from repro.apps.imbalance import make_imbalanced_average_fn
from repro.core import (
    CommBuffers,
    ComputeContext,
    ICPlatform,
    NodeStore,
    NodeView,
    PlatformConfig,
    PlatformCosts,
    SoAStore,
    superstep,
)
from repro.core.compute import _INTERNAL, _PERIPHERAL, _sweep
from repro.core.migration import migrate_node, select_migrating_node
from repro.graphs import Graph, hex32, hex64
from repro.mpi import IDEAL, FaultPlan, run_mpi
from repro.partitioning import MetisLikePartitioner, Partition

from ..twins import on_store, scalar_twin
from .test_store_conformance import boundary_gid_of_rank

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

STORES = [pytest.param(NodeStore, id="object"), pytest.param(SoAStore, id="soa")]
#: Only the list store sweeps node by node, hence sweep rows.
ROW_STORES = STORES[:1]

#: The sweep coordinates every view below is formed at.
ITERATION, ROUND = 3, 1


class _Clock:
    """All a sweep asks of its communicator: somewhere to charge, a clock
    for the accountant to fold into, and no fault plan."""

    faults = None

    def __init__(self) -> None:
        self.clock = 0.0

    def work(self, seconds: float) -> float:
        self.clock += seconds
        return seconds

    def _state(self) -> _Clock:
        return self


def sweep(store: NodeStore, fn=lambda view, ctx: view.value) -> list[NodeView]:
    """One sweep of each node class and the commit; the views ``fn`` saw.
    The list store runs ``fn`` as the looped kernel; the struct-of-arrays
    store forms the same views from each class's dense bulk view."""
    seen: list[NodeView] = []

    def recording(view, ctx):
        seen.append(view)
        return fn(view, ctx)

    ctx = ComputeContext(_Clock(), PlatformCosts(), store.graph.num_nodes)
    ctx.iteration, ctx.round = ITERATION, ROUND
    for part in (_INTERNAL, _PERIPHERAL):
        if not isinstance(store, SoAStore):
            buffers = CommBuffers(1 + max(store.assignment))
            _sweep(store, recording, ctx, buffers, None, part)
            continue
        bulk = store.bulk_view(None, ITERATION, ROUND, part)
        closed, bounds = bulk.closed_values.tolist(), bulk.indptr.tolist()
        fresh = []
        for gid, a, b in zip(bulk.gids.tolist(), bounds, bounds[1:]):
            neighbors = tuple(zip(store.graph.neighbors(gid), closed[a + 1 : b]))
            fresh.append(recording(NodeView(gid, closed[a], neighbors, ITERATION, ROUND), ctx))
        store.scatter_pending(bulk.slots, np.array(fresh, dtype=float))
    store.commit_owned()
    return seen


def reference_views(store: NodeStore) -> list[NodeView]:
    """The views of one sweep formed the way the sweep used to form them:
    one lookup per neighbour, at the time of asking."""
    value_of = store.value_of
    return [
        NodeView(
            global_id=gid,
            value=value_of(gid),
            neighbors=tuple((v, value_of(v)) for v in store.graph.neighbors(gid)),
            iteration=ITERATION,
            round=ROUND,
        )
        for gid in store.owned_gids()
    ]


def assert_views_fresh(store: NodeStore) -> None:
    expected = reference_views(store)
    assert sweep(store) == expected


def assert_fresh(store: NodeStore) -> None:
    """Views as the reference forms them, rows that name the index's slots."""
    assert_views_fresh(store)
    if not isinstance(store, SoAStore):
        assert store._topology.rows is not None
    store.check_invariants()


def advance(stores: list[NodeStore]) -> None:
    """Move every value (a sweep of ``+1``) and refresh every shadow."""
    for store in stores:
        sweep(store, lambda view, ctx: view.value + 1.0)
    for store in stores:
        for gid in store.shadow_gids():
            store.update_shadow(gid, stores[store.assignment[gid - 1]].value_of(gid))


def migrate(stores: list[NodeStore], gid: int, to: int, check=lambda store: None) -> None:
    """``migrate_node`` without the wire; ``check`` runs after each step."""
    assignment = stores[0].assignment  # one list, shared by every store
    source, target = stores[assignment[gid - 1]], stores[to]
    assignment[gid - 1] = to
    source.release_node(gid)
    check(source)
    value, version = source.value_of(gid), source.version_of(gid)
    payload = [(v, source.value_of(v), source.version_of(v)) for v in source.graph.neighbors(gid)]
    target.ensure_record(gid, value, version=version)
    target.set_value(gid, value)
    check(target)
    target.adopt_node(gid, payload)
    check(target)
    for store in stores:
        store.refresh_ownership()
        check(store)


def make_stores(store_cls, graph: Graph, assignment: list[int]) -> list[NodeStore]:
    return [store_cls(rank, graph, assignment, float) for rank in range(1 + max(assignment))]


class TestInvariantOracle:
    @pytest.mark.parametrize("store_cls", ROW_STORES)
    def test_rows_are_lazy_and_name_the_slots(self, store_cls):
        store = make_stores(store_cls, hex32(), [gid % 2 for gid in range(32)])[0]
        assert store._topology is None  # nobody asked yet
        rows = store.sweep_rows()
        assert store.sweep_rows() is rows
        assert [row[0] for row in rows] == store.owned_gids()
        for gid, slot, nbrs, kept in rows:
            assert slot == store._slot_of[gid]
            assert store._values[slot] == store.value_of(gid)
            assert nbrs == store.graph.neighbors(gid) and len(kept) == len(nbrs)
            for row_slot, v in zip(kept, nbrs):
                assert row_slot == store._slot_of[v]
        store.check_invariants()

    @pytest.mark.parametrize("store_cls", ROW_STORES)
    def test_check_invariants_catches_a_stale_row(self, store_cls):
        store = make_stores(store_cls, hex32(), [gid % 2 for gid in range(32)])[0]
        rows = store.sweep_rows()
        row = rows[0]
        gid = row[0]
        rows[0] = (*row[:3], row[3][::-1])  # right slots, wrong adjacency order
        with pytest.raises(AssertionError, match=f"stale neighbour row at {gid}"):
            store.check_invariants()
        rows[0] = row
        store.check_invariants()
        del rows[0]  # a row short
        with pytest.raises(AssertionError):
            store.check_invariants()

    def test_node_view_is_immutable(self):
        view = NodeView(global_id=1, value=2.0, neighbors=((2, 3.0),), iteration=4)
        for name in ("global_id", "value", "neighbors", "iteration", "round", "extra"):
            with pytest.raises(AttributeError):
                setattr(view, name, 0)
        assert view == NodeView(1, 2.0, ((2, 3.0),), 4, round=0)
        assert view._replace(value=5.0).value == 5.0 and view.value == 2.0


class TestRowsFollowSurgery:
    @pytest.mark.parametrize("store_cls", STORES)
    def test_each_surgery_by_name(self, store_cls):
        """path6 split [1 2 3 | 4 5 6]: every store call that can touch a
        record or an owned set, one at a time."""
        path6 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        stores = make_stores(store_cls, path6, [0, 0, 0, 1, 1, 1])
        left, right = stores
        for store in stores:
            assert_fresh(store)  # the first resolution
        advance(stores)
        for store in stores:
            assert_fresh(store)  # same rows, moved values

        snapshots = [store.capture_state() for store in stores]
        # release_node / ensure_record / adopt_node / refresh_ownership, each
        # followed by a sweep (mid-migration the kinds are not yet re-derived,
        # so only the views are compared until the refresh).
        migrate(stores, 3, to=1, check=assert_views_fresh)
        assert right.peripherals() == [(3, (0,))] and left.shadow_procs(2) == (1,)
        for store in stores:
            assert_fresh(store)

        # ensure_record: a new record nobody's row references, then a no-op.
        left.ensure_record(6, 60.0)
        left.ensure_record(3, -1.0, version=9)
        assert_fresh(left)

        # An integrity flip and its repair write the value in place.
        for gid in (2, 3):  # owned, shadow
            left.set_value(gid, 1234.5)
            assert_fresh(left)

        # restore_state: every record re-enters, in snapshot order.
        advance(stores)
        for store, snapshot in zip(stores, snapshots):
            store.restore_state(snapshot)
        for store, snapshot in zip(stores, snapshots):
            assert_fresh(store)
            assert {gid: store.value_of(gid) for gid in snapshot["records"]} == {
                gid: data for gid, (data, _, _) in snapshot["records"].items()
            }
        assert left.peripherals() == [(3, (1,))]

        # A shrink rebuild is a new store of the same type.
        rebuilt = type(left)(0, path6, [0] * 6, init_value=float)
        assert_fresh(rebuilt)

    @pytest.mark.parametrize("store_cls", STORES)
    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["migrate", "advance", "capture", "restore"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_any_surgery_sequence(self, store_cls, steps):
        graph = hex32()
        assignment = list(MetisLikePartitioner(seed=0).partition(graph, 3).assignment)
        stores = make_stores(store_cls, graph, assignment)
        snapshots = None
        for op, pick in steps:
            store = stores[pick % len(stores)]
            if op == "migrate":
                movable = [(gid, to) for gid, procs in store.peripherals() for to in procs]
                if store.num_owned() > 1 and movable:
                    migrate(stores, *movable[pick % len(movable)])
            elif op == "advance":
                advance(stores)
            elif op == "capture":
                snapshots = [s.capture_state() for s in stores]
            elif op == "restore" and snapshots is not None:
                for s, snapshot in zip(stores, snapshots):
                    s.restore_state(snapshot)
            for s in stores:
                assert_fresh(s)


@pytest.fixture
def probing_oracle(monkeypatch):
    """Holds every row a looped kernel is handed, in a platform run, to a
    fresh lookup; returns the ranks that asked, in order."""
    asked: list[int] = []
    resolve = NodeStore.sweep_rows

    def checked(store):
        rows = resolve(store)
        slot_of = store._slot_of
        assert [row[0] for row in rows] == store.owned_gids()
        for gid, slot, _, kept in rows:
            assert slot == slot_of[gid]
            assert kept == tuple([slot_of[v] for v in store.graph.neighbors(gid)])
        asked.append(store.rank)
        return rows

    monkeypatch.setattr(NodeStore, "sweep_rows", checked)
    return asked


#: The neighbour average with its bulk kernel; ``on_store`` makes the object
#: (list-store) side its scalar twin.
AVERAGE = make_average_fn(1e-4)
#: The same average without its kernel: always the looped kernel.
SCALAR_AVERAGE = scalar_twin(AVERAGE)


def run_checked(store, node_fn=AVERAGE, *, iterations=6, faults=None, skew=None, **overrides):
    """The conformance suite's hex32 / 4-rank run with the invariants checked
    every iteration; ``execution`` is left to the default on purpose, so the
    hybrid CI step runs these by node class.  ``skew=(src, dst)`` hands half
    of rank ``src``'s nodes to rank ``dst``, an imbalance for the balancer."""
    graph = hex32()
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    if skew is not None:
        src, dst = skew
        assignment = list(partition.assignment)
        moved = [i for i, proc in enumerate(assignment) if proc == src]
        for i in moved[: len(moved) // 2]:
            assignment[i] = dst
        partition = Partition.from_assignment(graph, assignment, 4)
    config = PlatformConfig(iterations=iterations, validate_each_iteration=True, **overrides)
    return ICPlatform(graph, on_store(store, node_fn), config=config).run(
        partition, faults=FaultPlan.parse(faults) if faults else None
    )


@pytest.mark.parametrize("store", ["object", "soa"])
class TestPlatformRuns:
    """On ``object`` the scalar twin runs as the looped kernel and every row
    it is handed is re-checked; on ``soa`` the kernel sweeps the arrays, with the
    store's invariants checked every iteration, and never asks for a row."""

    def test_migrations(self, store, probing_oracle):
        """The object side follows the imbalance workload's moving heavy
        band; the kernel side (no per-node grains) starts from a skewed
        partition.  That skew is a BSP imbalance: under hybrid execution
        the interior sweeps dominate the measured loads, and no rank is
        25 % above all its neighbours, so no pair forms (see
        ``test_hybrid_migrations``)."""
        if store == "object":
            result = run_checked(
                store,
                make_imbalanced_average_fn(),
                iterations=30,
                dynamic_load_balancing=True,
                lb_period=4,
            )
        else:
            result = run_checked(
                store,
                iterations=30,
                skew=(3, 0),
                execution="bsp",
                dynamic_load_balancing=True,
                lb_period=4,
            )
        assert result.migrations
        assert bool(probing_oracle) == (store == "object")

    def test_hybrid_migrations(self, store, probing_oracle):
        """Hybrid execution migrates from a skew whose interior sweeps leave
        one rank 25 % above all its neighbours: half of rank 0's nodes on
        rank 2.  The object side runs the kernel's scalar twin."""
        result = run_checked(
            store,
            iterations=30,
            skew=(0, 2),
            execution="hybrid",
            dynamic_load_balancing=True,
            lb_period=4,
        )
        assert result.migrations
        assert bool(probing_oracle) == (store == "object")

    def test_crash_and_rollback(self, store, probing_oracle):
        result = run_checked(store, iterations=8, checkpoint_period=3, faults="seed=3,crash=2@5")
        assert result.recoveries == 1
        assert bool(probing_oracle) == (store == "object")

    def test_crash_and_shrink_rebuild(self, store, probing_oracle):
        result = run_checked(
            store,
            iterations=8,
            checkpoint_period=3,
            recovery_policy="shrink",
            faults="seed=3,crash=2@5",
        )
        assert result.dead_ranks == (2,)
        assert bool(probing_oracle) == (store == "object")

    def test_integrity_repair(self, store, probing_oracle):
        faults = f"seed=11,flip=1@4:{boundary_gid_of_rank(1)}"
        result = run_checked(store, iterations=8, integrity="full", faults=faults)
        assert result.repairs == 1
        assert bool(probing_oracle) == (store == "object")

    def test_a_bulk_run_resolves_no_row(self, store, probing_oracle):
        """A bulk kernel runs on the SoA store through ``fn.bulk``: the
        rows are never built (the three bulk benchmark workloads cannot
        move).  Its scalar twin resolves them."""
        run_checked(store, iterations=4)
        assert bool(probing_oracle) == (store == "object")


class TestProbeCounts:
    def test_records_are_probed_once_per_shadow_record(self):
        """Counts repeat exactly where walls do not.  hex64 on 4 ranks, dense
        Figure-8 sweeps on the list store: forming views never probes the
        data node list's index (the epoch's rows carry slots, translated by
        one array pass), every sweep probes it once per shadow record
        received, and nothing else looks -- before and after a migration,
        which re-resolves the rows once."""
        graph = hex64()
        assignment = MetisLikePartitioner(seed=0).partition(graph, 4).assignment
        scout = NodeStore(0, graph, list(assignment), float)
        to = scout.neighbor_procs()[0]
        moving = select_migrating_node(scout, to)

        def fn(comm):
            owners = list(assignment)
            store = NodeStore(comm.rank, graph, owners, float)
            probes = [0]

            class Counting(dict):
                def __getitem__(self, gid):
                    probes[0] += 1
                    return super().__getitem__(gid)

                def get(self, gid, default=None):
                    probes[0] += 1
                    return super().get(gid, default)

            store._slot_of = Counting(store._slot_of)
            epochs = [0]
            invalidate = store._invalidate_topology_cache

            def counting_invalidate() -> None:
                epochs[0] += 1
                invalidate()

            store._invalidate_topology_cache = counting_invalidate
            ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
            buffers = CommBuffers(comm.size)

            def probes_of_a_sweep() -> int:
                before = probes[0]
                ctx.iteration += 1
                superstep(comm, store, SCALAR_AVERAGE, ctx, buffers)
                return probes[0] - before

            def view_entries() -> int:
                return sum(len(graph.neighbors(gid)) for gid in store.owned_gids())

            def arrivals() -> int:
                return len(
                    {
                        v
                        for gid in store.owned_gids()
                        for v in graph.neighbors(gid)
                        if owners[v - 1] != comm.rank
                    }
                )

            assert view_entries() > arrivals() > 0
            assert [probes_of_a_sweep() for _ in range(4)] == [arrivals()] * 4
            rows = store.sweep_rows()
            owners[moving - 1] = to
            migrate_node(comm, store, moving, 0, to, ctx)
            assert [probes_of_a_sweep() for _ in range(4)] == [arrivals()] * 4
            assert store.sweep_rows() is not rows
            return epochs[0]

        # Every rank re-derived its kinds; the two ends also released/adopted.
        assert sorted(run_mpi(fn, 4, machine=IDEAL)) == [1, 1, 2, 2]
