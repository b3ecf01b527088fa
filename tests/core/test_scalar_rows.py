"""The scalar sweep's neighbour rows: resolved once per surgery epoch, never stale.

``NodeStore.neighbor_records()`` hands the scalar sweep each owned node's
neighbour *records*, looked up in the data node list once per surgery epoch
instead of once per node update.  A stale row would make a node compute from
a record nobody writes any more, silently, so the rows are held to the
probing path they replaced -- which lives on *here*, as the reference
(``reference_views`` / ``probing_oracle`` look up ``store.data_records[v]``
at the time of asking, as the deleted ``_form_view`` did):

* after every kind of store surgery one scalar sweep sees the views the
  reference forms, and ``check_invariants()`` (which now also holds every
  cached row, by identity, to ``data_records``) passes;
* whole platform runs -- migration, crash + shrink rebuild, integrity repair
  -- re-check every row each time a scalar phase asks for them;
* a deterministic count floor: the data node list is indexed for view
  forming once per neighbour per epoch and not once more;
* a bulk run never resolves a row at all.

Mutation check: deleting ``self._neighbor_records = None`` from
``NodeStore._invalidate_topology_cache`` fails seven tests here: both
of ``TestRowsFollowSurgery`` on both stores, the object-store migration and
rollback runs of ``TestPlatformRuns``, and ``TestProbeCounts`` (a shrink builds a new store
and a repair writes in place, so those two runs rightly pass).
"""

from __future__ import annotations

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
from repro.core.compute import _ScalarPhases
from repro.core.migration import migrate_node, select_migrating_node
from repro.graphs import Graph, hex32, hex64
from repro.mpi import IDEAL, FaultPlan, run_mpi
from repro.partitioning import MetisLikePartitioner, Partition

from ..twins import on_store, scalar_twin
from .test_store_conformance import boundary_gid_of_rank

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

STORES = [pytest.param(NodeStore, id="object"), pytest.param(SoAStore, id="soa")]

#: The sweep coordinates every view below is formed at.
ITERATION, ROUND = 3, 1


class _Clock:
    """All a scalar phase asks of its communicator: somewhere to charge."""

    def work(self, seconds: float) -> float:
        return seconds


def sweep(store: NodeStore, fn=lambda view, ctx: view.value) -> list[NodeView]:
    """One scalar sweep (both phases) and its commit; the views ``fn`` saw."""
    seen: list[NodeView] = []

    def recording(view, ctx):
        seen.append(view)
        return fn(view, ctx)

    ctx = ComputeContext(_Clock(), PlatformCosts(), store.graph.num_nodes)
    ctx.iteration, ctx.round = ITERATION, ROUND
    phases = _ScalarPhases(store, recording, ctx, CommBuffers(1 + max(store.assignment)))
    phases.internal()
    phases.peripheral()
    store.commit_owned()
    return seen


def reference_views(store: NodeStore) -> list[NodeView]:
    """The views of one sweep formed the way the sweep used to form them:
    one lookup per neighbour, at the time of asking."""
    records = store.data_records
    return [
        NodeView(
            global_id=node.global_id,
            value=records[node.global_id].data,
            neighbors=tuple((v, records[v].data) for v in node.neighboring_nodes),
            iteration=ITERATION,
            round=ROUND,
        )
        for node in store.owned_nodes()
    ]


def assert_views_fresh(store: NodeStore) -> None:
    expected = reference_views(store)
    assert sweep(store) == expected


def assert_fresh(store: NodeStore) -> None:
    """Views as the reference forms them, rows identical to the records."""
    assert_views_fresh(store)
    assert store._neighbor_records is not None
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
    node = source.release_node(gid)
    check(source)
    records = source.data_records
    payload = [(v, records[v].data, records[v].version) for v in node.neighboring_nodes]
    target.ensure_record(gid, node.data.data, version=node.data.version).data = node.data.data
    check(target)
    target.adopt_node(gid, payload)
    check(target)
    for store in stores:
        store.refresh_ownership()
        check(store)


def make_stores(store_cls, graph: Graph, assignment: list[int]) -> list[NodeStore]:
    return [store_cls(rank, graph, assignment, float) for rank in range(1 + max(assignment))]


class TestInvariantOracle:
    @pytest.mark.parametrize("store_cls", STORES)
    def test_rows_are_lazy_and_identical_to_the_records(self, store_cls):
        store = make_stores(store_cls, hex32(), [gid % 2 for gid in range(32)])[0]
        assert store._neighbor_records is None  # nobody asked yet
        rows = store.neighbor_records()
        assert store.neighbor_records() is rows
        assert list(rows) == [node.global_id for node in store.owned_nodes()]
        for node in store.owned_nodes():
            assert len(rows[node.global_id]) == len(node.neighboring_nodes)
            for kept, v in zip(rows[node.global_id], node.neighboring_nodes):
                assert kept is store.data_records[v]
        store.check_invariants()

    @pytest.mark.parametrize("store_cls", STORES)
    def test_check_invariants_catches_a_stale_row(self, store_cls):
        store = make_stores(store_cls, hex32(), [gid % 2 for gid in range(32)])[0]
        rows = store.neighbor_records()
        gid, row = next(iter(rows.items()))
        rows[gid] = row[::-1]  # right records, wrong adjacency order
        with pytest.raises(AssertionError, match=f"stale neighbour row at {gid}"):
            store.check_invariants()
        rows[gid] = row
        store.check_invariants()
        del rows[gid]  # a row short
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
        assert sorted(right.peripheral) == [3] and 2 in left.peripheral
        for store in stores:
            assert_fresh(store)

        # prune_stale_shadows: 4 is no longer adjacent to anything left owns.
        assert left.prune_stale_shadows() == [4]
        assert_fresh(left)
        # ensure_record: a new record nobody's row references, then a no-op.
        left.ensure_record(6, 60.0)
        left.ensure_record(3, -1.0, version=9)
        assert_fresh(left)

        # An integrity flip and its repair write ``record.data`` in place.
        for gid in (2, 3):  # owned, shadow
            left.data_records[gid].data = 1234.5
            assert_fresh(left)

        # restore_state: every record is a new object holding the old value.
        advance(stores)
        for store, snapshot in zip(stores, snapshots):
            store.restore_state(snapshot)
        for store, snapshot in zip(stores, snapshots):
            assert_fresh(store)
            assert {gid: store.value_of(gid) for gid in snapshot["records"]} == {
                gid: data for gid, (data, _, _) in snapshot["records"].items()
            }
        assert sorted(left.peripheral) == [3]

        # A shrink rebuild is a new store of the same type.
        rebuilt = type(left)(0, path6, [0] * 6, init_value=float)
        assert_fresh(rebuilt)

    @pytest.mark.parametrize("store_cls", STORES)
    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["migrate", "advance", "capture", "restore", "prune", "halt"]),
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
                movable = [
                    (gid, to)
                    for gid, node in store.peripheral.items()
                    for to in node.shadow_for_procs
                ]
                if store.num_owned() > 1 and movable:
                    migrate(stores, *movable[pick % len(movable)])
            elif op == "advance":
                advance(stores)
            elif op == "capture":
                snapshots = [s.capture_state() for s in stores]
            elif op == "restore" and snapshots is not None:
                for s, snapshot in zip(stores, snapshots):
                    s.restore_state(snapshot)
            elif op == "prune":
                store.prune_stale_shadows()
            elif op == "halt":
                gid = sorted(store.data_records)[pick % len(store.data_records)]
                store.set_halted(gid, not store.is_halted(gid))
            for s in stores:
                assert_fresh(s)


@pytest.fixture
def probing_oracle(monkeypatch):
    """Holds every row a scalar phase is handed, in a platform run, to a
    fresh lookup; returns the ranks that asked, in order."""
    asked: list[int] = []
    resolve = NodeStore.neighbor_records

    def checked(store):
        rows = resolve(store)
        records = store.data_records
        assert list(rows) == [node.global_id for node in store.owned_nodes()]
        for node in store.owned_nodes():
            probed = [records[v] for v in node.neighboring_nodes]
            assert len(rows[node.global_id]) == len(probed)
            assert all(kept is record for kept, record in zip(rows[node.global_id], probed))
        asked.append(store.rank)
        return rows

    monkeypatch.setattr(NodeStore, "neighbor_records", checked)
    return asked


#: The neighbour average with its bulk kernel; ``on_store`` makes the object
#: side its scalar twin.
AVERAGE = make_average_fn(1e-4)
#: The same average without its kernel: always the scalar sweep.
SCALAR_AVERAGE = scalar_twin(AVERAGE)


def run_checked(store, node_fn=AVERAGE, *, iterations=6, faults=None, skew=False, **overrides):
    """The conformance suite's hex32 / 4-rank run with the invariants checked
    every iteration; ``execution`` is left to the default on purpose, so the
    hybrid CI step runs these by node class.  ``skew`` hands half of the
    last rank's nodes to rank 0, an imbalance the balancer acts on."""
    graph = hex32()
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    if skew:
        assignment = list(partition.assignment)
        last = [i for i, proc in enumerate(assignment) if proc == 3]
        for i in last[: len(last) // 2]:
            assignment[i] = 0
        partition = Partition.from_assignment(graph, assignment, 4)
    config = PlatformConfig(iterations=iterations, validate_each_iteration=True, **overrides)
    return ICPlatform(graph, on_store(store, node_fn), config=config).run(
        partition, faults=FaultPlan.parse(faults) if faults else None
    )


@pytest.mark.parametrize("store", ["object", "soa"])
class TestPlatformRuns:
    """On ``object`` the scalar twin sweeps node by node and every row it is
    handed is re-checked; on ``soa`` the kernel sweeps the arrays, with the
    store's invariants checked every iteration, and never asks for a row."""

    def test_migrations(self, store, probing_oracle):
        """The object side follows the imbalance workload's moving heavy
        band; the kernel side (no per-node grains) starts from a skewed
        partition."""
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
                store, iterations=30, skew=True, dynamic_load_balancing=True, lb_period=4
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
        """A bulk kernel runs on the SoA store through ``_BulkPhases``: the
        rows are never built (the three bulk benchmark workloads cannot
        move).  Its scalar twin resolves them."""
        run_checked(store, iterations=4)
        assert bool(probing_oracle) == (store == "object")


class TestProbeCounts:
    def test_records_are_probed_once_per_neighbour_per_epoch(self):
        """Counts repeat exactly where walls do not.  hex64 on 4 ranks, dense
        Figure-8 sweeps on the object store: the first sweep of an epoch
        looks up the data node list once per owned neighbourhood entry,
        every sweep once per shadow record received, and nothing else
        looks."""
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

            store.data_records = Counting(store.data_records)
            ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
            buffers = CommBuffers(comm.size)

            def probes_of_a_sweep() -> int:
                before = probes[0]
                ctx.iteration += 1
                superstep(comm, store, SCALAR_AVERAGE, ctx, buffers)
                return probes[0] - before

            def view_entries() -> int:
                return sum(len(node.neighboring_nodes) for node in store.owned_nodes())

            def arrivals() -> int:
                return len(
                    {
                        v
                        for node in store.owned_nodes()
                        for v in node.neighboring_nodes
                        if owners[v - 1] != comm.rank
                    }
                )

            assert view_entries() > arrivals() > 0
            assert probes_of_a_sweep() == view_entries() + arrivals()
            assert [probes_of_a_sweep() for _ in range(3)] == [arrivals()] * 3
            owners[moving - 1] = to
            migrate_node(comm, store, moving, 0, to, ctx)
            assert probes_of_a_sweep() == view_entries() + arrivals()  # one re-resolution
            assert [probes_of_a_sweep() for _ in range(3)] == [arrivals()] * 3
            return store.surgery_epoch

        # Every rank re-derived its kinds; the two ends also released/adopted.
        assert sorted(run_mpi(fn, 4, machine=IDEAL)) == [1, 1, 2, 2]
