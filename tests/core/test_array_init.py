"""The array-native initialisation phase against the per-node code it replaced.

``NodeStore._build`` classifies a rank's nodes, finds its shadows and fills
the store as array passes over ``Graph.csr()``; ``SoAStore.bulk_topology``,
``SoAStore.owned_values/owned_versions``, ``compute._FrontierIndex`` and
``ICPlatform.run``'s ownership merge read the same arrays.  The per-node
code they replaced lives on *here*, as the reference (``ReferenceBuild`` is
the deleted ``_build``, ``reference_topology`` the deleted loop of
``bulk_topology``, ``reference_frontier_index`` the deleted constructor of
``_FrontierIndex``), and the array code is held to it on both stores, over
random connected graphs with an isolated node attached, under random
assignments (ranks that own nothing included) and band assignments with more
parts than rows, with ``float``, ``int``, ``HexState`` and mixed initial
values -- everything but all-``float`` must demote the struct-of-arrays
store exactly where the per-record loop did.

What must match: ``internal``/``peripheral`` key order, every ``OwnNode``
field, record order and slot numbering ("owned ascending, then shadows in
first-discovery order" -- checkpoint payloads and digests iterate it),
``shadow_gids()``, the virtual init charge to the last bit,
``check_invariants()``, and ``type(x) is int`` for every gid and processor
id that reaches an API boundary (``estimate_nbytes`` sizes wire records by
type, and a numpy integer would pickle differently into a checkpoint).
The struct-of-arrays store makes its lists on their first access, so it
must match twice: before (owned gids, counts, values and the bulk topology,
answered from the build's layout) and after.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.average import make_average_fn
from repro.apps.battlefield.state import HexState
from repro.core import ICPlatform, NodeStore, PlatformConfig, PlatformCosts, SoAStore
from repro.core.compute import _INTERNAL, _PERIPHERAL, _FrontierIndex
from repro.graphs import Graph, grid2d, random_connected_graph
from repro.mpi.shm import leaked_segments
from repro.partitioning import (
    ColumnBandPartitioner,
    Partition,
    RectangularPartitioner,
    RowBandPartitioner,
)

from ..twins import on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

STORES = [pytest.param(NodeStore, id="object"), pytest.param(SoAStore, id="soa")]

# --------------------------------------------------------------------- #
# The replaced per-node code, kept as the reference
# --------------------------------------------------------------------- #


def reference_store(store_cls, *args, **kwargs):
    """A ``store_cls`` built node by node, as before the array build."""

    class ReferenceBuild(store_cls):
        def _build(self, init_value):
            owned = [
                gid for gid in self.graph.nodes() if self.assignment[gid - 1] == self.rank
            ]
            for gid in owned:
                self._add_record(gid, init_value(gid))
            for gid in owned:
                node = self._make_own_node(gid)
                (self.peripheral if node.is_peripheral else self.internal)[gid] = node
            for node in self.peripheral.values():
                for v in node.neighboring_nodes:
                    if self.assignment[v - 1] != self.rank and v not in self.data_records:
                        self._add_record(v, init_value(v))

    return ReferenceBuild(*args, **kwargs)


def reference_topology(store: SoAStore) -> dict[str, np.ndarray]:
    """The arrays of ``bulk_topology`` from the loop it used to run."""
    gids = [*store.internal, *store.peripheral]
    slot_of = store._slot_of
    indptr = np.zeros(len(gids) + 1, dtype=np.intp)
    flat: list[int] = []
    degrees = np.zeros(len(gids), dtype=np.int64)
    for i, gid in enumerate(gids):
        neighbors = store.graph.neighbors(gid)
        degrees[i] = len(neighbors)
        flat.append(slot_of[gid])
        for v in neighbors:
            flat.append(slot_of[v])
        indptr[i + 1] = len(flat)
    gids_arr = np.asarray(gids, dtype=np.int64)
    return {
        "order_gids_arr": gids_arr,
        "slot_of_order": np.fromiter((slot_of[g] for g in gids), np.int64, len(gids)),
        "indptr": indptr,
        "flat_slots": np.asarray(flat, dtype=np.int64),
        "degrees": degrees,
        "by_gid": np.argsort(gids_arr),
    }


def reference_frontier_index(store: NodeStore) -> dict[str, np.ndarray]:
    """The arrays of ``_FrontierIndex`` from its former constructor."""
    peripheral = store.peripheral
    owned = sorted([*store.internal, *peripheral])
    count = len(owned)
    gids = np.array(owned, dtype=np.int64)
    local_of = np.full(store.graph.num_nodes + 1, -1, dtype=np.intp)
    local_of[gids] = np.arange(count)
    is_peripheral = np.fromiter((gid in peripheral for gid in owned), bool, count)
    neighbors = store.graph.neighbors
    closed = [(gid, *neighbors(gid)) for gid in owned]
    items = np.fromiter(map(len, closed), np.int64, count)
    flat = local_of[[gid for row in closed for gid in row]]
    kept = np.concatenate(([0], np.cumsum(flat >= 0)))
    bounds = kept[np.concatenate(([0], np.cumsum(items)))]
    return {
        "gids": gids,
        "local_of": local_of,
        "internal": ~is_peripheral,
        "peripheral": is_peripheral,
        "items": items,
        "starts": bounds[:-1],
        "lens": np.diff(bounds),
        "targets": flat[flat >= 0],
    }


# --------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------- #

INIT_VALUES = {
    "float": lambda gid: gid * 0.25,
    "int": lambda gid: gid,
    "hexstate": lambda gid: HexState(gid, red=float(gid), blue=1.0),
    # Floats up to some gid, then something else: the struct-of-arrays store
    # starts on its float64 path and must demote part-way through the fill.
    "mixed": lambda gid: gid * 0.5 if gid % 5 else gid,
    "mixed-late": lambda gid: float(gid) if gid < 9 else {"hp": gid},
}


@st.composite
def graphs_with_an_isolated_node(draw):
    """A random connected graph plus one node nobody is adjacent to."""
    n = draw(st.integers(min_value=2, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    degree = draw(st.sampled_from([2.0, 3.0, 5.0]))
    connected = random_connected_graph(n, avg_degree=degree, seed=seed)
    return Graph([*connected._adj, ()], name="with-isolated")


@st.composite
def random_cases(draw):
    graph = draw(graphs_with_an_isolated_node())
    nprocs = draw(st.integers(min_value=1, max_value=5))
    # Drawing from fewer ranks than exist leaves some rank owning nothing.
    used = draw(st.integers(min_value=1, max_value=nprocs))
    assignment = draw(
        st.lists(
            st.integers(0, used - 1), min_size=graph.num_nodes, max_size=graph.num_nodes
        )
    )
    return graph, assignment, nprocs


@st.composite
def band_cases(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    # More parts than rows (and than nodes) included: some ranks stay empty.
    nprocs = draw(st.integers(min_value=1, max_value=9))
    partitioner = draw(
        st.sampled_from([RowBandPartitioner, ColumnBandPartitioner, RectangularPartitioner])
    )
    graph = grid2d(rows, cols)
    partition = partitioner(rows, cols).partition(graph, nprocs)
    return graph, list(partition.assignment), nprocs


def is_int(x) -> bool:
    return type(x) is int


def init_charge(store: NodeStore) -> float:
    costs = PlatformCosts()
    return (
        costs.init_node_cost * store.num_owned()
        + costs.init_shadow_cost * store.num_shadows()
    )


def assert_same_build(built: NodeStore, ref: NodeStore) -> None:
    """``built`` (array passes) is ``ref`` (node by node) to every observer,
    before and after the struct-of-arrays store makes its lists."""
    soa = isinstance(built, SoAStore)
    lazy = soa and built._layout is not None
    # Before the first list access (if none came yet): answered from the
    # build's layout.
    assert built.owned_gids() == ref.owned_gids() and all(map(is_int, built.owned_gids()))
    assert (built.num_owned(), built.num_internal(), built.num_shadows()) == (
        ref.num_owned(), ref.num_internal(), ref.num_shadows()
    )
    assert list(built.owned_values().items()) == list(ref.owned_values().items())
    if soa:
        topo = built.bulk_topology()
        assert topo.internal_count == len(ref.internal)
        assert topo.plan.dests == [n.shadow_for_procs for n in ref.peripheral.values()]
    assert lazy == (soa and built._layout is not None)  # ... and made no list
    # After it: the lists themselves.
    assert list(built.internal) == list(ref.internal)
    assert list(built.peripheral) == list(ref.peripheral)
    for gid, node in [*built.internal.items(), *built.peripheral.items()]:
        expected = ref.own_node(gid)
        assert (node.global_id, node.kind, node.owning_proc) == (
            expected.global_id, expected.kind, expected.owning_proc
        )
        assert node.neighboring_nodes == expected.neighboring_nodes
        assert node.neighboring_nodes is built.graph.neighbors(gid)  # shared, not copied
        assert node.shadow_for_procs == expected.shadow_for_procs
        assert node.data is built.data_records[gid]
        assert is_int(gid) and is_int(node.global_id) and is_int(node.owning_proc)
        assert all(map(is_int, node.neighboring_nodes))
        assert all(map(is_int, node.shadow_for_procs))
    # Record order ("owned ascending, then shadows in first-discovery order").
    assert list(built.data_records) == list(ref.data_records)
    assert all(map(is_int, built.data_records))
    assert built.shadow_gids() == ref.shadow_gids()
    assert all(map(is_int, built.shadow_gids()))
    assert built.num_shadows() == len(ref.shadow_gids())
    for gid, record in ref.data_records.items():
        mine = built.data_records[gid]
        assert is_int(mine.global_id) and mine.global_id == gid
        assert type(mine.data) is type(record.data) and mine.data == record.data
        assert mine.most_recent_data is None
        assert (mine.version, mine.halted) == (0, False)
    assert built.owned_values() == ref.owned_values()
    assert list(built.owned_values()) == list(ref.owned_values())
    assert built.owned_versions() == ref.owned_versions()
    assert all(map(is_int, built.owned_values()))
    assert all(map(is_int, built.owned_versions().values()))
    assert init_charge(built).hex() == init_charge(ref).hex()
    # A checkpoint cannot tell them apart either (numpy integers would).
    assert pickle.dumps(built.capture_state(), 5) == pickle.dumps(ref.capture_state(), 5)
    if isinstance(built, SoAStore):
        assert built._order == ref._order and all(map(is_int, built._order))
        assert built._slot_of == ref._slot_of
        assert all(map(is_int, built._slot_of.values()))
        assert built._float_mode == ref._float_mode
        assert built._values.dtype == ref._values.dtype
        assert built._capacity() == ref._capacity()
        assert (built._high_water, built._free) == (ref._high_water, ref._free)
        live = slice(0, built._high_water)
        assert built._gids[live].tolist() == ref._gids[live].tolist()
        assert built._layout is None
    built.check_invariants()
    ref.check_invariants()


def both_builds(store_cls, graph, assignment, rank, init_value):
    args = (rank, graph, list(assignment), init_value)
    return store_cls(*args), reference_store(store_cls, *args)


# --------------------------------------------------------------------- #
# Store build
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("values", sorted(INIT_VALUES))
@pytest.mark.parametrize("store_cls", STORES)
class TestBuildMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(case=random_cases())
    def test_random_assignments(self, store_cls, values, case):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            assert_same_build(
                *both_builds(store_cls, graph, assignment, rank, INIT_VALUES[values])
            )

    @settings(max_examples=15, deadline=None)
    @given(case=band_cases())
    def test_band_assignments(self, store_cls, values, case):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            assert_same_build(
                *both_builds(store_cls, graph, assignment, rank, INIT_VALUES[values])
            )


@pytest.mark.parametrize("store_cls", STORES)
class TestBuildEdges:
    def test_rank_that_owns_nothing(self, store_cls):
        graph = grid2d(3, 3)
        built, ref = both_builds(store_cls, graph, [0] * 9, 1, float)
        assert_same_build(built, ref)
        assert built.num_owned() == 0 and len(built.data_records) == 0

    def test_isolated_node_is_internal(self, store_cls):
        graph = Graph([(2,), (1,), ()])
        built, ref = both_builds(store_cls, graph, [0, 1, 0], 0, float)
        assert_same_build(built, ref)
        assert list(built.internal) == [3] and list(built.peripheral) == [1]

    def test_shadow_discovery_order_is_not_gid_order(self, store_cls):
        # Node 1 (rank 0) names 5 before 3: shadows come in that order.
        graph = Graph([(5, 3), (4,), (1,), (2,), (1,)])
        built, ref = both_builds(store_cls, graph, [0, 0, 1, 1, 2], 0, float)
        assert list(built.data_records) == [1, 2, 5, 3, 4]
        assert built.own_node(1).shadow_for_procs == (1, 2)
        assert_same_build(built, ref)

    def test_init_value_is_asked_in_record_order(self, store_cls):
        graph = Graph([(5, 3), (4,), (1,), (2,), (1,)])
        asked: list[int] = []
        store_cls(0, graph, [0, 0, 1, 1, 2], lambda gid: asked.append(gid) or float(gid))
        assert asked == [1, 2, 5, 3, 4]
        assert all(map(is_int, asked))

    def test_batch_of_records_rejects_a_held_gid_like_the_loop(self, store_cls):
        store = store_cls(0, grid2d(2, 2), [0, 0, 1, 1], float)
        before = list(store.data_records)
        with pytest.raises(KeyError, match="already holds a record for node 3"):
            store._add_records([3], [1.0])
        assert list(store.data_records) == before


class TestOneShotFill:
    """``SoAStore._add_records`` fills the arrays in one write only when that
    is exactly the per-record loop."""

    def test_float_fill_keeps_the_float_path(self):
        store = SoAStore(0, grid2d(4, 4), [0] * 8 + [1] * 8, lambda gid: gid / 4)
        assert store._float_mode and store._values.dtype == np.float64
        assert store._capacity() == 64 and store._high_water == 12

    def test_capacity_is_what_the_doublings_reach(self):
        graph = grid2d(10, 10)
        built, ref = both_builds(SoAStore, graph, [0] * 100, 0, float)
        assert built._capacity() == ref._capacity() == 128

    @pytest.mark.parametrize("values", ["int", "hexstate", "mixed", "mixed-late"])
    def test_anything_else_demotes_as_the_loop_did(self, values):
        graph = grid2d(4, 4)
        built, ref = both_builds(SoAStore, graph, [0] * 8 + [1] * 8, 0, INIT_VALUES[values])
        assert not built._float_mode and built._values.dtype == object
        assert_same_build(built, ref)

    def test_freed_slots_are_reused_first(self):
        store = SoAStore(0, grid2d(2, 3), [0, 0, 0, 1, 1, 1], float)
        store.prune_stale_shadows()  # nothing stale yet
        store.release_node(3)
        del store.data_records[3]
        freed = list(store._free)
        assert freed
        store._add_records([3], [9.0])
        record = store.data_records[3]
        assert store._slot_of[3] == freed[-1] and record.data == 9.0


# --------------------------------------------------------------------- #
# What is derived from the owned set
# --------------------------------------------------------------------- #


def surgery(store: NodeStore) -> None:
    """Some ownership surgery, so list order stops being gid order."""
    if store.num_owned() < 2:
        return
    gid = next(iter(store.internal), None) or next(iter(store.peripheral))
    other = (store.rank + 1) % (max(store.assignment) + 2)
    store.release_node(gid)
    store.assignment[gid - 1] = other
    store.refresh_ownership()
    store.assignment[gid - 1] = store.rank
    store.adopt_node(gid, [(v, float(v)) for v in store.graph.neighbors(gid)])
    store.refresh_ownership()


class TestDerivedArrays:
    @settings(max_examples=40, deadline=None)
    @given(case=random_cases(), operate=st.booleans())
    def test_bulk_topology(self, case, operate):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            store = SoAStore(rank, graph, list(assignment), float)
            if operate:
                surgery(store)
            topo = store.bulk_topology()
            for name, expected in reference_topology(store).items():
                actual = getattr(topo, name)
                assert actual.dtype == expected.dtype, name
                assert actual.tolist() == expected.tolist(), name
            assert topo.order_gids == [*store.internal, *store.peripheral]
            assert all(map(is_int, topo.order_gids))
            assert topo.internal_count == len(store.internal)
            assert topo.plan.dests == [n.shadow_for_procs for n in store.peripheral.values()]

    def test_bulk_topology_names_a_missing_neighbour_record(self):
        store = SoAStore(0, grid2d(2, 2), [0, 0, 1, 1], float)
        del store.data_records[3]
        with pytest.raises(KeyError, match="3"):
            store.bulk_topology()

    @pytest.mark.parametrize("store_cls", STORES)
    @settings(max_examples=40, deadline=None)
    @given(case=random_cases(), operate=st.booleans())
    def test_frontier_index(self, store_cls, case, operate):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            store = store_cls(rank, graph, list(assignment), float)
            if operate:
                surgery(store)
            index = _FrontierIndex(store)
            expected = reference_frontier_index(store)
            actual = {
                "gids": index.gids,
                "local_of": index.local_of,
                "internal": index.classes[_INTERNAL],
                "peripheral": index.classes[_PERIPHERAL],
                "items": index.items,
                "starts": index.starts,
                "lens": index.lens,
                "targets": index.targets,
            }
            for name, array in expected.items():
                assert actual[name].dtype == array.dtype, name
                assert actual[name].tolist() == array.tolist(), name
            assert index.classes[None].all() and len(index.classes[None]) == len(index.gids)

    @pytest.mark.parametrize("values", ["float", "int", "mixed"])
    @settings(max_examples=25, deadline=None)
    @given(case=random_cases(), operate=st.booleans())
    def test_owned_columns(self, values, case, operate):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            store = SoAStore(rank, graph, list(assignment), INIT_VALUES[values])
            if operate and values == "float":
                surgery(store)
            for node in store.owned_nodes():
                node.data.most_recent_data = INIT_VALUES[values](node.global_id + 1)
            store.commit_owned()
            for column in ("owned_values", "owned_versions"):
                actual = getattr(store, column)()
                expected = getattr(NodeStore, column)(store)  # through the proxies
                assert actual == expected and list(actual) == list(expected)
                assert [*map(type, actual.values())] == [*map(type, expected.values())]
                assert all(map(is_int, actual))


# --------------------------------------------------------------------- #
# Whole runs
# --------------------------------------------------------------------- #


def scattered_partition(graph: Graph, nprocs: int) -> Partition:
    """Every rank's nodes spread over the whole graph (nothing contiguous)."""
    return Partition.from_assignment(
        graph, [(gid * 7) % nprocs for gid in graph.nodes()], nprocs, method="scattered"
    )


@pytest.mark.parametrize("store", ["object", "soa"])
def test_final_assignment_and_values_merge(store):
    graph = grid2d(6, 5)
    partition = scattered_partition(graph, 4)
    result = ICPlatform(
        graph,
        on_store(store, make_average_fn(1e-5)),
        init_value=float,
        config=PlatformConfig(iterations=3),
    ).run(partition)
    assert result.final_assignment == partition.assignment
    assert all(map(is_int, result.final_assignment))
    assert sorted(result.values) == list(graph.nodes())
    assert all(map(is_int, result.values)) and all(map(is_int, result.versions))


def test_run_builds_the_csr_before_any_rank_starts(monkeypatch):
    graph = Graph(grid2d(4, 4)._adj, validate=False)  # validating would build it
    assert graph._csr is None
    seen: list[bool] = []
    original = SoAStore._build

    def recording(self, init_value):
        seen.append(self.graph._csr is not None)
        return original(self, init_value)

    monkeypatch.setattr(SoAStore, "_build", recording)
    ICPlatform(
        graph, make_average_fn(1e-5), init_value=float,
        config=PlatformConfig(iterations=1),
    ).run(scattered_partition(graph, 2))
    assert seen == [True, True]


def test_process_workers_build_the_same_stores():
    """Forked workers inherit the CSR and build their private stores from
    it with the one-shot fill: same run as the event backend."""
    graph = grid2d(8, 8)
    partition = scattered_partition(graph, 3)
    config = PlatformConfig(iterations=4, track_trace=True)

    def run(scheduler):
        return ICPlatform(
            graph, make_average_fn(1e-5), init_value=lambda gid: gid * 0.5, config=config
        ).run(partition, scheduler=scheduler)

    event, process = run("event"), run("process")
    assert event.elapsed.hex() == process.elapsed.hex()
    assert event.values == process.values and event.versions == process.versions
    assert event.final_assignment == process.final_assignment
    assert [p.as_dict() for p in event.phases] == [p.as_dict() for p in process.phases]
    assert not leaked_segments()
