"""The array-native initialisation phase against the per-node code it replaced.

``NodeStore._build`` classifies a rank's nodes, finds its shadows and fills
the store as array passes over ``Graph.csr()``; ``NodeStore.topology``,
``SoAStore.owned_values/owned_versions``, the change-driven ``Frontier``'s
position arrays (derived from the topology) and ``ICPlatform.run``'s
ownership merge read the same arrays.  The per-node code they replaced
lives on *here*, as the reference (``ReferenceBuild`` is the deleted
``_build``, ``reference_topology`` the deleted loop of ``topology``,
``reference_frontier_arrays`` the frontier's two arrays node by node), and
the array code is held to it on both stores, over
random connected graphs with an isolated node attached, under random
assignments (ranks that own nothing included) and band assignments with more
parts than rows, with ``float``, ``int``, ``HexState`` and mixed initial
values -- everything but all-``float`` must demote the struct-of-arrays
store exactly where the per-record loop did.

What must match: the owned-set layout (gid order, internal count,
``shadow_for_procs``), record order and slot numbering ("owned ascending,
then shadows in first-discovery order" -- checkpoint payloads and digests
iterate it), every record, ``shadow_gids()``, the virtual init charge to the
last bit, ``check_invariants()``, and ``type(x) is int`` for every gid and
processor id that reaches an API boundary (``estimate_nbytes`` sizes wire
records by type, and a numpy integer would pickle differently into a
checkpoint).
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
from repro.core.compute import Frontier
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
            kinds = [(gid, self._shadow_procs_of(gid)) for gid in owned]
            self._owned = [gid for gid, procs in kinds if not procs]
            self._split = len(self._owned)
            self._owned += [gid for gid, procs in kinds if procs]
            self._dests = [procs for _, procs in kinds if procs]
            for gid in self._owned[self._split :]:
                for v in self.graph.neighbors(gid):
                    if self.assignment[v - 1] != self.rank and not self.holds(v):
                        self._add_record(v, init_value(v))

    return ReferenceBuild(*args, **kwargs)


def reference_topology(store: NodeStore) -> dict[str, np.ndarray]:
    """The arrays of ``topology`` from the loop it used to run."""
    gids = store.owned_gids()
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
        "gids": gids_arr,
        "slots": np.fromiter((slot_of[g] for g in gids), np.int64, len(gids)),
        "indptr": indptr,
        "flat_slots": np.asarray(flat, dtype=np.int64),
        "degrees": degrees,
    }


def reference_frontier_arrays(store: NodeStore) -> dict[str, np.ndarray]:
    """The two arrays a ``Frontier`` derives from the epoch's topology, node
    by node: each owned node's sweep position by gid (-1 elsewhere), and
    each owned node's closed neighbourhood as positions (-1 for a shadow),
    node after node in sweep order."""
    layout = store.owned_gids()
    position_of = np.full(store.graph.num_nodes + 1, -1, dtype=np.intp)
    for position, gid in enumerate(layout):
        position_of[gid] = position
    closed = [position_of[v] for gid in layout for v in (gid, *store.graph.neighbors(gid))]
    return {"position_of": position_of, "closed": np.array(closed, dtype=np.intp)}


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
    """``built`` (array passes) is ``ref`` (node by node) to every observer."""
    # The owned-set layout.
    assert built.owned_gids() == ref.owned_gids() and all(map(is_int, built.owned_gids()))
    assert (built.num_owned(), built.num_internal(), built.num_shadows()) == (
        ref.num_owned(), ref.num_internal(), ref.num_shadows()
    )
    assert built.peripherals() == ref.peripherals()
    for gid, procs in built.peripherals():
        assert is_int(gid) and all(map(is_int, procs))
        assert built.shadow_procs(gid) == procs
    topo = built.topology()
    assert (topo.spans[0].stop, topo.classes[1].plan.dests) == (
        ref.num_internal(), [p for _, p in ref.peripherals()]
    )
    if not isinstance(built, SoAStore):
        for gid, slot, nbrs, _ in built.sweep_rows():
            assert nbrs is built.graph.neighbors(gid)  # shared, not copied
            assert slot == built._slot_of[gid]
    # Record order ("owned ascending, then shadows in first-discovery order")
    # and slot numbering.
    assert list(built._slot_of.items()) == list(ref._slot_of.items())
    assert all(map(is_int, built._slot_of)) and all(map(is_int, built._slot_of.values()))
    assert len(built._values) == len(ref._values)  # the columns' capacity
    assert built.shadow_gids() == ref.shadow_gids()
    assert all(map(is_int, built.shadow_gids()))
    assert built.num_shadows() == len(ref.shadow_gids())
    for (gid, value, pending, version), expected in zip(
        built._record_states(), ref._record_states(), strict=True
    ):
        assert is_int(gid) and gid == expected[0]
        assert type(value) is type(expected[1]) and value == expected[1]
        assert (pending, version) == (None, 0) and is_int(version)
    assert built.owned_values() == ref.owned_values()
    assert list(built.owned_values()) == list(ref.owned_values())
    assert built.owned_versions() == ref.owned_versions()
    assert all(map(is_int, built.owned_values()))
    assert all(map(is_int, built.owned_versions().values()))
    assert init_charge(built).hex() == init_charge(ref).hex()
    # A checkpoint cannot tell them apart either (numpy integers would).
    assert pickle.dumps(built.capture_state(), 5) == pickle.dumps(ref.capture_state(), 5)
    if isinstance(built, SoAStore):
        assert built._float_mode == ref._float_mode
        assert built._values.dtype == ref._values.dtype
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
        assert built.num_owned() == 0 and built.num_records() == 0

    def test_isolated_node_is_internal(self, store_cls):
        graph = Graph([(2,), (1,), ()])
        built, ref = both_builds(store_cls, graph, [0, 1, 0], 0, float)
        assert_same_build(built, ref)
        assert built.owned_gids() == [3, 1] and built.num_internal() == 1

    def test_shadow_discovery_order_is_not_gid_order(self, store_cls):
        # Node 1 (rank 0) names 5 before 3: shadows come in that order.
        graph = Graph([(5, 3), (4,), (1,), (2,), (1,)])
        built, ref = both_builds(store_cls, graph, [0, 0, 1, 1, 2], 0, float)
        assert list(built.capture_state()["records"]) == [1, 2, 5, 3, 4]
        assert built.shadow_procs(1) == (1, 2)
        assert_same_build(built, ref)

    def test_init_value_is_asked_in_record_order(self, store_cls):
        graph = Graph([(5, 3), (4,), (1,), (2,), (1,)])
        asked: list[int] = []
        store_cls(0, graph, [0, 0, 1, 1, 2], lambda gid: asked.append(gid) or float(gid))
        assert asked == [1, 2, 5, 3, 4]
        assert all(map(is_int, asked))

    def test_batch_of_records_rejects_a_held_gid_like_the_loop(self, store_cls):
        store = store_cls(0, grid2d(2, 2), [0, 0, 1, 1], float)
        before = store.capture_state()
        with pytest.raises(KeyError, match="already holds a record for node 3"):
            store._add_records([3], [1.0])
        assert store.capture_state() == before


class TestOneShotFill:
    """``SoAStore._add_records`` fills the arrays in one write only when that
    is exactly the per-record loop."""

    def test_float_fill_keeps_the_float_path(self):
        store = SoAStore(0, grid2d(4, 4), [0] * 8 + [1] * 8, lambda gid: gid / 4)
        assert store._float_mode and store._values.dtype == np.float64
        assert len(store._values) == 64 and store.num_records() == 12

    def test_capacity_is_what_the_doublings_reach(self):
        graph = grid2d(10, 10)
        built, ref = both_builds(SoAStore, graph, [0] * 100, 0, float)
        assert len(built._values) == len(ref._values) == 128

    @pytest.mark.parametrize("values", ["int", "hexstate", "mixed", "mixed-late"])
    def test_anything_else_demotes_as_the_loop_did(self, values):
        graph = grid2d(4, 4)
        built, ref = both_builds(SoAStore, graph, [0] * 8 + [1] * 8, 0, INIT_VALUES[values])
        assert not built._float_mode and built._values.dtype == object
        assert_same_build(built, ref)


# --------------------------------------------------------------------- #
# What is derived from the owned set
# --------------------------------------------------------------------- #


def surgery(store: NodeStore) -> None:
    """Some ownership surgery, so layout order stops being gid order."""
    if store.num_owned() < 2:
        return
    gid = store.owned_gids()[0]
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
        """The per-epoch topology, on both stores."""
        graph, assignment, nprocs = case
        for rank, store_cls in ((r, c) for r in range(nprocs) for c in (NodeStore, SoAStore)):
            store = store_cls(rank, graph, list(assignment), float)
            if operate:
                surgery(store)
            topo = store.topology()
            for name, expected in reference_topology(store).items():
                actual = getattr(topo, name)
                assert actual.dtype == expected.dtype, name
                assert actual.tolist() == expected.tolist(), name
            split = store.num_internal()
            assert topo.spans == (slice(0, split), slice(split, store.num_owned()))
            assert topo.classes[1].plan.dests == [procs for _, procs in store.peripherals()]
            # Each class's dense gather is its span of the layout's arrays.
            for span, (slots, flat, indptr, plan) in zip(topo.spans, topo.classes):
                assert slots.tolist() == topo.slots[span].tolist()
                assert plan.gids.tolist() == topo.gids[span].tolist()
                assert plan.degrees.tolist() == topo.degrees[span].tolist()
                a, b = topo.indptr[span.start], topo.indptr[span.stop]
                assert flat.tolist() == topo.flat_slots[a:b].tolist()
                assert (indptr + a).tolist() == topo.indptr[span.start : span.stop + 1].tolist()

    def test_bulk_topology_names_a_missing_neighbour_record(self):
        store = SoAStore(0, grid2d(2, 2), [0, 0, 1, 1], float)
        del store._slot_of[3]  # a record gone missing
        with pytest.raises(KeyError, match="3"):
            store.topology()

    @pytest.mark.parametrize("store_cls", STORES)
    @settings(max_examples=40, deadline=None)
    @given(case=random_cases(), operate=st.booleans())
    def test_frontier_index(self, store_cls, case, operate):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            store = store_cls(rank, graph, list(assignment), float)
            if operate:
                surgery(store)
            frontier = Frontier(1)
            frontier.capture(store)  # binds the epoch
            expected = reference_frontier_arrays(store)
            actual = {"position_of": frontier._position_of, "closed": frontier._closed}
            for name, array in expected.items():
                assert actual[name].dtype == array.dtype, name
                assert actual[name].tolist() == array.tolist(), name

    @pytest.mark.parametrize("values", ["float", "int", "mixed"])
    @settings(max_examples=25, deadline=None)
    @given(case=random_cases(), operate=st.booleans())
    def test_owned_columns(self, values, case, operate):
        graph, assignment, nprocs = case
        for rank in range(nprocs):
            store = SoAStore(rank, graph, list(assignment), INIT_VALUES[values])
            if operate and values == "float":
                surgery(store)
            for gid in store.owned_gids():
                store._write_pending(store._slot_of[gid], INIT_VALUES[values](gid + 1))
            store.commit_owned()
            columns = (("owned_values", store.value_of), ("owned_versions", store.version_of))
            for column, read in columns:
                actual = getattr(store, column)()
                expected = {gid: read(gid) for gid in store.owned_gids()}  # record by record
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
