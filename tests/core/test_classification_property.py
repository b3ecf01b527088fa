"""Property tests for interior/boundary node classification.

Hybrid execution is only sound if the interior/boundary split is exact:
interior nodes may iterate locally without synchronization *because*
none of their neighbours live on another rank.  These properties pin the
classification invariants for ANY random connected graph and assignment,
and keep them pinned across the three ownership-changing operations --
migration batches, repartition-style rebuilds, and shrink-style rank
removal.

The invariants (checked on every rank's store):

* every owned node sits in exactly one class of the store's owned-set
  layout: the leading ``num_internal()`` gids, or the peripheral rest;
* a node is peripheral iff it has at least one remote neighbour under
  the current assignment (so every cut edge has boundary endpoints);
* interior nodes have all-local neighbourhoods (the hybrid inner loop
  touches no remote state);
* the object store and the SoA store agree on the classification.

Beyond the classes, the layout's *order* is pinned too (charges are
order-sensitive float sums): after every random release / adopt / refresh
/ capture / restore, both stores' layout -- gid order, internal count and
``shadow_for_procs`` -- equals a reference that applies the order rules to
a brute-force neighbour scan (build and restore: ascending per class;
refresh: the current relative order within each class; adopt: the end of
the node's class; release: the node leaves, nothing else moves).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pickle

from repro.core import ComputeContext, NodeStore, PlatformCosts
from repro.core.migration import migrate_node, select_migrating_node
from repro.core.soastore import SoAStore
from repro.graphs import random_connected_graph
from repro.mpi import run_mpi


def assert_classification_exact(store, graph, assignment):
    """The hybrid soundness contract, spelled out edge by edge."""
    rank = store.rank
    owned = {gid for gid, owner in enumerate(assignment, start=1) if owner == rank}
    interior = set(store.owned_gids()[: store.num_internal()])
    boundary = {gid for gid, _ in store.peripherals()}
    # Exactly one class per owned node, no strays.
    assert interior | boundary == owned
    assert not interior & boundary
    for gid in owned:
        remote = [v for v in graph.neighbors(gid) if assignment[v - 1] != rank]
        if remote:
            assert gid in boundary, f"node {gid} has remote {remote} but is interior"
        else:
            assert gid in interior, f"node {gid} is all-local but boundary"
    # Every cut edge incident to this rank ends on a boundary node.
    for gid in owned:
        for v in graph.neighbors(gid):
            if assignment[v - 1] != rank:
                assert gid in boundary


def assert_stores_agree(graph, assignment, nprocs):
    """Object and SoA stores classify identically from the same inputs."""
    for rank in range(nprocs):
        obj = NodeStore(rank, graph, list(assignment), lambda gid: float(gid))
        soa = SoAStore(rank, graph, list(assignment), lambda gid: float(gid))
        assert set(obj.owned_gids()[: obj.num_internal()]) == set(
            soa.owned_gids()[: soa.num_internal()]
        )
        assert obj.peripherals() == soa.peripherals()
        assert_classification_exact(obj, graph, assignment)
        assert_classification_exact(soa, graph, assignment)


@st.composite
def classification_cases(draw):
    n = draw(st.integers(min_value=6, max_value=18))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    graph = random_connected_graph(n, avg_degree=3.0, seed=seed)
    nprocs = draw(st.integers(min_value=2, max_value=4))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=nprocs - 1),
            min_size=n,
            max_size=n,
        )
    )
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=nprocs - 1),
                st.integers(min_value=0, max_value=nprocs - 1),
            ).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=6,
        )
    )
    return graph, nprocs, assignment, moves


@given(classification_cases())
@settings(max_examples=15, deadline=None)
def test_fresh_build_classification(case):
    graph, nprocs, assignment, _ = case
    assert_stores_agree(graph, assignment, nprocs)


@given(classification_cases())
@settings(max_examples=10, deadline=None)
def test_classification_survives_migration(case):
    """Each migration promotes/demotes internal and peripheral nodes on
    both sides of the move; the patched stores must stay exact."""
    graph, nprocs, assignment, moves = case

    def prog(comm):
        store = NodeStore(comm.rank, graph, list(assignment), lambda g: float(g))
        ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
        for busy, idle in moves:
            gid = None
            if comm.rank == busy:
                gid = select_migrating_node(store, idle)
            gid = comm.bcast(gid, root=busy)
            if gid is None:
                continue
            store.assignment[gid - 1] = idle
            migrate_node(comm, store, gid, busy, idle, ctx)
            assert_classification_exact(store, graph, store.assignment)
        store.check_invariants()
        return tuple(store.assignment)

    finals = run_mpi(prog, nprocs)
    assert len(set(finals)) == 1  # all ranks agree on the final map


@given(classification_cases())
@settings(max_examples=10, deadline=None)
def test_classification_survives_repartition(case):
    """A repartition rebuilds every store from a brand-new assignment
    (derived here by rotating ownership) -- classification must be exact
    for the new map, with no leakage from the old one."""
    graph, nprocs, assignment, _ = case
    rotated = [(owner + 1) % nprocs for owner in assignment]
    assert_stores_agree(graph, rotated, nprocs)


@given(classification_cases())
@settings(max_examples=10, deadline=None)
def test_classification_survives_shrink(case):
    """Shrink recovery folds a dead rank's nodes onto the survivors and
    rebuilds; cut edges against the dead rank disappear and previously
    peripheral nodes may become interior."""
    graph, nprocs, assignment, _ = case
    dead = nprocs - 1
    survivors = nprocs - 1
    if survivors < 1:
        return
    shrunk = [owner if owner != dead else gid0 % survivors
              for gid0, owner in enumerate(assignment)]
    assert_stores_agree(graph, shrunk, max(survivors, 1))


# --------------------------------------------------------------------- #
# The layout's order under any surgery sequence
# --------------------------------------------------------------------- #


class ReferenceLayout:
    """The owned-set layout of one rank, kept by brute force: each node's
    class and ``shadow_for_procs`` come from scanning its neighbours, and
    each surgery applies the order rules to a plain list."""

    def __init__(self, graph, assignment, rank):
        self.graph, self.assignment, self.rank = graph, assignment, rank
        self.restore()

    def procs(self, gid):
        own = self.assignment[gid - 1]
        return tuple(
            sorted({self.assignment[v - 1] for v in self.graph.neighbors(gid)} - {own})
        )

    def derive(self, order):
        """Classify ``order`` afresh, each class keeping that order."""
        entries = [(gid, self.procs(gid)) for gid in order]
        self.entries = [e for e in entries if not e[1]] + [e for e in entries if e[1]]

    def release(self, gid):
        self.entries = [e for e in self.entries if e[0] != gid]

    def adopt(self, gid):
        entry = (gid, self.procs(gid))
        split = sum(1 for _, procs in self.entries if not procs)
        at = len(self.entries) if entry[1] else split
        self.entries.insert(at, entry)

    def refresh(self):
        self.derive([gid for gid, _ in self.entries])

    def restore(self):
        """A build's order (and a restore's): ascending gids."""
        self.derive([g for g in self.graph.nodes() if self.assignment[g - 1] == self.rank])

    def layout(self):
        split = sum(1 for _, procs in self.entries if not procs)
        return (
            [gid for gid, _ in self.entries],
            split,
            [procs for _, procs in self.entries[split:]],
        )


def layout_of(store):
    """``(gids in sweep order, internal count, dests)`` as the store keeps
    it, and as its per-epoch topology derives it."""
    split = store.num_internal()
    layout = (store.owned_gids(), split, [procs for _, procs in store.peripherals()])
    topo = store.topology()
    assert topo.gids.tolist() == layout[0]
    assert (topo.spans[0].stop, topo.classes[1].plan.dests) == (split, layout[2])
    return layout


surgery_ops = st.lists(
    st.tuples(
        st.sampled_from(["release", "adopt", "refresh", "capture", "restore"]),
        st.integers(min_value=0, max_value=10**4),
    ),
    min_size=1,
    max_size=12,
)


@given(classification_cases(), surgery_ops)
@settings(max_examples=30, deadline=None)
def test_layout_follows_every_surgery(case, ops):
    graph, nprocs, assignment, _ = case
    init = lambda gid: float(gid)
    stores = [cls(0, graph, list(assignment), init) for cls in (NodeStore, SoAStore)]
    reference = ReferenceLayout(graph, list(assignment), 0)
    snapshots = None
    for op, pick in ops:
        owned = reference.layout()[0]
        foreign = [g for g in graph.nodes() if reference.assignment[g - 1] != 0]
        if op == "release" and owned:
            gid = owned[pick % len(owned)]
            to = 1 + pick % (nprocs - 1)
            reference.assignment[gid - 1] = to
            reference.release(gid)
            for store in stores:
                store.assignment[gid - 1] = to
                store.release_node(gid)
        elif op == "adopt" and foreign:
            gid = foreign[pick % len(foreign)]
            payload = [(v, float(v + pick)) for v in (gid, *graph.neighbors(gid))]
            reference.assignment[gid - 1] = 0
            reference.adopt(gid)
            for store in stores:
                store.assignment[gid - 1] = 0
                store.adopt_node(gid, payload)
        elif op == "refresh":
            reference.refresh()
            for store in stores:
                store.refresh_ownership()
        elif op == "capture":
            snapshots = [pickle.dumps(store.capture_state()) for store in stores]
            saved = list(reference.assignment)
        elif op == "restore" and snapshots is not None:
            reference.assignment[:] = saved
            reference.restore()
            for store, snapshot in zip(stores, snapshots):
                store.restore_state(pickle.loads(snapshot))
        expected = reference.layout()
        for store in stores:
            assert layout_of(store) == expected, (op, type(store).__name__)
