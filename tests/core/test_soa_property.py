"""Property-based mirror test: SoAStore vs NodeStore under random surgery.

Two stores -- the object reference and the struct-of-arrays subclass --
are built over the same random graph and assignment, then driven through
an identical random sequence of operations: pending writes + commits
(vectorized on the soa side, scalar on the object side), shadow updates
one record and one message at a time, halt-flag flips, ownership release/adoption with synthetic migration
payloads, record creation, shadow pruning, and checkpoint capture/restore
round-trips *including cross-store restores*.  After every operation the
stores must agree on every observable: record iteration order, committed
values and their exact Python types, pending values, version counters,
halt flags, internal/peripheral classification, memoized communication
topology, and byte-identical pickled snapshots.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NodeStore, SoAStore
from repro.graphs import random_connected_graph

NPROCS = 3

values_st = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(min_value=-999, max_value=999),
    st.sampled_from(["a", "b", {"hp": 3}]),
)

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("pend"), st.integers(0, 63), values_st),
        st.tuples(st.just("sweep"), st.floats(-10, 10, allow_nan=False)),
        st.tuples(st.just("commit")),
        st.tuples(st.just("shadow"), st.integers(0, 63), values_st),
        # One message's records: mostly floats (the vectorized pass), now and
        # then a demoting value or a repeated gid (the per-record fallback).
        st.tuples(
            st.just("shadows"),
            st.lists(
                st.tuples(
                    st.integers(0, 63),
                    st.one_of(st.floats(-4, 4, allow_nan=False), values_st),
                ),
                max_size=6,
            ),
        ),
        st.tuples(st.just("halt"), st.integers(0, 63), st.booleans()),
        st.tuples(st.just("release"), st.integers(0, 63), st.integers(1, NPROCS - 1)),
        st.tuples(st.just("adopt"), st.integers(0, 63), st.floats(-10, 10, allow_nan=False)),
        st.tuples(st.just("ensure"), st.integers(0, 63), values_st, st.integers(0, 9)),
        st.tuples(st.just("prune")),
        st.tuples(st.just("roundtrip")),
        st.tuples(st.just("cross_restore")),
    ),
    min_size=1,
    max_size=14,
)


@st.composite
def mirror_cases(draw):
    n = draw(st.integers(min_value=6, max_value=18))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    assignment = draw(
        st.lists(st.integers(0, NPROCS - 1), min_size=n, max_size=n)
    )
    ops = draw(ops_st)
    return n, seed, assignment, ops


def assert_mirrored(obj: NodeStore, soa: SoAStore) -> None:
    assert list(soa.data_records) == list(obj.data_records)
    assert sorted(soa.internal) == sorted(obj.internal)
    assert sorted(soa.peripheral) == sorted(obj.peripheral)
    assert soa.shadow_gids() == obj.shadow_gids()
    assert soa.owned_values() == obj.owned_values()
    assert soa.owned_versions() == obj.owned_versions()
    assert soa.halted_gids() == obj.halted_gids()
    assert soa.buffer_sizes(NPROCS) == obj.buffer_sizes(NPROCS)
    assert soa.neighbor_procs() == obj.neighbor_procs()
    for gid, ref in obj.data_records.items():
        rec = soa.data_records[gid]
        assert type(rec.data) is type(ref.data) and rec.data == ref.data
        assert type(rec.most_recent_data) is type(ref.most_recent_data)
        assert rec.most_recent_data == ref.most_recent_data
        assert rec.version == ref.version
        assert rec.halted == ref.halted
        assert soa.data_records.get(gid) is rec  # identity invariant
    # Snapshots pickle byte-identically: checkpoints, migration payloads,
    # and integrity digests built from them cannot tell the stores apart.
    assert pickle.dumps(soa.capture_state(), 5) == pickle.dumps(obj.capture_state(), 5)
    obj.check_invariants()
    soa.check_invariants()


def apply_op(store, op, graph, nodes):
    """Apply one operation; returns an observable result for comparison."""
    kind = op[0]
    if kind == "pend":
        gid = nodes[op[1] % len(nodes)]
        if store.owns(gid):
            store.data_records[gid].most_recent_data = op[2]
            return ("pend", gid)
        return None
    if kind == "sweep":
        base = op[1]
        for node in store.owned_nodes():
            node.data.most_recent_data = base + node.global_id * 0.5
        return list(store.commit_owned())
    if kind == "commit":
        return list(store.commit_owned())
    if kind == "shadow":
        shadows = store.shadow_gids()
        if not shadows:
            return None
        gid = shadows[op[1] % len(shadows)]
        return ("shadow", gid, store.update_shadow(gid, op[2]))
    if kind == "shadows":
        shadows = store.shadow_gids()
        if not shadows:
            return None
        records = [(shadows[index % len(shadows)], value) for index, value in op[1]]
        return ("shadows", store.update_shadows(records))
    if kind == "halt":
        known = sorted(store.data_records)
        if not known:  # a rank owning nothing holds no records at all
            return None
        gid = known[op[1] % len(known)]
        return ("halt", gid, store.set_halted(gid, op[2]))
    if kind == "release":
        owned = sorted(g for g in nodes if store.owns(g))
        if not owned:
            return None
        gid = owned[op[1] % len(owned)]
        target = (store.rank + op[2]) % NPROCS
        store.assignment[gid - 1] = target
        store.release_node(gid)
        store.refresh_ownership()
        return ("release", gid, target)
    if kind == "adopt":
        foreign = sorted(g for g in nodes if not store.owns(g))
        if not foreign:
            return None
        gid = foreign[op[1] % len(foreign)]
        store.assignment[gid - 1] = store.rank
        payload = [
            (g, op[2] + g, (g * 7) % 5)
            for g in (gid, *graph.neighbors(gid))
        ]
        store.adopt_node(gid, payload)
        store.refresh_ownership()
        return ("adopt", gid)
    if kind == "ensure":
        gid = nodes[op[1] % len(nodes)]
        record = store.ensure_record(gid, op[2], version=op[3])
        return ("ensure", gid, type(record.data).__name__, record.version)
    if kind == "prune":
        return ("prune", store.prune_stale_shadows())
    if kind == "roundtrip":
        snapshot = store.capture_state()
        store.restore_state(pickle.loads(pickle.dumps(snapshot, 5)))
        return ("roundtrip",)
    raise AssertionError(f"unknown op {op!r}")


@given(mirror_cases())
@settings(max_examples=40, deadline=None)
def test_soa_mirrors_object_store(case):
    n, seed, assignment, ops = case
    graph = random_connected_graph(n, avg_degree=3.0, seed=seed)
    nodes = list(graph.nodes())
    init = lambda gid: float(gid)
    obj = NodeStore(0, graph, list(assignment), init)
    soa = SoAStore(0, graph, list(assignment), init)
    assert_mirrored(obj, soa)

    for op in ops:
        if op[0] == "cross_restore":
            # Swap snapshots between the stores: each must rebuild exactly
            # the state of the other (which mirrors its own).
            snap_obj = obj.capture_state()
            snap_soa = soa.capture_state()
            obj.restore_state(pickle.loads(pickle.dumps(snap_soa, 5)))
            soa.restore_state(pickle.loads(pickle.dumps(snap_obj, 5)))
        else:
            res_obj = apply_op(obj, op, graph, nodes)
            res_soa = apply_op(soa, op, graph, nodes)
            assert res_soa == res_obj, (op, res_obj, res_soa)
        assert_mirrored(obj, soa)


@given(
    st.integers(min_value=6, max_value=18),
    st.integers(min_value=0, max_value=10**6),
    st.lists(values_st, min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_mixed_type_commits_demote_identically(n, seed, pendings):
    """Writing non-float values demotes the soa arrays to object dtype;
    the demotion must preserve every already-stored value exactly."""
    graph = random_connected_graph(n, avg_degree=3.0, seed=seed)
    assignment = [0] * graph.num_nodes
    init = lambda gid: float(gid)
    obj = NodeStore(0, graph, list(assignment), init)
    soa = SoAStore(0, graph, list(assignment), init)
    nodes = list(graph.nodes())
    for i, value in enumerate(pendings):
        gid = nodes[i % len(nodes)]
        obj.data_records[gid].most_recent_data = value
        soa.data_records[gid].most_recent_data = value
        assert obj.commit_owned() == list(soa.commit_owned())
        assert_mirrored(obj, soa)


def test_demotion_keeps_the_pending_values():
    """A non-float pending value written while other nodes hold pending
    floats demotes the arrays with those floats intact."""
    graph = random_connected_graph(8, avg_degree=3.0, seed=1)
    obj = NodeStore(0, graph, [0] * graph.num_nodes, float)
    soa = SoAStore(0, graph, [0] * graph.num_nodes, float)
    for gid, value in ((1, 2.5), (2, 3.5), (3, 7)):  # the int demotes
        obj.data_records[gid].most_recent_data = value
        soa.data_records[gid].most_recent_data = value
    assert_mirrored(obj, soa)
    assert obj.commit_owned() == list(soa.commit_owned())
    assert_mirrored(obj, soa)
