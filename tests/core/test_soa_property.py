"""Property-based mirror test: SoAStore vs NodeStore under random surgery.

Two stores -- the list store and the struct-of-arrays subclass -- are
built over the same random graph and assignment, then driven through an
identical random sequence of operations: pending writes + commits
(vectorized on the soa side, a loop on the list side), shadow updates one
record and one message at a time, ownership release/adoption with
synthetic migration payloads, record creation, and checkpoint
capture/restore round-trips *including cross-store restores*.  After every
operation the stores must agree on every observable: record order,
committed values and their exact Python types, pending values, version
counters, the owned-set layout (order, internal count, dests), memoized
communication topology, and byte-identical pickled snapshots.

Both stores run the same record code (``NodeStore.value_of``,
``update_shadow``, ``ensure_record``, ...), so a bug there would show on
both sides alike.  Each op is therefore also applied to a brute-force
reference spelled out below -- ``gid -> [value, pending, version]`` in
entry order, with the commit and shadow-install rules written inline --
and both stores are compared to it after every op.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NodeStore, SoAStore
from repro.graphs import random_connected_graph

from ..twins import set_pending

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
                max_size=20,
            ),
        ),
        st.tuples(st.just("release"), st.integers(0, 63), st.integers(1, NPROCS - 1)),
        st.tuples(st.just("adopt"), st.integers(0, 63), st.floats(-10, 10, allow_nan=False)),
        st.tuples(st.just("ensure"), st.integers(0, 63), values_st, st.integers(0, 9)),
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
    ours, theirs = obj.capture_state(), soa.capture_state()
    assert list(theirs["records"]) == list(ours["records"])  # record order
    assert soa.num_records() == obj.num_records()
    assert soa.owned_gids() == obj.owned_gids()
    assert soa.num_internal() == obj.num_internal()
    assert soa.peripherals() == obj.peripherals()
    assert soa.shadow_gids() == obj.shadow_gids()
    assert soa.owned_values() == obj.owned_values()
    assert soa.owned_versions() == obj.owned_versions()
    assert soa.buffer_sizes(NPROCS) == obj.buffer_sizes(NPROCS)
    assert soa.neighbor_procs() == obj.neighbor_procs()
    for gid, (data, pending, version) in ours["records"].items():
        mine = soa.value_of(gid)
        assert type(mine) is type(data) and mine == data
        assert type(obj.value_of(gid)) is type(data)
        _, soa_pending, _ = theirs["records"][gid]
        assert type(soa_pending) is type(pending) and soa_pending == pending
        assert soa.version_of(gid) == obj.version_of(gid) == version
    # Snapshots pickle byte-identically: checkpoints, migration payloads,
    # and integrity digests built from them cannot tell the stores apart.
    assert pickle.dumps(theirs, 5) == pickle.dumps(ours, 5)
    obj.check_invariants()
    soa.check_invariants()


def apply_op(store, op, graph, nodes):
    """Apply one operation; returns an observable result for comparison."""
    kind = op[0]
    if kind == "pend":
        gid = nodes[op[1] % len(nodes)]
        if store.owns(gid):
            set_pending(store, gid, op[2])
            return ("pend", gid)
        return None
    if kind == "sweep":
        base = op[1]
        for gid in store.owned_gids():
            set_pending(store, gid, base + gid * 0.5)
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
        store.ensure_record(gid, op[2], version=op[3])
        return ("ensure", gid, type(store.value_of(gid)).__name__, store.version_of(gid))
    if kind == "roundtrip":
        snapshot = store.capture_state()
        store.restore_state(pickle.loads(pickle.dumps(snapshot, 5)))
        return ("roundtrip",)
    raise AssertionError(f"unknown op {op!r}")


# --------------------------------------------------------------------- #
# The brute-force reference
# --------------------------------------------------------------------- #


def reference_records(graph, assignment, rank=0) -> dict[int, list]:
    """A build's data node list: owned nodes ascending, then each one's
    remote neighbours in adjacency order, a gid once; values ``float(gid)``."""
    owned = [gid for gid in graph.nodes() if assignment[gid - 1] == rank]
    held = dict.fromkeys(owned)
    for gid in owned:
        for v in graph.neighbors(gid):
            if assignment[v - 1] != rank:
                held.setdefault(v)
    return {gid: [float(gid), None, 0] for gid in held}


def reference_install(ref: dict[int, list], gid: int, value) -> bool:
    """A shadow install: an equal value changes nothing; any other is
    written and bumps the version."""
    record = ref[gid]
    if record[0] == value:
        return False
    record[0] = value
    record[2] += 1
    return True


def reference_ensure(ref: dict[int, list], gid: int, value, version: int) -> None:
    """A record for ``gid`` unless one is held; ``version`` either way."""
    if gid in ref:
        ref[gid][2] = version
    else:
        ref[gid] = [value, None, version]


def reference_op(ref: dict[int, list], op, store, graph, nodes):
    """``op`` on the reference, picking its gids from ``store``'s layout
    before the op; returns what :func:`apply_op` must return."""
    kind = op[0]
    if kind == "pend":
        gid = nodes[op[1] % len(nodes)]
        if not store.owns(gid):
            return None
        ref[gid][1] = op[2]
        return ("pend", gid)
    if kind in ("sweep", "commit"):
        owned = store.owned_gids()
        if kind == "sweep":
            for gid in owned:
                ref[gid][1] = op[1] + gid * 0.5
        changed = []
        for gid in owned:  # the commit: a pending value is consumed
            value, pending, _ = ref[gid]
            if pending is None:
                continue
            if pending != value:
                ref[gid][2] += 1
                changed.append(gid)
            ref[gid][:2] = [pending, None]
        return changed
    if kind in ("shadow", "shadows"):
        shadows = store.shadow_gids()
        if not shadows:
            return None
        if kind == "shadow":
            gid = shadows[op[1] % len(shadows)]
            return ("shadow", gid, reference_install(ref, gid, op[2]))
        records = [(shadows[index % len(shadows)], value) for index, value in op[1]]
        return ("shadows", [gid for gid, value in records if reference_install(ref, gid, value)])
    if kind == "release":
        owned = sorted(g for g in nodes if store.owns(g))
        if not owned:
            return None
        return ("release", owned[op[1] % len(owned)], (store.rank + op[2]) % NPROCS)
    if kind == "adopt":
        foreign = sorted(g for g in nodes if not store.owns(g))
        if not foreign:
            return None
        gid = foreign[op[1] % len(foreign)]
        for g in (gid, *graph.neighbors(gid)):  # the payload, as apply_op ships it
            reference_ensure(ref, g, op[2] + g, (g * 7) % 5)
            ref[g][0] = op[2] + g
        return ("adopt", gid)
    if kind == "ensure":
        gid = nodes[op[1] % len(nodes)]
        reference_ensure(ref, gid, op[2], op[3])
        return ("ensure", gid, type(ref[gid][0]).__name__, ref[gid][2])
    if kind == "roundtrip":
        return ("roundtrip",)
    raise AssertionError(f"unknown op {op!r}")


def assert_matches_reference(ref: dict[int, list], store: NodeStore) -> None:
    records = store.capture_state()["records"]
    assert list(records) == list(ref)  # record order
    for gid, (value, pending, version) in records.items():
        want = ref[gid]
        assert (type(value), type(pending)) == (type(want[0]), type(want[1])), gid
        assert [value, pending, version] == want, gid


@given(mirror_cases())
@settings(max_examples=40, deadline=None)
def test_soa_mirrors_object_store(case):
    n, seed, assignment, ops = case
    graph = random_connected_graph(n, avg_degree=3.0, seed=seed)
    nodes = list(graph.nodes())
    init = lambda gid: float(gid)
    obj = NodeStore(0, graph, list(assignment), init)
    soa = SoAStore(0, graph, list(assignment), init)
    ref = reference_records(graph, assignment)
    assert_mirrored(obj, soa)
    assert_matches_reference(ref, obj)

    for op in ops:
        if op[0] == "cross_restore":
            # Swap snapshots between the stores: each must rebuild exactly
            # the state of the other (which mirrors its own).
            snap_obj = obj.capture_state()
            snap_soa = soa.capture_state()
            obj.restore_state(pickle.loads(pickle.dumps(snap_soa, 5)))
            soa.restore_state(pickle.loads(pickle.dumps(snap_obj, 5)))
        else:
            expected = reference_op(ref, op, obj, graph, nodes)
            res_obj = apply_op(obj, op, graph, nodes)
            res_soa = apply_op(soa, op, graph, nodes)
            assert res_obj == expected, (op, expected, res_obj)
            assert res_soa == res_obj, (op, res_obj, res_soa)
        assert_mirrored(obj, soa)
        for store in (obj, soa):
            assert_matches_reference(ref, store)


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
        set_pending(obj, gid, value)
        set_pending(soa, gid, value)
        assert obj.commit_owned() == list(soa.commit_owned())
        assert_mirrored(obj, soa)


def test_demotion_keeps_the_pending_values():
    """A non-float pending value written while other nodes hold pending
    floats demotes the arrays with those floats intact."""
    graph = random_connected_graph(8, avg_degree=3.0, seed=1)
    obj = NodeStore(0, graph, [0] * graph.num_nodes, float)
    soa = SoAStore(0, graph, [0] * graph.num_nodes, float)
    for gid, value in ((1, 2.5), (2, 3.5), (3, 7)):  # the int demotes
        set_pending(obj, gid, value)
        set_pending(soa, gid, value)
    assert_mirrored(obj, soa)
    assert obj.commit_owned() == list(soa.commit_owned())
    assert_mirrored(obj, soa)
