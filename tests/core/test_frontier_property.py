"""Property tests: the mask-backed ``Frontier`` equals a per-gid set model.

``compute.Frontier`` keeps the change-driven active sets as boolean masks
over the positions of the store's owned-set layout and updates them with
array gathers off the epoch's ``Topology``.  The model below is the per-gid
bookkeeping it replaced (``DeltaState`` / ``HybridState``): one Python set
per (round, node class), ``None`` while a class is dense.  On random graphs,
partitions, rounds and operation sequences the two must hand out the same
active gids in the same order -- the layout's, ``store.owned_gids()`` --
charge the same bookkeeping (``float.hex``, call for call), discard what is
touched into a dense class, checkpoint to the same plain lists, and agree
again after ownership surgery; an epoch the frontier was not told about is
refused.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NodeStore, PlatformCosts
from repro.core.compute import _INTERNAL, _PERIPHERAL, Frontier
from repro.graphs import random_connected_graph

ITEM = PlatformCosts().list_item_cost


def gids_of(store, active) -> list[int]:
    """The gids at :meth:`Frontier.begin`'s sweep positions, in that order."""
    layout = store.owned_gids()
    return [layout[p] for p in active.tolist()]


class SetModel:
    """The replaced bookkeeping: gid sets per (round, class), ``None`` = dense."""

    def __init__(self, rounds):
        self.sets = [[None, None] for _ in range(rounds)]

    def begin(self, store, round_idx, part):
        taken = self.sets[round_idx][part]
        self.sets[round_idx][part] = set()
        if taken is None:
            return None
        return [g for g in store.owned_gids() if g in taken]

    def _touch(self, store, gid):
        for per_class in self.sets:
            active = per_class[_PERIPHERAL if store.shadow_procs(gid) else _INTERNAL]
            if active is not None:
                active.add(gid)

    def record_commit(self, store, changed, charges):
        cost = 0.0
        for gid in changed:
            for v in (gid, *store.graph.neighbors(gid)):
                if store.owns(v):
                    self._touch(store, v)
            cost += ITEM * (1 + len(store.graph.neighbors(gid)))
        if cost:
            charges.append(cost.hex())

    def record_arrivals(self, store, changed, charges):
        for gid in changed:
            for v in store.graph.neighbors(gid):
                if store.owns(v):
                    self._touch(store, v)
            charges.append((ITEM * (1 + len(store.graph.neighbors(gid)))).hex())

    def capture(self, inner_sweeps):
        active = [[None if s is None else sorted(s) for s in pair] for pair in self.sets]
        return {"active": active, "inner_sweeps": inner_sweeps}


class RecordingContext:
    """The slice of ``ComputeContext`` a frontier touches."""

    def __init__(self, charges):
        self.costs = PlatformCosts()
        self._bookkeeping = lambda seconds: charges.append(seconds.hex())


def build(seed, num_nodes, nprocs):
    rng = random.Random(seed)
    graph = random_connected_graph(num_nodes, avg_degree=3.0, seed=seed)
    # Rank 0 owns about half the nodes, so it usually has both classes: an
    # internal span ``[0, split)`` and a peripheral one after it.
    assignment = [0 if rng.random() < 0.5 else rng.randrange(nprocs) for _ in range(num_nodes)]
    assignment[0] = 0  # rank 0 owns something
    return NodeStore(0, graph, assignment, float), rng


def sample(rng, gids):
    gids = list(gids)
    return rng.sample(gids, rng.randint(0, len(gids)))


operations = st.lists(
    st.sampled_from(["begin", "commit", "arrive", "checkpoint", "rebuild", "surgery"]),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(2, 24),
    nprocs=st.integers(1, 3),
    rounds=st.integers(1, 3),
    hybrid=st.booleans(),
    ops=operations,
)
def test_frontier_matches_the_set_model(seed, num_nodes, nprocs, rounds, hybrid, ops):
    store, rng = build(seed, num_nodes, nprocs)
    frontier = Frontier(rounds, inner_cap=8 if hybrid else None)
    model = SetModel(rounds)
    got, want = [], []
    ctx = RecordingContext(got)
    for op in ops:
        owned = sorted(store.owned_gids())
        if op == "begin":
            round_idx = rng.randrange(rounds)
            # A hybrid superstep consumes the classes separately; a BSP one
            # both at once, I then P (Figure 8) or P then I (Figure 8a).
            parts = rng.sample([_INTERNAL, _PERIPHERAL], 1 if hybrid else 2)
            for part in parts:
                active = frontier.begin(store, round_idx, part)
                expected = model.begin(store, round_idx, part)
                assert (None if active is None else gids_of(store, active)) == expected
        elif op == "commit":
            changed = sample(rng, owned)  # commit order is list order, not gid order
            frontier.record_commit(store, changed, ctx)
            model.record_commit(store, changed, want)
        elif op == "arrive":
            changed = sample(rng, store.shadow_gids())
            frontier.record_arrivals(store, changed, ctx)
            model.record_arrivals(store, changed, want)
        elif op == "checkpoint":
            frontier.inner_sweeps += 1
            payload = frontier.capture(store)
            assert payload == model.capture(frontier.inner_sweeps)
            # Plain data in, plain data out: a fresh frontier restored from
            # the pickled payload captures the same lists.
            frontier = Frontier(rounds, inner_cap=8 if hybrid else None)
            frontier.restore(pickle.loads(pickle.dumps(payload)), store)
            assert frontier.capture(store) == payload
        elif op == "rebuild":
            # A new surgery epoch over the same owned set (a refresh that
            # moved nothing) that nobody announced: the bound frontier
            # refuses it, and the platform's answer to surgery is a reset.
            frontier.capture(store)
            store._invalidate_topology_cache()
            with pytest.raises(RuntimeError, match="owned set changed"):
                frontier.begin(store, 0, _INTERNAL)
            frontier.reset_dense()
            model = SetModel(rounds)
        elif op == "surgery" and len(owned) > 1:
            # Migration as the platform performs it: ownership changes, the
            # classification is re-derived, the frontier falls back to dense.
            gid = rng.choice(owned)
            store.assignment[gid - 1] = 1
            store.release_node(gid)
            store.refresh_ownership()
            frontier.reset_dense()
            model = SetModel(rounds)
        assert got == want


def test_dense_class_discards_touches():
    """While a class is dense, what is touched into it is dropped: the dense
    sweep that consumes it computes every node anyway."""
    store, _ = build(seed=1, num_nodes=12, nprocs=2)
    frontier = Frontier(1, inner_cap=4)
    ctx = RecordingContext([])
    owned = sorted(store.owned_gids())
    frontier.record_commit(store, owned, ctx)
    assert frontier.begin(store, 0, _PERIPHERAL) is None  # dense, touches dropped
    assert frontier.capture(store)["active"] == [[None, []]]  # internal still dense
    frontier.record_commit(store, owned, ctx)
    peripherals = sorted(g for g, _ in store.peripherals())
    assert frontier.capture(store)["active"] == [[None, peripherals]]
    assert frontier.begin(store, 0, _INTERNAL) is None
    assert frontier.capture(store)["active"] == [[[], peripherals]]


def test_a_class_is_a_span_of_the_layout():
    """``begin`` hands out layout positions, ascending: the internal class
    from 0, the peripheral class from the internal count on."""
    store, _ = build(seed=1, num_nodes=12, nprocs=2)
    split, count = store.num_internal(), store.num_owned()
    assert 0 < split < count
    frontier = Frontier(1, inner_cap=4)
    assert frontier.begin(store, 0, _INTERNAL) is None  # dense
    assert frontier.begin(store, 0, _PERIPHERAL) is None
    frontier.record_commit(store, store.owned_gids(), RecordingContext([]))
    assert frontier.begin(store, 0, _PERIPHERAL).tolist() == list(range(split, count))
    assert frontier.begin(store, 0, _INTERNAL).tolist() == list(range(split))


def test_restore_into_the_given_store():
    """Rollback restores the frontier into the restored store; gids the
    store does not own are dropped."""
    store, _ = build(seed=2, num_nodes=10, nprocs=2)
    owned = sorted(store.owned_gids())
    foreign = next(gid for gid in store.graph.nodes() if not store.owns(gid))
    frontier = Frontier(2)
    dirty = sorted([owned[0], foreign])
    frontier.restore({"active": [[dirty, dirty], [None, None]], "inner_sweeps": 0}, store)
    classes = (_INTERNAL, _PERIPHERAL)
    assert sum((gids_of(store, frontier.begin(store, 0, p)) for p in classes), []) == [owned[0]]
    assert [frontier.begin(store, 1, p) for p in classes] == [None, None]
