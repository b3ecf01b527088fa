"""Property tests: version counters survive every state-surgery path.

The delta halo exchange leans on per-node version counters (how many times
the committed value changed since init).  If a checkpoint round-trip or a
migration hand-off dropped or reset them inconsistently, owner and replica
counters would diverge and the change-tracking invariant -- sparse results
bit-identical to dense -- would silently rot.  Hypothesis drives randomized
commit histories through both paths.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NodeStore
from repro.graphs import Graph

from ..twins import set_pending

NODES = 6

#: One randomized "sweep": gid -> freshly computed value.  Values are drawn
#: from a tiny pool so re-committing an unchanged value (version must NOT
#: bump) happens often.
sweeps = st.lists(
    st.dictionaries(
        st.integers(min_value=1, max_value=NODES),
        st.integers(min_value=0, max_value=3),
        max_size=NODES,
    ),
    max_size=6,
)


def path_graph() -> Graph:
    return Graph.from_edges(
        NODES, [(i, i + 1) for i in range(1, NODES)]
    )


def make_store(rank: int, assignment: list[int]) -> NodeStore:
    return NodeStore(rank, path_graph(), assignment, lambda gid: gid * 10)


def apply_sweeps(store: NodeStore, history) -> None:
    for sweep in history:
        for gid, value in sweep.items():
            if store.holds(gid) and store.owns(gid):
                set_pending(store, gid, value)
        store.commit_owned()


def versions(store: NodeStore) -> dict[int, int]:
    records = store.capture_state()["records"]
    return {gid: version for gid, (_, _, version) in sorted(records.items())}


class TestCaptureRestoreRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(history=sweeps)
    def test_snapshot_restores_versions_exactly(self, history):
        assignment = [0] * 3 + [1] * 3
        store = make_store(0, list(assignment))
        apply_sweeps(store, history)
        snapshot = store.capture_state()
        expected = versions(store)

        # Wreck the live state, then restore: everything -- committed data,
        # pending values, versions -- must come back bit-identical.
        apply_sweeps(store, [{gid: 99 for gid in range(1, NODES + 1)}])
        set_pending(store, 1, "garbage")
        store.restore_state(snapshot)

        assert versions(store) == expected
        assert store.capture_state() == snapshot

    @settings(max_examples=40, deadline=None)
    @given(history=sweeps, extra=sweeps)
    def test_version_only_counts_real_changes(self, history, extra):
        """Version equals the number of *distinct* consecutive committed
        values -- replaying the identical history on a fresh store yields
        identical counters (determinism of the counting rule)."""
        a = make_store(0, [0] * NODES)
        b = make_store(0, [0] * NODES)
        apply_sweeps(a, history)
        apply_sweeps(b, history)
        assert versions(a) == versions(b)
        # Committing the already-committed value is a no-op for versions.
        before = versions(a)
        for gid in list(a._slot_of):
            set_pending(a, gid, a.value_of(gid))
        a.commit_owned()
        assert versions(a) == before


class TestAdoptionRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(history=sweeps)
    def test_migration_ships_versions(self, history):
        """After release/adopt surgery the idle rank's counters for the
        shipped records match the busy rank's exactly."""
        assignment = [0, 0, 0, 1, 1, 1]
        busy = make_store(0, list(assignment))
        idle = make_store(1, list(assignment))
        apply_sweeps(busy, history)
        # Mirror the owner's committed boundary values onto the idle rank's
        # shadows the way the dense exchange would.
        for gid in idle.shadow_gids():
            idle.update_shadow(gid, busy.value_of(gid))

        # Migrate node 3 from rank 0 to rank 1 (the migration.py payload
        # format: (gid, value, version) triples).
        busy.assignment[2] = 1
        idle.assignment[2] = 1
        busy.release_node(3)
        payload = [
            (v, busy.value_of(v), busy.version_of(v)) for v in (*path_graph().neighbors(3), 3)
        ]
        # The node's own record first, then its neighbours' (as migrate_node).
        idle.adopt_node(3, [payload[-1], *payload[:-1]])
        busy.refresh_ownership()
        idle.refresh_ownership()

        for gid, _value, version in payload:
            assert idle.version_of(gid) == version, gid
        busy.check_invariants()
        idle.check_invariants()
