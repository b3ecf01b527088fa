"""Tests for the per-processor node store (initialization + migration
surgery)."""

from __future__ import annotations

import pytest

from repro.core import NodeStore, SoAStore
from repro.graphs import Graph, hex32


@pytest.fixture
def path6() -> Graph:
    return Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])


def make_store(graph, assignment, rank, init=lambda gid: gid * 10):
    return NodeStore(rank, graph, list(assignment), init)


class TestClassification:
    def test_internal_vs_peripheral(self, path6):
        # [1,2,3 | 4,5,6]: nodes 3 and 4 are peripheral.
        store0 = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert sorted(store0.internal) == [1, 2]
        assert sorted(store0.peripheral) == [3]
        store1 = make_store(path6, [0, 0, 0, 1, 1, 1], 1)
        assert sorted(store1.internal) == [5, 6]
        assert sorted(store1.peripheral) == [4]

    def test_shadow_records_present(self, path6):
        store0 = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store0.shadow_gids() == [4]
        assert store0.value_of(4) == 40

    def test_shadow_for_procs(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.own_node(3).shadow_for_procs == (1,)
        assert store.own_node(2).shadow_for_procs == ()

    def test_multi_proc_shadows(self):
        star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        store = make_store(star, [0, 1, 2, 3], 0)
        assert store.own_node(1).shadow_for_procs == (1, 2, 3)

    def test_owned_iteration_order_internal_first(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        kinds = [n.kind for n in store.owned_nodes()]
        assert kinds == ["i", "i", "p"]

    def test_owns_and_own_node(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.owns(2)
        assert not store.owns(5)
        with pytest.raises(KeyError):
            store.own_node(5)

    def test_value_of_unknown_raises(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        with pytest.raises(KeyError):
            store.value_of(6)  # two hops away: no shadow held

    def test_empty_rank(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 2)
        assert store.num_owned() == 0
        assert store.buffer_sizes(3) == [0, 0, 0]
        store.check_invariants()

    def test_single_rank_owns_everything(self, path6):
        store = make_store(path6, [0] * 6, 0)
        assert len(store.internal) == 6
        assert len(store.peripheral) == 0
        assert store.shadow_gids() == []
        store.check_invariants()


class TestBufferSizes:
    def test_counts_shadow_copies(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.buffer_sizes(2) == [0, 1]

    def test_symmetry_across_ranks(self):
        g = hex32()
        assignment = [gid % 4 for gid in range(32)]
        stores = [make_store(g, assignment, r) for r in range(4)]
        sizes = [s.buffer_sizes(4) for s in stores]
        for i in range(4):
            for j in range(4):
                # if i sends to j, j sends to i (graph is undirected)
                assert (sizes[i][j] > 0) == (sizes[j][i] > 0)

    def test_neighbor_procs(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.neighbor_procs() == [1]


class TestCommitAndShadows:
    def test_commit_owned(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        for node in store.owned_nodes():
            node.data.most_recent_data = node.global_id * 100
        assert store.commit_owned() == [1, 2, 3]
        assert store.value_of(2) == 200

    def test_commit_owned_reports_only_changes(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        store.data_records[2].most_recent_data = 999
        store.data_records[3].most_recent_data = 30  # unchanged value
        assert store.commit_owned() == [2]
        assert store.value_of(3) == 30

    def test_commit_bumps_version_on_change_only(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        record = store.data_records[1]
        record.most_recent_data = 42
        store.commit_owned()
        assert record.version == 1
        record.most_recent_data = 42  # same value again
        store.commit_owned()
        assert record.version == 1

    def test_update_shadow(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.update_shadow(4, 999) is True
        assert store.value_of(4) == 999
        assert store.data_records[4].version == 1
        # Re-sending the same value is a no-op (delta-exchange contract).
        assert store.update_shadow(4, 999) is False
        assert store.data_records[4].version == 1

    def test_update_unknown_shadow_raises(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        with pytest.raises(KeyError):
            store.update_shadow(6, 1)

    @pytest.mark.parametrize("store_cls", [NodeStore, SoAStore])
    def test_update_shadows_is_the_per_record_loop(self, store_cls):
        """One message at a time (vectorized on the soa store's float path):
        the changed gids in record order, versions bumped only on change,
        and an unknown gid raising after the records before it landed."""
        graph = Graph.from_edges(6, [(1, 4), (1, 5), (1, 6), (2, 3)])
        store = store_cls(0, graph, [0, 1, 1, 1, 1, 1], float)
        assert store.update_shadows([(6, 6.0), (4, 0.5), (5, 7.5)]) == [4, 5]
        assert [store.value_of(g) for g in (4, 5, 6)] == [0.5, 7.5, 6.0]
        assert [store.data_records[g].version for g in (4, 5, 6)] == [1, 1, 0]
        assert store.update_shadows([]) == []
        # A repeated gid compares against the record before it.
        assert store.update_shadows([(4, 1.5), (4, 0.5)]) == [4, 4]
        assert store.data_records[4].version == 3
        with pytest.raises(KeyError):
            store.update_shadows([(5, 8.5), (3, 1.0), (6, 9.5)])
        assert [store.value_of(g) for g in (5, 6)] == [8.5, 6.0]
        # A non-float value takes the scalar path (and demotes the soa arrays).
        assert store.update_shadows([(6, "x"), (5, 8.5)]) == [6]
        assert store.value_of(6) == "x" and store.data_records[5].version == 2


    @pytest.mark.parametrize("store_cls", [NodeStore, SoAStore])
    def test_duplicate_record_is_refused(self, store_cls, path6):
        """A second record for a held gid would leave ``data_records`` on the
        new one while the hash table, ``OwnNode.data`` and any resolved
        neighbour row keep the old (the object store used to allow it)."""
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10.0)
        for gid in (1, 4):  # owned, shadow
            with pytest.raises(KeyError, match=f"rank 0 already holds a record for node {gid}"):
                store._add_record(gid, 999.0)
            assert store.value_of(gid) == gid * 10.0
        assert len(store.data_records) == len(store.hash_table) == 4
        store.check_invariants()


class TestMigrationSurgery:
    def test_release_keeps_data_record(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        node = store.release_node(3)
        assert node.global_id == 3
        assert not store.owns(3)
        # "the entry of the migrating node isn't removed from the data node
        # list and the hash table"
        assert 3 in store.data_records
        assert store.hash_table.get(3) is not None

    def test_release_unowned_raises(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        with pytest.raises(KeyError):
            store.release_node(5)

    def test_adopt_then_refresh(self, path6):
        assignment = [0, 0, 0, 1, 1, 1]
        busy = make_store(path6, assignment, 0)
        idle = make_store(path6, assignment, 1)
        # migrate node 3 from 0 to 1
        busy.assignment[2] = 1
        idle.assignment[2] = 1
        released = busy.release_node(3)
        payload = [(v, busy.data_records[v].data) for v in released.neighboring_nodes]
        idle.adopt_node(3, payload)
        busy.refresh_ownership()
        idle.refresh_ownership()
        busy.check_invariants()
        idle.check_invariants()
        # node 2 on busy became peripheral; node 4 on idle stays peripheral;
        # node 3 now owned by idle and peripheral (neighbour 2 is remote).
        assert busy.own_node(2).kind == "p"
        assert idle.own_node(3).kind == "p"
        assert idle.owns(3) and not busy.owns(3)

    def test_adopt_owned_raises(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        with pytest.raises(KeyError):
            store.adopt_node(2, [])

    def test_adopt_without_data_record_raises(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 1)
        store.assignment[0] = 1  # node 1, two hops away: no shadow here
        with pytest.raises(KeyError):
            store.adopt_node(1, [])

    def test_ensure_record_idempotent(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        first = store.ensure_record(6, 60)
        second = store.ensure_record(6, 999)
        assert first is second
        assert first.data == 60

    def test_prune_stale_shadows(self, path6):
        assignment = [0, 0, 0, 1, 1, 1]
        store = make_store(path6, assignment, 0)
        # give away node 3; its shadow of 4 becomes stale after pruning
        store.assignment[2] = 1
        store.release_node(3)
        store.refresh_ownership()
        dropped = store.prune_stale_shadows()
        assert 4 in dropped
        # node 3 itself is still a neighbour of owned node 2: kept
        assert 3 in store.data_records
        store.check_invariants()

    def test_invariants_catch_desync(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        store.assignment[2] = 1  # changed ownership without surgery
        with pytest.raises(AssertionError):
            store.check_invariants()


class TestTopologyCaching:
    """buffer_sizes()/neighbor_procs() are memoized; any ownership surgery
    must invalidate the cache or the load balancer sees stale topology."""

    def test_repeated_calls_hit_cache(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.buffer_sizes(2) == [0, 1]
        assert store.buffer_sizes(2) == [0, 1]
        assert store.neighbor_procs() == [1]
        assert store.neighbor_procs() == [1]

    def test_cached_lists_are_copies(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        sizes = store.buffer_sizes(2)
        sizes[1] = 777
        assert store.buffer_sizes(2) == [0, 1]
        procs = store.neighbor_procs()
        procs.append(999)
        assert store.neighbor_procs() == [1]

    def test_migration_invalidates_cache(self, path6):
        assignment = [0, 0, 0, 1, 1, 1]
        busy = make_store(path6, assignment, 0)
        idle = make_store(path6, assignment, 1)
        assert busy.buffer_sizes(2) == [0, 1]
        assert idle.buffer_sizes(2) == [1, 0]
        # migrate node 3 from rank 0 to rank 1
        busy.assignment[2] = 1
        idle.assignment[2] = 1
        released = busy.release_node(3)
        payload = [
            (v, busy.data_records[v].data, busy.data_records[v].version)
            for v in released.neighboring_nodes
        ]
        idle.adopt_node(3, payload)
        busy.refresh_ownership()
        idle.refresh_ownership()
        # rank 0 now ships node 2's updates, rank 1 ships node 3's
        assert busy.buffer_sizes(2) == [0, 1]
        assert idle.buffer_sizes(2) == [1, 0]
        assert busy.neighbor_procs() == [1]
        assert idle.neighbor_procs() == [0]

    def test_restore_state_invalidates_cache(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        snapshot = store.capture_state()
        assert store.buffer_sizes(2) == [0, 1]
        store.restore_state(snapshot)
        assert store.buffer_sizes(2) == [0, 1]
        assert store.neighbor_procs() == [1]


class TestHaltFlags:
    """Halt flags feed the memoized communication topology.

    Regression coverage for the latent bug where ``buffer_sizes`` /
    ``neighbor_procs`` memos were invalidated by ownership surgery but NOT
    by halt-flag changes: a vertex halting after the memo warmed kept its
    stale buffer accounting -- and kept it across later migrations."""

    @pytest.fixture(params=["object", "soa"])
    def store_cls(self, request):
        from repro.core import SoAStore

        return {"object": NodeStore, "soa": SoAStore}[request.param]

    def test_halt_invalidates_memoized_buffer_sizes(self, path6, store_cls):
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10)
        # Warm the memo first -- the bug only bites on a warmed cache.
        assert store.buffer_sizes(2) == [0, 1]
        assert store.neighbor_procs() == [1]
        changed = store.set_halted(3)
        assert changed
        assert store.buffer_sizes(2) == [0, 0]
        assert store.neighbor_procs() == []
        # Un-halting restores the accounting (and is also a cache event).
        assert store.set_halted(3, False)
        assert store.buffer_sizes(2) == [0, 1]
        assert store.neighbor_procs() == [1]

    def test_redundant_halt_is_a_noop(self, path6, store_cls):
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10)
        assert not store.set_halted(3, False)
        store.set_halted(3)
        assert not store.set_halted(3)
        assert store.halted_gids() == [3]

    def test_halted_buffer_sizing_under_migration(self, path6, store_cls):
        """A halted vertex migrating in must not inherit stale sizing: the
        busy rank halts its peripheral, both memos warm, then the node
        migrates and every memo must re-derive from the new ownership AND
        the current halt flags."""
        assignment = [0, 0, 0, 1, 1, 1]
        init = lambda gid: gid * 10
        busy = store_cls(0, path6, list(assignment), init)
        idle = store_cls(1, path6, list(assignment), init)
        busy.set_halted(3)
        assert busy.buffer_sizes(2) == [0, 0]  # halted peripheral excluded
        assert idle.buffer_sizes(2) == [1, 0]
        # Migrate node 3 (halted) from rank 0 to rank 1.
        busy.assignment[2] = 1
        idle.assignment[2] = 1
        released = busy.release_node(3)
        payload = [
            (v, busy.data_records[v].data, busy.data_records[v].version)
            for v in released.neighboring_nodes
        ]
        idle.adopt_node(3, payload)
        idle.set_halted(3)  # the halt flag rides the migration protocol
        busy.refresh_ownership()
        idle.refresh_ownership()
        # Rank 0's node 2 is now peripheral and active: it ships updates.
        assert busy.buffer_sizes(2) == [0, 1]
        assert busy.neighbor_procs() == [1]
        # Rank 1's adopted node 3 is peripheral but halted: excluded.
        assert idle.buffer_sizes(2) == [0, 0]
        assert idle.neighbor_procs() == []
        # Waking the migrated vertex updates the (re-warmed) memo again.
        idle.set_halted(3, False)
        assert idle.buffer_sizes(2) == [1, 0]
        assert idle.neighbor_procs() == [0]

    def test_halt_flags_survive_capture_restore(self, path6, store_cls):
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10)
        store.set_halted(2)
        store.set_halted(3)
        snapshot = store.capture_state()
        assert snapshot["halted"] == [2, 3]
        store.set_halted(2, False)
        store.restore_state(snapshot)
        assert store.halted_gids() == [2, 3]
        assert store.is_halted(2) and store.is_halted(3)
        assert store.buffer_sizes(2) == [0, 0]

    def test_unknown_gid_raises(self, path6, store_cls):
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10)
        with pytest.raises(KeyError):
            store.is_halted(6)  # rank 0 holds no data for node 6
        with pytest.raises(KeyError):
            store.set_halted(6)
