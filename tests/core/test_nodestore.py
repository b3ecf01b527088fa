"""Tests for the per-processor node store (initialization + migration
surgery)."""

from __future__ import annotations

import pytest

from repro.core import NodeStore, SoAStore
from repro.graphs import Graph, hex32
from repro.partitioning import MetisLikePartitioner

from ..twins import set_pending


@pytest.fixture
def path6() -> Graph:
    return Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])


def make_store(graph, assignment, rank, init=lambda gid: gid * 10):
    return NodeStore(rank, graph, list(assignment), init)


def internal(store) -> list[int]:
    """The internal class of the store's layout, in sweep order."""
    return store.owned_gids()[: store.num_internal()]


def peripheral(store) -> list[int]:
    """The peripheral class of the store's layout, in sweep order."""
    return [gid for gid, _ in store.peripherals()]


class TestClassification:
    def test_internal_vs_peripheral(self, path6):
        # [1,2,3 | 4,5,6]: nodes 3 and 4 are peripheral.
        store0 = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert sorted(internal(store0)) == [1, 2]
        assert sorted(peripheral(store0)) == [3]
        store1 = make_store(path6, [0, 0, 0, 1, 1, 1], 1)
        assert sorted(internal(store1)) == [5, 6]
        assert sorted(peripheral(store1)) == [4]

    def test_shadow_records_present(self, path6):
        store0 = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store0.shadow_gids() == [4]
        assert store0.value_of(4) == 40

    def test_shadow_for_procs(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.shadow_procs(3) == (1,)
        assert store.shadow_procs(2) == ()

    def test_multi_proc_shadows(self):
        star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        store = make_store(star, [0, 1, 2, 3], 0)
        assert store.shadow_procs(1) == (1, 2, 3)

    def test_owned_iteration_order_internal_first(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.owned_gids() == [1, 2, 3]
        assert store.num_internal() == 2

    def test_owns_and_shadow_procs(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.owns(2)
        assert not store.owns(5)
        assert store.shadow_procs(5) == ()  # not ours: no shadow holders known

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
        assert store.num_internal() == 6
        assert store.peripherals() == []
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
    @pytest.mark.parametrize("cls", [NodeStore, SoAStore])
    def test_commit_owned_on_both_stores(self, path6, cls):
        """A pending value is consumed, a ``None`` pending keeps the value,
        and the version bumps only on a real change."""
        store = cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10.0)
        set_pending(store, 1, 42.0)
        set_pending(store, 3, 30.0)  # the value it already holds
        assert list(store.commit_owned()) == [1]
        assert [store.value_of(gid) for gid in (1, 2, 3)] == [42.0, 20.0, 30.0]
        assert [store.version_of(gid) for gid in (1, 2, 3)] == [1, 0, 0]
        assert [store.capture_state()["records"][gid][1] for gid in (1, 2, 3)] == [None] * 3
        # Nothing pending: a second commit changes nothing.
        assert list(store.commit_owned()) == []
        assert store.value_of(1) == 42.0 and store.version_of(1) == 1
        set_pending(store, 1, 42.0)  # the same value again
        assert list(store.commit_owned()) == []
        assert store.version_of(1) == 1

    def test_commit_owned(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        for gid in store.owned_gids():
            set_pending(store, gid, gid * 100)
        assert store.commit_owned() == [1, 2, 3]
        assert store.value_of(2) == 200

    def test_commit_owned_reports_only_changes(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        set_pending(store, 2, 999)
        set_pending(store, 3, 30)  # unchanged value
        assert store.commit_owned() == [2]
        assert store.value_of(3) == 30

    def test_commit_bumps_version_on_change_only(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        set_pending(store, 1, 42)
        store.commit_owned()
        assert store.version_of(1) == 1
        set_pending(store, 1, 42)  # same value again
        store.commit_owned()
        assert store.version_of(1) == 1

    def test_update_shadow(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        assert store.update_shadow(4, 999) is True
        assert store.value_of(4) == 999
        assert store.version_of(4) == 1
        # Re-sending the same value is a no-op (delta-exchange contract).
        assert store.update_shadow(4, 999) is False
        assert store.version_of(4) == 1

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
        assert [store.version_of(g) for g in (4, 5, 6)] == [1, 1, 0]
        assert store.update_shadows([]) == []
        # A repeated gid compares against the record before it.
        assert store.update_shadows([(4, 1.5), (4, 0.5)]) == [4, 4]
        assert store.version_of(4) == 3
        with pytest.raises(KeyError):
            store.update_shadows([(5, 8.5), (3, 1.0), (6, 9.5)])
        assert [store.value_of(g) for g in (5, 6)] == [8.5, 6.0]
        # A non-float value takes the scalar path (and demotes the soa arrays).
        assert store.update_shadows([(6, "x"), (5, 8.5)]) == [6]
        assert store.value_of(6) == "x" and store.version_of(5) == 2


    @pytest.mark.parametrize("store_cls", [NodeStore, SoAStore])
    def test_duplicate_record_is_refused(self, store_cls, path6):
        """A second record for a held gid would leave the data node list on
        the new one while any resolved sweep row keeps the old (the object
        store used to allow it)."""
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10.0)
        for gid in (1, 4):  # owned, shadow
            with pytest.raises(KeyError, match=f"rank 0 already holds a record for node {gid}"):
                store._add_record(gid, 999.0)
            assert store.value_of(gid) == gid * 10.0
        assert store.num_records() == 4
        store.check_invariants()


class TestMigrationSurgery:
    def test_release_keeps_data_record(self, path6):
        store = make_store(path6, [0, 0, 0, 1, 1, 1], 0)
        store.release_node(3)
        assert not store.owns(3)
        # "the entry of the migrating node isn't removed from the data node
        # list and the hash table"
        assert store.holds(3)

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
        busy.release_node(3)
        payload = [(v, busy.value_of(v)) for v in path6.neighbors(3)]
        idle.adopt_node(3, payload)
        busy.refresh_ownership()
        idle.refresh_ownership()
        busy.check_invariants()
        idle.check_invariants()
        # node 2 on busy became peripheral; node 4 on idle stays peripheral;
        # node 3 now owned by idle and peripheral (neighbour 2 is remote).
        assert 2 in peripheral(busy)
        assert 3 in peripheral(idle)
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
        store.ensure_record(6, 60)
        records = store.num_records()
        store.ensure_record(6, 999)
        assert store.num_records() == records
        assert store.value_of(6) == 60

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
        busy.release_node(3)
        payload = [(v, busy.value_of(v), busy.version_of(v)) for v in path6.neighbors(3)]
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



@pytest.mark.parametrize("store_cls", [NodeStore, SoAStore])
class TestLayout:
    """The owned-set layout's order rules, on both stores: build and
    restore list each class in ascending gids, adopt appends at the end of
    the node's class, release moves nothing else, refresh keeps each
    class's relative order."""

    def test_build_lists_each_class_ascending(self, store_cls):
        graph = hex32()
        assignment = MetisLikePartitioner(seed=0).partition(graph, 3).assignment
        store = store_cls(0, graph, list(assignment), float)
        split = store.num_internal()
        owned = store.owned_gids()
        assert 0 < split < len(owned)
        assert owned[:split] == sorted(owned[:split])
        assert owned[split:] == sorted(owned[split:])
        for gid, procs in store.peripherals():
            assert procs == store._shadow_procs_of(gid)

    def test_adopt_appends_at_the_end_of_its_class(self, store_cls, path6):
        # [0 1 0 0 0 0]: rank 0 owns all but node 2.
        store = store_cls(0, path6, [0, 1, 0, 0, 0, 0], float)
        assert store.owned_gids() == [4, 5, 6, 1, 3] and store.num_internal() == 3
        store.assignment[1] = 0
        store.adopt_node(2, [])  # all-local now: internal, after 6
        assert store.owned_gids() == [4, 5, 6, 2, 1, 3] and store.num_internal() == 4
        assert store.peripherals() == [(1, (1,)), (3, (1,))]  # stale until refreshed
        store.refresh_ownership()
        assert store.owned_gids() == [4, 5, 6, 2, 1, 3] and store.num_internal() == 6
        store.check_invariants()
        other = store_cls(1, path6, [0, 0, 0, 1, 1, 1], float)
        other.assignment[2] = 1
        other.adopt_node(3, [])  # a remote neighbour: peripheral, last
        assert other.owned_gids() == [5, 6, 4, 3] and other.num_internal() == 2
        assert other.peripherals() == [(4, (0,)), (3, (0,))]

    def test_release_moves_nothing_else(self, store_cls, path6):
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], float)
        store.release_node(2)  # internal
        assert store.owned_gids() == [1, 3] and store.num_internal() == 1
        assert store.peripherals() == [(3, (1,))]
        store.release_node(3)  # peripheral
        assert store.owned_gids() == [1] and store.peripherals() == []
        with pytest.raises(KeyError, match="cannot release unowned node 3"):
            store.release_node(3)

    def test_refresh_keeps_each_class_in_its_order(self, store_cls, path6):
        store = store_cls(0, path6, [0, 1, 0, 0, 0, 0], float)
        store.assignment[1] = 0
        store.adopt_node(2, [])
        store.assignment[4] = 1  # node 5 leaves: 4 and 6 turn peripheral
        store.release_node(5)
        store.refresh_ownership()
        assert store.owned_gids() == [2, 1, 3, 4, 6] and store.num_internal() == 3
        assert store.peripherals() == [(4, (1,)), (6, (1,))]
        store.check_invariants()

    def test_restore_lists_each_class_ascending(self, store_cls, path6):
        store = store_cls(0, path6, [0, 1, 0, 0, 0, 0], float)
        store.assignment[1] = 0
        store.adopt_node(2, [])
        store.refresh_ownership()
        assert store.owned_gids() == [4, 5, 6, 2, 1, 3]
        store.restore_state(store.capture_state())
        assert store.owned_gids() == [1, 2, 3, 4, 5, 6] and store.num_internal() == 6
        store.check_invariants()

    def test_records_by_gid(self, store_cls, path6):
        store = store_cls(0, path6, [0, 0, 0, 1, 1, 1], lambda gid: gid * 10.0)
        assert store.num_records() == 4 and store.holds(4) and not store.holds(5)
        store.set_value(4, 41.0)  # in place, no version bump
        assert (store.value_of(4), store.version_of(4)) == (41.0, 0)
        store.ensure_record(4, 99.0, version=3)  # held: only the version
        assert (store.value_of(4), store.version_of(4)) == (41.0, 3)
        store.ensure_record(5, 50.0)
        assert (store.value_of(5), store.version_of(5), store.num_records()) == (50.0, 0, 5)
        assert store.shadow_procs(3) == (1,) and store.shadow_procs(4) == ()
        for call in (store.value_of, store.version_of, lambda gid: store.set_value(gid, 1.0)):
            with pytest.raises(KeyError, match="rank 0 holds no data for node 6"):
                call(6)

    def test_snapshot_holds_only_what_a_restore_reads(self, store_cls, path6):
        snapshot = store_cls(0, path6, [0, 0, 0, 1, 1, 1], float).capture_state()
        assert list(snapshot) == ["rank", "assignment", "records"]
