"""Tests for task migration, including the Figure-9 candidate-selection
scenario and full collective migrations on the simulated cluster."""

from __future__ import annotations

import pytest

from repro.core import (
    CentralizedHeuristicBalancer,
    ComputeContext,
    NodeStore,
    PlatformConfig,
    load_balance_phase,
    migrate_node,
    select_migrating_node,
)
from repro.graphs import Graph, hex32
from repro.mpi import IDEAL, run_mpi


def make_store(graph, assignment, rank):
    return NodeStore(rank, graph, list(assignment), lambda gid: gid * 10)


class TestSelectMigratingNode:
    def test_figure9_scenario(self):
        """Figure 9: between candidates A and B on processor 0, pick the one
        whose migration keeps the edge cut minimal.

        Construction: node A(1) has three neighbours on proc 0 and one on
        proc 1; node B(2) has one neighbour on proc 0 and one on proc 1.
        Migrating A adds 3 cut edges and removes 1 (score +2); migrating B
        adds 1 and removes 1 (score 0) -> B wins.
        """
        g = Graph.from_edges(
            7,
            [
                (1, 3), (1, 4), (1, 5),  # A's local neighbours
                (1, 6),                  # A's neighbour on proc 1
                (2, 5),                  # B's local neighbour
                (2, 7),                  # B's neighbour on proc 1
            ],
        )
        assignment = [0, 0, 0, 0, 0, 1, 1]
        store = make_store(g, assignment, 0)
        assert select_migrating_node(store, to_proc=1) == 2

    def test_prefers_candidate_with_more_target_neighbors(self):
        g = Graph.from_edges(5, [(1, 3), (1, 4), (2, 4), (2, 5), (1, 2)])
        assignment = [0, 0, 1, 1, 1]
        store = make_store(g, assignment, 0)
        # node 1: remote nbrs 3,4 (proc1), local nbr 2 -> score 1-2=-1
        # node 2: remote nbrs 4,5 (proc1), local nbr 1 -> score 1-2=-1
        # tie -> peripheral-list order: node 1 first
        assert select_migrating_node(store, to_proc=1) == 1

    def test_no_candidate_returns_none(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assignment = [0, 0, 1, 1]
        store = make_store(g, assignment, 0)
        # proc 0's peripherals shadow only for... nothing: no cut edges to 1
        assert select_migrating_node(store, to_proc=1) is None


class TestMigrateNode:
    def _run_single_migration(self, graph, assignment, gid, src, dst, nprocs):
        """Run a collective migration on the simulated cluster; return the
        per-rank stores' summaries."""

        def fn(comm):
            store = make_store(graph, assignment, comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, graph.num_nodes)
            store.assignment[gid - 1] = dst
            migrate_node(comm, store, gid, src, dst, ctx)
            store.check_invariants()
            return {
                "owned": sorted(store.owned_gids()),
                "kinds": {
                    gid: "p" if store.shadow_procs(gid) else "i"
                    for gid in store.owned_gids()
                },
            }

        return run_mpi(fn, nprocs, machine=IDEAL)

    def test_ownership_transfers(self):
        g = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        assignment = [0, 0, 0, 1, 1, 1]
        results = self._run_single_migration(g, assignment, 3, 0, 1, 2)
        assert results[0]["owned"] == [1, 2]
        assert results[1]["owned"] == [3, 4, 5, 6]

    def test_kind_transitions(self):
        g = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        assignment = [0, 0, 0, 1, 1, 1]
        results = self._run_single_migration(g, assignment, 3, 0, 1, 2)
        # On busy: node 2 (neighbour of migrated 3) became peripheral.
        assert results[0]["kinds"][2] == "p"
        # On idle: node 4 turned internal (its neighbours 3,5 now local);
        # node 3 is peripheral (neighbour 2 remote).
        assert results[1]["kinds"][4] == "i"
        assert results[1]["kinds"][3] == "p"

    def test_third_party_shadow_holders_update(self):
        # path over 3 procs; migrating the middle node affects proc 2's
        # shadow bookkeeping.
        g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assignment = [0, 0, 1, 2, 2]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, g.num_nodes)
            store.assignment[2] = 2  # node 3: proc 1 -> proc 2
            migrate_node(comm, store, 3, 1, 2, ctx)
            store.check_invariants()
            if comm.rank == 2:
                return store.shadow_procs(3)
            if comm.rank == 0:
                return store.shadow_procs(2)
            return None

        results = run_mpi(fn, 3, machine=IDEAL)
        assert results[2] == (0,)   # node 3 now shadows for proc 0 only
        assert results[0] == (2,)   # node 2's updates now go to proc 2

    def test_unpatched_assignment_rejected(self):
        g = Graph.from_edges(2, [(1, 2)])

        def fn(comm):
            store = make_store(g, [0, 1], comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, 2)
            migrate_node(comm, store, 1, 0, 1, ctx)  # forgot the patch

        with pytest.raises(ValueError, match="patched"):
            run_mpi(fn, 2, machine=IDEAL)


class TestLoadBalancePhase:
    def test_full_phase_moves_work_from_busy(self):
        g = hex32()
        assignment = [0 if gid <= 24 else 1 for gid in range(1, 33)]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, 32)
            exec_time = 3.0 if comm.rank == 0 else 1.0
            events = load_balance_phase(
                comm, store, CentralizedHeuristicBalancer(0.25), exec_time, ctx, 10
            )
            store.check_invariants()
            return [(e.global_id, e.from_proc, e.to_proc) for e in events], store.num_owned()

        results = run_mpi(fn, 2, machine=IDEAL)
        events0, owned0 = results[0]
        events1, owned1 = results[1]
        assert events0 == events1, "migration log must agree on all ranks"
        assert len(events0) == 1
        gid, src, dst = events0[0]
        assert (src, dst) == (0, 1)
        assert owned0 == 23 and owned1 == 9

    def test_no_imbalance_no_migration(self):
        g = hex32()
        assignment = [gid % 2 for gid in range(32)]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, 32)
            events = load_balance_phase(
                comm, store, CentralizedHeuristicBalancer(0.25), 1.0, ctx, 10
            )
            return len(events)

        assert run_mpi(fn, 2, machine=IDEAL) == [0, 0]

    def test_multi_task_migration_extension(self):
        g = hex32()
        assignment = [0 if gid <= 24 else 1 for gid in range(1, 33)]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, 32)
            exec_time = 3.0 if comm.rank == 0 else 1.0
            events = load_balance_phase(
                comm,
                store,
                CentralizedHeuristicBalancer(0.25),
                exec_time,
                ctx,
                10,
                max_migrations_per_pair=4,
            )
            store.check_invariants()
            return len(events)

        assert run_mpi(fn, 2, machine=IDEAL) == [4, 4]

    def test_repeated_migrations_preserve_invariants(self):
        """Stress: many LB rounds with alternating busy processors."""
        g = hex32()
        assignment = [gid % 4 for gid in range(32)]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            ctx = ComputeContext(comm, PlatformConfig().costs, 32)
            for round_idx in range(6):
                exec_time = 5.0 if comm.rank == round_idx % 4 else 1.0
                load_balance_phase(
                    comm, store, CentralizedHeuristicBalancer(0.25), exec_time, ctx, round_idx
                )
                store.check_invariants()
            total = comm.allreduce(store.num_owned())
            return total

        results = run_mpi(fn, 4, machine=IDEAL)
        assert results == [32, 32, 32, 32]
