"""Property-based round-trip tests for task migration.

For ANY random connected graph, partition, and sequence of busy->idle
migration batches, the distributed data structures must come back
consistent: every node has exactly one owner, every rank's hash table
resolves every ID it needs, internal/peripheral classification and
``shadow_for_procs`` match the patched assignment, and all ranks agree on
the node-to-processor map.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputeContext, NodeStore, PlatformCosts
from repro.core.migration import migrate_node, select_migrating_node
from repro.graphs import random_connected_graph
from repro.mpi import IDEAL, run_mpi


@st.composite
def migration_cases(draw):
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
    # A sequence of busy -> idle migration attempts (busy != idle).
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


def migration_round_trip(comm, graph, assignment, moves):
    """Build the store, run the requested migrations collectively, verify."""
    store = NodeStore(comm.rank, graph, list(assignment), lambda gid: float(gid))
    ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
    executed = []
    for busy, idle in moves:
        gid = None
        if comm.rank == busy:
            gid = select_migrating_node(store, idle)
        gid = comm.bcast(gid, root=busy)
        if gid is None:
            continue  # busy has no candidate peripheral for idle: skip
        store.assignment[gid - 1] = idle
        migrate_node(comm, store, gid, busy, idle, ctx)
        executed.append((gid, busy, idle))

    store.check_invariants()  # shadow/peripheral/data-record consistency

    # Every ID this rank's sweeps would touch resolves to a record of the
    # data node list, and the sweep rows name exactly those records' slots.
    for gid in store.owned_gids():
        assert store.holds(gid)
        for v in graph.neighbors(gid):
            assert store.holds(v)
    slot_of = store._slot_of
    for gid, slot, nbrs, slots in store.sweep_rows():
        assert slot == slot_of[gid]
        assert slots == tuple(slot_of[v] for v in nbrs)

    owned = sorted(store.owned_gids())
    return owned, tuple(store.assignment), executed


@given(migration_cases())
@settings(max_examples=20, deadline=None)
def test_migration_round_trip(case):
    graph, nprocs, assignment, moves = case
    results = run_mpi(
        migration_round_trip,
        nprocs,
        graph,
        assignment,
        moves,
        machine=IDEAL,
    )

    # All ranks executed the same migrations and agree on the final map.
    final_assignments = {assignments for _, assignments, _ in results}
    assert len(final_assignments) == 1
    executed_logs = {tuple(executed) for _, _, executed in results}
    assert len(executed_logs) == 1

    # Unique ownership: every node owned by exactly one rank, and exactly
    # the rank the (shared) assignment says.
    final_assignment = next(iter(final_assignments))
    all_owned = [gid for owned, _, _ in results for gid in owned]
    assert sorted(all_owned) == list(graph.nodes())
    for rank, (owned, _, _) in enumerate(results):
        assert all(final_assignment[gid - 1] == rank for gid in owned)
