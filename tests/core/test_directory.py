"""Tests for the distributed data directory (section 7.1 extension)."""

from __future__ import annotations

import pytest

from repro.core import ComputeContext, NodeStore, PlatformConfig, migrate_node
from repro.core.directory import DistributedDirectory
from repro.graphs import hex32, path_graph
from repro.mpi import IDEAL, run_mpi


def make_store(graph, assignment, rank):
    return NodeStore(rank, graph, list(assignment), lambda gid: gid * 10)


class TestHomeHashing:
    def test_home_is_modulo(self):
        g = path_graph(6)
        assignment = [0, 0, 0, 1, 1, 1]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            return [directory.home_of(gid) for gid in range(1, 7)]

        results = run_mpi(fn, 2, machine=IDEAL)
        assert results[0] == [0, 1, 0, 1, 0, 1]

    def test_invalid_gid(self):
        g = path_graph(2)

        def fn(comm):
            directory = DistributedDirectory(comm, make_store(g, [0, 0], comm.rank))
            with pytest.raises(KeyError):
                directory.home_of(0)

        run_mpi(fn, 1, machine=IDEAL)


class TestLookup:
    def test_registration_covers_all_nodes(self):
        g = hex32()
        assignment = [gid % 4 for gid in range(32)]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            homed = directory.homed_here()
            owners = directory.collective_lookup(range(1, 33))
            return homed, owners

        results = run_mpi(fn, 4, machine=IDEAL)
        all_homed = sorted(gid for homed, _ in results for gid in homed)
        assert all_homed == list(range(1, 33))
        for _, owners in results:
            assert owners == {gid: assignment[gid - 1] for gid in range(1, 33)}

    def test_unregistered_gid_raises(self):
        g = path_graph(4)
        assignment = [0, 0, 1, 1]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            try:
                # 99 is homed on some rank but never registered
                directory.collective_lookup([2] if comm.rank == 0 else [])
                if comm.rank == 0:
                    return "ok"
            except KeyError:
                return "keyerror"

        results = run_mpi(fn, 2, machine=IDEAL)
        assert results[0] == "ok"


class TestFetch:
    def test_far_off_fetch(self):
        """Rank 0 fetches data of a node three processors away -- no shadow
        of it exists locally."""
        g = path_graph(8)
        assignment = [0, 0, 1, 1, 2, 2, 3, 3]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            wanted = [8] if comm.rank == 0 else []
            values = directory.collective_fetch(wanted)
            return values

        results = run_mpi(fn, 4, machine=IDEAL)
        assert results[0] == {8: 80}
        assert results[1] == {}

    def test_local_and_shadow_fast_path(self):
        g = path_graph(4)
        assignment = [0, 0, 1, 1]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            if comm.rank == 0:
                # 1 owned, 3 shadow (neighbour of peripheral 2), 4 far-off
                return directory.collective_fetch([1, 3, 4])
            return directory.collective_fetch([])

        results = run_mpi(fn, 2, machine=IDEAL)
        assert results[0] == {1: 10, 3: 30, 4: 40}

    def test_everyone_fetches_everything(self):
        g = hex32()
        assignment = [gid % 4 for gid in range(32)]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            return directory.collective_fetch(range(1, 33))

        results = run_mpi(fn, 4, machine=IDEAL)
        expected = {gid: gid * 10 for gid in range(1, 33)}
        assert all(r == expected for r in results)


class TestAfterMigration:
    def test_reregistration_tracks_new_owner(self):
        g = path_graph(6)
        assignment = [0, 0, 0, 1, 1, 1]

        def fn(comm):
            store = make_store(g, assignment, comm.rank)
            directory = DistributedDirectory(comm, store)
            ctx = ComputeContext(comm, PlatformConfig().costs, 6)
            # migrate node 3: 0 -> 1
            store.assignment[2] = 1
            migrate_node(comm, store, 3, 0, 1, ctx)
            directory.register_owned()
            owners = directory.collective_lookup([3])
            return owners[3]

        results = run_mpi(fn, 2, machine=IDEAL)
        assert results == [1, 1]
