"""Runs of the struct-of-arrays store equal their scalar twin on the list store.

Both stores keep one owned-set layout (owned gids in sweep order, the
internal count, each peripheral node's ``shadow_for_procs``) and one record
layer, a gid -> slot map over columns, answering gid-level record calls.
The one per-node object left is the list store's looped sweep row
(:meth:`~repro.core.NodeStore.sweep_rows`).  Bulk runs under dense, sparse
and hybrid execution, and runs whose surgery, repair or restore edits the
layout and writes records by gid -- migration, integrity repair, crash and
rollback -- must equal the scalar twin to the last bit, with the invariants
checked every iteration in the latter, and must resolve no sweep row on the
struct-of-arrays side.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, NodeStore, PlatformConfig, SoAStore
from repro.graphs import hex_grid
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner, Partition

from ..twins import on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

GRAPH = hex_grid(16, 16)
PARTITION = MetisLikePartitioner(seed=0).partition(GRAPH, 4)


@pytest.fixture
def records_made(monkeypatch):
    """``{"rows": looped sweep rows resolved}``, counted from here on."""
    counts: Counter[str] = Counter()
    resolve = NodeStore.sweep_rows

    def counting(self):
        fresh = self._topology is None or self._topology.rows is None
        rows = resolve(self)
        if fresh:
            counts["rows"] += len(rows)
        return rows

    monkeypatch.setattr(NodeStore, "sweep_rows", counting)
    return counts


def skewed() -> Partition:
    """Half of the last rank's nodes handed to rank 0: the balancer acts."""
    assignment = list(PARTITION.assignment)
    last = [i for i, proc in enumerate(assignment) if proc == 3]
    for i in last[: len(last) // 2]:
        assignment[i] = 0
    return Partition.from_assignment(GRAPH, assignment, 4)


def boundary_gid(rank: int) -> int:
    """A node ``rank`` owns with a remote neighbour (it has replicas)."""
    assignment = PARTITION.assignment
    return next(
        g
        for g in GRAPH.nodes()
        if assignment[g - 1] == rank
        and any(assignment[v - 1] != rank for v in GRAPH.neighbors(g))
    )


def run(store, partition=PARTITION, faults=None, **overrides):
    config = PlatformConfig(track_trace=True, **{"iterations": 8, **overrides})
    platform = ICPlatform(
        GRAPH, on_store(store, make_average_fn(1e-4)), init_value=float, config=config
    )
    return platform.run(partition, faults=FaultPlan.parse(faults) if faults else None)


def assert_identical(obj, soa):
    assert soa.values == obj.values and soa.versions == obj.versions
    assert soa.elapsed.hex() == obj.elapsed.hex()
    assert [p.as_dict() for p in soa.phases] == [p.as_dict() for p in obj.phases]
    assert soa.trace.records == obj.trace.records
    assert soa.trace.reconfigurations == obj.trace.reconfigurations
    assert soa.final_assignment == obj.final_assignment
    assert soa.messages_delivered == obj.messages_delivered
    assert (soa.migrations, soa.recoveries, soa.repairs) == (
        obj.migrations, obj.recoveries, obj.repairs
    )
    assert soa.quiesced_at == obj.quiesced_at


BULK_RUNS = {
    "setup": dict(iterations=0),
    "dense": dict(),
    "sparse": dict(activation="sparse", converge="quiescence", iterations=40),
    "hybrid": dict(execution="hybrid", converge="quiescence", iterations=40),
}


@pytest.mark.parametrize("mode", sorted(BULK_RUNS))
def test_a_bulk_run_equals_the_twin(mode):
    assert_identical(run("object", **BULK_RUNS[mode]), run("soa", **BULK_RUNS[mode]))


@pytest.mark.parametrize("mode", sorted(BULK_RUNS))
def test_a_bulk_run_makes_no_per_node_object(records_made, mode):
    run("soa", **BULK_RUNS[mode])
    assert records_made == {}
    run("object", iterations=1)
    assert records_made["rows"] > 0  # the counter sees the list store's


# Runs whose surgery, repair or restore edits the layout and the records,
# with the result field that shows it happened.
SURGERY_RUNS = {
    "migration": (
        dict(partition=skewed(), iterations=30, dynamic_load_balancing=True, lb_period=4),
        "migrations",
    ),
    "integrity-full": (
        dict(integrity="full", faults=f"seed=11,flip=1@4:{boundary_gid(1)}"),
        "repairs",
    ),
    "crash-rollback": (dict(checkpoint_period=3, faults="seed=3,crash=2@5"), "recoveries"),
}


@pytest.mark.parametrize("case", sorted(SURGERY_RUNS))
def test_a_surgery_run_equals_the_twin(case):
    kwargs, happened = SURGERY_RUNS[case]
    soa = run("soa", validate_each_iteration=True, **kwargs)
    assert getattr(soa, happened)
    assert_identical(run("object", validate_each_iteration=True, **kwargs), soa)


@pytest.mark.parametrize("case", sorted(SURGERY_RUNS))
def test_a_surgery_run_makes_no_per_node_object(records_made, case):
    kwargs, happened = SURGERY_RUNS[case]
    assert getattr(run("soa", validate_each_iteration=True, **kwargs), happened)
    assert records_made == {}


def test_the_layout_and_record_calls_make_no_per_node_object(records_made):
    """Every layout and gid-level record call, and each surgery, answered
    from the columns: equal to the list store's, with no sweep row made."""
    assignment = list(PARTITION.assignment)
    eager = NodeStore(1, GRAPH, list(assignment), float)
    made = records_made["rows"]
    assert made == 0  # a build resolves no row either
    store = SoAStore(1, GRAPH, list(assignment), float)
    gid = boundary_gid(1)
    shadow = next(v for v in GRAPH.neighbors(gid) if assignment[v - 1] != 1)
    for each in (store, eager):
        each.set_value(gid, 0.5)
        each.ensure_record(shadow, 9.0, version=2)
        each.assignment[gid - 1] = 0
        each.release_node(gid)
        each.refresh_ownership()
    assert store.owned_gids() == eager.owned_gids()
    assert (store.num_owned(), store.num_internal()) == (eager.num_owned(), eager.num_internal())
    assert store.peripherals() == eager.peripherals()
    assert store.topology().classes[1].plan.dests == [procs for _, procs in eager.peripherals()]
    assert (store.num_records(), store.num_shadows()) == (eager.num_records(), eager.num_shadows())
    for v in (gid, shadow):
        assert (store.value_of(v), store.version_of(v)) == (eager.value_of(v), eager.version_of(v))
        assert store.shadow_procs(v) == eager.shadow_procs(v)
    assert store.owned_values() == eager.owned_values()
    snapshot = store.capture_state()
    assert snapshot == eager.capture_state()
    store.restore_state(snapshot)
    assert store.owned_gids() == eager.owned_gids()
    store.check_invariants()
    assert records_made["rows"] == made
