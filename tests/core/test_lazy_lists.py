"""The struct-of-arrays store makes no per-node Python object until asked.

``SoAStore``'s build fills the columns and keeps a sweep-order layout: the
owned gids (internal nodes first, each class ascending), the internal
count, and each peripheral node's ``shadow_for_procs``.  Its ``internal`` /
``peripheral`` lists of :class:`~repro.core.node.OwnNode` are made on the
first access to them, and an ``_ArrayRecord`` proxy on the first access to
its gid.  A bulk run reads only the layout and the columns, so it makes
neither, under dense, sparse and hybrid execution alike.  Runs that reach
for them -- migration, integrity repair, crash and rollback -- make them
mid-run and must still equal the scalar twin on the object store.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, NodeStore, PlatformConfig, SoAStore
from repro.core.node import OwnNode
from repro.core.soastore import _ArrayRecord
from repro.graphs import hex_grid
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner, Partition

from ..twins import on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

GRAPH = hex_grid(16, 16)
PARTITION = MetisLikePartitioner(seed=0).partition(GRAPH, 4)


@pytest.fixture
def constructed(monkeypatch):
    """``class name -> instances constructed`` for ``OwnNode`` and
    ``_ArrayRecord``, counted from here on."""
    counts: Counter[str] = Counter()

    def counting(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)

        return __init__

    for cls in (OwnNode, _ArrayRecord):
        monkeypatch.setattr(cls, "__init__", counting(cls))
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
def test_a_bulk_run_makes_no_per_node_object(constructed, mode):
    soa = run("soa", **BULK_RUNS[mode])
    assert constructed == {}
    assert_identical(run("object", **BULK_RUNS[mode]), soa)
    assert constructed["OwnNode"] > 0  # the counter sees the object store's


# Runs whose surgery, repair or restore reads the lists and the records,
# with the result field that shows it happened.
MATERIALISING_RUNS = {
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


@pytest.mark.parametrize("case", sorted(MATERIALISING_RUNS))
def test_a_run_that_makes_the_lists_still_equals_the_twin(constructed, case):
    kwargs, happened = MATERIALISING_RUNS[case]
    soa = run("soa", validate_each_iteration=True, **kwargs)
    assert getattr(soa, happened)
    assert constructed["OwnNode"] > 0
    assert_identical(run("object", validate_each_iteration=True, **kwargs), soa)


def test_the_lists_are_made_once_on_first_access(constructed):
    store = SoAStore(1, GRAPH, list(PARTITION.assignment), float)
    eager = NodeStore(1, GRAPH, list(PARTITION.assignment), float)
    made = constructed["OwnNode"]
    assert made == eager.num_owned() and constructed["_ArrayRecord"] == 0
    # Answered from the layout.
    assert store.owned_gids() == eager.owned_gids()
    assert store.num_owned() == eager.num_owned()
    assert store.num_internal() == eager.num_internal()
    assert store.num_shadows() == eager.num_shadows()
    assert store.bulk_topology().plan.dests == [
        n.shadow_for_procs for n in eager.peripheral.values()
    ]
    assert store.owned_values() == eager.owned_values()
    assert constructed["OwnNode"] == made and constructed["_ArrayRecord"] == 0
    # The first reader makes both lists, with a proxy per owned node only.
    assert list(store.peripheral) == list(eager.peripheral)
    assert constructed["OwnNode"] == 2 * made
    assert constructed["_ArrayRecord"] == eager.num_owned()
    assert list(store.internal) == list(eager.internal)
    assert [n.global_id for n in store.owned_nodes()] == eager.owned_gids()
    assert constructed["OwnNode"] == 2 * made
    store.check_invariants()
