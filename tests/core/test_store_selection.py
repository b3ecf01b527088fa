"""The node functions and the graph's size pick the store.

When every node function ships a bulk kernel (``fn.bulk``) and the ranks
average at least ``BULK_MIN_NODES_PER_RANK`` nodes, each rank keeps a
struct-of-arrays store and sweeps through the kernel; otherwise it keeps one
record per node and sweeps node by node.  No option, environment variable
or config field moves that choice: ``PlatformConfig.store`` and
``hash_table_length`` are accepted and ignored.  The data node list is the
only record index -- neither store keeps a hash table beside it.
"""

from __future__ import annotations

import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

from repro.apps.average import make_average_fn
from repro.apps.imbalance import make_imbalanced_average_fn
from repro.core import ICPlatform, NodeStore, PlatformConfig, SoAStore, compute
from repro.core.platform import BULK_MIN_NODES_PER_RANK, _RankRun
from repro.graphs import hex32, hex64, hex_grid
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

from ..twins import scalar_twin

WORKLOADS_PY = Path(__file__).parents[2] / "benchmarks" / "perf" / "workloads.py"


def _recording(cls: type, seen: set) -> type:
    class Recording(cls):
        def __init__(self, store, *args, **kwargs):
            seen.add((cls.__name__, type(store).__name__))
            super().__init__(store, *args, **kwargs)

    return Recording


@pytest.fixture
def sweeps(monkeypatch) -> set:
    """``(phases class, store class)`` of every sweep the runs make."""
    seen: set = set()
    for name in ("_BulkPhases", "_ScalarPhases"):
        monkeypatch.setattr(compute, name, _recording(getattr(compute, name), seen))
    return seen


def run(node_fns, graph=None, nprocs=4, **overrides):
    graph = graph or hex_grid(16, 16)  # 64 nodes a rank
    partition = MetisLikePartitioner(seed=0).partition(graph, nprocs)
    rounds = 1 if callable(node_fns) else len(node_fns)
    config = PlatformConfig(iterations=4, comm_rounds=rounds, track_trace=True, **overrides)
    return ICPlatform(graph, node_fns, init_value=float, config=config).run(partition)


def test_a_kernel_runs_on_the_soa_store_through_its_kernel(sweeps):
    run(make_average_fn(1e-4))
    assert sweeps == {("_BulkPhases", "SoAStore")}


@pytest.mark.parametrize(
    "graph, nprocs, vectorized",
    [
        (hex_grid(16, 16), 4, True),
        (hex_grid(16, 16), 5, False),
        (hex64(), 1, True),
        (hex64(), 2, False),
        (hex32(), 1, False),
    ],
    ids=["256-on-4", "256-on-5", "hex64-on-1", "hex64-on-2", "hex32-on-1"],
)
def test_a_kernel_vectorizes_only_with_enough_nodes_a_rank(sweeps, graph, nprocs, vectorized):
    """Under ``BULK_MIN_NODES_PER_RANK`` nodes a rank the arrays' fixed
    per-sweep costs outweigh the vectorized work (the paper's hex tables,
    the CLI's default graph), so a kernel sweeps node by node there."""
    assert BULK_MIN_NODES_PER_RANK == 64
    kernel = make_average_fn(1e-4)
    platform = ICPlatform(graph, kernel)
    assert platform.vectorized(nprocs) is vectorized
    assert not ICPlatform(graph, scalar_twin(kernel)).vectorized(nprocs)
    run(kernel, graph=graph, nprocs=nprocs)
    expected = ("_BulkPhases", "SoAStore") if vectorized else ("_ScalarPhases", "NodeStore")
    assert sweeps == {expected}


@pytest.mark.parametrize(
    "node_fn",
    [scalar_twin(make_average_fn(1e-4)), make_imbalanced_average_fn()],
    ids=["twin", "imbalance"],
)
def test_a_function_without_kernel_runs_node_by_node_on_the_object_store(sweeps, node_fn):
    run(node_fn)
    assert sweeps == {("_ScalarPhases", "NodeStore")}


def test_one_function_without_kernel_takes_the_whole_run_to_the_object_store(sweeps):
    kernel = make_average_fn(1e-4)
    run((kernel, scalar_twin(kernel)))
    assert sweeps == {("_ScalarPhases", "NodeStore")}


def test_the_twin_drops_only_the_kernel():
    kernel = make_average_fn(1e-4)
    twin = scalar_twin(kernel)
    assert callable(kernel.bulk) and not hasattr(twin, "bulk")


@pytest.mark.parametrize(
    "ignored",
    [
        {"store": "object"},
        {"store": "soa"},
        {"hash_table_length": 4096},
        {"store": "columnar", "hash_table_length": 1},
    ],
    ids=["object", "soa", "4096-buckets", "anything"],
)
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "twin"])
def test_store_fields_change_nothing(sweeps, ignored, kernel):
    node_fn = make_average_fn(1e-4)
    if not kernel:
        node_fn = scalar_twin(node_fn)
    reference = pickle.dumps(run(node_fn))
    chosen = set(sweeps)
    sweeps.clear()
    assert pickle.dumps(run(node_fn, **ignored)) == reference
    assert sweeps == chosen


@pytest.mark.parametrize(
    "rebuild",
    [
        dict(checkpoint_period=3, recovery_policy="shrink", faults="seed=3,crash=2@5"),
        dict(dynamic_load_balancing=True, lb_period=4, rebalance_mode="repartition"),
    ],
    ids=["shrink", "repartition"],
)
@pytest.mark.parametrize(
    "kernel, store_cls", [(True, SoAStore), (False, NodeStore)], ids=["kernel", "twin"]
)
def test_a_rebuilt_store_keeps_the_derived_class(
    monkeypatch, vectorize_any_size, rebuild, kernel, store_cls
):
    """A shrink recovery and a repartition build every rank a new store of
    its old store's class, so a run never changes store mid-way."""
    built: list[type] = []
    init = NodeStore.__init__

    def recording(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(NodeStore, "__init__", recording)
    node_fn = make_average_fn(1e-4)
    if not kernel:
        node_fn = scalar_twin(node_fn)
    overrides = dict(rebuild)
    faults = overrides.pop("faults", None)
    graph = hex32()
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    config = PlatformConfig(iterations=12, **overrides)
    result = ICPlatform(graph, node_fn, config=config).run(
        partition, faults=FaultPlan.parse(faults) if faults else None, scheduler="event"
    )
    assert result.dead_ranks or result.repartitions
    assert len(built) > 4 and set(built) == {store_cls}


def _workloads():
    spec = importlib.util.spec_from_file_location("perf_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize(
    "name, store_cls",
    [
        ("plate320_event", SoAStore),
        ("plate320_process", SoAStore),
        ("fixedpoint_hybrid", SoAStore),
        ("rand64_np16_ctrl", NodeStore),
        ("battlefield1024", NodeStore),
    ],
)
def test_each_benchmark_workload_keeps_its_store(monkeypatch, name, store_cls):
    """The store each benchmark workload's functions pick is the one its
    (ignored) explicit ``store=`` names, so every workload runs the code it
    ran when that field still chose."""
    problem = _workloads()[name].build(0, 0)
    assert {"soa": SoAStore, "object": NodeStore}[problem.config.store] is store_cls
    built: list[type] = []
    init = _RankRun.init

    def recording(self, partition):
        init(self, partition)
        built.append(type(self.store))

    monkeypatch.setattr(_RankRun, "init", recording)
    platform = ICPlatform(
        problem.graph, problem.node_fns, init_value=problem.init_value, config=problem.config
    )
    platform.run(problem.partition, scheduler="event")
    assert built and set(built) == {store_cls}


@pytest.mark.parametrize("store_cls", [NodeStore, SoAStore])
def test_the_data_node_list_is_the_only_index(store_cls):
    graph = hex32()
    assignment = list(MetisLikePartitioner(seed=0).partition(graph, 2).assignment)
    store = store_cls(0, graph, assignment, float)
    assert not hasattr(store, "hash_table")
    snapshot = store.capture_state()
    # The bucket count rides in the snapshot only for its pickled size;
    # restoring reads nothing from it.
    del snapshot["hash_table_length"]
    store.set_halted(next(iter(store.data_records)))
    store.restore_state(snapshot)
    assert store.halted_gids() == []
    restored = store.capture_state()
    assert restored.pop("hash_table_length") == 64
    assert restored == snapshot
    store.check_invariants()
