"""The five benchmark workloads.

Each builder turns ``(seed, iterations)`` into a :class:`Problem`:
everything ``ICPlatform`` needs, with every :class:`PlatformConfig` field
that selects a code path set explicitly (``REPRO_*`` variables are also
scrubbed from the sample's environment).  The program under test only ever
sees the generated graph, partition and initial values.

The seed varies the *inputs* but not the *amount of work*, so that runs on
different seeds measure the same thing: graphs and partitions are fixed and
the seed draws the initial node values (a dense fixed-length sweep costs the
same whatever the values are, and the quantised fixed point is reached
within 1 % of the same sweep count from any nearby start) -- on the
battlefield, whose initial state is the scenario, the deployed strength per
hex.  Seeding the random graph or the Metis bisection instead was measured
and rejected: message counts moved by 14 % and inner sweeps by 10 % between
seeds (7 % on the battlefield), which is wider than the gains this
benchmark has to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

# numpy and repro are imported inside the builders: a sample reads this
# table first, pins its CPUs, and only then pays (and times) those imports.

#: Fixed-point tolerance of ``fixedpoint_hybrid`` (quantize=4 residual).
RESIDUAL_TOL = 1e-4

#: Superstep cap of ``fixedpoint_hybrid``: hybrid execution quiesces after
#: about 170 supersteps (BSP after 503), so hitting the cap is a failure.
FIXEDPOINT_CAP = 400

#: Graph/partitioner seed of every workload (``--seed`` draws values).
STRUCTURE_SEED = 0


@dataclass
class Problem:
    """One workload instance, ready for ``ICPlatform(...).run(...)``."""

    graph: Any
    partition: Any
    node_fns: tuple[Callable, ...]
    init_value: Callable[[int], Any]
    config: Any  # PlatformConfig
    scheduler: str
    balancer: Any = None
    #: Live checks on a finished run: ``result -> list of failure strings``.
    check: Callable[[Any], list[str]] = field(default=lambda result: [])
    #: Wall seconds spent in the graph constructor / ``Partitioner.partition``.
    build_s: float = 0.0
    partition_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: ``"one"`` pins the sample to a single CPU (the event scheduler runs
    #: one rank thread at a time; unpinned, its baton hand-off crosses
    #: CPUs and the sample measures futex wake-ups); ``"all"`` leaves every
    #: usable CPU to the worker processes.
    cpus: str
    iterations: int
    build: Callable[[int, int], Problem]


#: Every path-selecting switch, spelled out (never left to a default or
#: to the environment); a workload overrides the ones it is about.
EXPLICIT_SWITCHES = dict(
    store="object",
    execution="bsp",
    activation="dense",
    converge="fixed",
    overlap_communication=False,
    dynamic_load_balancing=False,
    checkpoint_period=0,
    integrity="off",
    track_trace=False,
)


def _config(**overrides: Any) -> Any:
    from repro.core import PlatformConfig

    return PlatformConfig(**{**EXPLICIT_SWITCHES, **overrides})


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``(fn(), wall seconds it took)``."""
    start = perf_counter_ns()
    out = fn()
    return out, (perf_counter_ns() - start) / 1e9


def _seeded_field(seed: int, count: int, lo: float, hi: float) -> list[float]:
    """``count`` initial values in ``[lo, hi)``, 4 decimals (quantize grid)."""
    import numpy as np

    return np.random.default_rng(seed).uniform(lo, hi, count).round(4).tolist()


def _seeded_plate(seed: int, side: int, lo: float, hi: float):
    """Hot-edge ``side`` x ``side`` plate whose interior starts from seeded
    values in ``[lo, hi)``: ``(graph, boundary, init_value, build_s)``."""
    from repro.apps.diffusion import hot_edge_plate

    (graph, boundary, _), build_s = timed(lambda: hot_edge_plate(side, side))
    interior = _seeded_field(seed, graph.num_nodes, lo, hi)

    def init_value(gid: int) -> float:
        pinned = boundary.get(gid)
        return interior[gid - 1] if pinned is None else pinned

    return graph, boundary, init_value, build_s


def _plate320(seed: int, iterations: int, scheduler: str) -> Problem:
    from repro.apps.diffusion import make_jacobi_fn
    from repro.partitioning import RowBandPartitioner

    side = 320
    graph, boundary, init_value, build_s = _seeded_plate(seed, side, 25.0, 75.0)
    partition, partition_s = timed(
        lambda: RowBandPartitioner(side, side).partition(graph, 4)
    )
    return Problem(
        graph=graph,
        partition=partition,
        node_fns=(make_jacobi_fn(boundary, quantize=None),),
        init_value=init_value,
        config=_config(iterations=iterations, store="soa", hash_table_length=4096),
        scheduler=scheduler,
        build_s=build_s,
        partition_s=partition_s,
    )


def _fixedpoint_hybrid(seed: int, iterations: int) -> Problem:
    from repro.apps.diffusion import make_jacobi_fn, residual
    from repro.partitioning import MetisLikePartitioner

    graph, boundary, init_value, build_s = _seeded_plate(seed, 16, 45.0, 55.0)
    partition, partition_s = timed(
        lambda: MetisLikePartitioner(seed=STRUCTURE_SEED).partition(graph, 2)
    )
    to_fixed_point = iterations >= FIXEDPOINT_CAP  # --quick stops long before it

    def check(result: Any) -> list[str]:
        if not to_fixed_point:
            return []
        failures = []
        if result.quiesced_at is None:
            failures.append("did not quiesce")
        worst = residual(graph, result.values, boundary)
        if worst > RESIDUAL_TOL:
            failures.append(f"residual {worst:.3g} > {RESIDUAL_TOL}")
        return failures

    return Problem(
        graph=graph,
        partition=partition,
        node_fns=(make_jacobi_fn(boundary, quantize=4),),
        init_value=init_value,
        config=_config(
            iterations=iterations,
            store="soa",
            execution="hybrid",
            hybrid_inner_cap=64,
            converge="quiescence",
        ),
        scheduler="event",
        check=check,
        build_s=build_s,
        partition_s=partition_s,
    )


def _rand64_np16_ctrl(seed: int, iterations: int) -> Problem:
    from repro.apps.imbalance import make_imbalanced_average_fn
    from repro.core import CentralizedHeuristicBalancer
    from repro.graphs import random_connected_graph
    from repro.partitioning import MetisLikePartitioner

    graph, build_s = timed(
        lambda: random_connected_graph(64, avg_degree=4.0, seed=STRUCTURE_SEED)
    )
    partition, partition_s = timed(
        lambda: MetisLikePartitioner(seed=STRUCTURE_SEED).partition(graph, 16)
    )
    values = _seeded_field(seed, graph.num_nodes, 0.0, 64.0)
    config = _config(
        iterations=iterations,
        dynamic_load_balancing=True,
        lb_period=10,
        checkpoint_period=50,
        integrity="digest",
    )
    return Problem(
        graph=graph,
        partition=partition,
        node_fns=(make_imbalanced_average_fn(),),
        init_value=lambda gid: values[gid - 1],
        config=config,
        scheduler="event",
        balancer=CentralizedHeuristicBalancer(config.lb_threshold),
        build_s=build_s,
        partition_s=partition_s,
    )


def _battlefield1024(seed: int, iterations: int) -> Problem:
    from repro.apps.battlefield import BattlefieldApp, general_engagement
    from repro.partitioning import MetisLikePartitioner

    (strength,) = _seeded_field(seed, 1, 7.0, 8.0)
    app = BattlefieldApp(general_engagement(strength_per_hex=strength))
    graph, build_s = timed(app.graph)
    partition, partition_s = timed(
        lambda: MetisLikePartitioner(seed=STRUCTURE_SEED, trials=4).partition(graph, 8)
    )
    config = app.platform_config(steps=iterations, **EXPLICIT_SWITCHES)
    return Problem(
        graph=graph,
        partition=partition,
        node_fns=app.node_fns(),
        init_value=app.init_value,
        config=config,
        scheduler="event",
        build_s=build_s,
        partition_s=partition_s,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "plate320_event", "one", 60,
            lambda seed, iterations: _plate320(seed, iterations, "event"),
        ),
        Workload(
            "plate320_process", "all", 60,
            lambda seed, iterations: _plate320(seed, iterations, "process"),
        ),
        Workload("fixedpoint_hybrid", "one", FIXEDPOINT_CAP, _fixedpoint_hybrid),
        Workload("rand64_np16_ctrl", "one", 1000, _rand64_np16_ctrl),
        Workload("battlefield1024", "one", 80, _battlefield1024),
    )
}
