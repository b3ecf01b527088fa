"""Experiment runners: one function per family of the paper's tables/figures.

These are what the ``benchmarks/test_*.py`` suite calls (it pins each
rendering, with its exact cells, under ``benchmarks/results/``); they are
also directly usable from a REPL to regenerate any piece of the paper's
evaluation::

    from repro.bench import run_hex_table
    print(run_hex_table(64).render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..apps.average import COARSE_GRAIN, FINE_GRAIN, make_average_fn
from ..apps.battlefield import BattlefieldApp, general_engagement
from ..apps.imbalance import ImbalanceSchedule, make_imbalanced_average_fn
from ..core.config import PlatformConfig
from ..core.loadbalance import CentralizedHeuristicBalancer, GreedyPairBalancer
from ..core.phases import PHASE_NAMES, PhaseTimes
from ..core.platform import ICPlatform, PlatformResult
from ..graphs.generators import random_connected_graph
from ..graphs.graph import Graph
from ..graphs.hexgrid import hex32, hex64, hex96
from ..mpi.timing import ORIGIN2000, MachineModel
from ..partitioning.bands import (
    ColumnBandPartitioner,
    RectangularPartitioner,
    RowBandPartitioner,
)
from ..partitioning.base import Partitioner
from ..partitioning.graycode import GrayCodePartitioner
from ..partitioning.multilevel.kway import MetisLikePartitioner
from ..partitioning.pagrid import PaGridLikePartitioner
from ..partitioning.procgraph import ProcessorGraph
from .paperdata import PAPER_TABLES, PROCS
from .tables import ExperimentTable, SeriesFigure

__all__ = [
    "PROCS",
    "hex_graph",
    "run_average_once",
    "run_hex_table",
    "run_random_table",
    "run_speedup_figure",
    "run_metis_vs_pagrid",
    "run_static_vs_dynamic",
    "run_battlefield_table",
    "run_battlefield_speedups",
    "run_overheads",
    "battlefield_partitioners",
    "PERSISTENT_IMBALANCE",
]

#: Persistent-imbalance schedule used by the static-vs-dynamic figures: the
#: heavy half of the domain never moves, so the static partitioner's
#: blindness to node weights is on full display while the dynamic balancer
#: has time to diffuse load (see EXPERIMENTS.md for why the paper's literal
#: rolling schedule cannot be rebalanced by its own one-task migrations).
PERSISTENT_IMBALANCE = ImbalanceSchedule(
    windows=((10**9, 0.0, 0.5),), heavy_grain=COARSE_GRAIN, light_grain=FINE_GRAIN
)


def hex_graph(nodes: int) -> Graph:
    """The paper's hex grid of the given size (32, 64 or 96 nodes)."""
    if nodes == 32:
        return hex32()
    if nodes == 64:
        return hex64()
    if nodes == 96:
        return hex96()
    raise ValueError(f"the paper uses 32/64/96-node hex grids, got {nodes}")


def run_average_once(
    graph: Graph,
    nprocs: int,
    iterations: int,
    grain: float = FINE_GRAIN,
    partitioner: Partitioner | None = None,
    dynamic: bool = False,
    machine: MachineModel = ORIGIN2000,
    config_overrides: dict | None = None,
) -> PlatformResult:
    """One platform run of the neighbour-average application."""
    partitioner = partitioner or MetisLikePartitioner(seed=1)
    partition = partitioner.partition(graph, nprocs)
    config = PlatformConfig(
        iterations=iterations,
        dynamic_load_balancing=dynamic,
        **(config_overrides or {}),
    )
    platform = ICPlatform(graph, make_average_fn(grain), config=config)
    return platform.run(partition, machine=machine)


def _table(
    experiment_id: str,
    title: str,
    graphs: Sequence[Graph],
    iterations_list: Sequence[int],
    procs: Sequence[int],
    grain: float,
    partitioner: Partitioner,
    machine: MachineModel,
    row_label: str = "Iterations",
) -> ExperimentTable:
    """Shared machinery: average elapsed over the given graphs per cell."""
    rows: dict[int, list[float]] = {}
    partitions = {
        (id(g), p): partitioner.partition(g, p) for g in graphs for p in procs
    }
    for iters in iterations_list:
        row = []
        for p in procs:
            total = 0.0
            for g in graphs:
                config = PlatformConfig(iterations=iters)
                platform = ICPlatform(g, make_average_fn(grain), config=config)
                total += platform.run(partitions[(id(g), p)], machine=machine).elapsed
            row.append(total / len(graphs))
        rows[iters] = row
    return ExperimentTable(
        experiment_id=experiment_id,
        title=title,
        row_label=row_label,
        procs=procs,
        rows=rows,
        paper=PAPER_TABLES.get(experiment_id),
    )


def run_hex_table(
    nodes: int,
    iterations_list: Sequence[int] = (10, 15, 20),
    procs: Sequence[int] = PROCS,
    grain: float = FINE_GRAIN,
    seed: int = 1,
    machine: MachineModel = ORIGIN2000,
) -> ExperimentTable:
    """Tables 2/3/4: runtimes on hexagonal grids (Metis, fine grain)."""
    return _table(
        experiment_id=f"table{ {32: 2, 64: 3, 96: 4}[nodes] }_hex{nodes}",
        title=f"Execution time (s) on {nodes}-node hexagonal grids",
        graphs=[hex_graph(nodes)],
        iterations_list=iterations_list,
        procs=procs,
        grain=grain,
        partitioner=MetisLikePartitioner(seed=seed),
        machine=machine,
    )


def run_random_table(
    nodes: int,
    iterations_list: Sequence[int] = (10, 15, 20),
    procs: Sequence[int] = PROCS,
    grain: float = FINE_GRAIN,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    machine: MachineModel = ORIGIN2000,
) -> ExperimentTable:
    """Tables 5/6: runtimes on random graphs, averaged over several graphs
    (the paper averages five)."""
    graphs = [
        random_connected_graph(nodes, avg_degree=4.0, seed=s, name=f"rand{nodes}-s{s}")
        for s in seeds
    ]
    return _table(
        experiment_id=f"table{ {32: 5, 64: 6}[nodes] }_rand{nodes}",
        title=f"Execution time (s) on {nodes}-node random graphs "
        f"(mean of {len(seeds)} graphs)",
        graphs=graphs,
        iterations_list=iterations_list,
        procs=procs,
        grain=grain,
        partitioner=MetisLikePartitioner(seed=1),
        machine=machine,
    )


def run_speedup_figure(
    tables: Sequence[ExperimentTable],
    iterations: int = 20,
    experiment_id: str = "fig_speedup",
    title: str = "Speed-up plots for static partition",
) -> SeriesFigure:
    """Figures 11/16: speedups derived from runtime tables."""
    if not tables:
        raise ValueError("need at least one table")
    fig = SeriesFigure(
        experiment_id=experiment_id, title=title, procs=list(tables[0].procs)
    )
    for table in tables:
        fig.add(table.title.split(" on ")[-1], table.speedups(iterations))
    return fig


def run_metis_vs_pagrid(
    graph: Graph,
    procs: Sequence[int] = PROCS,
    iterations: int = 20,
    rref: float = 0.45,
    seed: int = 1,
    machine: MachineModel = ORIGIN2000,
    experiment_id: str = "fig12_metis_vs_pagrid",
    topology_aware: bool = True,
) -> SeriesFigure:
    """Figures 12/17: Metis vs PaGrid speedups, fine and coarse grain.

    PaGrid maps onto a hypercube processor graph (the paper's setup) with
    the published ``Rref = 0.45``.  With ``topology_aware`` (default) every
    run -- both partitioners -- executes on a hypercube-topology machine
    model (per-hop latency), which is what lets PaGrid's mapping quality
    show up as runtime, exactly as on the real Origin-2000.
    """
    from ..mpi.timing import TopologyMachineModel

    fig = SeriesFigure(
        experiment_id=experiment_id,
        title=f"Metis vs PaGrid, fine/coarse grain on {graph.name}",
        procs=list(procs),
    )

    def machine_for(p: int) -> MachineModel:
        if not topology_aware or p == 1:
            return machine
        return TopologyMachineModel.wrap(machine, ProcessorGraph.hypercube(p))

    for grain, grain_label in ((FINE_GRAIN, "fine"), (COARSE_GRAIN, "coarse")):
        for maker, name in (
            (lambda p: MetisLikePartitioner(seed=seed), "metis"),
            (
                lambda p: PaGridLikePartitioner(
                    ProcessorGraph.hypercube(p), rref=rref, seed=seed
                ),
                "pagrid",
            ),
        ):
            times = []
            for p in procs:
                partitioner = (
                    MetisLikePartitioner(seed=seed) if p == 1 else maker(p)
                )
                result = run_average_once(
                    graph, p, iterations, grain=grain,
                    partitioner=partitioner, machine=machine_for(p),
                )
                times.append(result.elapsed)
            base = times[list(procs).index(1)] if 1 in procs else times[0]
            fig.add(f"{grain_label}-{name}", [base / t for t in times])
    return fig


def run_static_vs_dynamic(
    graph: Graph,
    procs: Sequence[int] = PROCS,
    iterations: int = 60,
    lb_period: int = 10,
    schedule: ImbalanceSchedule = PERSISTENT_IMBALANCE,
    seed: int = 1,
    machine: MachineModel = ORIGIN2000,
    experiment_id: str = "fig13_static_vs_dynamic",
    include_greedy: bool = True,
) -> SeriesFigure:
    """Figures 13/14/15/18/19: static partition vs dynamic load balancing.

    Three series: the static partition, the thesis's centralized heuristic
    (one task per busy-idle pair), and -- as the extension its section 7
    proposes -- a greedy balancer.  Values are speedups over the
    single-processor run of the same (imbalanced) workload.
    """
    partitioner = MetisLikePartitioner(seed=seed)
    node_fn = make_imbalanced_average_fn(schedule)
    fig = SeriesFigure(
        experiment_id=experiment_id,
        title=f"Static vs dynamic partitioning on {graph.name} "
        f"({iterations} iterations, LB every {lb_period})",
        procs=list(procs),
    )

    def elapsed(p: int, dynamic: bool, balancer=None) -> float:
        partition = partitioner.partition(graph, p)
        config = PlatformConfig(
            iterations=iterations,
            dynamic_load_balancing=dynamic,
            lb_period=lb_period,
        )
        platform = ICPlatform(graph, node_fn, config=config, balancer=balancer)
        return platform.run(partition, machine=machine).elapsed

    static_times = [elapsed(p, dynamic=False) for p in procs]
    base = static_times[list(procs).index(1)] if 1 in procs else static_times[0]
    fig.add("static", [base / t for t in static_times])
    centralized = [
        elapsed(p, dynamic=True, balancer=CentralizedHeuristicBalancer()) for p in procs
    ]
    fig.add("dynamic-centralized", [base / t for t in centralized])
    if include_greedy:
        greedy = [
            elapsed(p, dynamic=True, balancer=GreedyPairBalancer(0.25)) for p in procs
        ]
        fig.add("dynamic-greedy", [base / t for t in greedy])
    return fig


def battlefield_partitioners(rows: int = 32, cols: int = 32, seed: int = 0):
    """The five initial-partitioning schemes of section 5.3, by name."""
    return {
        "metis": MetisLikePartitioner(seed=seed, trials=4),
        "bf": GrayCodePartitioner(rows, cols),
        "rowband": RowBandPartitioner(rows, cols),
        "colband": ColumnBandPartitioner(rows, cols),
        "rectband": RectangularPartitioner(rows, cols),
    }


_BF_TABLE_IDS = {
    "metis": "table7_bf_metis",
    "bf": "table8_bf_graycode",
    "rowband": "table9_bf_rowband",
    "colband": "table10_bf_colband",
    "rectband": "table11_bf_rectband",
}


def run_battlefield_table(
    scheme: str,
    steps_list: Sequence[int] = (5, 15, 25),
    procs: Sequence[int] = PROCS,
    machine: MachineModel = ORIGIN2000,
    app: BattlefieldApp | None = None,
) -> ExperimentTable:
    """Tables 7-11: battlefield runtimes under one partitioning scheme."""
    app = app or BattlefieldApp(general_engagement())
    graph = app.graph()
    partitioner = battlefield_partitioners()[scheme]
    rows: dict[int, list[float]] = {}
    partitions = {p: partitioner.partition(graph, p) for p in procs}
    for steps in steps_list:
        row = []
        for p in procs:
            platform = ICPlatform(
                graph,
                app.node_fns(),
                init_value=app.init_value,
                config=app.platform_config(steps=steps),
            )
            row.append(platform.run(partitions[p], machine=machine).elapsed)
        rows[steps] = row
    experiment_id = _BF_TABLE_IDS[scheme]
    return ExperimentTable(
        experiment_id=experiment_id,
        title=f"Battlefield simulator, {scheme} partition",
        row_label="Simulation Steps",
        procs=procs,
        rows=rows,
        paper=PAPER_TABLES.get(experiment_id),
    )


def run_battlefield_speedups(
    steps: int = 25,
    procs: Sequence[int] = PROCS,
    machine: MachineModel = ORIGIN2000,
    schemes: Sequence[str] = ("metis", "bf", "rowband", "colband", "rectband"),
) -> SeriesFigure:
    """Figure 20: battlefield speedups across the five partitioners."""
    app = BattlefieldApp(general_engagement())
    fig = SeriesFigure(
        experiment_id="fig20_battlefield_speedup",
        title=f"Battlefield speedups, {steps} steps",
        procs=list(procs),
    )
    for scheme in schemes:
        table = run_battlefield_table(
            scheme, steps_list=(steps,), procs=procs, machine=machine, app=app
        )
        fig.add(scheme, table.speedups(steps))
    return fig


@dataclass
class OverheadResult:
    """Figures 21/22: mean per-rank phase breakdowns per processor count."""

    experiment_id: str
    title: str
    procs: Sequence[int]
    phases: dict[int, PhaseTimes]

    def cells(self) -> dict[str, list[float]]:
        """``phase -> [seconds per processor count]``, the measured cells."""
        return {
            name: [getattr(self.phases[p], name) for p in self.procs]
            for name in PHASE_NAMES
        }

    def render(self) -> str:
        lines = [self.title, "-" * len(self.title)]
        header = "phase".ljust(26) + "".join(f"p={p}".ljust(12) for p in self.procs)
        lines.append(header)
        for name, row in self.cells().items():
            cells = [f"{seconds * 1e3:.2f}ms" for seconds in row]
            lines.append(name.ljust(26) + "".join(c.ljust(12) for c in cells))
        return "\n".join(lines)


def run_overheads(
    graph: Graph,
    procs: Sequence[int] = (2, 4, 8, 16),
    iterations: int = 35,
    lb_period: int = 10,
    grain: float = FINE_GRAIN,
    seed: int = 1,
    machine: MachineModel = ORIGIN2000,
    experiment_id: str = "fig21_overheads",
) -> OverheadResult:
    """Figures 21/22: per-phase overheads (35 iterations, LB every 10)."""
    partitioner = MetisLikePartitioner(seed=seed)
    phases: dict[int, PhaseTimes] = {}
    for p in procs:
        result = run_average_once(
            graph,
            p,
            iterations,
            grain=grain,
            partitioner=partitioner,
            dynamic=True,
            machine=machine,
            config_overrides={"lb_period": lb_period},
        )
        phases[p] = result.mean_phases
    return OverheadResult(
        experiment_id=experiment_id,
        title=f"Phase overheads on {graph.name} ({iterations} iterations)",
        procs=list(procs),
        phases=phases,
    )
