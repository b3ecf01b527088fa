"""Command-line interface: the ``MPIFramework`` binary, reimagined.

The thesis drives its platform as::

    mpirun -np num_procs MPIFramework $program_graph

The equivalent here is::

    python -m repro run --graph 64_r_in.txt --np 16 --iterations 20

plus subcommands for the rest of the workflow:

* ``generate``  -- write application graphs in Chaco format,
* ``partition`` -- run a partitioner plug-in, write the node-to-processor
  mapping (the ``*_out_Np.txt`` files of Appendix A), print quality stats,
* ``run``       -- execute the neighbour-average workload on the platform,
* ``info``      -- inspect a graph file.

(The paper's tables and figures are regenerated by ``python -m pytest
benchmarks``, which also asserts them.)
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import NoReturn, Sequence

from .apps.average import COARSE_GRAIN, FINE_GRAIN, make_average_fn
from .apps.imbalance import PAPER_SCHEDULE, make_imbalanced_average_fn
from .core.config import CHOICES, ConfigError, PlatformConfig
from .core.loadbalance import (
    CentralizedHeuristicBalancer,
    DiffusionBalancer,
    GreedyPairBalancer,
)
from .core.platform import ICPlatform
from .graphs.chaco import read_chaco, read_partition, write_chaco, write_partition
from .graphs.generators import grid2d, random_connected_graph, torus2d
from .graphs.graph import Graph
from .graphs.hexgrid import HexGrid, hex_grid
from .mpi.errors import MPIError, UnsupportedBackendError
from .mpi.faults import FaultPlan
from .mpi.timing import ETHERNET_CLUSTER, IDEAL, ORIGIN2000
from .partitioning.bands import (
    ColumnBandPartitioner,
    RectangularPartitioner,
    RowBandPartitioner,
)
from .partitioning.base import Partition, Partitioner
from .partitioning.graycode import GrayCodePartitioner
from .partitioning.multilevel.kway import MetisLikePartitioner
from .partitioning.pagrid import PaGridLikePartitioner
from .partitioning.procgraph import ProcessorGraph
from .partitioning.simple import (
    BfsGreedyPartitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
)
from .partitioning.spectral import SpectralPartitioner

__all__ = ["main", "build_parser"]

_MACHINES = {
    "origin2000": ORIGIN2000,
    "ideal": IDEAL,
    "ethernet": ETHERNET_CLUSTER,
}

_BALANCERS = {
    "centralized": CentralizedHeuristicBalancer,
    "greedy": GreedyPairBalancer,
    "diffusion": DiffusionBalancer,
}


def _grid_dims(graph: Graph, rows: int | None, cols: int | None) -> tuple[int, int]:
    if rows and cols:
        if rows * cols != graph.num_nodes:
            raise SystemExit(
                f"--rows {rows} x --cols {cols} != {graph.num_nodes} graph nodes"
            )
        return rows, cols
    raise SystemExit("this partitioner needs --rows and --cols (grid geometry)")


def make_partitioner(
    scheme: str,
    nparts: int,
    seed: int,
    graph: Graph,
    rows: int | None = None,
    cols: int | None = None,
    rref: float = 0.45,
) -> Partitioner:
    """Instantiate a partitioner plug-in by name."""
    if scheme == "metis":
        return MetisLikePartitioner(seed=seed)
    if scheme == "pagrid":
        return PaGridLikePartitioner(ProcessorGraph.hypercube(nparts), rref=rref, seed=seed)
    if scheme == "spectral":
        return SpectralPartitioner(seed=seed)
    if scheme == "bfsgreedy":
        return BfsGreedyPartitioner(seed=seed)
    if scheme == "random":
        return RandomPartitioner(seed=seed)
    if scheme == "roundrobin":
        return RoundRobinPartitioner()
    if scheme in ("rowband", "colband", "rectband", "graycode"):
        r, c = _grid_dims(graph, rows, cols)
        return {
            "rowband": RowBandPartitioner,
            "colband": ColumnBandPartitioner,
            "rectband": RectangularPartitioner,
            "graycode": GrayCodePartitioner,
        }[scheme](r, c)
    raise SystemExit(f"unknown partitioner {scheme!r}")


PARTITIONER_CHOICES = (
    "metis", "pagrid", "spectral", "bfsgreedy", "random", "roundrobin",
    "rowband", "colband", "rectband", "graycode",
)


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #


def cmd_generate(args: argparse.Namespace) -> int:
    try:  # a generator names the size it cannot build
        if args.kind == "hex":
            graph = hex_grid(args.rows, args.cols)
        elif args.kind == "grid":
            graph = grid2d(args.rows, args.cols)
        elif args.kind == "torus":
            graph = torus2d(args.rows, args.cols)
        elif args.kind == "random":
            graph = random_connected_graph(args.nodes, avg_degree=args.degree, seed=args.seed)
        else:  # battlefield terrain
            graph = HexGrid(args.rows, args.cols).to_graph(name="battlefield")
    except ValueError as exc:
        _usage_error(str(exc), "generate")
    write_chaco(graph, args.output)
    print(
        f"wrote {args.output}: {graph.name} "
        f"({graph.num_nodes} vertices, {graph.num_edges} edges)"
    )
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    if args.np < 1:
        _usage_error(f"--np must be >= 1, got {args.np}", "partition")
    graph = _read_graph(args.graph, "partition")
    partitioner = make_partitioner(
        args.scheme, args.np, args.seed, graph, args.rows, args.cols, args.rref
    )
    partition = partitioner.partition(graph, args.np)
    write_partition(list(partition.assignment), args.output)
    loads = partition.loads()
    print(f"wrote {args.output}")
    print(f"  scheme       {partition.method}")
    print(f"  processors   {args.np}")
    print(f"  edge cut     {partition.edge_cut()}")
    print(f"  comm volume  {partition.communication_volume()}")
    print(f"  imbalance    {partition.imbalance():.3f} (loads {min(loads)}..{max(loads)})")
    if args.analyze:
        from .graphs.analysis import partition_summary

        print()
        print(partition_summary(graph, partition.assignment, args.np))
    return 0


def _usage_error(message: str, command: str = "run") -> NoReturn:
    """One line on stderr and exit code 2 -- argparse's own convention for a
    bad command line, not a traceback."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_graph(path: str, command: str, empty_ok: bool = False) -> Graph:
    """The ``--graph`` file, or the usage error saying why nothing can run
    on it: a missing, unreadable or malformed file, or (unless ``empty_ok``) a
    graph without vertices."""
    try:
        graph = read_chaco(path)
    except FileNotFoundError:
        _usage_error(f"--graph: no such file: {path}", command)
    except OSError as exc:
        _usage_error(f"--graph: {path}: {exc.strerror}", command)
    except ValueError as exc:
        _usage_error(f"--graph: {path}: {exc}", command)
    if graph.num_nodes == 0 and not empty_ok:
        _usage_error(f"--graph: {path} has no vertices", command)
    return graph


def cmd_run(args: argparse.Namespace) -> int:
    if args.np < 1:
        _usage_error(f"--np must be >= 1, got {args.np}")
    graph = _read_graph(args.graph, "run")
    if args.partition:
        try:
            partition = Partition.from_assignment(
                graph,
                read_partition(args.partition, num_nodes=graph.num_nodes),
                args.np,
                method="from-file",
            )
        except FileNotFoundError:
            _usage_error(f"--partition: no such file: {args.partition}")
        except ValueError as exc:  # wrong length, or a rank outside [0, np)
            _usage_error(f"--partition: {exc}")
    else:
        partitioner = make_partitioner(
            args.scheme, args.np, args.seed, graph, args.rows, args.cols, args.rref
        )
        partition = partitioner.partition(graph, args.np)

    grain = {"fine": FINE_GRAIN, "coarse": COARSE_GRAIN}[args.grain]
    if args.workload == "average":
        node_fn = make_average_fn(grain)
    else:  # the Figure-23 rolling imbalance
        node_fn = make_imbalanced_average_fn(PAPER_SCHEDULE)

    faults = None
    if args.faults:
        try:
            faults = FaultPlan.parse(args.faults)
            faults.validate_ranks(args.np)
        except ValueError as exc:  # names the bad clause
            _usage_error(f"--faults: {exc}")

    try:
        config = PlatformConfig(
            iterations=args.iterations,
            dynamic_load_balancing=args.dynamic,
            lb_period=args.lb_period,
            lb_threshold=args.lb_threshold,
            overlap_communication=args.overlap,
            rebalance_mode=args.rebalance_mode,
            checkpoint_period=args.checkpoint_period,
            recovery_policy=args.recovery,
            integrity=args.integrity,
            activation=args.activation,
            converge=args.converge,
            hybrid_inner_cap=args.hybrid_inner_cap,
            execution=args.execution,
        )
    except ConfigError as exc:
        # Any field that can arrive out of range is a flag of the same name
        # (argparse's choices= has vetted the enumerated ones already).
        _usage_error(f"--{exc.field.replace('_', '-')} {exc.problem}")
    # Seed node values as floats rather than the default int gids: the
    # averaging workloads produce floats after the first sweep either way,
    # and where the average kernel runs on the struct-of-arrays store (graphs
    # large enough for the rank count) it keeps its float64 fast path
    # instead of demoting to object dtype.
    platform = ICPlatform(
        graph, node_fn, init_value=lambda gid: float(gid), config=config,
        balancer=_BALANCERS[args.balancer](config.lb_threshold),
    )
    try:
        result = platform.run(
            partition,
            machine=_MACHINES[args.machine],
            faults=faults,
            scheduler=args.scheduler,
        )
    except UnsupportedBackendError as exc:
        # The host cannot run --scheduler process (no fork start method).
        _usage_error(f"--scheduler: {exc}")
    except MPIError as exc:
        # The simulated machine aborted the run (a message lost past its
        # retry budget, a deadlock): an outcome to report, not a crash.
        print(f"repro run: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"graph         {graph.name} ({graph.num_nodes} nodes)")
    print(f"partition     {partition.method} (cut {partition.edge_cut()})")
    print(f"processors    {args.np}")
    print(f"iterations    {result.iterations}")
    print(f"machine       {args.machine}")
    print(f"elapsed       {result.elapsed:.6f} virtual seconds")
    if platform.vectorized(args.np):
        print("store         soa (bulk kernels)")
    else:
        print("store         object")
    if config.execution != "bsp":
        print(f"execution     {config.execution} (inner cap {config.hybrid_inner_cap})")
        print(f"inner sweeps  {result.inner_sweeps} (summed over ranks)")
        print(f"barriers      {result.barriers}")
    if args.activation != "dense":
        print(f"activation    {args.activation}")
        print(f"messages      {result.messages_delivered} delivered")
    if args.converge == "quiescence":
        if result.quiesced_at is not None:
            saved = args.iterations - result.quiesced_at
            print(
                f"quiescence    reached at iteration {result.quiesced_at} "
                f"({saved} of {args.iterations} iterations saved)"
            )
        else:
            print(f"quiescence    not reached within {args.iterations} iterations")
    if args.dynamic:
        print(f"migrations    {len(result.migrations)}")
        if result.repartitions:
            print(f"repartitions  {result.repartitions}")
    if faults is not None:
        print(f"faults        {faults.describe()}")
        if result.fault_report is not None:
            print(f"fault report  {result.fault_report.summary()}")
        print(f"checkpoints   {result.checkpoints}")
        print(f"recoveries    {result.recoveries} (policy: {args.recovery})")
        if result.dead_ranks:
            survivors = args.np - len(result.dead_ranks)
            print(
                f"dead ranks    {list(result.dead_ranks)} "
                f"(finished on {survivors} survivors)"
            )
        for event in result.trace.reconfiguration_events():
            print(
                f"reconfigured  iter {event.iteration}: "
                f"{event.nodes_redistributed} nodes redistributed, "
                f"detect {event.detection_cost * 1e3:.3f}ms"
            )
    if args.integrity != "off":
        print(f"integrity     {args.integrity}")
        if result.repairs:
            print(f"repairs       {result.repairs} (surgical, from shadow replicas)")
        for event in result.trace.integrity_events():
            source = (
                f"replica on rank {event.replica}"
                if event.mode == "repair"
                else "checkpoint rollback"
            )
            print(
                f"corruption    iter {event.iteration}: node {event.gid} "
                f"on rank {event.owner} [{event.mode}] via {source}"
            )
    if args.phases:
        print("phase breakdown (mean per rank):")
        for name, seconds in result.mean_phases.as_dict().items():
            print(f"  {name:<24} {seconds * 1e3:9.3f} ms")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph, "info", empty_ok=True)
    degrees = [graph.degree(v) for v in graph.nodes()]
    print(f"graph      {graph.name}")
    print(f"vertices   {graph.num_nodes}")
    print(f"edges      {graph.num_edges}")
    if degrees:
        print(f"degree     min {min(degrees)}, max {max(degrees)}, "
              f"mean {sum(degrees) / len(degrees):.2f}")
    print(f"connected  {graph.is_connected()}")
    print(f"weighted   nodes={graph.has_node_weights}, edges={graph.has_edge_weights}")
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iC2mpi platform CLI (simulated-MPI reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an application graph (Chaco format)")
    gen.add_argument("--kind", choices=("hex", "grid", "torus", "random", "battlefield"),
                     default="hex")
    gen.add_argument("--rows", type=int, default=8)
    gen.add_argument("--cols", type=int, default=8)
    gen.add_argument("--nodes", type=int, default=64, help="random graphs only")
    gen.add_argument("--degree", type=float, default=4.0, help="random graphs only")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    gen.set_defaults(fn=cmd_generate)

    def add_partitioner_args(p):
        p.add_argument("--scheme", choices=PARTITIONER_CHOICES, default="metis")
        p.add_argument("--np", type=int, required=True, help="number of processors")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rows", type=int, help="grid geometry (band/graycode schemes)")
        p.add_argument("--cols", type=int)
        p.add_argument("--rref", type=float, default=0.45, help="PaGrid Rref")

    part = sub.add_parser("partition", help="partition a graph, write the mapping")
    part.add_argument("--graph", required=True)
    add_partitioner_args(part)
    part.add_argument("--output", required=True)
    part.add_argument("--analyze", action="store_true",
                      help="print the full partition diagnostics report")
    part.set_defaults(fn=cmd_partition)

    def choice(switch: str) -> dict:
        """``choices=`` and ``default=`` of an enumerated switch, from its
        one declaration (``core.config.CHOICES``, default first)."""
        return {"choices": CHOICES[switch], "default": CHOICES[switch][0]}

    # ``default=`` of every other switch: its ``PlatformConfig`` field's.
    defaults = {f.name: f.default for f in dataclasses.fields(PlatformConfig)}

    run = sub.add_parser("run", help="execute a workload on the platform")
    run.add_argument("--graph", required=True)
    add_partitioner_args(run)
    run.add_argument("--partition", help="partition file (skips the partitioner)")
    run.add_argument("--workload", choices=("average", "imbalance"), default="average")
    run.add_argument("--grain", choices=("fine", "coarse"), default="fine")
    run.add_argument("--iterations", type=int, default=defaults["iterations"])
    run.add_argument("--machine", choices=sorted(_MACHINES), default="origin2000")
    run.add_argument("--scheduler", choices=CHOICES["scheduler"], default=None,
                     help="simulated-cluster execution backend (default: event; "
                          "virtual-time results are identical on both; "
                          "process runs one worker OS process per rank)")
    run.add_argument("--dynamic", action="store_true", help="enable dynamic LB")
    run.add_argument("--balancer", choices=sorted(_BALANCERS), default="centralized")
    run.add_argument("--lb-period", type=int, default=defaults["lb_period"])
    run.add_argument("--lb-threshold", type=float, default=defaults["lb_threshold"])
    run.add_argument("--rebalance-mode", **choice("rebalance_mode"))
    run.add_argument("--overlap", action="store_true",
                     help="use the Figure-8a overlapped pipeline")
    run.add_argument("--execution", **choice("execution"),
                     help="superstep structure: bsp (every node recomputed "
                          "between consecutive global barriers) or hybrid "
                          "(boundary nodes synchronize as usual, interior "
                          "nodes iterate asynchronously to local convergence "
                          "inside each superstep)")
    run.add_argument("--hybrid-inner-cap", type=int, default=defaults["hybrid_inner_cap"],
                     help="max interior sweeps per superstep under "
                          "--execution hybrid")
    run.add_argument("--activation", **choice("activation"),
                     help="sparse = change-driven execution: recompute only "
                          "nodes whose neighbourhood changed, exchange only "
                          "changed shadow values, elide empty sends")
    run.add_argument("--converge", **choice("converge"),
                     help="quiescence = stop early once a global reduction "
                          "sees an iteration in which no node's value changed")
    run.add_argument("--phases", action="store_true", help="print phase breakdown")
    run.add_argument("--faults",
                     help="deterministic fault-injection spec, e.g. "
                          "'seed=7,delay=0.05,drop=0.01,slow=1:3.0,crash=2@40,"
                          "flipmsg=0.01,flip=1@5:37'")
    run.add_argument("--integrity", **choice("integrity"),
                     help="silent-corruption protection: checksum (verified "
                          "transport), digest (partition-state digests + "
                          "rollback), full (digests + shadow-replica repair)")
    run.add_argument("--checkpoint-period", type=int, default=defaults["checkpoint_period"],
                     help="checkpoint every K iterations (0 = baseline only)")
    run.add_argument("--recovery", **choice("recovery_policy"),
                     help="crash recovery policy: rollback (restore everyone, "
                          "resurrect the dead rank) or shrink (continue on "
                          "the survivors)")
    run.set_defaults(fn=cmd_run)

    info = sub.add_parser("info", help="inspect a Chaco graph file")
    info.add_argument("--graph", required=True)
    info.set_defaults(fn=cmd_info)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
