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
* ``bench``     -- regenerate a named table/figure of the paper,
* ``info``      -- inspect a graph file.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Sequence

from .apps.average import COARSE_GRAIN, FINE_GRAIN, make_average_fn
from .apps.imbalance import PAPER_SCHEDULE, make_imbalanced_average_fn
from .core.config import PlatformConfig
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
from .mpi.errors import UnsupportedBackendError
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
    if args.kind == "hex":
        graph = hex_grid(args.rows, args.cols)
    elif args.kind == "grid":
        graph = grid2d(args.rows, args.cols)
    elif args.kind == "torus":
        graph = torus2d(args.rows, args.cols)
    elif args.kind == "random":
        graph = random_connected_graph(
            args.nodes, avg_degree=args.degree, seed=args.seed
        )
    else:  # battlefield terrain
        graph = HexGrid(args.rows, args.cols).to_graph(name="battlefield")
    write_chaco(graph, args.output)
    print(
        f"wrote {args.output}: {graph.name} "
        f"({graph.num_nodes} vertices, {graph.num_edges} edges)"
    )
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    graph = read_chaco(args.graph)
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


def _run_with_host_profile(path: str, fn):
    """Execute ``fn()`` with every host thread profiled; dump merged stats.

    ``cProfile`` is per-thread, and the simulated cluster runs one OS
    thread per rank -- so a profiler is bootstrapped into every new thread
    via :func:`threading.setprofile` (the hook fires on the thread's first
    call event and replaces itself with a thread-local ``cProfile.Profile``)
    and the per-thread stats are merged with the main thread's at the end.
    """
    import cProfile
    import pstats
    import threading

    profiles: list[cProfile.Profile] = []
    lock = threading.Lock()

    def bootstrap(frame, event, arg):
        prof = cProfile.Profile()
        with lock:
            profiles.append(prof)
        prof.enable()

    main_prof = cProfile.Profile()
    threading.setprofile(bootstrap)
    try:
        main_prof.enable()
        result = fn()
    finally:
        main_prof.disable()
        threading.setprofile(None)
    stats = pstats.Stats(main_prof)
    with lock:
        for prof in profiles:
            try:
                stats.add(prof)
            except Exception:
                pass  # thread died before recording anything measurable
    stats.dump_stats(path)
    print(f"host profile  {path} ({len(profiles) + 1} threads merged)")
    return result


#: Range-check messages lead with the offending parameter; these two are
#: spelled differently from the ``repro run`` flag they arrive through.
_FLAG_OF = {"nparts": "np", "threshold": "lb_threshold"}


def _usage_error(message: str) -> NoReturn:
    """One line on stderr and exit code 2 -- argparse's own convention for a
    bad command line, not a traceback."""
    print(f"repro run: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        graph = read_chaco(args.graph)
        assignment = (
            read_partition(args.partition, num_nodes=graph.num_nodes)
            if args.partition
            else None
        )
    except FileNotFoundError as exc:
        flag = "--partition" if str(exc.filename) == args.partition else "--graph"
        _usage_error(f"{flag}: no such file: {exc.filename}")

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

    store_override = {"store": args.store} if args.store else {}
    execution_override = {"execution": args.execution} if args.execution else {}
    try:
        if assignment is not None:
            partition = Partition.from_assignment(
                graph, assignment, args.np, method="from-file"
            )
        else:
            partitioner = make_partitioner(
                args.scheme, args.np, args.seed, graph, args.rows, args.cols,
                args.rref,
            )
            partition = partitioner.partition(graph, args.np)
        config = PlatformConfig(
            iterations=args.iterations,
            dynamic_load_balancing=args.dynamic,
            lb_period=args.lb_period,
            overlap_communication=args.overlap,
            rebalance_mode=args.rebalance_mode,
            checkpoint_period=args.checkpoint_period,
            checkpoint_keep=args.checkpoint_keep,
            recovery_policy=args.recovery,
            integrity=args.integrity,
            activation=args.activation,
            converge=args.converge,
            hybrid_inner_cap=args.hybrid_inner_cap,
            **store_override,
            **execution_override,
        )
        balancer = (
            _BALANCERS[args.balancer](args.lb_threshold) if args.dynamic else None
        )
    except ValueError as exc:
        # The range checks' messages lead with the parameter ("lb_period
        # must be >= 1, got 0"); spell it as the flag it came from.  Any
        # other ValueError is not a usage error and keeps its traceback.
        name, _, problem = str(exc).partition(" ")
        name = _FLAG_OF.get(name, name)
        if not hasattr(args, name):
            raise
        _usage_error(f"--{name.replace('_', '-')} {problem}")
    # Seed node values as floats rather than the default int gids: the
    # averaging workloads produce floats after the first sweep either way,
    # and float-valued stores are what lets --scheduler process back the
    # node arrays with shared-memory segments.
    platform = ICPlatform(
        graph, node_fn, init_value=lambda gid: float(gid), config=config,
        balancer=balancer,
    )

    def execute():
        return platform.run(
            partition,
            machine=_MACHINES[args.machine],
            faults=faults,
            scheduler=args.scheduler,
        )

    try:
        if args.profile_host:
            result = _run_with_host_profile(args.profile_host, execute)
        else:
            result = execute()
    except UnsupportedBackendError as exc:
        # The scheduler/store combination is wrong, not the platform.
        _usage_error(f"--scheduler: {exc}")

    print(f"graph         {graph.name} ({graph.num_nodes} nodes)")
    print(f"partition     {partition.method} (cut {partition.edge_cut()})")
    print(f"processors    {args.np}")
    print(f"iterations    {result.iterations}")
    print(f"machine       {args.machine}")
    print(f"elapsed       {result.elapsed:.6f} virtual seconds")
    if config.store != "object":
        print(f"store         {config.store}")
        if result.sparse_geom_hits or result.sparse_geom_misses:
            print(
                f"sparse geom   {result.sparse_geom_hits} hits, "
                f"{result.sparse_geom_misses} misses (CSR memo)"
            )
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
                f"on rank {event.owner} [{event.mode}] via {source}, "
                f"latency {event.latency}"
            )
    if args.phases:
        print("phase breakdown (mean per rank):")
        for name, seconds in result.mean_phases.as_dict().items():
            print(f"  {name:<24} {seconds * 1e3:9.3f} ms")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import harness

    name = args.experiment
    if name == "all":
        from .bench.report import generate_report

        print(generate_report(quick=args.quick))
    elif name.startswith("table") and "hex" in name:
        nodes = int(name.split("hex")[1])
        print(harness.run_hex_table(nodes).render())
    elif name.startswith("table") and "rand" in name:
        nodes = int(name.split("rand")[1])
        print(harness.run_random_table(nodes, seeds=tuple(range(args.seeds))).render())
    elif name.startswith("table") and "bf" in name:
        scheme = name.split("bf_")[1]
        print(harness.run_battlefield_table(scheme).render())
    elif name == "fig11":
        tables = [harness.run_hex_table(n, iterations_list=(20,)) for n in (32, 64, 96)]
        print(harness.run_speedup_figure(tables, title="Hex-grid speedups").render())
    elif name == "fig20":
        print(harness.run_battlefield_speedups().render())
    elif name in ("fig21", "fig22"):
        graph = (
            harness.hex_graph(64)
            if name == "fig21"
            else random_connected_graph(64, 4.0, seed=0, name="rand64")
        )
        print(harness.run_overheads(graph).render())
    else:
        raise SystemExit(
            f"unknown experiment {name!r}; try table2_hex32, table6_rand64, "
            "table7_bf_metis, fig11, fig20, fig21, fig22"
        )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    graph = read_chaco(args.graph)
    degrees = [graph.degree(v) for v in graph.nodes()]
    print(f"graph      {graph.name}")
    print(f"vertices   {graph.num_nodes}")
    print(f"edges      {graph.num_edges}")
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

    run = sub.add_parser("run", help="execute a workload on the platform")
    run.add_argument("--graph", required=True)
    add_partitioner_args(run)
    run.add_argument("--partition", help="partition file (skips the partitioner)")
    run.add_argument("--workload", choices=("average", "imbalance"), default="average")
    run.add_argument("--grain", choices=("fine", "coarse"), default="fine")
    run.add_argument("--iterations", type=int, default=20)
    run.add_argument("--machine", choices=sorted(_MACHINES), default="origin2000")
    run.add_argument("--scheduler", choices=("event", "process"), default=None,
                     help="simulated-cluster execution backend (default: event; "
                          "virtual-time results are identical on both; "
                          "process runs one worker OS process per rank over "
                          "shared memory and requires --store soa)")
    run.add_argument("--dynamic", action="store_true", help="enable dynamic LB")
    run.add_argument("--balancer", choices=sorted(_BALANCERS), default="centralized")
    run.add_argument("--lb-period", type=int, default=10)
    run.add_argument("--lb-threshold", type=float, default=0.25)
    run.add_argument("--rebalance-mode", choices=("migrate", "repartition"),
                     default="migrate")
    run.add_argument("--overlap", action="store_true",
                     help="use the Figure-8a overlapped pipeline")
    run.add_argument("--store", choices=("object", "soa"), default=None,
                     help="node-state representation: object (one NodeData "
                          "per node, the conformance oracle) or soa "
                          "(struct-of-arrays with vectorized sweeps; "
                          "bit-identical results).  Default: the REPRO_STORE "
                          "environment variable, else 'object'")
    run.add_argument("--execution", choices=("bsp", "hybrid"), default=None,
                     help="superstep structure: bsp (every node recomputed "
                          "between consecutive global barriers) or hybrid "
                          "(boundary nodes synchronize as usual, interior "
                          "nodes iterate asynchronously to local convergence "
                          "inside each superstep).  Default: the "
                          "REPRO_EXECUTION environment variable, else 'bsp'")
    run.add_argument("--hybrid-inner-cap", type=int, default=32,
                     help="max interior sweeps per superstep under "
                          "--execution hybrid")
    run.add_argument("--activation", choices=("dense", "sparse"), default="dense",
                     help="sparse = change-driven execution: recompute only "
                          "nodes whose neighbourhood changed, exchange only "
                          "changed shadow values, elide empty sends")
    run.add_argument("--converge", choices=("fixed", "quiescence"),
                     default="fixed",
                     help="quiescence = stop early once a global reduction "
                          "sees an iteration in which no node's value changed")
    run.add_argument("--profile-host", metavar="PATH",
                     help="profile the host Python process (all rank threads) "
                          "and dump merged cProfile stats to PATH")
    run.add_argument("--phases", action="store_true", help="print phase breakdown")
    run.add_argument("--faults",
                     help="deterministic fault-injection spec, e.g. "
                          "'seed=7,delay=0.05,drop=0.01,slow=1:3.0,crash=2@40,"
                          "flipmsg=0.01,flip=1@5:37'")
    run.add_argument("--integrity", choices=("off", "checksum", "digest", "full"),
                     default="off",
                     help="silent-corruption protection: checksum (verified "
                          "transport), digest (partition-state digests + "
                          "rollback), full (digests + shadow-replica repair)")
    run.add_argument("--checkpoint-period", type=int, default=0,
                     help="checkpoint every K iterations (0 = baseline only)")
    run.add_argument("--checkpoint-keep", type=int, default=2,
                     help="snapshots retained per rank (older ones pruned)")
    run.add_argument("--recovery", choices=("rollback", "shrink"),
                     default="rollback",
                     help="crash recovery policy: rollback (restore everyone, "
                          "resurrect the dead rank) or shrink (continue on "
                          "the survivors)")
    run.set_defaults(fn=cmd_run)

    bench = sub.add_parser("bench", help="regenerate a paper table/figure ('all' for the full report)")
    bench.add_argument("experiment")
    bench.add_argument("--seeds", type=int, default=5, help="random-graph averaging")
    bench.add_argument("--quick", action="store_true",
                       help="reduced axes for 'all' (seconds, not minutes)")
    bench.set_defaults(fn=cmd_bench)

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
