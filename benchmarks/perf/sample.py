"""One benchmark sample: a fresh process that builds a workload, runs it
once at zero iterations (distributed initialisation only) and once in
full, checks the outputs, and prints one JSON line.

Run by ``run.py``; not meant to be imported by it (a sample pins its CPUs
before numpy or any thread exists, which only a fresh interpreter can do).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from host import pin  # noqa: E402
from workloads import WORKLOADS, timed  # noqa: E402 - imports neither numpy nor repro


def value_digest(values: dict) -> str:
    """SHA-256 over the sorted ``(gid, repr(value))`` pairs."""
    digest = hashlib.sha256()
    for gid in sorted(values):
        digest.update(f"{gid}:{values[gid]!r};".encode())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    pinned = pin(workload.cpus)  # before numpy or any thread exists

    import_start = time.perf_counter_ns()
    import numpy  # noqa: F401 - timed here, used by the builders
    import repro.apps.battlefield  # noqa: F401
    import repro.partitioning  # noqa: F401
    from repro.core import ICPlatform
    from repro.mpi.shm import leaked_segments

    import_s = (time.perf_counter_ns() - import_start) / 1e9
    iterations = workload.iterations if args.iterations is None else args.iterations
    problem = workload.build(args.seed, iterations)

    tracer = None
    node_fns, balancer = problem.node_fns, problem.balancer
    if args.trace:
        from tracing import Tracer

        dump_dir = HERE / "out" / f"spans-{time.monotonic_ns()}"
        dump_dir.mkdir(parents=True)
        tracer = Tracer(dump_dir)
        node_fns = tuple(tracer.wrap_node_fn(fn) for fn in node_fns)
        if balancer is not None:
            balancer = tracer.wrap_balancer(balancer)

    def platform(config):
        return ICPlatform(
            problem.graph,
            node_fns,
            init_value=problem.init_value,
            config=config,
            balancer=balancer,
        )

    def run(plat, scheduler=problem.scheduler):
        return plat.run(problem.partition, scheduler=scheduler, deadlock_timeout=60.0)

    zero = problem.config.with_overrides(iterations=0)
    init_platform, full_platform = platform(zero), platform(problem.config)
    ready_ns = time.monotonic_ns()

    _, init_s = timed(lambda: run(init_platform))
    init_end_ns = time.monotonic_ns()
    init_event_s = 0.0
    if args.trace and problem.scheduler == "process":
        # What forking workers and creating segments adds to initialisation.
        _, init_event_s = timed(lambda: run(platform(zero), scheduler="event"))

    if tracer is not None:
        tracer.install()
    # CLOCK_MONOTONIC is one clock for this process, the runner and its host
    # probes: the runner looks up how fast the host was between these two.
    run_start_ns = time.monotonic_ns()
    try:
        result, run_wall_s = timed(lambda: run(full_platform))
    finally:
        if tracer is not None:
            tracer.remove()
    run_end_ns = time.monotonic_ns()

    failures = problem.check(result)
    leaked = leaked_segments()
    if leaked:
        failures.append(f"leaked shared-memory segments: {leaked}")
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "workload": workload.name,
        "scheduler": problem.scheduler,
        "seed": args.seed,
        "iterations": iterations,
        "pinned": pinned,
        "ready_ns": ready_ns,
        "init_end_ns": init_end_ns,
        "run_start_ns": run_start_ns,
        "run_end_ns": run_end_ns,
        "import_s": import_s,
        "build_s": problem.build_s,
        "partition_s": problem.partition_s,
        "edge_cut": problem.partition.edge_cut(),
        "init_s": init_s,
        "init_event_s": init_event_s,
        "run_wall_raw_s": run_wall_s,
        "peak_rss_mb": (rss_self + rss_children) / 1024,
        "worker_peak_rss_mb": rss_children / 1024,
        "virtual_elapsed_hex": result.elapsed.hex(),
        "virtual_elapsed_s": result.elapsed,
        "digest": value_digest(result.values),
        "supersteps": result.iterations,
        "rounds": len(problem.node_fns),
        "messages": result.messages_delivered,
        "barriers": result.barriers,
        "inner_sweeps": result.inner_sweeps,
        "migrations": len(result.migrations),
        "checkpoints": result.checkpoints,
        "sparse_geom_hits": result.sparse_geom_hits,
        "sparse_geom_misses": result.sparse_geom_misses,
        "leaked_segments": len(leaked),
        "failures": failures,
    }
    if tracer is not None:
        from tracing import span_metrics

        spans = tracer.spans()
        shutil.rmtree(dump_dir)
        out["trace"] = span_metrics(spans)
        out["trace"]["pipe_requests"] = tracer.pipe_requests
        if args.trace_file is not None:
            names = sorted({span.name for span in spans})
            index = {name: i for i, name in enumerate(names)}
            args.trace_file.write_text(
                json.dumps(
                    {
                        "workload": workload.name,
                        "seed": args.seed,
                        "columns": ["name", "rank", "start_ns", "end_ns", "parent", "items"],
                        "names": names,
                        "layers": {name: tracer.layers[name] for name in names},
                        "spans": [
                            [index[s.name], s.rank, s.start_ns, s.end_ns, s.parent, s.items]
                            for s in spans
                        ],
                    },
                    separators=(",", ":"),
                )
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
