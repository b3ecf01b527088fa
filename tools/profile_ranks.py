#!/usr/bin/env python3
"""cProfile in every rank thread of one benchmark workload, merged.

    python3 tools/profile_ranks.py WORKLOAD [--seed N] [--iterations N] [--top K]

Builds WORKLOAD from ``benchmarks/perf/workloads.py`` (imported, never
changed), runs it once to warm up, then once more with one
``cProfile.Profile`` per rank thread: enabled when the thread enters the
rank function ``SimCluster.run`` hands it, disabled when that returns.
Prints the rank profiles merged into one table sorted by self time, the
``K`` heaviest functions (default 30).  The first line holds the profiled
run's wall time and ``result.elapsed.hex()``, the virtual makespan, which
profiling cannot move.

The profiles read each thread's CPU clock (``time.thread_time``): the event
scheduler runs one rank thread at a time, and a rank parked on its baton
would otherwise charge the wait to a lock.  Wall time under the profiler is
a multiple of the unprofiled wall, so compare tables with tables, not with
``run.py``.  ``process`` workloads run their ranks in worker processes,
which this tool does not reach: it refuses them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "perf"), str(ROOT / "src")]

from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile in every rank thread of a benchmark workload, merged"
    )
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="default: the workload's own count")
    parser.add_argument("--top", type=int, default=30, help="table rows to print")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    iterations = workload.iterations if args.iterations is None else args.iterations
    problem = workload.build(args.seed, iterations)
    if problem.scheduler == "process":
        print(
            f"profile_ranks: {args.workload} runs its ranks in worker processes; "
            "only event-scheduler workloads can be profiled",
            file=sys.stderr,
        )
        return 2

    from repro.core import ICPlatform
    from repro.mpi.runtime import SimCluster

    def run():
        platform = ICPlatform(
            problem.graph,
            problem.node_fns,
            init_value=problem.init_value,
            config=problem.config,
            balancer=problem.balancer,
        )
        return platform.run(problem.partition, scheduler=problem.scheduler)

    run()  # warm-up: imports, the graph's CSR, first-call caches
    profiles: list[cProfile.Profile] = []
    cluster_run = SimCluster.run

    def profiled_run(cluster, fn, *args, **kwargs):
        def rank(comm, *rank_args):
            profile = cProfile.Profile(time.thread_time)
            profiles.append(profile)
            profile.enable()
            try:
                return fn(comm, *rank_args)
            finally:
                profile.disable()

        return cluster_run(cluster, rank, *args, **kwargs)

    SimCluster.run = profiled_run
    try:
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
    finally:
        SimCluster.run = cluster_run

    print(
        f"{args.workload}: wall {wall:.3f} s profiled, elapsed {result.elapsed.hex()}, "
        f"{len(profiles)} rank threads (thread CPU time, self time first)"
    )
    stats = pstats.Stats(profiles[0], stream=sys.stdout)
    for profile in profiles[1:]:
        stats.add(profile)
    stats.sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
