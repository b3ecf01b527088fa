"""Ablation: tasks migrated per busy-idle pair.

The thesis ships exactly one task per pair and flags "a more rigorous
algorithm ... which would specify the number of tasks that should be
migrated" as a design enhancement (section 7).  This sweep implements it.
"""

from __future__ import annotations

from repro.apps.imbalance import make_imbalanced_average_fn
from repro.bench import PERSISTENT_IMBALANCE, hex_graph
from repro.bench.tables import SeriesFigure
from repro.core import GreedyPairBalancer, ICPlatform, PlatformConfig
from repro.partitioning import MetisLikePartitioner


def test_ablation_migration_batch(benchmark, record):
    graph = hex_graph(64)
    partition = MetisLikePartitioner(seed=1).partition(graph, 8)
    batches = (1, 2, 4, 8)

    def run():
        fig = SeriesFigure(
            "ablation_migration_batch",
            "Tasks migrated per busy-idle pair (hex64, p=8, 60 iterations)",
            procs=list(batches),
            ylabel="seconds",
        )
        times, moved = [], []
        for batch in batches:
            config = PlatformConfig(
                iterations=60,
                dynamic_load_balancing=True,
                lb_period=10,
                max_migrations_per_pair=batch,
            )
            result = ICPlatform(
                graph,
                make_imbalanced_average_fn(PERSISTENT_IMBALANCE),
                config=config,
                balancer=GreedyPairBalancer(0.25),
            ).run(partition)
            times.append(result.elapsed)
            moved.append(float(len(result.migrations)))
        fig.add("elapsed", times)
        fig.add("migrations", moved)
        return fig

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    times = dict(zip(batches, fig.series["elapsed"]))
    moved = dict(zip(batches, fig.series["migrations"]))
    # Bigger batches move more tasks per invocation.
    assert moved[4] > moved[1]
    # Finding (recorded in EXPERIMENTS.md): with the greedy balancer firing
    # every 10 iterations, single-task migration is already competitive;
    # moderate batches stay in its band, while large batches (8 tasks per
    # pair) overshoot the busy-idle gradient and oscillate -- evidence that
    # the thesis's proposed "number of tasks" policy needs damping.
    best = min(times.values())
    assert times[1] <= best * 1.15
    for batch in (1, 2, 4):
        assert times[batch] <= best * 1.35
    assert times[8] > times[1]  # the overshoot is real and measurable
