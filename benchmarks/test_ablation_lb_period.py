"""Ablation: load-balancer invocation period.

The paper fixes "load balancing routine is invoked every 10 time steps";
this sweep shows the cost/benefit of re-checking more or less often.
"""

from __future__ import annotations

from repro.apps.imbalance import make_imbalanced_average_fn
from repro.bench import PERSISTENT_IMBALANCE, hex_graph
from repro.bench.tables import SeriesFigure
from repro.core import GreedyPairBalancer, ICPlatform, PlatformConfig
from repro.partitioning import MetisLikePartitioner


def test_ablation_lb_period(benchmark, record):
    graph = hex_graph(64)
    partition = MetisLikePartitioner(seed=1).partition(graph, 8)
    periods = (2, 5, 10, 20, 30)

    def run():
        fig = SeriesFigure(
            "ablation_lb_period",
            "LB period sweep (hex64, p=8, 60 iterations, greedy balancer)",
            procs=list(periods),
            ylabel="seconds",
        )
        times = []
        migrations = []
        for period in periods:
            config = PlatformConfig(
                iterations=60, dynamic_load_balancing=True, lb_period=period
            )
            result = ICPlatform(
                graph,
                make_imbalanced_average_fn(PERSISTENT_IMBALANCE),
                config=config,
                balancer=GreedyPairBalancer(0.25),
            ).run(partition)
            times.append(result.elapsed)
            migrations.append(len(result.migrations))
        fig.add("elapsed", times)
        fig.add("migrations", [float(m) for m in migrations])
        return fig

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    times = dict(zip(periods, fig.series["elapsed"]))
    migrations = dict(zip(periods, fig.series["migrations"]))
    # More frequent balancing -> more migrations.
    assert migrations[2] > migrations[30]
    # The paper's period (10) is near the sweet spot: within 15 % of the
    # best setting in the sweep.
    assert times[10] <= min(times.values()) * 1.15
