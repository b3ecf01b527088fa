"""Ablation: task migration vs repartition-from-scratch.

Section 4.3: "Invoking the initialization phase for re-partitioning from
scratch can be very costly.  Hence, this [migration] phase is vital."
Section 8 promises a comprehensive evaluation.  This bench runs both
rebalancing modes against the same imbalanced workload so the trade-off the
thesis argues from intuition is measured: migration is cheap per invocation
but moves one task per pair; the load-aware repartition pays a full
initialization + redistribution but lands directly on a weighted-balanced
partition.
"""

from __future__ import annotations

from repro.apps.imbalance import make_imbalanced_average_fn
from repro.bench import PERSISTENT_IMBALANCE, hex_graph
from repro.bench.tables import SeriesFigure
from repro.core import DiffusionBalancer, GreedyPairBalancer, ICPlatform, PlatformConfig
from repro.partitioning import MetisLikePartitioner


def test_ablation_repartition(benchmark, record):
    graph = hex_graph(64)
    procs = (2, 4, 8, 16)
    node_fn = make_imbalanced_average_fn(PERSISTENT_IMBALANCE)

    def elapsed(p, mode, balancer=None):
        partition = MetisLikePartitioner(seed=1).partition(graph, p)
        config = PlatformConfig(
            iterations=60,
            dynamic_load_balancing=mode is not None,
            lb_period=10,
            rebalance_mode=mode or "migrate",
        )
        platform = ICPlatform(graph, node_fn, config=config, balancer=balancer)
        return platform.run(partition).elapsed

    def run():
        fig = SeriesFigure(
            "ablation_repartition",
            "Rebalancing modes under persistent imbalance (seconds, hex64)",
            procs=list(procs),
            ylabel="seconds",
        )
        fig.add("static", [elapsed(p, None) for p in procs])
        fig.add(
            "migrate-greedy",
            [elapsed(p, "migrate", GreedyPairBalancer(0.25)) for p in procs],
        )
        fig.add(
            "migrate-diffusion",
            [elapsed(p, "migrate", DiffusionBalancer(0.25)) for p in procs],
        )
        fig.add("repartition", [elapsed(p, "repartition") for p in procs])
        return fig

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    static = fig.series["static"]
    repart = fig.series["repartition"]
    greedy = fig.series["migrate-greedy"]
    diffusion = fig.series["migrate-diffusion"]
    # The load-aware repartition beats the static partition everywhere: it
    # sees exactly the weights the static partitioner could not.
    assert all(r < s for r, s in zip(repart, static))
    # It also beats one-task-at-a-time migration on this persistent,
    # strongly skewed workload -- the flip side of the thesis's cost
    # argument: when imbalance is large and stable, paying for the full
    # repartition is worth it.
    assert sum(repart) < sum(greedy)
    # Decentralized diffusion is competitive with greedy pairing.
    assert sum(diffusion) < sum(static)
