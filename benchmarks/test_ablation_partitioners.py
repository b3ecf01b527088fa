"""Ablation: partitioner plug-ins head-to-head on platform runtime.

The test-bed goal in action: every partitioner in the library drives the
same fine-grained hex64 workload, and the runtime (not just the edge cut)
ranks them.
"""

from __future__ import annotations

from repro.apps.average import FINE_GRAIN, make_average_fn
from repro.bench import hex_graph
from repro.bench.tables import SeriesFigure
from repro.core import ICPlatform, PlatformConfig
from repro.partitioning import (
    BfsGreedyPartitioner,
    JostleLikePartitioner,
    MetisLikePartitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
    SpectralPartitioner,
)


def test_ablation_partitioners(benchmark, record):
    graph = hex_graph(64)
    procs = (2, 4, 8, 16)
    partitioners = {
        "metis": MetisLikePartitioner(seed=1),
        "jostle": JostleLikePartitioner(seed=1),
        "spectral": SpectralPartitioner(seed=1),
        "bfsgreedy": BfsGreedyPartitioner(seed=1),
        "random": RandomPartitioner(seed=1),
        "roundrobin": RoundRobinPartitioner(),
    }

    def run():
        fig = SeriesFigure(
            "ablation_partitioners",
            "Partitioner plug-ins, hex64 fine grain, 20 iterations (seconds)",
            procs=list(procs),
            ylabel="seconds",
        )
        for label, partitioner in partitioners.items():
            times = []
            for p in procs:
                partition = partitioner.partition(graph, p)
                config = PlatformConfig(iterations=20)
                times.append(
                    ICPlatform(graph, make_average_fn(FINE_GRAIN), config=config)
                    .run(partition)
                    .elapsed
                )
            fig.add(label, times)
        return fig

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    # Locality-aware partitioners (metis, jostle, spectral, bfsgreedy) beat
    # the locality-blind ones (random, roundrobin) at every processor count.
    for idx in range(len(procs)):
        best_aware = min(
            fig.series["metis"][idx],
            fig.series["jostle"][idx],
            fig.series["spectral"][idx],
            fig.series["bfsgreedy"][idx],
        )
        worst_blind = max(fig.series["random"][idx], fig.series["roundrobin"][idx])
        assert best_aware < worst_blind
    # The diffusive multilevel (Jostle-like) sits in the same league as the
    # gain-driven one (Metis-like).
    assert fig.series["jostle"][-1] <= 1.35 * fig.series["metis"][-1]
    # Metis is the best or within 10 % of the best at p=16.
    at16 = {name: series[-1] for name, series in fig.series.items()}
    assert at16["metis"] <= 1.1 * min(at16.values())
