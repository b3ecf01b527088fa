"""Ablation: machine models.

Goal 3 lets algorithm designers evaluate "on different parallel and
distributed architectures"; this sweep runs the same workload on the
calibrated Origin-2000, an idealized zero-cost network, and a slow
commodity-Ethernet profile.
"""

from __future__ import annotations

from repro.apps.average import FINE_GRAIN, make_average_fn
from repro.bench import hex_graph
from repro.bench.tables import SeriesFigure
from repro.core import ICPlatform, PlatformConfig
from repro.mpi import ETHERNET_CLUSTER, IDEAL, ORIGIN2000
from repro.partitioning import MetisLikePartitioner


def test_ablation_machines(benchmark, record):
    graph = hex_graph(64)
    procs = (1, 2, 4, 8, 16)
    machines = {
        "ideal": IDEAL,
        "origin2000": ORIGIN2000,
        "ethernet": ETHERNET_CLUSTER,
    }

    def run():
        fig = SeriesFigure(
            "ablation_machines",
            "Machine models, hex64 fine grain, 20 iterations (speedup)",
            procs=list(procs),
        )
        for label, machine in machines.items():
            times = []
            for p in procs:
                partition = MetisLikePartitioner(seed=1).partition(graph, p)
                config = PlatformConfig(iterations=20)
                times.append(
                    ICPlatform(graph, make_average_fn(FINE_GRAIN), config=config)
                    .run(partition, machine=machine)
                    .elapsed
                )
            fig.add(label, [times[0] / t for t in times])
        return fig

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    # Network quality orders the speedups at every parallel point.
    for idx in range(1, len(procs)):
        assert (
            fig.series["ideal"][idx]
            >= fig.series["origin2000"][idx]
            >= fig.series["ethernet"][idx]
        )
    # The ideal network still pays the platform's own bookkeeping, so even
    # it is sublinear; Ethernet must saturate clearly below the Origin.
    assert fig.series["ideal"][-1] < 16
    assert fig.series["ethernet"][-1] < 0.8 * fig.series["origin2000"][-1]
