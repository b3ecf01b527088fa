"""Ablation: the Figure-8a overlapped communication pipeline vs the basic
Figure-8 sequence (a design enhancement the thesis reports as underway).

"A different version using MPI_Irecv() ... could result in significant
performance improvement for applications with unstructured communication
and possibly coarse grain size for the node."
"""

from __future__ import annotations

from repro.apps.average import COARSE_GRAIN, FINE_GRAIN, make_average_fn
from repro.bench import hex_graph
from repro.bench.tables import SeriesFigure
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import random_connected_graph
from repro.partitioning import MetisLikePartitioner


def _elapsed(graph, nprocs, grain, overlap, machine=None):
    partition = MetisLikePartitioner(seed=1).partition(graph, nprocs)
    config = PlatformConfig(iterations=20, overlap_communication=overlap)
    platform = ICPlatform(graph, make_average_fn(grain), config=config)
    kwargs = {"machine": machine} if machine is not None else {}
    return platform.run(partition, **kwargs).elapsed


def test_ablation_overlap(benchmark, record):
    graphs = {
        "hex64": hex_graph(64),
        "rand64": random_connected_graph(64, avg_degree=4.0, seed=0, name="rand64"),
    }
    procs = (2, 4, 8, 16)

    def run():
        fig = SeriesFigure(
            "ablation_overlap",
            "Basic (Fig 8) vs overlapped (Fig 8a) pipeline, seconds",
            procs=list(procs),
            ylabel="seconds",
        )
        for name, graph in graphs.items():
            for grain, glabel in ((FINE_GRAIN, "fine"), (COARSE_GRAIN, "coarse")):
                fig.add(
                    f"{name}-{glabel}-basic",
                    [_elapsed(graph, p, grain, overlap=False) for p in procs],
                )
                fig.add(
                    f"{name}-{glabel}-overlap",
                    [_elapsed(graph, p, grain, overlap=True) for p in procs],
                )
        return fig

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    # The overlapped pipeline never loses, and wins a few percent on the
    # calibrated Origin (its latency is small relative to the grain).
    improvements = []
    for name in graphs:
        for glabel in ("fine", "coarse"):
            basic = fig.series[f"{name}-{glabel}-basic"]
            overlap = fig.series[f"{name}-{glabel}-overlap"]
            for b, o in zip(basic, overlap):
                assert o <= b * 1.02
                improvements.append((b - o) / b)
    assert max(improvements) > 0.03

    # Where latency is the bottleneck -- the thesis's "significant
    # performance improvement" claim -- the win is large.
    from repro.mpi import MachineModel

    slow = MachineModel(name="high-latency", latency=2e-3, bandwidth=50e6)
    basic = _elapsed(graphs["hex64"], 8, FINE_GRAIN, overlap=False, machine=slow)
    overlapped = _elapsed(graphs["hex64"], 8, FINE_GRAIN, overlap=True, machine=slow)
    # Only the internal-node compute (roughly half the nodes at p=8) is
    # available to hide the 2 ms flight behind, so the win is partial.
    assert overlapped < basic * 0.9
