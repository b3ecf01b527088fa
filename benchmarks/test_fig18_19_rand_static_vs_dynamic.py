"""Figures 18/19: static vs dynamic partitioning on 64- and 32-node random
graphs under dynamic imbalance (same protocol note as Figures 13-15)."""

from __future__ import annotations

import pytest

from repro.bench import PERSISTENT_IMBALANCE, run_static_vs_dynamic
from repro.graphs import random_connected_graph


@pytest.mark.parametrize(
    "nodes,experiment_id",
    [
        (64, "fig18_static_vs_dynamic_rand64"),
        (32, "fig19_static_vs_dynamic_rand32"),
    ],
)
def test_static_vs_dynamic_random(benchmark, record, nodes, experiment_id):
    graph = random_connected_graph(nodes, avg_degree=4.0, seed=0, name=f"rand{nodes}")
    fig = benchmark.pedantic(
        lambda: run_static_vs_dynamic(
            graph,
            schedule=PERSISTENT_IMBALANCE,
            iterations=60,
            experiment_id=experiment_id,
        ),
        rounds=1,
        iterations=1,
    )
    record(fig.experiment_id, fig.render(), fig.series)

    static = fig.series["static"]
    greedy = fig.series["dynamic-greedy"]
    for idx in range(1, len(fig.procs)):
        assert greedy[idx] > static[idx] * 0.95
    assert sum(greedy[1:]) > sum(static[1:]) * 1.03
