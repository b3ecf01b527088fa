"""Figures 21/22: phase/overhead breakdown for fine-grained 64-node
hexagonal grids and random graphs (35 iterations, balancer every 10)."""

from __future__ import annotations

import pytest

from repro.bench import hex_graph, run_overheads
from repro.graphs import random_connected_graph


@pytest.mark.parametrize(
    "which,experiment_id",
    [("hex", "fig21_overheads_hex64"), ("random", "fig22_overheads_rand64")],
)
def test_overheads(benchmark, record, which, experiment_id):
    graph = (
        hex_graph(64)
        if which == "hex"
        else random_connected_graph(64, avg_degree=4.0, seed=0, name="rand64")
    )
    result = benchmark.pedantic(
        lambda: run_overheads(graph, experiment_id=experiment_id),
        rounds=1,
        iterations=1,
    )
    record(result.experiment_id, result.render(), result.cells())

    p2, p16 = result.phases[2], result.phases[16]
    # "the compute and computation overhead comes down with the number of
    # processors as it should".
    assert p16.compute < p2.compute / 4
    assert p16.computation_overhead < p2.computation_overhead / 4
    # Communication overhead is "clearly the most significant source of
    # overhead" at scale: it dominates every non-compute category at p=16.
    assert p16.communication_overhead > p16.computation_overhead
    assert p16.communication_overhead > p16.initialization
    assert p16.communication_overhead > p16.load_balancing
    # Initialization is small but nonzero, and shrinks per rank with p.
    assert 0 < p16.initialization < p2.initialization
