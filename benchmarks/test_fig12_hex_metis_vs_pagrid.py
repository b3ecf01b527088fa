"""Figure 12: Metis vs PaGrid speedups, fine and coarse grain, 64-node hex
grid (PaGrid on the hypercube processor graph, Rref = 0.45)."""

from __future__ import annotations

from repro.bench import hex_graph, run_metis_vs_pagrid


def test_fig12_hex_metis_vs_pagrid(benchmark, record):
    fig = benchmark.pedantic(
        lambda: run_metis_vs_pagrid(
            hex_graph(64), experiment_id="fig12_hex_metis_vs_pagrid"
        ),
        rounds=1,
        iterations=1,
    )
    record(fig.experiment_id, fig.render(), fig.series)

    # Headline of the figure: coarse grain scales considerably better than
    # fine grain for BOTH partitioners (paper: ~10-11 vs ~6-7 at p=16).
    assert fig.series["coarse-metis"][-1] > fig.series["fine-metis"][-1] + 1.0
    assert fig.series["coarse-pagrid"][-1] > fig.series["fine-pagrid"][-1] + 1.0
    # On hex grids the two partitioners are in the same league (the paper
    # shows them close, Metis slightly ahead).
    assert fig.series["coarse-pagrid"][-1] >= 0.6 * fig.series["coarse-metis"][-1]
    assert fig.series["fine-pagrid"][-1] >= 0.6 * fig.series["fine-metis"][-1]
    # Coarse-grain speedups land in the paper's band at p=16.
    assert 7.0 <= fig.series["coarse-metis"][-1] <= 15.0
