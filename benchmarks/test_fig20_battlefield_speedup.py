"""Figure 20: battlefield speedups for the five partitioning schemes."""

from __future__ import annotations

from repro.bench import run_battlefield_speedups


def test_fig20_battlefield_speedup(benchmark, record):
    fig = benchmark.pedantic(
        lambda: run_battlefield_speedups(steps=25), rounds=1, iterations=1
    )
    record(fig.experiment_id, fig.render(), fig.series)

    at16 = {name: series[-1] for name, series in fig.series.items()}
    # The gray-code BF partition is by far the worst (paper: below 1x until
    # p=16; ours similar).
    assert at16["bf"] < 0.5 * min(
        at16["metis"], at16["rowband"], at16["colband"], at16["rectband"]
    )
    assert fig.series["bf"][1] < 1.0  # slower than sequential at p=2
    # Metis and the rectangular blocks form the top tier, clearly ahead of
    # the bands ("Metis easily outperforms the rest"; our Metis-like and
    # the near-optimal rectangular blocks end within a whisker).
    top = max(at16["metis"], at16["rectband"])
    assert at16["metis"] >= 0.8 * top
    assert at16["rowband"] < top
    assert at16["colband"] < top
    # Speedups stay modest (the paper tops out near 2.7; the band is wide
    # because our p=2 behaves better than the paper's unexplained flat p=2).
    assert at16["metis"] < 12.0
