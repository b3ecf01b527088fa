"""Figure 16: speedups for 32- and 64-node random graphs (static, Metis)."""

from __future__ import annotations

from repro.bench import run_random_table, run_speedup_figure


def test_fig16_random_speedup(benchmark, record):
    def build():
        tables = [
            run_random_table(n, iterations_list=(20,)) for n in (32, 64)
        ]
        return run_speedup_figure(
            tables,
            iterations=20,
            experiment_id="fig16_random_speedup",
            title="Speed-up plots for static partition (random graphs, Metis)",
        )

    fig = benchmark.pedantic(build, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    (label32, s32), (label64, s64) = fig.series.items()
    # The figure's note: "the speed-up dips slightly when the number of
    # processors increases from 8 to 16" -- reproduce at least a flattening.
    assert s32[4] < s32[3] * 1.35
    # 64-node scales further than 32-node.
    assert s64[-1] > s32[-1]
    # Band check against the paper (~4.4 and ~5.9 at p=16, ours similar).
    assert 2.5 <= s32[-1] <= 7.0
    assert 3.5 <= s64[-1] <= 9.0
