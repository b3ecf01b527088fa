"""Figure 11: speedup plots for 32/64/96-node hexagonal grids (Metis)."""

from __future__ import annotations

from repro.bench import run_hex_table, run_speedup_figure


def test_fig11_hex_speedup(benchmark, record):
    def build():
        tables = [run_hex_table(n, iterations_list=(20,)) for n in (32, 64, 96)]
        return run_speedup_figure(
            tables,
            iterations=20,
            experiment_id="fig11_hex_speedup",
            title="Speed-up plots for static partition (hex grids, Metis)",
        )

    fig = benchmark.pedantic(build, rounds=1, iterations=1)
    record(fig.experiment_id, fig.render(), fig.series)

    s32 = fig.series["32-node hexagonal grids"]
    s64 = fig.series["64-node hexagonal grids"]
    s96 = fig.series["96-node hexagonal grids"]
    # Larger graphs scale further (paper: ~5 / ~7 / ~8 at p=16).
    assert s32[-1] < s64[-1] < s96[-1]
    # All speedups exceed 1 past a single processor and stay below linear.
    for series in (s32, s64, s96):
        assert series[0] == 1.0
        assert all(s > 1.0 for s in series[1:])
        assert series[-1] < 16
    # Paper's p=16 band: 4.8 (32-node) to 8.3 (96-node).
    assert 3.0 <= s32[-1] <= 7.5
    assert 5.0 <= s96[-1] <= 12.0
