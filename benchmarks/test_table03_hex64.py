"""Table 3: execution time on 64-node hexagonal grids (fine grain, Metis)."""

from __future__ import annotations

from repro.bench import run_hex_table
from repro.bench.paperdata import PAPER_TABLES


def test_table03_hex64(benchmark, record):
    table = benchmark.pedantic(lambda: run_hex_table(64), rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)

    paper = PAPER_TABLES["table3_hex64"]
    for iters in (10, 15, 20):
        assert abs(table.rows[iters][0] - paper[iters][0]) <= 0.15 * paper[iters][0]
    row = table.rows[20]
    assert row == sorted(row, reverse=True), "monotone scaling through p=16"
    for idx in range(5):
        assert abs(row[idx] - paper[20][idx]) <= 0.6 * paper[20][idx]
    # 64 nodes scale further than 32 before saturating.
    assert row[0] / row[4] > 5.0
