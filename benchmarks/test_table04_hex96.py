"""Table 4: execution time on 96-node hexagonal grids (fine grain, Metis)."""

from __future__ import annotations

from repro.bench import run_hex_table
from repro.bench.paperdata import PAPER_TABLES


def test_table04_hex96(benchmark, record):
    table = benchmark.pedantic(lambda: run_hex_table(96), rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)

    paper = PAPER_TABLES["table4_hex96"]
    for iters in (10, 15, 20):
        assert abs(table.rows[iters][0] - paper[iters][0]) <= 0.15 * paper[iters][0]
    row = table.rows[20]
    for idx in range(5):
        assert abs(row[idx] - paper[20][idx]) <= 0.6 * paper[20][idx]
    # The biggest grid achieves the best 16-processor speedup of the three
    # hex sizes (Figure 11's ordering).
    assert row[0] / row[4] > 6.0
