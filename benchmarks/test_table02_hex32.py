"""Table 2: execution time on 32-node hexagonal grids (fine grain, Metis)."""

from __future__ import annotations

from repro.bench import run_hex_table
from repro.bench.paperdata import PAPER_TABLES


def test_table02_hex32(benchmark, record):
    table = benchmark.pedantic(lambda: run_hex_table(32), rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)

    paper = PAPER_TABLES["table2_hex32"]
    # Single-processor cells are pure grain + bookkeeping: tight match.
    for iters in (10, 15, 20):
        assert abs(table.rows[iters][0] - paper[iters][0]) <= 0.15 * paper[iters][0]
    # Parallel cells: correct within a generous band, and speedup saturates
    # (16 processors buy little over 8 on a fine-grained 32-node graph).
    row = table.rows[20]
    assert row[0] > row[1] > row[2]
    assert row[3] / row[4] < 1.9  # 8 -> 16 far from a 2x improvement
    for idx in range(5):
        assert abs(row[idx] - paper[20][idx]) <= 0.6 * paper[20][idx]
