"""Table 6: execution time on 64-node random graphs (mean over 5 graphs)."""

from __future__ import annotations

from repro.bench import run_random_table
from repro.bench.paperdata import PAPER_TABLES


def test_table06_rand64(benchmark, record):
    table = benchmark.pedantic(lambda: run_random_table(64), rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)

    paper = PAPER_TABLES["table6_rand64"]
    for iters in (10, 15, 20):
        assert abs(table.rows[iters][0] - paper[iters][0]) <= 0.15 * paper[iters][0]
    row = table.rows[20]
    for idx in range(5):
        assert abs(row[idx] - paper[20][idx]) <= 0.6 * paper[20][idx]
    assert row[3] / row[4] < 1.6  # saturation between 8 and 16
