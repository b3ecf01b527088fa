"""Tables 7-11: battlefield simulator runtimes under the five initial
partitioning schemes (Metis, gray-code BF, row band, column band,
rectangular band) on the 32x32 general-engagement battlefield."""

from __future__ import annotations

import pytest

from repro.bench import run_battlefield_table
from repro.bench.paperdata import PAPER_TABLES


@pytest.fixture(scope="module")
def tables(battlefield_app):
    """All five tables computed once (each cell is a full platform run)."""
    return {
        scheme: run_battlefield_table(scheme, app=battlefield_app)
        for scheme in ("metis", "bf", "rowband", "colband", "rectband")
    }


def test_table07_battlefield_metis(benchmark, record, tables):
    table = benchmark.pedantic(lambda: tables["metis"], rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)
    paper = PAPER_TABLES["table7_bf_metis"]
    # Sequential column: calibrated (per-step cost decays as attrition bites).
    for steps in (5, 15, 25):
        assert abs(table.rows[steps][0] - paper[steps][0]) <= 0.2 * paper[steps][0]
    # Parallel runs always beat sequential and improve through p=16.
    row = table.rows[25]
    assert row == sorted(row, reverse=True)


def test_table08_battlefield_graycode(benchmark, record, tables):
    table = benchmark.pedantic(lambda: tables["bf"], rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)
    # The headline: the fine-grained gray-code embedding is CATASTROPHIC --
    # 2 processors run slower than 1 (paper: 5.75 s vs 2.26 s at 25 steps).
    row = table.rows[25]
    assert row[1] > 1.5 * row[0]
    paper = PAPER_TABLES["table8_bf_graycode"]
    assert abs(row[1] - paper[25][1]) <= 0.5 * paper[25][1]


def test_table09_battlefield_rowband(benchmark, record, tables):
    table = benchmark.pedantic(lambda: tables["rowband"], rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)
    row = table.rows[25]
    assert row[4] < row[0]  # still profitable at p=16
    # Bands are worse than Metis at scale.
    assert row[4] > tables["metis"].rows[25][4] * 0.95


def test_table10_battlefield_colband(benchmark, record, tables):
    table = benchmark.pedantic(lambda: tables["colband"], rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)
    row = table.rows[25]
    assert row[4] < row[0]
    assert row[4] > tables["metis"].rows[25][4] * 0.95


def test_table11_battlefield_rectband(benchmark, record, tables):
    table = benchmark.pedantic(lambda: tables["rectband"], rounds=1, iterations=1)
    record(table.experiment_id, table.render(), table.rows)
    row = table.rows[25]
    # Rectangular blocks beat both band schemes (lower perimeter), as in
    # the paper's Figure 20 top tier.
    assert row[4] < tables["rowband"].rows[25][4]
    assert row[4] < tables["colband"].rows[25][4]
