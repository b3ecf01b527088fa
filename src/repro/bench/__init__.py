"""Experiment harness: regenerates every table and figure of section 5."""

from .harness import (
    PERSISTENT_IMBALANCE,
    PROCS,
    OverheadResult,
    battlefield_partitioners,
    hex_graph,
    run_average_once,
    run_battlefield_speedups,
    run_battlefield_table,
    run_hex_table,
    run_metis_vs_pagrid,
    run_overheads,
    run_random_table,
    run_speedup_figure,
    run_static_vs_dynamic,
)
from .paperdata import PAPER_TABLES
from .tables import ExperimentTable, SeriesFigure, format_seconds

__all__ = [
    "ExperimentTable",
    "OverheadResult",
    "PAPER_TABLES",
    "PERSISTENT_IMBALANCE",
    "PROCS",
    "SeriesFigure",
    "battlefield_partitioners",
    "format_seconds",
    "hex_graph",
    "run_average_once",
    "run_battlefield_speedups",
    "run_battlefield_table",
    "run_hex_table",
    "run_metis_vs_pagrid",
    "run_overheads",
    "run_random_table",
    "run_speedup_figure",
    "run_static_vs_dynamic",
]
