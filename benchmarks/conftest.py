"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
(section 5), or one claim of a platform extension, on the virtual-time
substrate, asserts its *shape* claims (who wins, where scaling saturates),
and hands a rendering plus its measured cells to ``record``, which writes
``benchmarks/results/<id>.txt``.  That committed file is the pinned
expectation: the rendering for readers, the trailing ``exact:`` lines
(every cell as ``float.hex``) for the diff.  Wall-clock numbers are
asserted but never rendered, so the files do not depend on the host.

Run with (CI does, then fails on any difference)::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/perf -q
    git diff --exit-code -- benchmarks/results
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Mapping, Sequence

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_rendering(
    results_dir: Path,
    experiment_id: str,
    rendered: str,
    cells: Mapping[object, Sequence[float]],
) -> None:
    """Write ``<id>.txt``: the rendering, then its cells bit for bit."""
    # Imported here: this conftest is also loaded for ``benchmarks/perf``,
    # whose tests run without ``src`` on the path.
    from repro.bench.tables import exact_lines

    text = "\n".join([rendered, *exact_lines(cells)])
    (results_dir / f"{experiment_id}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def record(results_dir):
    """``record(experiment_id, rendered, cells)``: persist one result (a
    pure function of its arguments) and echo it to stdout."""
    return functools.partial(write_rendering, results_dir)


@pytest.fixture(scope="session")
def battlefield_app():
    """The canonical Tables-7-11 battlefield application (32x32 general
    engagement), shared across benches since construction is cheap but the
    graph build is not free."""
    from repro.apps.battlefield import BattlefieldApp, general_engagement

    return BattlefieldApp(general_engagement())


def assert_close_shape(ours, paper, rel=0.6):
    """Every cell within a generous relative band of the paper's value.

    The substrate is a calibrated simulator, not the authors' Origin-2000;
    the default band (+-60 %) catches order-of-magnitude drift while
    tolerating model error.
    """
    for row_ours, row_paper in zip(ours, paper):
        assert abs(row_ours - row_paper) <= rel * row_paper, (
            f"{row_ours} vs paper {row_paper}"
        )
