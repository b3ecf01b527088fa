"""The gate under ``benchmarks/results/``: CI reruns the benchmark suite and fails
on ``git diff``, so what ``record`` writes must be a pure function of the result,
sharp to the last bit, and every committed file must have a producer."""

from __future__ import annotations

import ast
import importlib.util
import math
from pathlib import Path

import repro.bench
from repro.bench import SeriesFigure
from repro.bench import harness

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _write_rendering():
    """``benchmarks/conftest.py::write_rendering`` (what the ``record`` fixture binds)."""
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", BENCHMARKS / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_rendering


def _figure(nudge_ulp: bool = False) -> SeriesFigure:
    fig = SeriesFigure("gate", "A figure", procs=[1, 2, 4], ylabel="seconds")
    fig.add("static", [0.75, 0.4, 0.1 + 0.2])
    fig.add("dynamic", [0.75, math.nextafter(0.3, 1.0) if nudge_ulp else 0.3, 0.2])
    return fig


class TestRecord:
    def test_same_result_gives_byte_identical_file(self, tmp_path):
        write = _write_rendering()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for where in ("a", "b"):
            fig = _figure()
            write(tmp_path / where, fig.experiment_id, fig.render(), fig.series)
        first = (tmp_path / "a" / "gate.txt").read_bytes()
        assert first == (tmp_path / "b" / "gate.txt").read_bytes()
        assert first.endswith(b"\n") and not first.endswith(b"\n\n")

    def test_one_ulp_moves_the_exact_line_and_nothing_above_it(self, tmp_path):
        write = _write_rendering()
        texts = []
        for nudge in (False, True):
            fig = _figure(nudge_ulp=nudge)
            write(tmp_path, fig.experiment_id, fig.render(), fig.series)
            texts.append((tmp_path / "gate.txt").read_text().splitlines())
        before, after = texts
        assert len(before) == len(after)
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        # The rendering rounds the ulp away; only the nudged series' exact line moves.
        assert changed == [len(before) - 1]
        assert before[-1].startswith("exact: dynamic = ")
        assert before[-2] == after[-2] == (
            "exact: static = " + " ".join(v.hex() for v in (0.75, 0.4, 0.1 + 0.2))
        )
        assert not any(line.startswith("exact:") for line in before[:-2])


def test_every_public_bench_name_resolves():
    for module in (repro.bench, harness):
        for name in module.__all__:
            assert getattr(module, name) is not None, name
    assert len(set(repro.bench.__all__)) == len(repro.bench.__all__)


def _string_constants(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_committed_result_has_a_producer():
    """Static scan: each ``results/<id>.txt`` is an id some ``benchmarks/test_*.py``
    records -- spelled there, or in the harness whose result object names itself.
    Catches the next orphan (a rendering whose benchmark was deleted or renamed)."""
    tests = sorted(BENCHMARKS.glob("test_*.py"))
    assert all("record(" in path.read_text() for path in tests)
    ids = set().union(
        _string_constants(Path(harness.__file__)), *(_string_constants(p) for p in tests)
    )
    results = sorted((BENCHMARKS / "results").iterdir())
    assert results, "no committed renderings"
    orphans = [p.name for p in results if p.suffix != ".txt" or p.stem not in ids]
    assert not orphans, f"no benchmarks/test_*.py records {orphans}"
    for path in results:
        assert path.read_text().rstrip("\n").splitlines()[-1].startswith("exact: "), path.name
