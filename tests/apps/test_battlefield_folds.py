"""The battlefield's floats do not depend on the interpreter's ``sum()``.

From Python 3.12 on, builtin ``sum()`` over floats is compensated (Neumaier
summation), so a model that reduced with it would produce different bits
on 3.11 and 3.12 -- and the pinned digests and renderings are exact.  The
battlefield folds left to right instead; these tests hold it to that.
"""

from __future__ import annotations

import ast
import importlib
import math
import pkgutil
from functools import reduce
from operator import add
from pathlib import Path

import pytest

import repro.apps.battlefield as battlefield
from repro.apps.battlefield import (
    BattlefieldApp,
    HexState,
    general_engagement,
    opposing_fronts,
    simulate_sequential,
)
from repro.graphs import HexGrid

MODULES = [
    importlib.import_module(f"{battlefield.__name__}.{info.name}")
    for info in pkgutil.iter_modules(battlefield.__path__)
]


def compensated_sum(iterable, start=0):
    """Builtin ``sum()`` as Python 3.12 computes it over floats."""
    total, compensation, seen = float(start), 0.0, False
    for x in iterable:
        seen = True
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if not seen:
        return start
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_differs_from_a_fold():
    values = [0.1] * 10
    assert compensated_sum(values) == 1.0
    assert reduce(add, values, 0) == 0.9999999999999999


def _bits(states: dict[int, HexState]) -> list[str]:
    return [repr(states[gid]) for gid in sorted(states)]


@pytest.mark.parametrize(
    "scenario",
    [
        general_engagement(grid=HexGrid(8, 8), strength_per_hex=7.3),
        opposing_fronts(grid=HexGrid(10, 10), depth=3, strength_per_hex=6.1),
    ],
    ids=["general", "fronts"],
)
def test_compensated_sum_cannot_reach_results(scenario, monkeypatch):
    plain = _bits(simulate_sequential(BattlefieldApp(scenario), 12))
    for module in MODULES:
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    patched = _bits(simulate_sequential(BattlefieldApp(scenario), 12))
    assert patched == plain


def test_no_builtin_sum_call_in_battlefield():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(battlefield.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []
