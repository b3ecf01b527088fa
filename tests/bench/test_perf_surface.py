"""What ``benchmarks/perf/`` takes from ``src/`` still exists and works.

The repo benchmark imports the platform and calls the communicator from
scripts no tier-1 test imports, so a rename or a narrowed signature in
``src/`` would pass CI and then fail the benchmark.  Two guards: every
``repro`` import in those scripts resolves, and the point-to-point call
shapes of ``micro.py``'s hand-off probe complete on a small ring.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.mpi import run_mpi

PERF = Path(__file__).parents[2] / "benchmarks" / "perf"


def repro_imports() -> list[tuple[str, str, str | None]]:
    """``(script, module, name)`` of every ``repro`` import in the scripts
    (``name`` None for a plain ``import repro.x``)."""
    found = []
    for path in sorted(PERF.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.startswith("repro")
                ]
    return found


def test_every_repro_import_resolves():
    found = repro_imports()
    assert {script for script, _, _ in found} >= {"micro.py", "sample.py", "tracing.py"}
    unresolved = []
    for script, module, name in found:
        imported = importlib.import_module(module)  # raises for a missing module
        if name is not None and not hasattr(imported, name):
            unresolved.append(f"{script}: from {module} import {name}")
    assert unresolved == []


RANKS, LAPS = 4, 3


def _token_ring(comm):
    """``micro.py``'s token ring: rank 0 starts, everyone passes it on."""
    nxt, prev = (comm.rank + 1) % RANKS, (comm.rank - 1) % RANKS
    got = []
    for lap in range(LAPS):
        if comm.rank == 0:
            comm.send(lap, nxt)
            got.append(comm.recv(source=prev))
        else:
            got.append(comm.recv(source=prev))
            comm.send(got[-1], nxt)
    return got


def _stream(comm):
    """``micro.py``'s stream: every send first, then every receive."""
    nxt, prev = (comm.rank + 1) % RANKS, (comm.rank - 1) % RANKS
    for lap in range(LAPS):
        comm.send(lap, nxt)
    return [comm.recv(source=prev) for _ in range(LAPS)]


@pytest.mark.parametrize("program", [_token_ring, _stream])
def test_micro_call_shapes_complete(program):
    """``send(obj, dest)`` pairs with ``recv(source=...)``: the default
    tags agree, and every rank receives the laps in order."""
    assert run_mpi(program, RANKS, scheduler="event") == [list(range(LAPS))] * RANKS
