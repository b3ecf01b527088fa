"""Golden per-mode oracle for the compute/communicate superstep.

Every other conformance check in the suite is *relative* (store vs store,
backend vs backend, crashed vs clean), so a change that moves a pipeline's
virtual clock or barrier count on both sides of such a comparison passes
them all.  This file pins *absolute* results per execution mode: the order
of virtual-time charges inside a superstep is part of the result (clocks
are float sums), and ``superstep_golden.json`` is that order's fingerprint.

Grid: {dense, sparse} x {bsp, hybrid} x {overlap off, on} x {object, soa}
over three workloads -- the hex64 neighbour average (Figure 8 vs 8a on the
bulk and scalar paths: ``soa`` runs the kernel, ``object`` its scalar
twin), a quantised Jacobi plate run to quiescence (active set < owned set,
so the ``update_cost x count`` rule and the vote are exercised) and the
two-round battlefield (structured values, one frontier mask per round; no
kernel, so its ``soa`` cells, which run the application's own functions,
pin the rows of its ``object`` ones).  The plate's sparse and hybrid rows
carry three more columns: crash + checkpoint rollback, shrink recovery, and
task migration
from a skewed partition.  Each cell pins ``float.hex(elapsed)``,
``messages_delivered``, ``barriers``, ``inner_sweeps`` and a value digest.

Every path-selecting switch is passed explicitly, so ``REPRO_EXECUTION``
must not move any cell (CI re-runs this file under it): that is itself the
check that no default leaks into a pinned run.

The table was generated at the commit *before* the five ``sweep_*``
pipelines were folded into one ``superstep`` and is committed unchanged.
To regenerate (only when a change is *meant* to move virtual time)::

    PYTHONPATH=src python tests/core/test_superstep_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from pathlib import Path
from typing import Any

import pytest

from repro.apps.average import make_average_fn
from repro.apps.battlefield import BattlefieldApp, opposing_fronts
from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import HexGrid, hex64
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner, Partition

from ..twins import on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

TABLE = Path(__file__).with_name("superstep_golden.json")

NPROCS = 4

#: Small enough that an undrained interior costs a few sweeps, large enough
#: that both exits of the interior loop (drained, capped) are taken.
INNER_CAP = 4

CRASH = "crash=1@25"

#: What a cell pins, in row order.
FIELDS = ("elapsed", "messages_delivered", "barriers", "inner_sweeps", "digest")

#: Extra columns of the plate's sparse and hybrid rows.
SCENARIOS: dict[str, dict[str, Any]] = {
    "plain": {},
    "rollback": dict(checkpoint_period=10),
    "shrink": dict(checkpoint_period=10, recovery_policy="shrink"),
    "migrate": dict(dynamic_load_balancing=True, lb_period=5),
}

CELLS = list(
    itertools.product(
        ("dense", "sparse"), ("bsp", "hybrid"), (False, True), ("object", "soa")
    )
)


def _key(workload, activation, execution, overlap, store, scenario) -> str:
    order = "fig8a" if overlap else "fig8"
    return f"{workload}/{activation}/{execution}/{order}/{store}/{scenario}"


def _grid() -> list[tuple]:
    grid = []
    for workload in ("hex64", "plate", "battlefield"):
        for activation, execution, overlap, store in CELLS:
            change_driven = activation == "sparse" or execution == "hybrid"
            for scenario in SCENARIOS:
                if scenario == "plain" or (workload == "plate" and change_driven):
                    grid.append((workload, activation, execution, overlap, store, scenario))
    return grid


GRID = _grid()
KEYS = [_key(*cell) for cell in GRID]
#: The battlefield's node functions ship no bulk kernel: its ``soa`` cells
#: run the application's own functions and its ``object`` cells their
#: scalar twins, both node by node on the object store, so each ``soa``
#: cell pins the same row as its ``object`` cell.
COPIES = {
    key: key.replace("/soa/", "/object/")
    for key in KEYS
    if key.startswith("battlefield/") and "/soa/" in key
}


def _skewed(partition: Partition) -> Partition:
    """Half of the last rank's nodes handed to rank 0: an imbalance the
    centralized balancer acts on."""
    assignment = list(partition.assignment)
    last = [i for i, proc in enumerate(assignment) if proc == NPROCS - 1]
    for i in last[: len(last) // 2]:
        assignment[i] = 0
    return Partition.from_assignment(partition.graph, assignment, NPROCS)


def _problem(workload: str, **switches: Any):
    """``(graph, node_fns, init_value, config)`` of one workload."""
    if workload == "hex64":
        config = PlatformConfig(iterations=12, **switches)
        return hex64(), make_average_fn(), float, config
    if workload == "plate":
        graph, boundary, init = hot_edge_plate(8, 8)
        config = PlatformConfig(iterations=200, converge="quiescence", **switches)
        return graph, make_jacobi_fn(boundary, quantize=1), init, config
    app = BattlefieldApp(
        opposing_fronts(grid=HexGrid(8, 8), depth=3, strength_per_hex=6.0)
    )
    return app.graph(), app.node_fns(), app.init_value, app.platform_config(4, **switches)


def _digest(values: dict[int, Any]) -> str:
    digest = hashlib.sha256()
    for gid in sorted(values):
        digest.update(f"{gid}:{values[gid]!r};".encode())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def observe(key: str) -> list[Any]:
    """Run one cell; its :data:`FIELDS`."""
    workload, activation, execution, order, store, scenario = key.split("/")
    graph, node_fns, init_value, config = _problem(
        workload,
        activation=activation,
        execution=execution,
        overlap_communication=order == "fig8a",
        hybrid_inner_cap=INNER_CAP,
        **SCENARIOS[scenario],
    )
    partition = MetisLikePartitioner(seed=0).partition(graph, NPROCS)
    if scenario == "migrate":
        partition = _skewed(partition)
    crashing = scenario in ("rollback", "shrink")
    platform = ICPlatform(graph, on_store(store, node_fns), init_value=init_value, config=config)
    result = platform.run(
        partition, faults=FaultPlan.parse(CRASH) if crashing else None, scheduler="event"
    )
    # A scenario that silently stopped happening would pin nothing.
    assert result.recoveries == (1 if crashing else 0)
    assert bool(result.migrations) == (scenario == "migrate")
    assert (result.quiesced_at is not None) == (workload == "plate")
    return [
        float.hex(result.elapsed),
        result.messages_delivered,
        result.barriers,
        result.inner_sweeps,
        _digest(result.values),
    ]


@functools.lru_cache(maxsize=None)
def _golden() -> dict[str, list[Any]]:
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_grid():
    table = _golden()
    assert sorted(table) == sorted(KEYS)
    assert all(table[copy] == table[key] for copy, key in COPIES.items())


@pytest.mark.parametrize("key", KEYS)
def test_cell_matches_golden(key):
    assert dict(zip(FIELDS, observe(key))) == dict(zip(FIELDS, _golden()[key]))


@pytest.mark.parametrize(
    "workload, store, scenario",
    sorted({(workload, store, scenario) for workload, _, _, _, store, scenario in GRID}),
)
def test_hybrid_ignores_overlap_and_activation(workload, store, scenario):
    """``execution="hybrid"`` supersedes ``activation`` and ignores
    ``overlap_communication``: all four hybrid cells are one result."""
    rows = [
        observe(_key(workload, activation, "hybrid", overlap, store, scenario))
        for activation in ("dense", "sparse")
        for overlap in (False, True)
    ]
    assert all(row == rows[0] for row in rows[1:])
    assert rows[0][3] > 0  # it really ran interior sweeps


if __name__ == "__main__":
    table = {key: observe(key) for key in KEYS}
    lines = [f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in table.items()]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} cells to {TABLE}")
