"""Struct-of-arrays store benchmark: object vs soa on a large diffusion.

Runs the same unquantized weighted-Jacobi relaxation on a hot-edge plate
under both node-state representations and measures:

* **wall seconds** -- real host time (best of ``REPEATS``), the headline:
  the soa store computes each sweep in one vectorized numpy pass instead
  of one Python view/compute/commit cycle per node;
* **virtual seconds** -- the platform's simulated makespan, which must be
  *bit-identical* across stores (the bulk pipeline replays the scalar
  path's exact charge sequence);
* **values** -- final committed node values, also required bit-identical
  (the object store is the conformance oracle).

The full run uses a 320x320 plate (102,400 nodes) over 4 ranks and must
show at least ``MIN_SPEEDUP``x; ``--quick`` shrinks the plate to 120x120
(14,400 nodes) with a correspondingly lower ``MIN_SPEEDUP_QUICK`` floor,
since the fixed per-iteration costs (halo packing, barriers, the scalar
charge replay) amortize over fewer nodes.

Acceptance (enforced by ``_check``): values and virtual elapsed identical
across stores; soa at least ``MIN_SPEEDUP``x (full) or
``MIN_SPEEDUP_QUICK``x (quick) faster in wall time.

Run standalone (writes ``benchmarks/results/BENCH_soa.json``)::

    PYTHONPATH=src python benchmarks/soa_scaling.py          # full
    PYTHONPATH=src python benchmarks/soa_scaling.py --quick  # CI smoke

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/soa_scaling.py -q
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn
from repro.core import ICPlatform, PlatformConfig
from repro.partitioning import RowBandPartitioner

RESULTS_DIR = Path(__file__).parent / "results"

#: Wall-clock repeats per store; best-of is reported.
REPEATS = 3

#: Acceptance floor for the full-size (320x320, 102,400-node) run.
MIN_SPEEDUP = 5.0

#: Acceptance floor for ``--quick`` (120x120): per-iteration fixed costs
#: amortize over 7x fewer nodes, so the vectorization win is smaller.
MIN_SPEEDUP_QUICK = 3.0

#: Plate edge length (nodes = side**2) for full and quick runs.
SIDE_FULL = 320
SIDE_QUICK = 120

RANKS = 4
ITERATIONS = 10


# --------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------- #


def _diffuse(store: str, side: int):
    """Unquantized Jacobi on a side x side hot-edge plate, row-banded."""
    graph, boundary, init = hot_edge_plate(side, side)
    partition = RowBandPartitioner(side, side).partition(graph, RANKS)
    config = PlatformConfig(
        iterations=ITERATIONS,
        store=store,
        # One bucket per ~25 records at full size; identical for both
        # stores so the hash-probe charges cancel out of the comparison.
        hash_table_length=4096,
    )
    platform = ICPlatform(
        graph,
        make_jacobi_fn(boundary, quantize=None),
        init_value=init,
        config=config,
    )
    return platform.run(partition)


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #


@dataclass
class StoreStats:
    """One store's measurement."""

    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "virtual_seconds": round(self.virtual_seconds, 6),
            "iterations": self.iterations,
        }


@dataclass
class SparseGeometryStats:
    """Sparse bulk-view CSR-geometry cache measurement (satellite of the
    process-backend PR): repeated change-driven sweeps over a stable
    frontier reuse the gather geometry instead of rebuilding it."""

    calls: int = 0
    hits: int = 0
    cold_seconds: float = 0.0
    warm_seconds: float = 0.0

    def reuse_speedup(self) -> float:
        return self.cold_seconds / max(1e-12, self.warm_seconds)

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "hits": self.hits,
            "cold_seconds": round(self.cold_seconds, 6),
            "warm_seconds": round(self.warm_seconds, 6),
            "reuse_speedup": round(self.reuse_speedup(), 3),
        }


@dataclass
class SoAScalingResult:
    quick: bool
    side: int
    stores: dict[str, StoreStats] = field(default_factory=dict)
    values_identical: bool = False
    elapsed_identical: bool = False
    sparse_geometry: SparseGeometryStats = field(
        default_factory=SparseGeometryStats
    )

    @property
    def num_nodes(self) -> int:
        return self.side * self.side

    @property
    def min_speedup(self) -> float:
        return MIN_SPEEDUP_QUICK if self.quick else MIN_SPEEDUP

    def speedup(self) -> float:
        return self.stores["object"].wall_seconds / max(
            1e-12, self.stores["soa"].wall_seconds
        )

    def to_dict(self) -> dict:
        return {
            "benchmark": "soa_scaling",
            "quick": self.quick,
            "repeats": REPEATS,
            "side": self.side,
            "num_nodes": self.num_nodes,
            "ranks": RANKS,
            "iterations": ITERATIONS,
            "stores": {name: stats.to_dict() for name, stats in self.stores.items()},
            "speedup": round(self.speedup(), 3),
            "min_speedup": self.min_speedup,
            "values_identical": self.values_identical,
            "elapsed_identical": self.elapsed_identical,
            "sparse_geometry_cache": self.sparse_geometry.to_dict(),
        }

    def render(self) -> str:
        lines = [
            f"Object vs struct-of-arrays store, {self.side}x{self.side} plate"
            f" ({self.num_nodes} nodes, {RANKS} ranks,"
            f" {'quick' if self.quick else 'full'}, best of {REPEATS})",
            f"{'store':<8} {'wall (s)':>9} {'virtual (s)':>12} {'iters':>6}",
        ]
        for name, stats in self.stores.items():
            lines.append(
                f"{name:<8} {stats.wall_seconds:>9.4f}"
                f" {stats.virtual_seconds:>12.4f} {stats.iterations:>6}"
            )
        lines.append(
            f"speedup: {self.speedup():.2f}x (floor {self.min_speedup}x)"
            f"  values identical: {self.values_identical}"
            f"  virtual elapsed identical: {self.elapsed_identical}"
        )
        sg = self.sparse_geometry
        lines.append(
            f"sparse CSR-geometry cache: {sg.hits}/{sg.calls} hits,"
            f" cold {sg.cold_seconds:.4f}s vs warm {sg.warm_seconds:.4f}s"
            f" ({sg.reuse_speedup():.2f}x reuse speedup)"
        )
        return "\n".join(lines)


def _measure_sparse_geometry(side: int) -> SparseGeometryStats:
    """Time repeated sparse bulk views over a stable active frontier.

    Models a change-driven sweep whose frontier has stabilized: the same
    10% band of nodes is gathered every superstep.  ``cold`` clears the
    per-topology geometry memo before each call (the pre-cache behaviour,
    rebuilding the CSR slice geometry every sweep); ``warm`` lets the
    memo hit.  Kernel caches travel with the geometry, so the warm path
    skips both the positions hashing *and* the numpy gather setup.
    """
    import numpy as np

    from repro.core.soastore import SoAStore

    graph, _boundary, init = hot_edge_plate(side, side)
    store = SoAStore(0, graph, [0] * graph.num_nodes, init)
    frontier = np.arange(0, store.num_owned(), 10, dtype=np.intp)
    stats = SparseGeometryStats()
    rounds = 50
    topo = store.bulk_topology()

    start = time.perf_counter()
    for i in range(rounds):
        topo.sparse_cache.clear()
        store.bulk_view(frontier, iteration=i, round_idx=0)
    stats.cold_seconds = time.perf_counter() - start

    topo.sparse_cache.clear()
    store.sparse_geom_hits = store.sparse_geom_misses = 0
    start = time.perf_counter()
    for i in range(rounds):
        store.bulk_view(frontier, iteration=i, round_idx=0)
    stats.warm_seconds = time.perf_counter() - start
    stats.calls = rounds
    stats.hits = store.sparse_geom_hits
    return stats


def run(results_dir: Path = RESULTS_DIR, quick: bool = False) -> SoAScalingResult:
    side = SIDE_QUICK if quick else SIDE_FULL
    result = SoAScalingResult(quick=quick, side=side)
    outcomes = {}
    for store in ("soa", "object"):
        stats = StoreStats()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            outcome = _diffuse(store, side)
            best = min(best, time.perf_counter() - start)
        stats.wall_seconds = best
        stats.virtual_seconds = outcome.elapsed
        stats.iterations = outcome.iterations
        outcomes[store] = outcome
        result.stores[store] = stats
    result.values_identical = outcomes["soa"].values == outcomes["object"].values
    result.elapsed_identical = outcomes["soa"].elapsed == outcomes["object"].elapsed
    result.sparse_geometry = _measure_sparse_geometry(side)
    results_dir.mkdir(exist_ok=True)
    payload = json.dumps(result.to_dict(), indent=2) + "\n"
    (results_dir / "BENCH_soa.json").write_text(payload)
    (results_dir / "soa_scaling.txt").write_text(result.render() + "\n")
    return result


def _check(result: SoAScalingResult) -> list[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    if not result.values_identical:
        failures.append("soa final values differ from the object oracle")
    if not result.elapsed_identical:
        failures.append("soa virtual elapsed differs from the object oracle")
    speedup = result.speedup()
    if speedup < result.min_speedup:
        failures.append(
            f"soa speedup {speedup:.2f}x < {result.min_speedup}x floor"
        )
    sg = result.sparse_geometry
    if sg.hits != sg.calls - 1:
        failures.append(
            f"sparse geometry cache hit {sg.hits}/{sg.calls} warm calls"
            " (expected all but the first)"
        )
    return failures


def test_soa_scaling():
    result = run()
    print(f"\n{result.render()}\n")
    failures = _check(result)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    outcome = run(quick=quick)
    print(outcome.render())
    problems = _check(outcome)
    if problems:
        raise SystemExit("FAIL: " + "; ".join(problems))
