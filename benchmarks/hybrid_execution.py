"""Hybrid sync/async execution benchmark: BSP vs boundary-only sync.

``execution="hybrid"`` keeps the boundary phase of every superstep
exactly BSP (compute cut-adjacent nodes, exchange deltas, barrier) but
lets each rank chase its *interior* frontier locally -- no messages, no
barrier -- until it drains or ``hybrid_inner_cap`` sweeps are spent.
For order-insensitive fixed-point workloads the fixed point is
unchanged while the superstep count collapses, and with it the two
costs global synchronization actually charges:

* **barriers** -- global synchronizations crossed before quiescence;
* **messages** -- point-to-point deliveries (halo exchanges happen once
  per superstep, so fewer supersteps means proportionally less halo
  traffic);
* **virtual / wall seconds** -- reported for honesty: hybrid *spends*
  compute (interior nodes relax many times per superstep) to *save*
  synchronization, so on a simulated machine where barriers are cheap
  the makespan can grow even as barrier and message counts collapse.
  The mode targets the regime where synchronization, not FLOPs, is the
  bottleneck.

Workload: quantized weighted-Jacobi relaxation on the hot-edge plate
(16x16 full, 12x12 quick), 2-way Metis partition -- interiors dominate
the cut, the GraphHP sweet spot -- run to quiescence.

Acceptance (enforced by ``_check``): hybrid reaches the same fixed
point as BSP (tolerance-equal values), crosses at least
``MIN_BARRIER_REDUCTION``x fewer barriers, delivers at least
``MIN_MESSAGE_REDUCTION``x fewer messages, and is bit-identical
hybrid-vs-hybrid across the event and process backends and
``SCHEDULE_SEEDS`` seeded host schedules of the event backend.

Run standalone (writes ``benchmarks/results/BENCH_hybrid.json``)::

    PYTHONPATH=src python benchmarks/hybrid_execution.py          # full
    PYTHONPATH=src python benchmarks/hybrid_execution.py --quick  # CI smoke

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/hybrid_execution.py -q
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn, residual
from repro.core import ICPlatform, PlatformConfig
from repro.partitioning import MetisLikePartitioner

RESULTS_DIR = Path(__file__).parent / "results"

#: Wall-clock repeats per mode; best-of is reported.
REPEATS = 3

#: Acceptance floors at matched convergence (both modes quiesced).
MIN_BARRIER_REDUCTION = 2.0
MIN_MESSAGE_REDUCTION = 1.5

#: Fixed-point agreement tolerance (the workload's quantized residual).
TOL = 1e-4

#: Seeded host schedules (``schedule_seed`` 0..N-1) for the determinism fuzz.
SCHEDULE_SEEDS = 10
SCHEDULE_SEEDS_QUICK = 3

INNER_CAP = 64


def _run(execution: str, quick: bool, *, scheduler=None, seed=None,
         store=None):
    rows = 12 if quick else 16
    graph, boundary, init = hot_edge_plate(rows, rows)
    partition = MetisLikePartitioner(seed=0).partition(graph, 2)
    config = PlatformConfig(
        iterations=2000,
        converge="quiescence",
        execution=execution,
        hybrid_inner_cap=INNER_CAP,
        **({"store": store} if store else {}),
    )
    platform = ICPlatform(
        graph, make_jacobi_fn(boundary, quantize=4), init_value=init,
        config=config,
    )
    outcome = platform.run(partition, scheduler=scheduler, schedule_seed=seed)
    return outcome, graph, boundary


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #


@dataclass
class ModeStats:
    """One execution mode's measurement."""

    barriers: int = 0
    messages: int = 0
    inner_sweeps: int = 0
    virtual_seconds: float = 0.0
    wall_seconds: float = 0.0
    quiesced_at: int | None = None
    residual: float = 0.0

    def to_dict(self) -> dict:
        return {
            "barriers": self.barriers,
            "messages": self.messages,
            "inner_sweeps": self.inner_sweeps,
            "virtual_seconds": round(self.virtual_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "quiesced_at": self.quiesced_at,
            "residual": self.residual,
        }


@dataclass
class HybridExecutionResult:
    quick: bool
    modes: dict[str, ModeStats] = field(default_factory=dict)
    max_value_diff: float = 0.0
    determinism: dict[str, bool] = field(default_factory=dict)

    def reduction(self, axis: str) -> float:
        return getattr(self.modes["bsp"], axis) / max(
            1, getattr(self.modes["hybrid"], axis)
        )

    def to_dict(self) -> dict:
        return {
            "benchmark": "hybrid_execution",
            "quick": self.quick,
            "repeats": REPEATS,
            "inner_cap": INNER_CAP,
            "modes": {label: s.to_dict() for label, s in self.modes.items()},
            "max_value_diff": self.max_value_diff,
            "barrier_reduction": round(self.reduction("barriers"), 3),
            "message_reduction": round(self.reduction("messages"), 3),
            "determinism": self.determinism,
        }

    def render(self) -> str:
        lines = [
            f"BSP vs hybrid execution "
            f"({'quick' if self.quick else 'full'}, best of {REPEATS}, "
            f"inner cap {INNER_CAP})",
            f"{'mode':<8} {'barriers':>9} {'messages':>9} {'inner':>7}"
            f" {'virtual (s)':>12} {'wall (s)':>9} {'quiesced':>9}",
        ]
        for label, s in self.modes.items():
            lines.append(
                f"{label:<8} {s.barriers:>9} {s.messages:>9} {s.inner_sweeps:>7}"
                f" {s.virtual_seconds:>12.4f} {s.wall_seconds:>9.4f}"
                f" {str(s.quiesced_at):>9}"
            )
        lines.append(
            f"barrier reduction: {self.reduction('barriers'):.2f}x, "
            f"message reduction: {self.reduction('messages'):.2f}x, "
            f"max fixed-point diff: {self.max_value_diff}"
        )
        lines.append(
            "determinism: "
            + ", ".join(f"{k}={v}" for k, v in self.determinism.items())
        )
        return "\n".join(lines)


def run(results_dir: Path = RESULTS_DIR, quick: bool = False) -> HybridExecutionResult:
    result = HybridExecutionResult(quick=quick)
    values = {}
    for label in ("bsp", "hybrid"):
        stats = ModeStats()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            outcome, graph, boundary = _run(label, quick)
            best = min(best, time.perf_counter() - start)
        stats.wall_seconds = best
        stats.barriers = outcome.barriers
        stats.messages = outcome.messages_delivered
        stats.inner_sweeps = outcome.inner_sweeps
        stats.virtual_seconds = outcome.elapsed
        stats.quiesced_at = outcome.quiesced_at
        stats.residual = residual(graph, outcome.values, boundary)
        values[label] = outcome.values
        result.modes[label] = stats
    result.max_value_diff = max(
        abs(values["bsp"][g] - values["hybrid"][g]) for g in values["bsp"]
    )

    # Determinism fuzz: hybrid-vs-hybrid bit identity on both backends
    # and across seeded host schedules.
    reference = values["hybrid"]
    ref_elapsed = result.modes["hybrid"].virtual_seconds
    process, _, _ = _run("hybrid", quick, scheduler="process", store="soa")
    result.determinism["process"] = (
        process.values == reference and process.elapsed == ref_elapsed
    )
    seeds = SCHEDULE_SEEDS_QUICK if quick else SCHEDULE_SEEDS
    seeded_ok = True
    for seed in range(seeds):
        run_, _, _ = _run("hybrid", quick, seed=seed)
        seeded_ok = seeded_ok and (
            run_.values == reference and run_.elapsed == ref_elapsed
        )
    result.determinism[f"schedule_seeds_x{seeds}"] = seeded_ok

    results_dir.mkdir(exist_ok=True)
    payload = json.dumps(result.to_dict(), indent=2) + "\n"
    (results_dir / "BENCH_hybrid.json").write_text(payload)
    (results_dir / "hybrid_execution.txt").write_text(result.render() + "\n")
    return result


def _check(result: HybridExecutionResult) -> list[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    for label, stats in result.modes.items():
        if stats.quiesced_at is None:
            failures.append(f"{label}: never quiesced")
        if stats.residual > TOL:
            failures.append(f"{label}: residual {stats.residual} > {TOL}")
    if result.max_value_diff > TOL:
        failures.append(
            f"fixed points diverge by {result.max_value_diff} > {TOL}"
        )
    barriers = result.reduction("barriers")
    if barriers < MIN_BARRIER_REDUCTION:
        failures.append(
            f"barrier reduction {barriers:.2f}x < {MIN_BARRIER_REDUCTION}x"
        )
    messages = result.reduction("messages")
    if messages < MIN_MESSAGE_REDUCTION:
        failures.append(
            f"message reduction {messages:.2f}x < {MIN_MESSAGE_REDUCTION}x"
        )
    for label, ok in result.determinism.items():
        if not ok:
            failures.append(f"hybrid determinism broken: {label}")
    return failures


def test_hybrid_execution():
    result = run(quick=True)
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
