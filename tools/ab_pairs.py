#!/usr/bin/env python3
"""Paired parent-vs-change runs of the repo benchmark.

    python3 tools/ab_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload fixedpoint_hybrid [--workload ...] [--pairs 10] [--seed 21]

Each pair runs ``benchmarks/perf/run.py --workload W --seed S --seconds 24
--trace 0`` once in either checkout (what the driver runs), alternating
which side goes first, with a fresh seed per pair.  Prints, per workload and
end-to-end metric, each side's median and quartiles, the pairs the change
won and lost (ties count for neither), whether the difference of the
medians exceeds the distance between the parent's own quartiles -- the rule
of the ``choosing-metrics`` guide, section 8, for a change that claims a
gain -- and the verdict a change that claims none needs (section 6.5),
against the metric's ``bound`` in the change's ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: it is not, but the run-to-run spread (the wider of the two
  sides' quartile distances) exceeds the bound, and not every run of the
  change reads better than every run of the parent;
* ``within bound`` otherwise.

Exits 1 when any pairing is ``worse``.  ``--quick`` passes ``--quick``
through instead of ``--seconds 24`` (a smoke run of the tool itself: its
timings mean nothing, so it prints the verdicts but always exits 0).

Take the parent checkout with ``git clone`` (or ``git archive``), not
``git worktree``: each side must build its samples from its own ``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: What ``BENCHMARK.json`` declares as ``run_seconds``.
RUN_SECONDS = 24


def run_once(checkout: Path, workload: str, seed: int, quick: bool) -> dict[str, float]:
    """One benchmark run in ``checkout``: ``metric -> value``; raises when a
    sample failed its checks (its timings would be discarded anyway)."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "perf" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        *(["--quick"] if quick else ["--seconds", str(RUN_SECONDS)]),
    ]  # fmt: skip
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        failed, attempted = result["failed"], result["attempted"]
        raise RuntimeError(f"{checkout}: {failed} of {attempted} samples failed their checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end_metrics(checkout: Path) -> dict[str, dict]:
    """``name -> {"better", "bound", ...}`` as ``BENCHMARK.json`` declares."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in declared["end_to_end"]}


def verdict(before: list[float], after: list[float], bound: float, sign: int) -> str:
    """``within bound`` / ``worse`` / ``unresolved`` for one metric; ``sign``
    is +1 when lower is better, -1 when higher is."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    every_run_better = max(sign * a for a in after) < min(sign * b for b in before)
    if max(p3 - p1, c3 - c1) > bound * abs(pm) and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(
    workload: str, parent: list[dict], change: list[dict], declared: dict[str, dict]
) -> list[str]:
    """Print the verdict table of one workload; returns the verdicts."""
    print(f"\n== {workload}: {len(parent)} pairs")
    print(
        f"  {'metric':<12} {'parent q1/med/q3':<26} {'change q1/med/q3':<26} "
        f"{'delta':>7}  won/lost  beyond parent spread  vs bound"
    )
    verdicts = []
    for metric in parent[0]:
        before = [run[metric] for run in parent]
        after = [run[metric] for run in change]
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        entry = declared.get(metric)
        sign = -1 if entry and entry["better"] == "higher" else 1
        won = sum(sign * a < sign * b for a, b in zip(after, before))
        lost = sum(sign * a > sign * b for a, b in zip(after, before))
        against = "-"
        if entry is not None:
            verdicts.append(verdict(before, after, entry["bound"], sign))
            against = f"{verdicts[-1]} ({entry['bound']:.0%})"
        print(
            f"  {metric:<12} {f'{p1:.4f}/{pm:.4f}/{p3:.4f}':<26} "
            f"{f'{c1:.4f}/{cm:.4f}/{c3:.4f}':<26} {(cm - pm) / pm:>+7.1%}  "
            f"{won:>3}/{lost:<4}  {'yes' if abs(cm - pm) > p3 - p1 else 'no':<20}  {against}"
        )
    return verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=21, help="seed of the first pair")
    parser.add_argument("--quick", action="store_true", help="smoke run: --quick samples")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, dict[str, list[dict]]] = {
        workload: {"parent": [], "change": []} for workload in args.workload
    }
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                metrics = run_once(sides[side], workload, args.seed + pair, args.quick)
                runs[workload][side].append(metrics)
                shown = " ".join(f"{name}={value:.4f}" for name, value in metrics.items())
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: {shown}", flush=True)
    declared = end_to_end_metrics(sides["change"])
    verdicts = [
        v
        for workload, by_side in runs.items()
        for v in summarize(workload, by_side["parent"], by_side["change"], declared)
    ]
    return 1 if "worse" in verdicts and not args.quick else 0


if __name__ == "__main__":
    sys.exit(main())
