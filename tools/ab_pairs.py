#!/usr/bin/env python3
"""Paired parent-vs-change runs of the repo benchmark.

    python3 tools/ab_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload fixedpoint_hybrid [--workload ...] [--pairs 10] [--seed 21]
    python3 tools/ab_pairs.py --anchor REV CHANGE_CHECKOUT --workload ...

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

``--out FILE`` also writes the whole record as JSON (:func:`record`):
every run's raw metrics and seed, both checkouts (directory name, git
revision where there is one, and a SHA-256 of the ``src/`` it measured,
which names the code of a working-tree copy too), the host line each run
reported (usable CPUs, python, numpy, probe pass ``calib_ms``) and the
verdicts as printed.

Take the parent checkout with ``git clone`` (or ``git archive``), not
``git worktree``: each side must build its samples from its own ``src/``.
``--anchor REV`` does that itself: it runs ``git clone`` on CHANGE's
repository into a temporary directory, checks out REV there (resolved in
CHANGE, so ``--anchor HEAD .`` pairs a working tree's uncommitted edits
against its last commit), pairs that clone as the parent, records REV and
the commit it named in the ``--out`` record, and deletes the clone
afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

#: What ``BENCHMARK.json`` declares as ``run_seconds``.
RUN_SECONDS = 24


#: The line ``run.py`` prints about the host it measured on.
HOST_LINE = re.compile(
    r"^host: (?P<cpus>\d+) usable cpus, python (?P<python>\S+), numpy (?P<numpy>\S+), "
    r"probe pass (?P<calib_ms>[\d.]+) ms",
    re.MULTILINE,
)


def run_once(checkout: Path, workload: str, seed: int, quick: bool) -> dict[str, Any]:
    """One benchmark run in ``checkout``: ``{"metrics": metric -> value,
    "host": the host line's fields}``; raises when a sample failed its
    checks (its timings would be discarded anyway)."""
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
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "host": host_fields(proc.stdout),
    }


def host_fields(stdout: str) -> dict[str, Any]:
    """The host line's fields (``{}`` when the run printed none)."""
    found = HOST_LINE.search(stdout)
    if found is None:
        return {}
    fields = found.groupdict()
    return {
        "cpus": int(fields["cpus"]),
        "python": fields["python"],
        "numpy": fields["numpy"],
        "calib_ms": float(fields["calib_ms"]),
    }


def revision(checkout: Path) -> str | None:
    """The commit ``checkout`` has checked out, if it is a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(checkout: Path) -> str | None:
    """SHA-256 over ``checkout``'s ``src/``: every file's path relative to
    it, its length and its bytes, in path order; ``None`` without a
    ``src/``.  Byte-code caches and egg-info are left out, so running or
    installing a checkout does not change its digest."""
    root = checkout / "src"
    if not root.is_dir():
        return None
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        parts = path.relative_to(root).parts
        if not path.is_file() or any(
            part == "__pycache__" or part.endswith(".egg-info") for part in parts
        ):
            continue
        data = path.read_bytes()
        digest.update(f"{'/'.join(parts)}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def resolve(checkout: Path, rev: str) -> str:
    """The commit ``rev`` names in ``checkout``'s repository."""
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ValueError(f"--anchor {rev}: not a commit of {checkout}")
    return proc.stdout.strip()


def clone(checkout: Path, commit: str, into: Path) -> Path:
    """``git clone`` ``checkout``'s repository into ``into`` at ``commit``."""
    for command in (
        ["git", "clone", "--quiet", "--no-checkout", str(checkout), str(into)],
        ["git", "-C", str(into), "checkout", "--quiet", "--detach", commit],
    ):
        subprocess.run(command, check=True, capture_output=True)
    return into


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


def compare(
    parent: list[dict], change: list[dict], declared: dict[str, dict]
) -> list[dict[str, Any]]:
    """Per metric of one workload: both sides' quartiles, the relative
    difference of the medians, pairs won and lost, whether that difference
    exceeds the parent's quartile distance, and (for a declared end-to-end
    metric) the verdict against its bound."""
    rows = []
    for metric in parent[0]:
        before = [run[metric] for run in parent]
        after = [run[metric] for run in change]
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        entry = declared.get(metric)
        sign = -1 if entry and entry["better"] == "higher" else 1
        rows.append(
            {
                "metric": metric,
                "parent": [p1, pm, p3],
                "change": [c1, cm, c3],
                "delta": (cm - pm) / pm,
                "won": sum(sign * a < sign * b for a, b in zip(after, before)),
                "lost": sum(sign * a > sign * b for a, b in zip(after, before)),
                "beyond_parent_spread": abs(cm - pm) > p3 - p1,
                "bound": entry["bound"] if entry else None,
                "verdict": verdict(before, after, entry["bound"], sign) if entry else None,
            }
        )
    return rows


def summarize(workload: str, pairs: int, rows: list[dict[str, Any]]) -> None:
    """Print the verdict table of one workload."""
    print(f"\n== {workload}: {pairs} pairs")
    print(
        f"  {'metric':<12} {'parent q1/med/q3':<26} {'change q1/med/q3':<26} "
        f"{'delta':>7}  won/lost  beyond parent spread  vs bound"
    )
    for row in rows:
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        against = "-" if row["verdict"] is None else f"{row['verdict']} ({row['bound']:.0%})"
        print(
            f"  {row['metric']:<12} {f'{p1:.4f}/{pm:.4f}/{p3:.4f}':<26} "
            f"{f'{c1:.4f}/{cm:.4f}/{c3:.4f}':<26} {row['delta']:>+7.1%}  "
            f"{row['won']:>3}/{row['lost']:<4}  "
            f"{'yes' if row['beyond_parent_spread'] else 'no':<20}  {against}"
        )


def record(
    sides: dict[str, Path],
    runs: list[dict[str, Any]],
    verdicts: dict[str, list[dict[str, Any]]],
    quick: bool,
    anchor: dict[str, str] | None = None,
) -> dict[str, Any]:
    """What ``--out`` writes: the anchor (``--anchor``'s REV and the commit
    it named, or ``None``), the checkouts (name, git revision, ``src/``
    digest), every run in the order it ran (workload, pair, seed, side, raw
    metrics, host fields) and the per-workload verdict rows."""
    return {
        "tool": "tools/ab_pairs.py",
        "quick": quick,
        "run_seconds": None if quick else RUN_SECONDS,
        "anchor": anchor,
        "checkouts": {
            side: {
                "name": path.name,
                "revision": revision(path),
                "src_sha256": source_digest(path),
            }
            for side, path in sides.items()
        },
        "runs": runs,
        "verdicts": verdicts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "checkouts", type=Path, nargs="+", metavar="CHECKOUT",
        help="PARENT CHANGE, or CHANGE alone with --anchor",
    )  # fmt: skip
    parser.add_argument("--anchor", metavar="REV", help="clone REV of CHANGE as the parent")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=21, help="seed of the first pair")
    parser.add_argument("--quick", action="store_true", help="smoke run: --quick samples")
    parser.add_argument("--out", type=Path, help="also write the record as JSON here")
    args = parser.parse_args(argv)
    if len(args.checkouts) != (1 if args.anchor else 2):
        parser.error("give PARENT and CHANGE checkouts, or --anchor REV and CHANGE alone")
    change = args.checkouts[-1].resolve()
    if args.anchor is None:
        return measure(args, {"parent": args.checkouts[0].resolve(), "change": change})
    try:
        anchor = {"rev": args.anchor, "revision": resolve(change, args.anchor)}
    except ValueError as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as scratch:
        parent = clone(change, anchor["revision"], Path(scratch) / "anchor")
        return measure(args, {"parent": parent, "change": change}, anchor)


def measure(
    args: argparse.Namespace, sides: dict[str, Path], anchor: dict[str, str] | None = None
) -> int:
    """Run the pairs, print the verdicts, write ``--out``; the exit status."""
    runs: list[dict[str, Any]] = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                seed = args.seed + pair
                measured = run_once(sides[side], workload, seed, args.quick)
                runs.append(
                    {"workload": workload, "pair": pair + 1, "seed": seed, "side": side, **measured}
                )
                shown = " ".join(f"{k}={v:.4f}" for k, v in measured["metrics"].items())
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: {shown}", flush=True)
    declared = end_to_end_metrics(sides["change"])
    verdicts = {}
    for workload in args.workload:
        by_side = {
            side: [r["metrics"] for r in runs if r["workload"] == workload and r["side"] == side]
            for side in sides
        }
        verdicts[workload] = compare(by_side["parent"], by_side["change"], declared)
        summarize(workload, args.pairs, verdicts[workload])
    if args.out is not None:
        written = record(sides, runs, verdicts, args.quick, anchor)
        args.out.write_text(json.dumps(written, indent=1) + "\n")
    worse = any(row["verdict"] == "worse" for rows in verdicts.values() for row in rows)
    return 1 if worse and not args.quick else 0


if __name__ == "__main__":
    sys.exit(main())
