#!/usr/bin/env python3
"""The performance trajectory: one table from every committed BENCH file.

    python3 tools/trajectory.py    # rewrite the table in docs/performance.md

Reads every ``BENCH_<pr>.json`` at the repo root (the records
``tools/ab_pairs.py --out`` writes) and renders one row per workload and
PR: the change side's median ``run_wall_s``, ``setup_s`` and
``peak_rss_mb`` over that record's runs, and how many pairs they came
from.  The table goes into ``docs/performance.md`` between
:data:`BEGIN` and :data:`END`; nothing else in the file changes.  Only a
record's top-level ``runs`` count: its ``earlier_rounds`` measured other
versions of the change.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "performance.md"
BEGIN = "<!-- trajectory: generated by tools/trajectory.py, do not edit -->"
END = "<!-- trajectory: end -->"
#: The metrics rendered, with their format.
METRICS = (("run_wall_s", "{:.3f}"), ("setup_s", "{:.3f}"), ("peak_rss_mb", "{:.1f}"))


def bench_files(root: Path = ROOT) -> dict[int, Path]:
    """``pr -> BENCH file``, ascending PR."""
    found = {}
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found[int(match.group(1))] = path
    return dict(sorted(found.items()))


def rows(records: dict[int, dict]) -> list[tuple]:
    """``(workload, pr, pairs, *medians)`` per workload the change side ran
    in a record, by workload, then PR."""
    out = []
    for pr, record in records.items():
        runs = [run for run in record["runs"] if run["side"] == "change"]
        for workload in sorted({run["workload"] for run in runs}):
            mine = [run["metrics"] for run in runs if run["workload"] == workload]
            medians = [statistics.median(m[name] for m in mine) for name, _ in METRICS]
            out.append((workload, pr, len(mine), *medians))
    return sorted(out, key=lambda row: (row[0], row[1]))


def render(records: dict[int, dict]) -> str:
    """The markdown table, between the markers."""
    header = ["workload", "PR", "pairs", *(f"{name} (median)" for name, _ in METRICS)]
    lines = [BEGIN, "| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    for workload, pr, pairs, *medians in rows(records):
        cells = [f"`{workload}`", str(pr), str(pairs)]
        cells += [fmt.format(value) for (_, fmt), value in zip(METRICS, medians)]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append(END)
    return "\n".join(lines)


def updated(doc: str, table: str) -> str:
    """``doc`` with the text between the markers replaced by ``table``."""
    start, stop = doc.index(BEGIN), doc.index(END) + len(END)
    return doc[:start] + table + doc[stop:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.parse_args(argv)
    records = {pr: json.loads(path.read_text()) for pr, path in bench_files().items()}
    DOC.write_text(updated(DOC.read_text(), render(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
