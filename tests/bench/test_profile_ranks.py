"""``tools/profile_ranks.py``: a smoke run on a two-step battlefield, and
the one-line refusal of a ``process`` workload."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[2] / "tools" / "profile_ranks.py"


def profile(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True, timeout=120
    )


def test_a_two_step_battlefield_prints_the_merged_table():
    done = profile("battlefield1024", "--iterations", "2", "--top", "5")
    assert done.returncode == 0, done.stderr
    first = done.stdout.splitlines()[0]
    assert re.fullmatch(
        r"battlefield1024: wall [\d.]+ s profiled, elapsed 0x1\.[0-9a-f]+p[-+]\d+, "
        r"8 rank threads \(thread CPU time, self time first\)",
        first,
    ), first
    assert "Ordered by: internal time" in done.stdout
    assert "due to restriction <5>" in done.stdout


def test_a_process_workload_is_refused_in_one_line():
    done = profile("plate320_process", "--iterations", "1")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "worker processes" in done.stderr
