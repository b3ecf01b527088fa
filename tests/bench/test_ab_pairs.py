"""``tools/ab_pairs.py``: the ``--out`` record, and ``--anchor``.

Two stand-in checkouts whose ``benchmarks/perf/run.py`` prints a host line
and a result line as the real one does, the change's a fixed 2 % slower;
the record must hold every run's raw metrics and seed, both checkouts, the
host fields and the verdicts the tool printed.  ``--anchor`` runs against a
small git repository with ``run_once`` stubbed: the parent is a clone of the
named commit, gone after the run, and the record names the commit.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[2] / "tools" / "ab_pairs.py"

#: A stand-in ``run.py``: metrics from the seed, scaled by the checkout's
#: ``SCALE``.
RUN_PY = """\
import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
wall = SCALE * (1.0 + seed / 100)
print("host: 2 usable cpus, python 3.11.7, numpy 1.26.4, probe pass 1.250 ms (min 1.2)")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "setup_s": {"value": 0.25, "unit": "s"},
    "run_wall_s": {"value": wall, "unit": "s"},
    "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}))
"""

BENCHMARK = {
    "end_to_end": [
        {"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]
}


@pytest.fixture
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, scale: float) -> Path:
    path = root / name
    (path / "benchmarks" / "perf").mkdir(parents=True)
    (path / "benchmarks" / "perf" / "run.py").write_text(f"SCALE = {scale}\n{RUN_PY}")
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return path


def test_the_record_holds_runs_checkouts_hosts_and_verdicts(ab_pairs, tmp_path, capsys):
    parent, change = checkout(tmp_path, "parent", 1.0), checkout(tmp_path, "change", 1.02)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--seed", "5"]
    assert ab_pairs.main([*argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    written = json.loads(out.read_text())

    assert written["tool"] == "tools/ab_pairs.py" and written["quick"] is False
    assert written["run_seconds"] == ab_pairs.RUN_SECONDS
    assert written["checkouts"] == {
        "parent": {"name": "parent", "revision": None},
        "change": {"name": "change", "revision": None},
    }
    runs = written["runs"]
    # Pairs alternate which side goes first, a fresh seed per pair.
    assert [(r["pair"], r["seed"], r["side"]) for r in runs] == [
        (1, 5, "parent"), (1, 5, "change"),
        (2, 6, "change"), (2, 6, "parent"),
        (3, 7, "parent"), (3, 7, "change"),
    ]  # fmt: skip
    for run in runs:
        assert run["workload"] == "w"
        assert set(run["metrics"]) == {"setup_s", "run_wall_s", "peak_rss_mb"}
        scale = 1.02 if run["side"] == "change" else 1.0
        assert run["metrics"]["run_wall_s"] == pytest.approx(scale * (1 + run["seed"] / 100))
        assert run["host"] == {"cpus": 2, "python": "3.11.7", "numpy": "1.26.4", "calib_ms": 1.25}

    rows = {row["metric"]: row for row in written["verdicts"]["w"]}
    assert set(rows) == {"setup_s", "run_wall_s", "peak_rss_mb"}
    wall = rows["run_wall_s"]
    assert (wall["won"], wall["lost"], wall["bound"]) == (0, 3, 0.1)
    assert wall["delta"] == pytest.approx(0.02)
    # 2 % is past the parent's own quartile distance (1 %), inside the bound.
    assert wall["verdict"] == "within bound" and wall["beyond_parent_spread"] is True
    assert rows["setup_s"]["verdict"] == "within bound"
    # The verdicts are the ones the tool printed.
    for row in written["verdicts"]["w"]:
        line = next(text for text in printed.splitlines() if text.strip().startswith(row["metric"]))
        assert f"{row['delta']:+.1%}" in line and row["verdict"] in line


def test_a_run_without_a_host_line_records_no_host_fields(ab_pairs):
    assert ab_pairs.host_fields("no host here\n{}") == {}


def git(repo: Path, *args: str) -> str:
    command = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.invalid"]
    command += ["-c", "commit.gpgsign=false", *args]
    return subprocess.run(command, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A two-commit repository whose working tree has an uncommitted edit:
    ``version.txt`` reads 1, then 2, then 3 (uncommitted)."""
    path = tmp_path / "repo"
    path.mkdir()
    git(path, "init", "--quiet")
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for version in ("1", "2"):
        (path / "version.txt").write_text(version)
        git(path, "add", ".")
        git(path, "commit", "--quiet", "-m", f"version {version}")
    (path / "version.txt").write_text("3")
    return path


@pytest.fixture
def seen(ab_pairs, monkeypatch):
    """Stub ``run_once``: each call's checkout and the ``version.txt`` it
    holds; ``run_wall_s`` is one over that version (later runs faster)."""
    calls = []

    def run_once(checkout, workload, seed, quick):
        version = (checkout / "version.txt").read_text()
        calls.append((checkout, version))
        return {"metrics": {"run_wall_s": 1 / int(version), "setup_s": 0.25}, "host": {}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return calls


def test_anchor_pairs_a_clone_of_rev_against_the_working_tree(ab_pairs, repo, seen, tmp_path):
    first, head = git(repo, "rev-parse", "HEAD~1"), git(repo, "rev-parse", "HEAD")
    out = tmp_path / "BENCH.json"
    argv = ["--anchor", "HEAD~1", str(repo), "--workload", "w", "--pairs", "2", "--out", str(out)]
    assert ab_pairs.main(argv) == 0

    clones = {checkout for checkout, version in seen if checkout != repo}
    assert len(clones) == 1 and not clones.pop().exists()  # deleted afterwards
    assert sorted(version for _, version in seen) == ["1", "1", "3", "3"]
    assert all(version == "3" for checkout, version in seen if checkout == repo)
    written = json.loads(out.read_text())
    assert written["anchor"] == {"rev": "HEAD~1", "revision": first}
    assert written["checkouts"]["parent"]["revision"] == first
    assert written["checkouts"]["change"] == {"name": "repo", "revision": head}
    assert [(r["pair"], r["side"]) for r in written["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
    ]  # fmt: skip
    wall = next(row for row in written["verdicts"]["w"] if row["metric"] == "run_wall_s")
    assert (wall["parent"][1], wall["change"][1]) == (1.0, pytest.approx(1 / 3))


def test_without_anchor_the_record_says_none(ab_pairs, repo, seen, tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [str(repo), str(repo), "--workload", "w", "--pairs", "1", "--out", str(out)]
    assert ab_pairs.main(argv) == 0
    assert json.loads(out.read_text())["anchor"] is None
    assert [checkout for checkout, _ in seen] == [repo, repo]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--anchor", "HEAD", "{repo}", "{repo}"], "or --anchor REV and CHANGE alone"),
        (["{repo}"], "give PARENT and CHANGE checkouts"),
        (["--anchor", "no-such-rev", "{repo}"], "--anchor no-such-rev: not a commit of"),
    ],
)
def test_anchor_argument_errors_run_nothing(ab_pairs, repo, seen, capsys, argv, message):
    argv = [arg.format(repo=repo) for arg in argv] + ["--workload", "w"]
    with pytest.raises(SystemExit) as exit_info:
        ab_pairs.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert seen == []
