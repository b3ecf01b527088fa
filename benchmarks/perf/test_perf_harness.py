"""Tests of the benchmark harness itself (not part of tier-1):

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from probe import REFERENCE_NS  # noqa: E402
from tracing import Span, Tracer, self_times_ns, span_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# --------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------- #


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span("ICPlatform.run", "core.platform", -1, 0, 100, -1),
        Span("SimCluster.run", "mpi.runtime", -1, 10, 90, 0),
        # Two rank roots overlapping in time (both open while one waits).
        Span("rank_main", "core.compute", 0, 20, 80, 1),
        Span("rank_main", "core.compute", 1, 30, 85, 1),
        Span("recv", "mpi.communicator", 0, 40, 60, 2),
        Span("commit_owned", "core.store", 0, 60, 70, 2),
        Span("bulk_kernel", "apps.kernel", 1, 35, 45, 3, items=8),
        Span("allreduce", "mpi.communicator", 1, 50, 80, 3),
        Span("reduce", "mpi.communicator", 1, 55, 65, 7),
    ]
    assert self_times_ns(spans) == [
        20,  # 100 - [10, 90]
        15,  # 80 - union([20, 80], [30, 85]): overlap is not subtracted twice
        30,  # 60 - 20 - 10
        15,  # 55 - 10 - 30
        20,
        10,
        10,
        20,  # 30 - 10
        10,
    ]
    metrics = span_metrics(spans)
    assert metrics["platform_run_s"] == pytest.approx(100e-9)
    assert metrics["platform_self_s"] == pytest.approx(20e-9)
    assert metrics["cluster_run_s"] == pytest.approx(80e-9)
    # Rank work is every non-communicator self time inside a rank.
    assert metrics["rank_work_s"] == pytest.approx((30 + 15 + 10 + 10) * 1e-9)
    assert metrics["rank_comm_s"] == pytest.approx((20 + 20 + 10) * 1e-9)
    assert metrics["p2p_calls"] == 1 and metrics["collective_calls"] == 2
    assert metrics["layers"]["apps.kernel"] == {
        "self_s": pytest.approx(10e-9),
        "calls": 1,
        "items": 8,
    }


# --------------------------------------------------------------------- #
# Statistics and environment
# --------------------------------------------------------------------- #


def test_summarize_reports_median_quartiles_and_count():
    stats = run.summarize([4.0, 1.0, 3.0, 2.0, 10.0])
    assert stats["n"] == 5
    assert stats["median"] == 3.0
    assert stats["min"] == 1.0
    assert (stats["q1"], stats["q3"]) == (1.5, 7.0)
    assert run.spread([4.0, 1.0, 3.0, 2.0, 10.0]) == pytest.approx(5.5 / 3.0)
    single = run.summarize([2.5])
    assert (single["n"], single["median"], single["q1"], single["q3"]) == (1, 2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        run.summarize([])


def test_env_scrubbing_drops_repro_switches_and_caps_thread_pools():
    env = run.scrubbed_env(
        {"REPRO_STORE": "soa", "REPRO_EXECUTION": "hybrid", "PATH": "/bin", "OMP_NUM_THREADS": "8"}
    )
    assert "REPRO_STORE" not in env and "REPRO_EXECUTION" not in env
    assert env["PATH"] == "/bin"
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"


def test_benchmark_json_names_the_workloads_and_metrics_the_runner_prints():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {e["name"] for e in spec["end_to_end"]} == {"setup_s", "run_wall_s", "peak_rss_mb"}
    assert spec["paths"] == ["benchmarks/perf"]


def test_host_speed_averages_the_passes_inside_the_window():
    records = {
        0: [[100, REFERENCE_NS], [200, REFERENCE_NS // 2], [300, REFERENCE_NS // 4]],
        1: [[150, REFERENCE_NS * 2]],
    }
    assert run.host_speed(records, [0], 100, 200) == pytest.approx(1.5)  # 1x and 2x
    assert run.host_speed(records, [0], 250, 400) == pytest.approx(4.0)
    # Every CPU the sample could run on counts.
    assert run.host_speed(records, [0, 1], 100, 200) == pytest.approx((1 + 2 + 0.5) / 3)
    # A window between two passes takes the nearest one.
    assert run.host_speed(records, [0], 210, 220) == pytest.approx(2.0)


def test_host_probes_record_every_cpu_and_end_when_stopped():
    with run.HostProbes() as probes:
        time.sleep(0.3)
        records = probes.stop()
    assert sorted(records) == run.usable_cpus()
    for passes in records.values():
        assert len(passes) >= 3
        assert all(ns > 0 for _, ns in passes)
        assert [at for at, _ in passes] == sorted(at for at, _ in passes)
    assert all(proc.returncode == 0 for proc in probes.procs.values())


def _sets(first: list[float], second: list[float]) -> list[dict]:
    return [{("w", "run_wall_s"): first}, {("w", "run_wall_s"): second}]


def test_repeatability_fails_a_second_set_that_is_faster_or_slower_or_wide():
    spec = {"end_to_end": [{"name": "run_wall_s", "better": "lower", "bound": 0.10}]}
    steady = [1.0 + 0.002 * i for i in range(10)]
    (row,) = run.repeatability(spec, ["w"], _sets(steady, [v * 1.05 for v in steady]))
    assert row["passed"] and row["disagreement"] == pytest.approx(0.05)
    for factor in (1.3, 1 / 1.3):  # 30 % slower, 30 % faster: both disagree
        (row,) = run.repeatability(spec, ["w"], _sets(steady, [v * factor for v in steady]))
        assert not row["passed"]
        assert row["disagreement"] == pytest.approx(0.3)
    wide = [1.0 + 0.05 * i for i in range(10)]
    (row,) = run.repeatability(spec, ["w"], _sets(steady, wide))
    assert row["spreads"][1] > 0.10 and not row["passed"]


# --------------------------------------------------------------------- #
# Samples
# --------------------------------------------------------------------- #


def test_sample_pins_before_any_thread_and_ignores_repro_env(monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "soa")  # would flip the store if it leaked
    sample = run.run_sample("rand64_np16_ctrl", seed=0, iterations=2)
    assert sample["failures"] == []
    assert sample["pinned"]["threads_at_pin"] == 1
    assert len(sample["pinned"]["cpus"]) == 1
    assert sample["supersteps"] == 2
    assert sample["setup_raw_s"] > sample["init_s"] > 0
    assert sample["spawn_ns"] < sample["ready_ns"] < sample["init_end_ns"]
    assert sample["init_end_ns"] <= sample["run_start_ns"] < sample["run_end_ns"]
    again = run.run_sample("rand64_np16_ctrl", seed=0, iterations=2)
    assert again["digest"] == sample["digest"]
    assert again["virtual_elapsed_hex"] == sample["virtual_elapsed_hex"]
    other_seed = run.run_sample("rand64_np16_ctrl", seed=1, iterations=2)
    assert other_seed["digest"] != sample["digest"]


def _fake_sample(digest: str, wall: float) -> dict:
    return {
        "failures": [],
        "digest": digest,
        "virtual_elapsed_hex": "0x1p+0",
        "supersteps": 1,
        "messages": 2,
        "barriers": 3,
        "pinned": {"cpus": [0]},
        "spawn_ns": 0,
        "init_end_ns": 1000,
        "run_start_ns": 2000,
        "run_end_ns": 3000,
        "setup_raw_s": 0.5,
        "run_wall_raw_s": wall,
        "peak_rss_mb": 40.0,
    }


def test_failed_check_samples_are_counted_and_their_timings_discarded(monkeypatch):
    walls = iter([1.0, 100.0, 3.0, 2.0, 200.0])
    digests = iter(["good", "BAD", "good", "good", "crash"])

    def fake_run_sample(name, seed, iterations, trace_file=None):
        digest = next(digests)
        if digest == "crash":
            next(walls)
            return {"workload": name, "failures": ["sample exited with 1: boom"]}
        return _fake_sample(digest, next(walls))

    monkeypatch.setattr(run, "run_sample", fake_run_sample)
    m = run.Measurement(["battlefield1024"], seed=12345, quick=False)
    m.rounds(5, deadline=None)
    assert (m.attempted["battlefield1024"], m.failed["battlefield1024"]) == (5, 2)
    # The host ran at the reference speed during set-up, at twice it during the run.
    m.at_reference_speed({0: [[500, REFERENCE_NS], [2500, REFERENCE_NS // 2]]})
    stats = m.end_to_end("battlefield1024")["run_wall_s"]
    assert stats["n"] == 3 and stats["median"] == pytest.approx(4.0)  # 100, 200 discarded
    assert m.end_to_end("battlefield1024")["setup_s"]["median"] == pytest.approx(0.5)
    assert any("digest" in failure for failure in m.failures)
    assert any("boom" in failure for failure in m.failures)


def test_a_time_budget_never_cuts_below_the_floor_of_rounds(monkeypatch):
    monkeypatch.setattr(run, "run_sample", lambda *a, **k: _fake_sample("good", 1.0))
    m = run.Measurement(["battlefield1024"], seed=12345, quick=False)
    m.rounds(run.MIN_ROUNDS, deadline=time.monotonic() - 1.0)  # budget already spent
    assert m.attempted["battlefield1024"] == run.MIN_ROUNDS == 5
    m.rounds(0, deadline=time.monotonic() + 0.05)  # and fills what a budget leaves
    assert m.attempted["battlefield1024"] > 5


def test_expected_json_gates_known_seeds_only():
    pinned = run.load_expected()["0"]["battlefield1024"]
    sample = {**_fake_sample("x", 1.0), **pinned}
    assert run.verify(sample, pinned, None) == []
    assert run.verify({**sample, "messages": pinned["messages"] + 1}, pinned, None)
    assert run.verify({**sample, "messages": pinned["messages"] + 1}, None, None) == []


# --------------------------------------------------------------------- #
# Tracing wrappers
# --------------------------------------------------------------------- #


def test_wrappers_are_fully_removed_after_a_traced_run(tmp_path):
    from repro.core import Checkpointer, ICPlatform, IntegrityGuard, NodeStore, SoAStore
    from repro.mpi.communicator import Communicator
    from repro.mpi.message import RecvRequest
    from repro.mpi.runtime import SimCluster

    classes = (
        Communicator, RecvRequest, NodeStore, SoAStore, Checkpointer, IntegrityGuard,
        ICPlatform, SimCluster,
    )
    before = {cls: dict(cls.__dict__) for cls in classes}
    problem = WORKLOADS["rand64_np16_ctrl"].build(0, 20)
    tracer = Tracer(tmp_path)
    node_fns = tuple(tracer.wrap_node_fn(fn) for fn in problem.node_fns)

    def run_once(fns):
        platform = ICPlatform(
            problem.graph, fns, init_value=problem.init_value, config=problem.config,
            balancer=problem.balancer,
        )
        return platform.run(problem.partition, scheduler="event")

    tracer.install()
    try:
        assert Communicator.send is not before[Communicator]["send"]
        traced = run_once(node_fns)
    finally:
        tracer.remove()
    for cls in classes:
        assert dict(cls.__dict__) == before[cls], cls

    spans = tracer.spans()
    names = {span.name for span in spans}
    assert {"ICPlatform.run", "SimCluster.run", "rank_main", "isend", "recv", "barrier",
            "commit_owned", "update_shadow", "take", "refresh", "check", "node_fn"} <= names
    roots = [span for span in spans if span.name == "rank_main"]
    assert sorted(span.rank for span in roots) == list(range(16))
    cluster = next(i for i, span in enumerate(spans) if span.name == "SimCluster.run")
    assert all(span.parent == cluster for span in roots)

    # An untraced run afterwards goes through the original callables only.
    recorded = len(spans)
    untraced = run_once(problem.node_fns)
    assert len(tracer.spans()) == recorded
    assert untraced.values == traced.values and untraced.elapsed == traced.elapsed


def test_quick_run_prints_one_result_line_per_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", "battlefield1024",
         "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    spec = run.load_spec()
    assert set(result["metrics"]) == {entry["name"] for entry in spec["per_layer"]}
    assert "checks_failed/checks_attempted 0/2" in proc.stdout
    assert "unattributed_s" in proc.stdout
    assert (HERE / "out" / "trace_battlefield1024.json").is_file()
