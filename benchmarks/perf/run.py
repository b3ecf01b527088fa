"""The repo benchmark: five workloads, host wall and virtual time, per layer.

One closed-loop client, one job at a time.  Every sample is a fresh
``sample.py`` subprocess that pins itself (one CPU for the event-scheduler
workloads, every usable CPU for the process backend), builds the workload
from ``--seed``, runs it and prints one JSON line; this parent visits the
selected workloads in rounds -- so host drift lands on every workload
alike -- checks every sample's outputs, and reports medians.  ``probe.py``
sidecars watch the speed of every CPU meanwhile, and the two time metrics
are walls at the reference host speed.

    python3 benchmarks/perf/run.py                      # all five, 7 rounds
    python3 benchmarks/perf/run.py --trace 1            # + per-layer table
    python3 benchmarks/perf/run.py --quick              # smoke run, seconds
    python3 benchmarks/perf/run.py --selfcheck          # repeatability table
    python3 benchmarks/perf/run.py --rebaseline         # print expected.json
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace T

The last form is what ``BENCHMARK.json`` declares: it measures one workload
for about S seconds (as many rounds as fit, never fewer than five) and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from host import usable_cpus  # noqa: E402
from probe import REFERENCE_NS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402 - imports neither numpy nor repro

#: Rounds of a run without a time budget.
ROUNDS = 7
#: Rounds of a run with one (``--seconds``): as many as fit, never fewer.
MIN_ROUNDS = 5
#: Runs per set of ``--selfcheck``, each on its own seed (as the driver does).
SELFCHECK_RUNS = 10
EVENT_TWIN = "plate320_event"
PROCESS_TWIN = "plate320_process"
#: Outputs that repeat to the bit between samples of one problem, whatever
#: the scheduler.
BIT_KEYS = ("digest", "virtual_elapsed_hex")
#: Exact per-sample outputs pinned in ``expected.json``.
EXPECTED_KEYS = BIT_KEYS + ("supersteps", "messages", "barriers")
SAMPLE_TIMEOUT_S = 170


# --------------------------------------------------------------------- #
# Host
# --------------------------------------------------------------------- #


def host_info() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unavailable"
    return {
        "cpus": len(usable_cpus()),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def summarize(values: list[float]) -> dict:
    """Median with the sample count, minimum and quartiles beside it."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples to summarize")
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    return {
        "n": n,
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
    }


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    stats = summarize(values)
    return (stats["q3"] - stats["q1"]) / stats["median"]


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #


class HostProbes:
    """One ``probe.py`` sidecar per usable CPU, for the length of a
    measurement; ``stop()`` returns what they saw."""

    def __enter__(self) -> "HostProbes":
        self.procs = {
            cpu: subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), str(cpu)],
                env=scrubbed_env(os.environ),
                stdout=subprocess.PIPE,
                text=True,
            )
            for cpu in usable_cpus()
        }
        for proc in self.procs.values():
            proc.stdout.readline()  # "ready"
        return self

    def stop(self) -> dict[int, list[list[int]]]:
        """Per CPU, the ``[monotonic_ns, pass_cpu_ns]`` records, in time order."""
        for proc in self.procs.values():
            proc.terminate()
        return {cpu: json.loads(proc.communicate()[0]) for cpu, proc in self.procs.items()}

    def __exit__(self, *exc) -> None:
        for proc in self.procs.values():  # only still alive after an error
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def host_speed(
    records: dict[int, list[list[int]]], cpus: list[int], start_ns: int, end_ns: int
) -> float:
    """Mean speed of ``cpus`` between two instants; 1.0 is the reference host.

    Work done is speed integrated over time, so the mean is over the speeds
    (reference pass time / pass time) of the probe passes inside the window;
    a window shorter than the probe period takes the nearest pass.
    """
    speeds = []
    for cpu in cpus:
        passes = records[cpu]
        inside = [ns for at, ns in passes if start_ns <= at <= end_ns]
        if not inside:
            inside = [min(passes, key=lambda record: abs(record[0] - start_ns))[1]]
        speeds += [REFERENCE_NS / ns for ns in inside]
    return statistics.fmean(speeds)


# --------------------------------------------------------------------- #
# Samples
# --------------------------------------------------------------------- #


def scrubbed_env(env) -> dict:
    """The sample's environment: no ``REPRO_*`` switch leaks in, and no
    numeric library starts a thread pool beside the workload's own threads."""
    clean = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        clean[var] = "1"
    return clean


def _run_group(cmd: list[str]) -> tuple[int | None, str, str]:
    """Run ``cmd`` in its own process group; on timeout kill the whole group
    (a sample may have forked workers) and return ``None`` as exit code."""
    with subprocess.Popen(
        cmd,
        env=scrubbed_env(os.environ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "", ""
    return proc.returncode, stdout, stderr


def run_sample(
    name: str, seed: int, iterations: int, trace_file: Path | None = None
) -> dict:
    """Spawn one sample; return its JSON plus what only the parent can time
    (raw walls: ``Measurement.at_reference_speed`` adds the two metrics).

    A sample that crashes, times out or prints no JSON comes back as a
    record with a ``failures`` entry and no timings.
    """
    cmd = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--iterations",
        str(iterations),
    ]
    if trace_file is not None:
        cmd += ["--trace", "1", "--trace-file", str(trace_file)]
    spawn_ns = time.monotonic_ns()
    returncode, stdout, stderr = _run_group(cmd)
    if returncode is None:
        return {"workload": name, "failures": [f"timed out after {SAMPLE_TIMEOUT_S} s"]}
    lines = stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1]) if returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        sample = None
    if sample is None:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "workload": name,
            "failures": [f"sample exited with {returncode}: {tail[0]}"],
        }
    if "resource_tracker" in stderr:
        sample["failures"].append("resource_tracker warning on stderr")
    if sample["pinned"]["threads_at_pin"] != 1:
        sample["failures"].append("threads existed before the CPU pin")
    # CLOCK_MONOTONIC is one clock for parent and child.
    sample["spawn_ns"] = spawn_ns
    sample["setup_raw_s"] = (sample["ready_ns"] - spawn_ns) / 1e9 + sample["init_s"]
    return sample


def run_micro(kind: str, cpus: str, scale: int) -> float:
    cmd = [sys.executable, str(HERE / "micro.py")]
    cmd += ["--kind", kind, "--cpus", cpus, "--scale", str(scale)]
    returncode, stdout, stderr = _run_group(cmd)
    if returncode != 0:
        raise RuntimeError(f"micro.py --kind {kind} failed: {stderr[-500:]}")
    return json.loads(stdout.strip().splitlines()[-1])["us"]


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def verify(sample: dict, expected: dict | None, reference: dict | None) -> list[str]:
    """Every reason this sample's outputs are wrong (empty when correct).

    ``expected`` is the pinned ``expected.json`` entry for this workload and
    seed (``None`` for a seed without one, or under ``--quick``);
    ``reference`` is an earlier good sample that must match to the bit --
    the same workload's first sample, or the event twin of a process sample.
    """
    failures = list(sample["failures"])
    if "digest" not in sample:
        return failures
    for other, label, keys in (
        (expected, "expected.json", EXPECTED_KEYS),
        (reference, "reference sample", BIT_KEYS),
    ):
        if other is not None:
            failures += [
                f"{key} {sample[key]!r} != {label} {other[key]!r}"
                for key in keys
                if sample[key] != other[key]
            ]
    return failures


# --------------------------------------------------------------------- #
# One measurement
# --------------------------------------------------------------------- #


class Measurement:
    """Rounds of samples over the selected workloads, checked as they land."""

    def __init__(self, names: list[str], seed: int, quick: bool) -> None:
        self.names = names
        self.seed = seed
        self.scale = 10 if quick else 1
        #: Pinned outputs for this seed (none under ``--quick``: the
        #: iteration counts differ).
        self.expected = {} if quick else load_expected().get(str(seed), {})
        self.good: dict[str, list[dict]] = {name: [] for name in names}
        #: The traced round's samples (``--trace 1``), by workload.
        self.traced: dict[str, dict | None] = {}
        self.attempted = {name: 0 for name in names}
        self.failed = {name: 0 for name in names}
        self.failures: list[str] = []
        #: Event-plate samples the process plate must match to the bit.
        self.twins: list[dict] = self.good.get(EVENT_TWIN, [])

    def iterations(self, name: str) -> int:
        return max(1, WORKLOADS[name].iterations // self.scale)

    def _reference(self, name: str) -> dict | None:
        for samples in (self.good.get(name), self.twins if name == PROCESS_TWIN else None):
            if samples:
                return samples[0]
        return None

    def sample(
        self, name: str, trace_file: Path | None = None, count_as: str | None = None
    ) -> dict | None:
        """Run and check one sample; a failed one is counted (under
        ``count_as``, by default its own workload) and discarded."""
        sample = run_sample(name, self.seed, self.iterations(name), trace_file)
        problems = verify(sample, self.expected.get(name), self._reference(name))
        count_as = count_as or name
        self.attempted[count_as] += 1
        if problems:
            self.failed[count_as] += 1
            self.failures += [f"{name}: {problem}" for problem in problems]
            return None
        return sample

    def ensure_twin(self) -> None:
        """The process plate must reproduce the event plate to the bit; when
        the event workload is not itself selected, run it once, untimed."""
        if PROCESS_TWIN in self.names and EVENT_TWIN not in self.names:
            twin = self.sample(EVENT_TWIN, count_as=PROCESS_TWIN)
            if twin is not None:
                self.twins.append(twin)

    def rounds(self, floor: int, deadline: float | None) -> None:
        """Visit every workload once per round: ``floor`` rounds, then --
        under a time budget -- as many more as end before the deadline."""
        longest = 0.0
        done = 0
        while done < floor or (
            deadline is not None and time.monotonic() + longest <= deadline
        ):
            start = time.monotonic()
            for name in self.names:
                sample = self.sample(name)
                if sample is not None:
                    self.good[name].append(sample)
            longest = max(longest, time.monotonic() - start)
            done += 1

    def traced_round(self) -> None:
        OUT.mkdir(exist_ok=True)
        for name in self.names:
            self.traced[name] = self.sample(name, OUT / f"trace_{name}.json")

    def at_reference_speed(self, records: dict[int, list[list[int]]]) -> None:
        """Add ``run_wall_s`` and ``setup_s`` to every sample: its raw walls
        times how fast its CPUs were meanwhile, as the probes saw it.

        On the sizing host the same run takes anything from 2.2 s to 4.2 s of
        raw wall from one minute to the next; over 133-249 back-to-back
        samples of each event workload, medians of six had a spread of
        9-15 % raw and 1.7-3.1 % at reference speed.
        """
        traced = [s for s in self.traced.values() if s is not None]
        for s in (s for group in (*self.good.values(), self.twins, traced) for s in group):
            cpus = s["pinned"]["cpus"]
            s["run_wall_s"] = s["run_wall_raw_s"] * host_speed(
                records, cpus, s["run_start_ns"], s["run_end_ns"]
            )
            s["setup_s"] = s["setup_raw_s"] * host_speed(
                records, cpus, s["spawn_ns"], s["init_end_ns"]
            )

    def end_to_end(self, name: str) -> dict[str, dict]:
        """Per metric: median, sample count, minimum and quartiles."""
        return {
            metric: summarize([s[metric] for s in self.good[name]])
            for metric in ("setup_s", "run_wall_s", "peak_rss_mb")
        }


# --------------------------------------------------------------------- #
# Per-layer metrics from the traced round
# --------------------------------------------------------------------- #


def micro_measurements(name: str, scale: int) -> dict[str, float]:
    """The micro-measurements that belong to a workload's traced round
    (each a fresh process; 0 where the layer does no work)."""
    out = {
        "mpi.scheduler.handoff_us": 0.0,
        "mpi.scheduler.handoff_unpinned_us": 0.0,
        "mpi.shm.ring_roundtrip_us": 0.0,
    }
    if name == "rand64_np16_ctrl":
        out["mpi.scheduler.handoff_us"] = run_micro("handoff", "one", scale)
        out["mpi.scheduler.handoff_unpinned_us"] = run_micro("handoff", "all", scale)
    if name == PROCESS_TWIN:
        out["mpi.shm.ring_roundtrip_us"] = run_micro("ring", "one", scale)
    return out


def per_layer(m: Measurement, name: str, host: dict, micro: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one workload, by its ``BENCHMARK.json`` name."""
    untraced, traced = m.good[name], m.traced[name]
    everyone = untraced + [traced]
    trace = traced["trace"]
    layers = trace["layers"]
    process = traced["scheduler"] == "process"

    def med(key: str, samples: list[dict] = everyone) -> float:
        return statistics.median(s[key] for s in samples)

    def layer(layer_name: str, field: str = "self_s") -> float:
        return layers.get(layer_name, {}).get(field, 0)

    out = {
        "cli.import_s": med("import_s"),
        "graphs.build_s": med("build_s"),
        "partitioning.partition_s": med("partition_s"),
        "partitioning.edge_cut": traced["edge_cut"],
        "core.platform.init_s": med("init_s"),
        "core.platform.self_s": trace["platform_self_s"],
        "core.platform.supersteps": traced["supersteps"],
        "core.compute.sweeps": traced["supersteps"] * traced["rounds"]
        + traced["inner_sweeps"],
        "core.compute.node_updates": layer("apps.kernel", "items"),
        "core.compute.self_s": layer("core.compute"),
        "apps.kernel_s": layer("apps.kernel"),
        "apps.kernel_calls": layer("apps.kernel", "calls"),
        "core.store.self_s": layer("core.store"),
        "core.store.calls": layer("core.store", "calls"),
        "core.store.sparse_geom_hits": traced["sparse_geom_hits"],
        "core.store.sparse_geom_misses": traced["sparse_geom_misses"],
        "core.loadbalance.self_s": layer("core.loadbalance"),
        "core.loadbalance.migrations": traced["migrations"],
        "core.checkpoint.self_s": layer("core.checkpoint"),
        "core.checkpoint.taken": traced["checkpoints"],
        "core.integrity.self_s": layer("core.integrity"),
        "mpi.communicator.p2p_calls": trace["p2p_calls"],
        "mpi.communicator.collective_calls": trace["collective_calls"],
        "mpi.runtime.messages": traced["messages"],
        "mpi.runtime.barriers": traced["barriers"],
        "mpi.runtime.busy_s": 0.0,
        **micro,
        "mpi.process.spawn_teardown_s": 0.0,
        "mpi.process.pipe_requests": 0,
        "mpi.process.worker_busy_s": 0.0,
        "mpi.process.worker_wait_s": 0.0,
        "mpi.process.worker_peak_rss_mb": 0.0,
        "mpi.process.speedup_vs_event": 0.0,
        "mpi.shm.leaked_segments": traced["leaked_segments"],
        "trace.overhead_x": traced["run_wall_s"] / med("run_wall_s", untraced),
        "run_wall_raw_s": med("run_wall_raw_s", untraced),
        "setup_raw_s": med("setup_raw_s"),
        "virtual_elapsed_s": traced["virtual_elapsed_s"],
        "host.calib_ms": host["calib_ms"],
        "host.cpus": host["cpus"],
    }
    if process:
        out.update(
            {
                "mpi.process.spawn_teardown_s": traced["init_s"] - traced["init_event_s"],
                "mpi.process.pipe_requests": trace["pipe_requests"],
                "mpi.process.worker_busy_s": trace["rank_work_s"],
                "mpi.process.worker_wait_s": trace["rank_comm_s"],
                "mpi.process.worker_peak_rss_mb": traced["worker_peak_rss_mb"],
                "mpi.process.speedup_vs_event": (
                    med("run_wall_s", m.twins) / med("run_wall_s", untraced)
                    if m.twins
                    else 0.0
                ),
            }
        )
    else:
        # One rank thread runs at a time and only yields inside communicator
        # calls: what the ranks' other layers do not cover is hand-off,
        # mailbox, communicator and thread spawn/join.
        out["mpi.runtime.busy_s"] = trace["cluster_run_s"] - trace["rank_work_s"]
    attributed = sum(seconds for _, seconds in layer_rows(out, process, trace))
    out["trace.unattributed_s"] = traced["run_wall_raw_s"] - attributed
    return out


def layer_rows(
    metrics: dict[str, float], process: bool, trace: dict
) -> list[tuple[str, float]]:
    """The layers whose self times add up to the traced ``run_wall_s``."""
    rows = [("core.platform.self_s", metrics["core.platform.self_s"])]
    if process:
        # The parent's wall is the broker loop; the workers overlap inside it.
        return rows + [("mpi.process (SimCluster.run in the parent)", trace["cluster_run_s"])]
    return rows + [
        (key, metrics[key])
        for key in (
            "mpi.runtime.busy_s",
            "core.compute.self_s",
            "apps.kernel_s",
            "core.store.self_s",
            "core.loadbalance.self_s",
            "core.checkpoint.self_s",
            "core.integrity.self_s",
        )
    ]


def layer_table(metrics: dict[str, float], traced: dict) -> str:
    process = traced["scheduler"] == "process"
    wall = traced["run_wall_raw_s"]
    lines = [f"  traced run, raw wall {wall:.4f} s, by layer:"]
    rows = layer_rows(metrics, process, traced["trace"])
    rows.append(("unattributed_s", metrics["trace.unattributed_s"]))
    for label, seconds in rows:
        lines.append(f"    {label:<44} {seconds:>9.4f} s {100 * seconds / wall:>6.1f} %")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(args: argparse.Namespace, names: list[str]) -> int:
    spec = load_spec()
    host = host_info()
    m = Measurement(names, args.seed, args.quick)
    deadline = None
    floor = 1 if args.quick else ROUNDS
    if args.seconds is not None and not args.quick:
        deadline = time.monotonic() + args.seconds * len(names)
        floor = MIN_ROUNDS
    with HostProbes() as probes:
        m.ensure_twin()
        m.rounds(floor, deadline)
        if deadline is not None and time.monotonic() > deadline:
            print(
                f"note: sampling ran {time.monotonic() - deadline:.1f} s past the "
                f"--seconds budget (rounds are never cut below {MIN_ROUNDS})",
                file=sys.stderr,
            )
        if args.trace:
            m.traced_round()
        records = probes.stop()
    m.at_reference_speed(records)
    micro = {name: micro_measurements(name, m.scale) for name in names if args.trace}

    passes_ms = [ns / 1e6 for passes in records.values() for _, ns in passes]
    host["calib_ms"] = statistics.median(passes_ms)
    print(
        f"host: {host['cpus']} usable cpus, python {host['python']}, numpy "
        f"{host['numpy']}, probe pass {host['calib_ms']:.3f} ms (min "
        f"{min(passes_ms):.3f}, max {max(passes_ms):.3f}; reference "
        f"{REFERENCE_NS / 1e6:.3f} ms)"
    )
    units = {e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for name in names:
        print(f"\n== {name} (seed {args.seed}, {m.iterations(name)} iterations)")
        print(f"  checks_failed/checks_attempted {m.failed[name]}/{m.attempted[name]}")
        if not m.good[name]:
            print("  no sample passed its checks; no timings")
            continue
        first = m.good[name][0]
        print(
            f"  virtual_elapsed_s {first['virtual_elapsed_s']!r} "
            f"({first['virtual_elapsed_hex']}), supersteps {first['supersteps']}, "
            f"messages {first['messages']}, barriers {first['barriers']}"
        )
        metrics: dict[str, float] = {}
        for metric, stats in m.end_to_end(name).items():
            entry = units[metric]
            print(
                f"  {metric:<12} {stats['median']:.4f} {entry['unit']}  (n={stats['n']},"
                f" min {stats['min']:.4f}, q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f};"
                f" bound {entry['bound']:.0%})"
            )
            metrics[metric] = stats["median"]
        for raw_key in ("run_wall_raw_s", "setup_raw_s"):
            raw = summarize([s[raw_key] for s in m.good[name]])
            print(f"  {raw_key:<14} median {raw['median']:.4f} s (min {raw['min']:.4f})")
        if args.trace:
            if m.traced[name] is None:
                print("  traced sample failed its checks; no per-layer numbers")
                continue
            metrics = per_layer(m, name, host, micro[name])
            print(layer_table(metrics, m.traced[name]))
            for metric in sorted(metrics):
                print(f"  {metric:<36} {metrics[metric]:.6g} {units[metric]['unit']}")
        results.append(
            {
                "workload": name,
                "correct": m.failed[name] == 0,
                "attempted": m.attempted[name],
                "failed": m.failed[name],
                "metrics": {
                    metric: {"value": value, "unit": units[metric]["unit"]}
                    for metric, value in metrics.items()
                },
            }
        )
    for failure in m.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    if len(results) < len(names):
        return 1
    print()
    for result in results:
        if len(names) == 1:
            del result["workload"]
        print(json.dumps(result))
    return 0


def rebaseline(names: list[str]) -> int:
    """Print a fresh ``expected.json``; writing it is left to the caller, so
    the pinned outputs never change without someone reading the diff."""
    fresh: dict[str, dict] = {}
    for seed in (0, 1):
        fresh[str(seed)] = {}
        for name in names:
            sample = run_sample(name, seed, WORKLOADS[name].iterations)
            if sample["failures"]:
                print(f"{name} seed {seed}: {sample['failures']}", file=sys.stderr)
                return 1
            fresh[str(seed)][name] = {key: sample[key] for key in EXPECTED_KEYS}
    print(json.dumps(fresh, indent=2, sort_keys=True))
    print(
        "expected.json was NOT written; review the diff, then redirect this "
        "output over it",
        file=sys.stderr,
    )
    return 0


# --------------------------------------------------------------------- #
# Repeatability
# --------------------------------------------------------------------- #


def repeatability(spec: dict, names: list[str], sets: list[dict]) -> list[dict]:
    """Judge two sets of runs: per end-to-end metric and workload, both
    medians, both spreads ((Q3 - Q1) / median), the disagreement of the
    medians (max / min - 1, whichever set is the worse) and whether all
    three are within the metric's bound."""
    rows = []
    for entry in spec["end_to_end"]:
        for name in names:
            first, second = (values[(name, entry["name"])] for values in sets)
            medians = statistics.median(first), statistics.median(second)
            spreads = spread(first), spread(second)
            disagreement = max(medians) / min(medians) - 1
            rows.append(
                {
                    "workload": name,
                    "metric": entry["name"],
                    "medians": medians,
                    "spreads": spreads,
                    "disagreement": disagreement,
                    "bound": entry["bound"],
                    "passed": max(*spreads, disagreement) <= entry["bound"],
                }
            )
    return rows


def selfcheck(args: argparse.Namespace, names: list[str]) -> int:
    """Two sets of ``SELFCHECK_RUNS`` invocations per workload, a fresh seed
    each, exactly as ``BENCHMARK.json`` declares them; prints the table of
    ``repeatability`` (this is ``REPEATABILITY.md``)."""
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sets: list[dict[tuple[str, str], list[float]]] = []
    for index in range(2):
        values: dict[tuple[str, str], list[float]] = {}
        for run in range(SELFCHECK_RUNS):
            for name in names:  # interleaved: drift lands on every workload
                cmd = [*spec["command"], "--workload", name, "--seed", str(args.seed + run)]
                cmd += ["--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(
                    cmd, cwd=ROOT, capture_output=True, text=True, check=False
                )
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{name} seed {args.seed + run}: incorrect", file=sys.stderr)
                    return 1
                for metric, cell in result["metrics"].items():
                    values.setdefault((name, metric), []).append(cell["value"])
                print(f"set {index + 1} run {run + 1}/{SELFCHECK_RUNS} {name}", file=sys.stderr)
        sets.append(values)

    host = host_info()
    print("# Repeatability of the benchmark on the builder's host\n")
    print(
        f"`run.py --selfcheck`: two sets of {SELFCHECK_RUNS} runs per workload "
        f"(`--seconds {seconds:g}`, seeds {args.seed}..{args.seed + SELFCHECK_RUNS - 1}), "
        f"interleaved; {host['cpus']} usable CPUs, Python {host['python']}, "
        f"numpy {host['numpy']}.  Spread is (Q3 - Q1) / median over a set's "
        "runs; disagreement is max / min - 1 of the two medians.  PASS needs "
        "both spreads and the disagreement within the bound.\n"
    )
    print("| workload | metric | median 1 | median 2 | spread 1 | spread 2 | disagreement | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    rows = repeatability(spec, names, sets)
    for row in rows:
        print(
            f"| {row['workload']} | {row['metric']} | {row['medians'][0]:.4f} | "
            f"{row['medians'][1]:.4f} | {row['spreads'][0]:.1%} | {row['spreads'][1]:.1%} | "
            f"{row['disagreement']:.1%} | {row['bound']:.0%} | "
            f"{'PASS' if row['passed'] else 'FAIL'} |"
        )
    return 0 if all(row["passed"] for row in rows) else 1


# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS), help="repeatable; default all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"measuring budget per workload: as many rounds as fit, at least "
        f"{MIN_ROUNDS} (default: {ROUNDS} rounds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one round, iterations / 10")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--rebaseline", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    names = [n for n in WORKLOADS if not args.workload or n in args.workload]
    if args.rebaseline:
        return rebaseline(names)
    if args.selfcheck:
        return selfcheck(args, names)
    return report(args, names)


if __name__ == "__main__":
    sys.exit(main())
