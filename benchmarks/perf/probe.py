"""Host-speed probe: a sidecar process that says how fast one CPU is, all
the time a measurement runs.

The sizing host (2 shared vCPUs) changes speed by up to 2x from one second
to the next, each CPU on its own, so a wall time says more about the moment
it was taken than about the program.  ``run.py`` therefore starts one of
these per usable CPU before the first sample and stops them after the last.
Each is pinned to its CPU, wakes every ``PERIOD_S``, runs one frozen pass of
about 0.8 ms and records when it ran and the *CPU time* it took, which
preemption by the workload does not stretch.  The pass never changes, so
when its time moves the host moved, not the code.  On SIGTERM it prints its
records as one JSON line: ``[[monotonic_ns, pass_cpu_ns], ...]``.

The pass is a loop of small-array numpy calls.  Four kinds of pass were
run side by side under each event workload for 8-14 minutes (133-249
samples each); the spread of six-sample medians of wall / pass time was

    raw walls                    9-15 %
    integer loop                 5-9 %
    method calls, dict and list  4-6 %
    streaming over 3 MB arrays   9-14 %
    small-array numpy calls      2-3 %     <- this one

on all four alike, whatever the workload itself is made of.

It takes about 2 % of the CPU it watches.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

PERIOD_S = 0.04
#: CPU time of one pass on the sizing host at its usual speed.  ``run_wall_s``
#: and ``setup_s`` are walls at the speed of a host whose passes take this.
REFERENCE_NS = 800_000


def frozen_pass(np, values, pick) -> None:
    x = values
    for _ in range(150):
        y = x[pick] * 0.25 + 1.0
        x = np.where(x > 3, x, x + 1)
        y.sum()


def main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    import numpy as np  # after the pin, so that a thread it starts inherits it

    values, pick = np.arange(128, dtype=float), np.arange(0, 128, 3)
    parent = os.getppid()
    stop: list[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    records = []
    print("ready", flush=True)
    while not stop and os.getppid() == parent:  # never outlive the runner
        time.sleep(PERIOD_S)
        at = time.monotonic_ns()
        before = time.thread_time_ns()
        frozen_pass(np, values, pick)
        records.append((at, time.thread_time_ns() - before))
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
