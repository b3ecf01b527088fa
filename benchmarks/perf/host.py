"""What a sample needs to know about the host before it imports anything
heavy: which CPUs it may use, and how to pin itself to them.

Imports nothing beyond the standard library: a sample must pin itself
*before* numpy (and its thread pool) or any rank thread exists, otherwise
the threads inherit the unpinned mask.
"""

from __future__ import annotations

import os


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin(cpus: str) -> dict:
    """Apply a workload's CPU policy to this process, before any thread.

    ``"one"`` keeps a single CPU (the last usable one: CPU 0 takes most
    interrupts); ``"all"`` keeps the inherited mask.  Returns what was done,
    including how many OS threads existed at that moment (must be 1).
    """
    before = usable_cpus()
    if cpus == "one":
        os.sched_setaffinity(0, {before[-1]})
    return {
        "policy": cpus,
        "cpus": usable_cpus(),
        "threads_at_pin": len(os.listdir("/proc/self/task")),
    }
