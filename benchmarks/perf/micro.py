"""Two micro-measurements for the traced round, each in a fresh process.

``handoff``: what one baton hand-off of the event scheduler costs -- a
token passed round a 16-rank ring through ``run_mpi`` (every message
forces a hand-off) minus the same messages sent before anyone receives
(sixteen hand-offs in total).  Run pinned to one CPU and unpinned:
unpinned, the hand-off crosses CPUs and pays a futex wake-up, which is what
a user who does not pin pays.  Sixteen rank threads, as in
``rand64_np16_ctrl``, because with only two the kernel keeps both on one
CPU and the unpinned penalty does not show.

``ring``: one ``ShadowRing.try_put``/``read``/``retire`` round trip of a
256-record halo payload, the process backend's data-plane primitive.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from host import pin  # noqa: E402

MESSAGES = 20_000
RANKS = 16
RING_RECORDS = 256
RING_TRIPS = 2_000


def handoff_us(messages: int) -> float:
    from repro.mpi.runtime import run_mpi

    laps = messages // RANKS

    def token_ring(comm):
        nxt, prev = (comm.rank + 1) % RANKS, (comm.rank - 1) % RANKS
        for _ in range(laps):
            if comm.rank == 0:
                comm.send(0, nxt)
                comm.recv(source=prev)
            else:
                comm.recv(source=prev)
                comm.send(0, nxt)

    def stream(comm):
        nxt, prev = (comm.rank + 1) % RANKS, (comm.rank - 1) % RANKS
        for _ in range(laps):
            comm.send(0, nxt)
        for _ in range(laps):
            comm.recv(source=prev)

    def wall(program) -> float:
        start = time.perf_counter_ns()
        run_mpi(program, RANKS, scheduler="event")
        return (time.perf_counter_ns() - start) / 1e3

    # Alternate the two programs so host drift lands on both alike.
    pairs = [(wall(token_ring), wall(stream)) for _ in range(3)]
    return statistics.median(ring - flat for ring, flat in pairs) / (laps * RANKS)


def ring_roundtrip_us(trips: int) -> float:
    from repro.mpi.shm import ShadowRing

    payload = [(gid, float(gid)) for gid in range(RING_RECORDS)]
    ring = ShadowRing.create(f"ic2mpi-perf-{os.getpid()}-ring")
    try:
        batches = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(trips):
                ref = ring.try_put(payload)
                ring.read(ref)
                ring.retire(ref)
            batches.append((time.perf_counter_ns() - start) / 1e3 / trips)
        return statistics.median(batches)
    finally:
        ring.release()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("handoff", "ring"), required=True)
    parser.add_argument("--cpus", choices=("one", "all"), default="one")
    parser.add_argument("--scale", type=int, default=1, help="divide the work by this")
    args = parser.parse_args(argv)
    pinned = pin(args.cpus)
    if args.kind == "handoff":
        value = handoff_us(MESSAGES // args.scale)
    else:
        value = ring_roundtrip_us(RING_TRIPS // args.scale)
    print(json.dumps({"kind": args.kind, "pinned": pinned, "us": value}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
