"""Span tracing from outside the program.

The harness installs timing wrappers around the program's *public* entry
points only -- nothing under ``src/`` knows it is being traced.  A span is
``(name, layer, rank, start_ns, end_ns, parent)``; spans stay in memory
until the run ends (worker processes of the process backend dump theirs to
a per-rank file when the rank function returns).  A layer's self time is
its spans' durations minus the part of each interval its children cover.

The event scheduler runs one rank thread at a time and a rank only yields
inside a communicator call, so every *non*-communicator self time is real
running time and the sum over ranks is additive against wall time; what is
left of ``SimCluster.run`` after subtracting it is hand-off + mailbox +
communicator + thread spawn/join (``mpi.runtime.busy_s``).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable, NamedTuple

P2P = ("send", "isend", "recv", "irecv")
COLLECTIVES = ("barrier", "allreduce", "bcast", "gather", "allgather", "reduce")
STORE_METHODS = (
    "commit_owned",
    "update_shadow",
    "bulk_view",
    "scatter_pending",
    "capture_state",
    "restore_state",
)

#: Span name of the rank function handed to ``SimCluster.run``.
RANK_ROOT = "rank_main"
CLUSTER_RUN = "SimCluster.run"
PLATFORM_RUN = "ICPlatform.run"
COMM_LAYER = "mpi.communicator"


class Span(NamedTuple):
    name: str
    layer: str
    rank: int  # -1 outside any rank (the thread that called ICPlatform.run)
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root
    items: int = 1  # nodes updated by a kernel call, 1 otherwise


# --------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------- #


def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per-span self time: duration minus what the children cover.

    Children of one parent may overlap each other (rank threads under
    ``SimCluster.run``), so the union of their intervals is subtracted,
    not their sum.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    out = []
    for index, span in enumerate(spans):
        kids = children.get(index)
        duration = span.end_ns - span.start_ns
        if kids:
            duration -= covered_ns(kids, span.start_ns, span.end_ns)
        out.append(duration)
    return out


# --------------------------------------------------------------------- #
# The tracer
# --------------------------------------------------------------------- #


class _ThreadLog:
    """One thread's spans: ``[name, parent, start_ns, end_ns, items]`` rows
    plus the stack of open row indices."""

    __slots__ = ("rows", "stack", "rank")

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.rank = -1


class Tracer:
    """Installs, collects from, and removes the timing wrappers."""

    def __init__(self, dump_dir: Path) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: Span name -> layer.
        self.layers: dict[str, str] = {}
        self._pid = os.getpid()
        self._dump_dir = dump_dir
        #: ``cluster.pipe_requests`` of the last traced ``SimCluster.run``.
        self.pipe_requests = 0

    # ------------------------------ wrapping -------------------------- #

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            self._logs.append(log)
        return log

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        items: Callable[[Any], int] | None = None,
    ) -> Callable:
        """A callable that records one span per call of ``fn``."""
        self.layers[name] = layer
        get_log = self._log

        def traced(*args: Any, **kwargs: Any) -> Any:
            log = get_log()
            rows = log.rows
            stack = log.stack
            row = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, 1]
            stack.append(len(rows))
            rows.append(row)
            try:
                out = fn(*args, **kwargs)
                if items is not None:
                    row[4] = items(out)
                return out
            finally:
                row[3] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_node_fn(self, fn: Callable) -> Callable:
        """Trace a node function and, when it carries one, its bulk kernel."""
        traced = self.wrap(fn, "node_fn", "apps.kernel")
        bulk = getattr(fn, "bulk", None)
        if callable(bulk):
            traced_bulk = self.wrap(bulk, "bulk_kernel", "apps.kernel", items=len)
            traced_bulk.node_grain = bulk.node_grain  # type: ignore[attr-defined]
            traced.bulk = traced_bulk  # type: ignore[attr-defined]
        return traced

    def wrap_balancer(self, balancer: Any) -> Any:
        """Trace ``find_pairs`` on the balancer *instance* handed in."""
        balancer.find_pairs = self.wrap(
            balancer.find_pairs, "find_pairs", "core.loadbalance"
        )
        return balancer

    def _wrap_rank_fn(self, fn: Callable) -> Callable:
        """Root span per rank; in a forked worker, start a fresh log and
        dump it when the rank returns."""
        inner = self.wrap(fn, RANK_ROOT, "core.compute")

        def rank_root(comm: Any, *args: Any, **kwargs: Any) -> Any:
            in_worker = os.getpid() != self._pid
            if in_worker:
                # The fork copied the parent's open spans; they are not ours.
                self._local.log = None
                self._logs = []
            self._log().rank = comm.rank
            try:
                return inner(comm, *args, **kwargs)
            finally:
                if in_worker:
                    dump = self._dump_dir / f"rank-{comm.rank}.json"
                    dump.write_text(json.dumps(self._log().rows))

        return rank_root

    # ------------------------------ install --------------------------- #

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_methods(self, cls: type, names: Iterable[str], layer: str) -> None:
        for name in names:
            # Only methods the class itself defines: an inherited one is
            # traced once, on the class that owns it.
            if name in cls.__dict__:
                self._patch(cls, name, self.wrap(cls.__dict__[name], name, layer))

    def install(self) -> None:
        """Wrap the public entry points (class attributes only)."""
        from repro.core import Checkpointer, ICPlatform, IntegrityGuard, NodeStore, SoAStore
        from repro.mpi.communicator import Communicator
        from repro.mpi.message import RecvRequest
        from repro.mpi.runtime import SimCluster

        self._patch_methods(Communicator, P2P + COLLECTIVES, COMM_LAYER)
        # Overlapped sweeps block in the request, not in the communicator.
        self._patch_methods(RecvRequest, ("wait",), COMM_LAYER)
        for cls in (NodeStore, SoAStore):
            self._patch_methods(cls, STORE_METHODS, "core.store")
        self._patch_methods(Checkpointer, ("take", "restore"), "core.checkpoint")
        self._patch_methods(IntegrityGuard, ("refresh", "check"), "core.integrity")
        self._patch(
            ICPlatform, "run", self.wrap(ICPlatform.run, PLATFORM_RUN, "core.platform")
        )

        original_run = SimCluster.run
        tracer = self

        def cluster_run(cluster: Any, fn: Callable, *args: Any, **kwargs: Any) -> Any:
            try:
                return original_run(cluster, tracer._wrap_rank_fn(fn), *args, **kwargs)
            finally:
                tracer.pipe_requests = cluster.pipe_requests

        self._patch(
            SimCluster, "run", self.wrap(cluster_run, CLUSTER_RUN, "mpi.runtime")
        )

    def remove(self) -> None:
        """Put every original callable back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------ collect --------------------------- #

    def spans(self) -> list[Span]:
        """Every recorded span, worker dumps included, as one list.

        Rank root spans are re-parented under the ``SimCluster.run`` span
        that launched them (they live on other threads or processes).
        """
        logs = [(log.rank, log.rows) for log in self._logs]
        if self._dump_dir.is_dir():
            for path in sorted(self._dump_dir.glob("rank-*.json")):
                rank = int(path.stem.removeprefix("rank-"))
                logs.append((rank, json.loads(path.read_text())))
        out: list[Span] = []
        cluster_spans: list[int] = []
        roots: list[int] = []
        for rank, rows in logs:
            base = len(out)
            for name, parent, start, end, items in rows:
                index = len(out)
                if name == CLUSTER_RUN:
                    cluster_spans.append(index)
                if name == RANK_ROOT:
                    roots.append(index)
                out.append(
                    Span(
                        name,
                        self.layers[name],
                        rank,
                        start,
                        end,
                        parent + base if parent >= 0 else -1,
                        items,
                    )
                )
        for index in roots:
            root = out[index]
            for candidate in cluster_spans:
                owner = out[candidate]
                if owner.start_ns <= root.start_ns and root.end_ns <= owner.end_ns:
                    out[index] = root._replace(parent=candidate)
                    break
        return out


# --------------------------------------------------------------------- #
# From spans to per-layer numbers
# --------------------------------------------------------------------- #


def span_metrics(spans: list[Span]) -> dict[str, Any]:
    """The numbers the per-layer table is built from.

    ``rank_work_s`` / ``rank_comm_s`` split the rank spans' self time into
    non-communicator layers (real running time on the event scheduler,
    worker busy time on the process backend) and communicator calls
    (which include waiting for peers).
    """
    layers: dict[str, dict[str, float]] = {}
    calls = {"p2p": 0, "collective": 0}
    rank_work_s = rank_comm_s = 0.0
    durations = {PLATFORM_RUN: 0.0, CLUSTER_RUN: 0.0}
    platform_self_s = 0.0
    for span, self_ns in zip(spans, self_times_ns(spans)):
        self_s = self_ns / 1e9
        row = layers.setdefault(span.layer, {"self_s": 0.0, "calls": 0, "items": 0})
        row["self_s"] += self_s
        row["calls"] += 1
        row["items"] += span.items
        if span.name in durations:
            durations[span.name] += (span.end_ns - span.start_ns) / 1e9
        if span.name == PLATFORM_RUN:
            platform_self_s += self_s
        if span.layer == COMM_LAYER:
            if span.name in P2P:
                calls["p2p"] += 1
            elif span.name in COLLECTIVES:
                calls["collective"] += 1
            if span.rank >= 0:
                rank_comm_s += self_s
        elif span.rank >= 0:
            rank_work_s += self_s
    return {
        "layers": layers,
        "p2p_calls": calls["p2p"],
        "collective_calls": calls["collective"],
        "platform_run_s": durations[PLATFORM_RUN],
        "platform_self_s": platform_self_s,
        "cluster_run_s": durations[CLUSTER_RUN],
        "rank_work_s": rank_work_s,
        "rank_comm_s": rank_comm_s,
    }
