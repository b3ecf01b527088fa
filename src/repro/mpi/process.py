"""Multiprocess execution backend: one OS process per rank.

The ``event`` backend runs every rank inside one Python process, so all
compute serializes on the GIL; the simulator can *model* 32-way
parallelism but never exploits real cores.  This backend forks one worker
process per rank and splits the machinery the way the iC2mpi platform
splits its data:

Data plane (private stores, halo values by message)
    Each worker builds and keeps its own node store -- either kind, any
    picklable node value -- in private memory, as each processor of the
    paper keeps its own data node list; final values go home pickled in
    the ``finish`` record.  Only shadow values cross processes, and only
    as messages: every :class:`~repro.mpi.message.Message` a worker sends
    is pickled through its pipe to the broker, which files it in the
    receiver's mailbox and hands it over, pickled again, on a ``take`` or
    ``recv``.  No worker maps shared memory, so a run leaves nothing in
    ``/dev/shm`` and starts no ``resource_tracker`` process.

Control plane (one duplex pipe per worker, parent = deterministic arbiter)
    Message-queue mutations, collective rendezvous, quarantine, and abort
    flow through the parent :class:`_Broker`, which owns the
    *authoritative* mailboxes and rendezvous states and replays exactly the
    same logic as
    :meth:`SimCluster.deliver_all <repro.mpi.runtime.SimCluster.deliver_all>`
    / :meth:`~repro.mpi.runtime.SimCluster.collective`.  Virtual clocks and
    fault-decision PRNG streams are strictly per-rank, so each worker
    advances its own locally and ships the final values home in its
    ``finish`` record; the broker merges clocks, fault counters, and rank
    results so :meth:`SimCluster.run` sees exactly what the in-thread
    backend produces.  This is the only control plane: every rendezvous
    -- world or sub-communicator, a barrier or any other collective but
    ``alltoall``/``scan``/``exscan`` -- is one ``_Rendezvous`` in the
    broker.  Because a worker's pipe is FIFO and
    the broker handles it in order, every deliver a member sent before
    entering a collective is filed before that collective is released.

Determinism argument (why results are bit-identical to ``event``):

* every clock update is a function of the caller's own state plus message
  ``arrival_time`` fields computed sender-side -- nothing depends on host
  scheduling;
* wildcard receives match on ``(arrival_time, src)`` (virtual time), so
  the order in which the broker happens to file deliveries is irrelevant;
* a collective's exit clocks are a pure replay over every member's
  published entry clock and payload -- order-free;
* a worker's pipe is FIFO and a *parked* worker is blocked in
  ``conn.recv()``: once every unfinished rank is parked there can be no
  in-flight delivery anywhere, which makes the broker's deadlock
  detection exact, like the event backend's empty-run-queue test.  The
  victim choice mirrors it too: the rank whose receive park completed
  the deadlock (case A), or the lowest-indexed unfinished rank when a
  finishing rank strands the rest (case B) -- and also when a
  *collective* park completes it, because which member parks last is a
  host race here, not a property of the program.

Known, documented divergence: an abort cannot interrupt a send-only rank
mid-flight (delivery is fire-and-forget; the parent silently drops
post-abort messages), so a rank that never blocks again may ``finish``
normally where the in-thread backend would raise ``CommAbortedError``
in its next ``deliver``.  :meth:`SimCluster.run`'s raised primary error
is unaffected.

Two things fail *early*, in :class:`ProcessScheduler`'s constructor and so
before anything forks, with :class:`~repro.mpi.errors.UnsupportedBackendError`
-- the only places that raise it: a ``schedule_seed``
(the seeded run queue lives in the event scheduler; the interleaving of
worker processes belongs to the host kernel) and platforms without the
``fork`` start method (the rank program is an arbitrary closure; it is
inherited, never pickled).
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Any, Callable, Iterable

import multiprocessing
from multiprocessing import connection as mp_connection

from .errors import (
    CommAbortedError,
    DeadlockError,
    UnsupportedBackendError,
    blocked_recv_text,
)
from .message import Message
from .scheduler import SEED_NEEDS_EVENT, SchedulerBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import SimCluster

__all__ = ["ProcessScheduler"]


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _WorkerTransport:
    """A worker's proxy to the parent broker (installed as
    ``cluster._worker``; the runtime's transport entry points branch to it).

    Protocol: ``deliver``/``abort``/``finish`` are fire-and-forget;
    ``take``/``sources``/``recv``/``collective``/``quarantine`` are strict
    request/reply (``("ok", value)`` or ``("err", exc)``), so after
    sending a request the next object on the pipe is always its reply.
    Messages travel as they are, pickled by the pipe, in both directions.
    """

    def __init__(self, conn: Any, rank: int) -> None:
        self._conn = conn
        self.rank = rank

    # ---------------------------- plumbing ----------------------------- #

    def _request(self, req: tuple) -> Any:
        self._conn.send(req)
        kind, value = self._conn.recv()
        if kind == "err":
            raise value
        return value

    # ------------------------- transport verbs ------------------------- #

    def deliver(self, msg: Message) -> None:
        self._conn.send(("deliver", msg))

    def take(
        self, source: int, tag: int, comm_id: Any, consume: bool
    ) -> Message | None:
        return self._request(("take", source, tag, comm_id, consume))

    def sources(self, tag: int, comm_id: Any) -> list[int]:
        return self._request(("sources", tag, comm_id))

    def recv(
        self, source: int, tag: int, comm_id: Any, consume: bool
    ) -> Message:
        return self._request(("recv", source, tag, comm_id, consume))

    def collective(self, *args: Any) -> tuple[list[float], list[Any]]:
        """Join a rendezvous in the broker (``args``: see
        ``_Broker._collective``); every member's published ``(clocks,
        payloads)``, local-rank order."""
        return self._request(("collective", *args))

    def quarantine(self, dead_srcs: frozenset[int], comm_id: Any) -> int:
        return self._request(("quarantine", dead_srcs, comm_id))

    def abort(self, reason: str) -> None:
        self._conn.send(("abort", reason))

    def finish(
        self,
        result: Any,
        error: BaseException | None,
        counters: list[dict[str, int]] | None,
        clock: float,
    ) -> None:
        result, result_exc = _picklable(result)
        if result_exc is not None and error is None:
            error = RuntimeError(
                f"rank {self.rank} result is not picklable: {result_exc!r}"
            )
        if error is not None:
            safe, error_exc = _picklable(error)
            if error_exc is not None:
                error = RuntimeError(f"{type(error).__name__}: {error}")
        self._conn.send(("finish", result, error, counters, clock))


def _picklable(obj: Any) -> tuple[Any, Exception | None]:
    try:
        pickle.dumps(obj)
        return obj, None
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return None, exc


def _worker_main(
    cluster: "SimCluster",
    runner: Callable[[int], None],
    rank: int,
    conn: Any,
) -> None:
    """Child-process entry: run one rank over the piped transport.

    ``cluster`` and ``runner`` arrive via fork inheritance (never
    pickled), so the closure in :meth:`SimCluster.run` works unchanged:
    it stores the result/error into ``cluster._ranks[rank]``, which here
    is the worker's private copy -- shipped home in the finish record.
    """
    transport = _WorkerTransport(conn, rank)
    cluster._worker = transport
    state = cluster._ranks[rank]
    try:
        runner(rank)  # catches everything into state.error itself
    finally:
        counters = None
        if cluster.fault_state is not None:
            counters = [vars(c) for c in cluster.fault_state._counters]
        try:
            transport.finish(state.result, state.error, counters, state.clock)
            conn.close()
        finally:
            # Skip the atexit handlers and finalizers inherited from the
            # parent: they belong to the parent's run, not this worker's.
            os._exit(0)


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class _Parked:
    """One worker blocked in the broker (a receive or a collective)."""

    __slots__ = ("rank", "kind", "source", "tag", "comm_id", "consume", "key")

    def __init__(self, rank: int, kind: str, **fields: Any) -> None:
        self.rank = rank
        self.kind = kind
        self.source = fields.get("source")
        self.tag = fields.get("tag")
        self.comm_id = fields.get("comm_id")
        self.consume = fields.get("consume", True)
        self.key = fields.get("key")

    def describe(self) -> str:
        if self.kind == "collective":
            return self.key.describe()  # the _Rendezvous it waits in
        return blocked_recv_text(self.rank, self.source, self.tag)


class _Broker:
    """The parent arbiter: authoritative mailboxes, barriers, and faults.

    Single-threaded event loop over the worker pipes; every handler is a
    transcription of the corresponding ``SimCluster`` method with
    ``backend.wait`` replaced by parking the requesting worker (the
    rendezvous itself is shared: ``_Rendezvous``).
    """

    def __init__(
        self,
        cluster: "SimCluster",
        conns: list[Any],
        procs: list[Any],
    ) -> None:
        self._cluster = cluster
        self._conns = conns
        self._procs = procs
        self._parked: dict[int, _Parked] = {}
        self._unfinished = set(range(cluster.nprocs))
        #: Worker->broker pipe messages handled (``cluster.pipe_requests``).
        self.requests = 0

    # ----------------------------- event loop -------------------------- #

    def loop(self) -> None:
        """Service only the pipes and sentinels that woke the wait."""
        by_conn = {conn: r for r, conn in enumerate(self._conns)}
        by_sentinel = {proc.sentinel: r for r, proc in enumerate(self._procs)}
        while self._unfinished:
            live = sorted(self._unfinished)
            ready = mp_connection.wait(
                [self._conns[r] for r in live] + [self._procs[r].sentinel for r in live]
            )
            for r in sorted(by_conn[h] for h in ready if h in by_conn):
                self._drain(r)
            for r in sorted(by_sentinel[h] for h in ready if h in by_sentinel):
                if r in self._unfinished and not self._procs[r].is_alive():
                    self._drain(r)  # a finish may have landed just before death
                    if r in self._unfinished:
                        self._worker_died(r)

    def _drain(self, rank: int) -> None:
        conn = self._conns[rank]
        try:
            while rank in self._unfinished and conn.poll():
                self._handle(rank, conn.recv())
        except (EOFError, OSError):
            pass

    def _handle(self, rank: int, req: tuple) -> None:
        kind = req[0]
        self.requests += 1
        if kind == "deliver":
            self._deliver(req[1])
        elif kind == "take":
            _, source, tag, comm_id, consume = req
            self._reply(rank, self._mailbox(rank).take(source, tag, comm_id, consume))
        elif kind == "sources":
            _, tag, comm_id = req
            self._reply(rank, self._mailbox(rank).sources_with(comm_id, tag))
        elif kind == "recv":
            self._recv(rank, *req[1:])
        elif kind == "collective":
            self._collective(rank, *req[1:])
        elif kind == "quarantine":
            self._quarantine(rank, *req[1:])
        elif kind == "abort":
            self._abort(req[1])
        elif kind == "finish":
            self._finish(rank, *req[1:])
        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unknown worker request {kind!r} from rank {rank}")

    # ------------------------------ helpers ---------------------------- #

    def _mailbox(self, rank: int):
        return self._cluster._ranks[rank].mailbox

    def _reply(self, rank: int, value: Any) -> None:
        self._send(rank, ("ok", value))

    def _reply_err(self, rank: int, exc: BaseException) -> None:
        self._send(rank, ("err", exc))

    def _send(self, rank: int, obj: Any) -> None:
        try:
            self._conns[rank].send(obj)
        except (BrokenPipeError, OSError):  # worker died; sentinel handles it
            pass

    # ----------------------------- transport --------------------------- #

    def _deliver(self, msg: Message) -> None:
        cluster = self._cluster
        if cluster._aborted:
            # The in-thread backend raises CommAbortedError in the sender;
            # fire-and-forget delivery cannot, so post-abort traffic is
            # dropped (the run's outcome is already decided).
            return
        if (msg.comm_id, msg.src) in cluster._quarantined:
            return
        self._mailbox(msg.dest).append(msg)
        cluster.messages_delivered += 1
        parked = self._parked.get(msg.dest)
        if parked is not None and parked.kind == "recv":
            found = self._mailbox(msg.dest).take(
                parked.source, parked.tag, parked.comm_id, parked.consume
            )
            if found is not None:
                del self._parked[msg.dest]
                self._reply(msg.dest, found)

    def _recv(
        self, rank: int, source: int, tag: int, comm_id: Any, consume: bool
    ) -> None:
        if self._cluster._aborted:
            self._reply_err(rank, CommAbortedError(self._abort_reason()))
            return
        found = self._mailbox(rank).take(source, tag, comm_id, consume)
        if found is not None:
            self._reply(rank, found)
            return
        self._parked[rank] = _Parked(
            rank, "recv", source=source, tag=tag, comm_id=comm_id, consume=consume
        )
        self._maybe_deadlock(victim=rank)

    def _collective(
        self, rank: int, group: tuple[int, ...], comm_id: Any, name: str, clock: float,
        payload: Any, messages: int, barriers: int,
    ) -> None:
        from .runtime import _Rendezvous

        cluster = self._cluster
        if cluster._aborted:
            self._reply_err(rank, CommAbortedError(self._abort_reason()))
            return
        key = (comm_id, group)
        rv = cluster._rendezvous.get(key)
        if rv is None:
            rv = cluster._rendezvous[key] = _Rendezvous(group)
        if not rv.arrive(group.index(rank), name, clock, payload):
            self._parked[rank] = _Parked(rank, "collective", key=rv)
            # Which member parks last is a host race: name the lowest
            # blocked rank instead, so the report repeats.
            self._maybe_deadlock(victim=None)
            return
        published = rv.close()
        cluster.messages_delivered += messages
        cluster.barriers += barriers
        for member in group:  # every other member is parked in rv
            self._parked.pop(member, None)
            self._reply(member, published)

    def _quarantine(
        self, rank: int, dead_srcs: frozenset[int], comm_id: Any
    ) -> None:
        cluster = self._cluster
        for src in dead_srcs:
            cluster._quarantined.add((comm_id, src))
        self._reply(rank, self._mailbox(rank).purge(comm_id, dead_srcs))

    # --------------------------- run lifecycle ------------------------- #

    def _finish(
        self,
        rank: int,
        result: Any,
        error: BaseException | None,
        counters: list[dict[str, int]] | None,
        clock: float,
    ) -> None:
        cluster = self._cluster
        state = cluster._ranks[rank]
        state.result = result
        state.error = error
        state.finished = True
        state.clock = clock
        if counters is not None and cluster.fault_state is not None:
            # Fault events are counted in exactly one worker (draws happen
            # on the owning rank), so summing the shipped deltas
            # reproduces the single-process tallies.
            for mine, shipped in zip(cluster.fault_state._counters, counters):
                mine.add(shipped)
        self._unfinished.discard(rank)
        self._parked.pop(rank, None)
        if error is not None and not cluster._aborted:
            self._abort(f"rank {rank} raised {type(error).__name__}: {error}")
        elif not cluster._aborted:
            # Case B: a finishing rank may strand every survivor parked.
            self._maybe_deadlock(victim=None)

    def _worker_died(self, rank: int) -> None:
        proc = self._procs[rank]
        error = RuntimeError(
            f"rank {rank} worker process died unexpectedly "
            f"(exitcode {proc.exitcode})"
        )
        state = self._cluster._ranks[rank]
        state.error = error
        state.finished = True
        self._unfinished.discard(rank)
        self._parked.pop(rank, None)
        if not self._cluster._aborted:
            self._abort(f"rank {rank} raised RuntimeError: {error}")

    # ------------------------- abort and deadlock ---------------------- #

    def _abort_reason(self) -> str:
        return self._cluster._abort_reason or "cluster aborted"

    def _abort(self, reason: str) -> None:
        cluster = self._cluster
        if not cluster._aborted:
            cluster._aborted = True
            cluster._abort_reason = reason
        exc = CommAbortedError(self._abort_reason())
        for rank in list(self._parked):
            del self._parked[rank]
            self._reply_err(rank, exc)

    def _maybe_deadlock(self, victim: int | None) -> None:
        """Exact deadlock test, mirroring the event backend's two cases.

        Sound because parked workers are blocked in ``conn.recv()`` and
        cannot send: all-unfinished-parked implies no delivery can be in
        flight on any pipe (a worker's sends are FIFO-ordered before its
        own park request, hence already processed).
        """
        if self._cluster._aborted or not self._unfinished:
            return
        if any(r not in self._parked for r in self._unfinished):
            return
        if victim is None:  # lowest blocked rank (case B's rule in _pass_baton)
            victim = min(self._unfinished)
        reason = self._parked[victim].describe()
        cluster = self._cluster
        cluster._aborted = True
        cluster._abort_reason = reason
        del self._parked[victim]
        self._reply_err(victim, DeadlockError(reason))
        peer_exc = CommAbortedError(reason)
        for rank in list(self._parked):
            del self._parked[rank]
            self._reply_err(rank, peer_exc)


# --------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------- #


class ProcessScheduler(SchedulerBackend):
    """One worker OS process per rank, each with a private node store.

    Inside a worker the cluster's transport entry points are proxied to
    the parent broker, so ``notify`` has nobody to wake (single thread,
    no shared state) and ``wait`` is never reached.
    """

    name = "process"

    def __init__(self, cluster: "SimCluster", seed: int | None) -> None:
        if seed is not None:
            raise UnsupportedBackendError(SEED_NEEDS_EVENT)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise UnsupportedBackendError(
                "scheduler='process' requires the fork start method (rank "
                "programs are closures, inherited rather than pickled); "
                "this platform does not support fork"
            )
        self._cluster = cluster

    def notify(self, ranks: Iterable[int] | None = None) -> None:
        return None

    def wait(
        self,
        rank: int,
        ready: Callable[[], Any],
        describe: Callable[[], str],
    ) -> Any:  # pragma: no cover - all blocking paths are intercepted
        raise RuntimeError("process backend workers block in the broker, not here")

    def execute(self, runner: Callable[[int], None], nprocs: int) -> None:
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe(duplex=True) for _ in range(nprocs)]
        procs = []
        broker = None
        try:
            for rank in range(nprocs):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(self._cluster, runner, rank, pipes[rank][1]),
                    name=f"sim-rank-{rank}",
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            for _, child_end in pipes:
                child_end.close()
            broker = _Broker(self._cluster, [p for p, _ in pipes], procs)
            broker.loop()
            for proc in procs:
                proc.join(timeout=10.0)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            for parent_end, _ in pipes:
                parent_end.close()
            if broker is not None:
                self._cluster.pipe_requests = broker.requests
