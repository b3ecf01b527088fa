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
    as messages: a worker's send batch travels pickled through its pipe
    to the broker, which files it in the receivers' mailboxes, and a
    receive set comes back, pickled again, in the one reply to the
    worker's ``wait_for_all``.  No worker maps shared memory, so a run
    leaves nothing in ``/dev/shm`` and starts no ``resource_tracker``
    process.

Control plane (one duplex pipe per worker, parent = deterministic arbiter)
    A worker's cluster is a remote ``SimCluster`` (:class:`_WorkerCluster`):
    it forwards each transport call whole -- ``deliver_all``,
    ``wait_for_all``, ``rendezvous``, ``pending_sources``, ``quarantine``,
    ``abort`` -- as one pipe message naming the method and its arguments,
    and the parent :class:`_Broker` runs that same method on the parent's
    cluster, which holds the run's mailboxes and rendezvous.  A call that
    must wait parks the worker through the scheduler seam the event
    backend uses (:meth:`ProcessScheduler.wait`), and
    :meth:`ProcessScheduler.notify` answers it.  Virtual clocks and
    fault-decision PRNG streams are strictly per-rank, so each worker
    advances its own and ships the final values home in its ``finish``
    record; the broker merges clocks, fault counters, and rank results so
    :meth:`SimCluster.run` sees exactly what the in-thread backend
    produces.  A worker's pipe is FIFO and the broker handles it in
    order, so every deliver a member sent before entering a collective is
    filed before that collective is released.

Determinism argument (why results are bit-identical to ``event``):

* every clock update is a function of the caller's own state plus message
  ``arrival_time`` fields computed sender-side -- nothing depends on host
  scheduling;
* a collective's exit clocks are a pure replay over every member's
  published entry clock and payload -- order-free;
* a *parked* worker is blocked in ``conn.recv()``: once every unfinished
  rank is parked nothing can be in flight, so the deadlock test is exact,
  and the report is :func:`~repro.mpi.scheduler.declare_deadlock`'s, the
  event backend's: the lowest unfinished rank and what it waits on, both
  fixed by the program once nobody can run.

Known, documented divergence: an abort cannot interrupt a send-only rank
mid-flight (delivery is fire-and-forget; the parent silently drops
post-abort messages), so a rank that never blocks again may ``finish``
normally where the in-thread backend would raise ``CommAbortedError``
in its next ``deliver_all``.  :meth:`SimCluster.run`'s raised primary error
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
import selectors
from collections import deque
from typing import Any, Callable, Iterable, Sequence

import multiprocessing

from .errors import CommAbortedError, DeadlockError, UnsupportedBackendError
from .message import Message
from .runtime import SimCluster
from .scheduler import SEED_NEEDS_EVENT, SchedulerBackend, declare_deadlock

__all__ = ["ProcessScheduler"]


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _WorkerCluster(SimCluster):
    """The cluster as a forked worker sees it (:func:`_worker_main` swaps
    its class in): a remote one.  Each transport call goes whole over the
    worker's pipe, naming a ``SimCluster`` method and its arguments, and
    the broker runs that method on the parent's cluster.  ``deliver_all``
    and ``abort`` are posted, fire-and-forget; the rest are calls
    (``("ok", value)`` or ``("err", exc)``), so after a call the next
    object on the pipe is always its reply.  A collective's rendezvous is
    a call like any other; its replay runs here, on what the broker hands
    back.  Messages travel as they are, pickled by the pipe.
    """

    _conn: Any  # the worker's end of its pipe

    def _call(self, *req: Any) -> Any:
        self._conn.send(req)
        kind, value = self._conn.recv()
        if kind == "err":
            raise value
        return value

    def abort(self, reason: str) -> None:
        self._aborted = True
        self._abort_reason = reason
        self._conn.send(("abort", reason))

    def quarantine(self, rank: int, dead_srcs: frozenset[int], comm_id: Any) -> int:
        return self._call("quarantine", rank, dead_srcs, comm_id)

    def deliver_all(self, msgs: list[Message]) -> None:
        if msgs:
            self._check_abort()
            self._conn.send(("deliver_all", msgs))

    def pending_sources(self, rank: int, tag: int, comm_id: Any) -> list[int]:
        return self._call("pending_sources", rank, tag, comm_id)

    def wait_for_all(self, rank: int, comm_id: Any, sources: Sequence[int], tag: int) -> list:
        return self._call("wait_for_all", rank, comm_id, sources, tag) if sources else []

    def rendezvous(
        self, comm_id: Any, group: tuple[int, ...], local: int, name: str, clock: float,
        payload: Any, messages: int = 0, barriers: int = 0, last: int | None = None,
        complete: Callable[[list[float], list[Any]], Any] | None = None,
    ) -> Any:
        self._check_abort()
        return complete(*self._call(
            "rendezvous", comm_id, group, local, name, clock, payload, messages, barriers, last
        ))

    def finish(self, rank: int) -> None:
        """Send rank ``rank``'s home record: result, error, fault counters
        and clock.  Only when it does not pickle is the culprit sought."""
        state = self._ranks[rank]
        result, error = state.result, state.error
        counters = None
        if self.fault_state is not None:
            counters = [vars(c) for c in self.fault_state._counters]
        try:
            self._conn.send(("finish", result, error, counters, state.clock))
            return
        except Exception:  # noqa: BLE001 - send pickles the record before writing a byte
            pass
        result_exc = _pickle_error(result)
        if result_exc is not None:
            result = None
            if error is None:
                error = RuntimeError(f"rank {rank} result is not picklable: {result_exc!r}")
        if error is not None and _pickle_error(error) is not None:
            error = RuntimeError(f"{type(error).__name__}: {error}")
        self._conn.send(("finish", result, error, counters, state.clock))


def _pickle_error(obj: Any) -> Exception | None:
    """Why ``obj`` does not pickle (None when it does)."""
    try:
        pickle.dumps(obj)
        return None
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return exc


def _worker_main(cluster: SimCluster, runner: Callable[[int], None], rank: int, conn: Any) -> None:
    """Child-process entry: run one rank over the piped transport.

    ``cluster`` and ``runner`` arrive via fork inheritance (never
    pickled), so the closure in :meth:`SimCluster.run` works unchanged:
    it stores the result/error into ``cluster._ranks[rank]``, which here
    is the worker's private copy -- shipped home in the finish record.
    """
    cluster.__class__ = _WorkerCluster
    cluster._conn = conn
    try:
        runner(rank)  # catches everything into state.error itself
    finally:
        try:
            cluster.finish(rank)
            conn.close()
        finally:
            # Skip the atexit handlers and finalizers inherited from the
            # parent: they belong to the parent's run, not this worker's.
            os._exit(0)


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #

#: What a served call returns when it parked its worker: the reply comes
#: later, from :meth:`_Broker._settle`.
_PARKED = object()

#: Fire-and-forget requests: the worker does not wait for a reply.
_POSTED = frozenset({"deliver_all", "abort"})


class _Broker:
    """The parent arbiter: runs every worker's transport call on the
    parent's cluster, which holds the run's mailboxes and rendezvous.

    Single-threaded event loop over the worker pipes.  A request names a
    ``SimCluster`` method -- ``deliver_all``, ``wait_for_all``,
    ``rendezvous``, ``pending_sources``, ``quarantine``, ``abort`` -- and
    the broker calls it, so delivery, matching, the rendezvous, quarantine
    and abort are the event backend's own code.  A call that must wait
    reaches :meth:`ProcessScheduler.wait`, which parks the worker here
    (:meth:`park`); :meth:`ProcessScheduler.notify` queues the parked
    workers it names (:meth:`wake`), and once the call being served has
    its reply, :meth:`_settle` re-probes them in that order and answers
    each whose probe succeeds, or sends it the abort error.
    """

    def __init__(self, cluster: SimCluster, conns: list[Any], procs: list[Any]) -> None:
        self._cluster = cluster
        self._conns = conns
        self._procs = procs
        #: Parked worker -> ``(probe, describe)``, as ``wait`` received them.
        self._parked: dict[int, tuple[Callable[[], Any], Callable[[], str]]] = {}
        #: Parked workers to re-probe, in the order they were woken.
        self._woken: deque[int] = deque()
        self._unfinished = set(range(cluster.nprocs))
        self._selector: selectors.BaseSelector | None = None  # set by loop()
        #: Worker->broker pipe messages handled (``cluster.pipe_requests``).
        self.requests = 0

    # ----------------------------- event loop -------------------------- #

    def loop(self) -> None:
        """Service only the pipes and sentinels that woke the wait.

        Each worker's pipe and sentinel are registered once, in one
        selector kept for the run, and unregistered when the rank
        finishes or dies (:meth:`_retire`).  A ready pipe yields one
        request per wake-up: the selector is level-triggered, so the next
        one wakes it again, and no per-message readiness probe (which
        would build a selector of its own) is needed."""
        with selectors.PollSelector() as selector:
            self._selector = selector
            for r in range(len(self._conns)):
                selector.register(self._conns[r], selectors.EVENT_READ, (False, r))
                selector.register(self._procs[r].sentinel, selectors.EVENT_READ, (True, r))
            while self._unfinished:
                ready = sorted(key.data for key, _ in selector.select())
                for died, r in ready:  # pipes first, then sentinels, by rank
                    if r not in self._unfinished:
                        continue  # finished earlier in this round
                    if not died:
                        try:
                            req = self._conns[r].recv()
                        except (EOFError, OSError):
                            continue  # its sentinel reports the death
                        self._handle(r, req)
                    elif not self._procs[r].is_alive():
                        self._drain(r)  # a finish may have landed just before death
                        if r in self._unfinished:
                            self._worker_died(r)

    def _retire(self, rank: int) -> None:
        """Rank ``rank`` finished or died: stop waiting on its handles."""
        self._unfinished.discard(rank)
        self._parked.pop(rank, None)
        self._selector.unregister(self._conns[rank])
        self._selector.unregister(self._procs[rank].sentinel)

    def _drain(self, rank: int) -> None:
        """Handle every request a dead worker left in its pipe."""
        conn = self._conns[rank]
        try:
            while rank in self._unfinished and conn.poll():
                self._handle(rank, conn.recv())
        except (EOFError, OSError):
            pass

    def _handle(self, rank: int, req: tuple) -> None:
        name, args = req[0], req[1:]
        self.requests += 1
        cluster = self._cluster
        if name == "finish":
            self._finish(rank, *args)
        elif name in _POSTED:
            # The in-thread backend raises CommAbortedError in the sender;
            # a post cannot, so post-abort traffic is dropped (the run's
            # outcome is already decided).
            if not cluster._aborted:
                getattr(cluster, name)(*args)
        else:
            try:
                value = getattr(cluster, name)(*args)
            except CommAbortedError as exc:
                self._send(rank, ("err", exc))
            else:
                if value is not _PARKED:
                    self._send(rank, ("ok", value))
        self._settle()

    def _send(self, rank: int, obj: Any) -> None:
        try:
            self._conns[rank].send(obj)
        except (BrokenPipeError, OSError):  # worker died; sentinel handles it
            pass

    # ------------------------------ parking ---------------------------- #

    def park(self, rank: int, ready: Callable[[], Any], describe: Callable[[], str]) -> Any:
        """``ready()``'s value when it succeeds now; else park ``rank``
        (blocked in its ``conn.recv()``) and return :data:`_PARKED`."""
        value = ready()
        if value is not None:
            return value
        self._parked[rank] = ready, describe
        return _PARKED

    def wake(self, ranks: Iterable[int] | None) -> None:
        """Queue the parked workers among ``ranks`` (None: all) for
        :meth:`_settle`."""
        if self._parked:
            self._woken.extend(self._parked if ranks is None else ranks)

    def _settle(self) -> None:
        """Answer the woken workers, in the order they were woken (a
        gather sender's probe wakes its root, so the root's reply follows
        theirs), then apply :func:`declare_deadlock` if nobody can run:
        every unfinished worker is parked.  The test is exact because a
        parked worker is blocked in ``conn.recv()`` and cannot send, and
        its earlier sends preceded its park on its FIFO pipe."""
        parked, woken, cluster = self._parked, self._woken, self._cluster
        while woken:
            rank = woken.popleft()
            entry = parked.get(rank)
            if entry is None:
                continue
            if cluster._aborted:
                reply = ("err", CommAbortedError(cluster._abort_reason or "cluster aborted"))
            else:
                value = entry[0]()
                if value is None:
                    continue
                reply = ("ok", value)
            del parked[rank]
            self._send(rank, reply)
        if parked and len(parked) == len(self._unfinished) and not cluster._aborted:
            victim, reason = declare_deadlock(
                cluster, self._unfinished, lambda rank: parked.pop(rank)[1]()
            )
            self._send(victim, ("err", DeadlockError(reason)))
            self.wake(None)  # the rest: CommAbortedError(reason)
            self._settle()

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
        self._retire(rank)
        if error is not None and not cluster._aborted:
            cluster.abort(f"rank {rank} raised {type(error).__name__}: {error}")

    def _worker_died(self, rank: int) -> None:
        proc = self._procs[rank]
        error = RuntimeError(
            f"rank {rank} worker process died unexpectedly "
            f"(exitcode {proc.exitcode})"
        )
        state = self._cluster._ranks[rank]
        state.error = error
        state.finished = True
        self._retire(rank)
        if not self._cluster._aborted:
            self._cluster.abort(f"rank {rank} raised RuntimeError: {error}")
        self._settle()


# --------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------- #


class ProcessScheduler(SchedulerBackend):
    """One worker OS process per rank, each with a private node store.

    Inside a worker the cluster is a :class:`_WorkerCluster`, whose
    transport entry points forward to the parent broker, so ``notify`` has
    nobody to wake (single thread, no broker) and ``wait`` is never
    reached.  In the parent both serve the broker, which runs the workers'
    calls on the cluster: ``wait`` parks the calling worker and ``notify``
    queues it to be answered.
    """

    name = "process"

    def __init__(self, cluster: SimCluster, seed: int | None) -> None:
        if seed is not None:
            raise UnsupportedBackendError(SEED_NEEDS_EVENT)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise UnsupportedBackendError(
                "scheduler='process' requires the fork start method (rank "
                "programs are closures, inherited rather than pickled); "
                "this platform does not support fork"
            )
        self._cluster = cluster
        self._broker: _Broker | None = None  # the running execute()'s, parent only

    def notify(self, ranks: Iterable[int] | None = None) -> None:
        if self._broker is not None:
            self._broker.wake(ranks)

    def wait(self, rank: int, ready: Callable[[], Any], describe: Callable[[], str]) -> Any:
        """The probe's value when it succeeds now; else :data:`_PARKED`:
        worker ``rank`` waits for the reply the broker sends once a
        :meth:`notify` naming it makes the probe succeed."""
        return self._broker.park(rank, ready, describe)

    def execute(self, runner: Callable[[int], None], nprocs: int) -> None:
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe(duplex=True) for _ in range(nprocs)]
        procs = []
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
            self._broker = _Broker(self._cluster, [p for p, _ in pipes], procs)
            self._broker.loop()
            for proc in procs:
                proc.join(timeout=10.0)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            for parent_end, _ in pipes:
                parent_end.close()
            if self._broker is not None:
                self._cluster.pipe_requests = self._broker.requests
                self._broker = None
