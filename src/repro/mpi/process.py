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
    One transport: a worker forwards each of the cluster's transport calls
    whole -- ``deliver_all``, ``wait_for_all``, ``pending_sources``,
    ``quarantine``, ``abort`` -- as one pipe message naming the method
    and its arguments, and the parent :class:`_Broker` runs that same
    method on the parent's cluster, which holds the run's *authoritative*
    mailboxes.  A call that must wait parks the worker through the
    scheduler seam the event backend uses (:meth:`ProcessScheduler.wait`),
    and :meth:`ProcessScheduler.notify` answers it.  Virtual clocks and
    fault-decision PRNG streams are strictly per-rank, so each worker
    advances its own locally and ships the final values home in its
    ``finish`` record; the broker merges clocks, fault counters, and rank
    results so :meth:`SimCluster.run` sees exactly what the in-thread
    backend produces.  Every rendezvous -- world or shrunken
    communicator, a barrier or a collective -- is one ``_Rendezvous`` in
    the broker.  Because a worker's pipe is FIFO and the broker handles
    it in order, every deliver a member sent before entering a collective
    is filed before that collective is released.

Determinism argument (why results are bit-identical to ``event``):

* every clock update is a function of the caller's own state plus message
  ``arrival_time`` fields computed sender-side -- nothing depends on host
  scheduling;
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
from typing import TYPE_CHECKING, Any, Callable, Iterable

import multiprocessing

from .errors import CommAbortedError, DeadlockError, UnsupportedBackendError
from .scheduler import SEED_NEEDS_EVENT, SchedulerBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import SimCluster

__all__ = ["ProcessScheduler"]


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _WorkerTransport:
    """A worker's pipe to the parent broker (installed as ``cluster._worker``;
    the runtime's transport entry points forward to it).

    Every request names a ``SimCluster`` method and its arguments, and the
    broker runs that method on the parent's cluster (``collective``: its
    own rendezvous; ``finish``: the rank's home record).  :meth:`post` is
    fire-and-forget (``deliver_all``, ``abort``, ``finish``); :meth:`call`
    is request/reply (``("ok", value)`` or ``("err", exc)``), so after a
    call the next object on the pipe is always its reply.  Messages travel
    as they are, pickled by the pipe, in both directions.
    """

    def __init__(self, conn: Any, rank: int) -> None:
        self._conn = conn
        self.rank = rank

    def post(self, *req: Any) -> None:
        self._conn.send(req)

    def call(self, *req: Any) -> Any:
        self._conn.send(req)
        kind, value = self._conn.recv()
        if kind == "err":
            raise value
        return value

    def finish(
        self,
        result: Any,
        error: BaseException | None,
        counters: list[dict[str, int]] | None,
        clock: float,
    ) -> None:
        try:
            self._conn.send(("finish", result, error, counters, clock))
            return
        except Exception:  # noqa: BLE001 - send pickles the record before writing a byte
            pass
        result_exc = _pickle_error(result)
        if result_exc is not None:
            result = None
            if error is None:
                error = RuntimeError(f"rank {self.rank} result is not picklable: {result_exc!r}")
        if error is not None and _pickle_error(error) is not None:
            error = RuntimeError(f"{type(error).__name__}: {error}")
        self._conn.send(("finish", result, error, counters, clock))


def _pickle_error(obj: Any) -> Exception | None:
    """Why ``obj`` does not pickle (None when it does)."""
    try:
        pickle.dumps(obj)
        return None
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return exc


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

#: What a served call returns when it parked its worker: the reply comes
#: later, from :meth:`_Broker.wake` (or the deadlock test already sent it).
_PARKED = object()

#: Fire-and-forget requests: the worker does not wait for a reply.
_POSTED = frozenset({"deliver_all", "abort"})


class _Broker:
    """The parent arbiter: runs every worker's transport call on the
    parent's cluster, which holds the run's mailboxes.

    Single-threaded event loop over the worker pipes.  A request names a
    ``SimCluster`` method -- ``deliver_all``, ``wait_for_all``,
    ``pending_sources``, ``quarantine``, ``abort`` -- and the broker calls
    it, so delivery, matching, quarantine and abort are the event
    backend's own code.  A call that must wait reaches
    :meth:`ProcessScheduler.wait`, which parks the worker here
    (:meth:`park`); :meth:`ProcessScheduler.notify` re-probes the parked
    workers it names (:meth:`wake`) and answers each whose probe succeeds,
    or sends it the abort error.  The collective rendezvous is the
    broker's own (:meth:`_collective`, over the shared ``_Rendezvous``):
    its replay runs in the workers.
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
        #: Parked worker -> ``(probe, describe)``, as ``wait`` received them.
        self._parked: dict[int, tuple[Callable[[], Any], Callable[[], str]]] = {}
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
        if name in _POSTED:
            # The in-thread backend raises CommAbortedError in the sender;
            # a post cannot, so post-abort traffic is dropped (the run's
            # outcome is already decided).
            if not cluster._aborted:
                getattr(cluster, name)(*args)
            return
        if name == "finish":
            self._finish(rank, *args)
            return
        serve = self._collective if name == "collective" else getattr(cluster, name)
        try:
            value = serve(*args)
        except CommAbortedError as exc:
            self._send(rank, ("err", exc))
            return
        if value is not _PARKED:
            self._send(rank, ("ok", value))

    def _send(self, rank: int, obj: Any) -> None:
        try:
            self._conns[rank].send(obj)
        except (BrokenPipeError, OSError):  # worker died; sentinel handles it
            pass

    # ------------------------------ parking ---------------------------- #

    def park(
        self,
        rank: int,
        ready: Callable[[], Any],
        describe: Callable[[], str],
        victim: int | None,
    ) -> Any:
        """``ready()``'s value when it succeeds now; else park ``rank``
        (blocked in its ``conn.recv()``) and return :data:`_PARKED`.  A
        deadlock the park completes names ``victim`` (None: the lowest
        unfinished rank)."""
        self._cluster._check_abort()
        value = ready()
        if value is not None:
            return value
        self._parked[rank] = ready, describe
        self._maybe_deadlock(victim)
        return _PARKED

    def wake(self, ranks: Iterable[int] | None) -> None:
        """Answer every parked worker among ``ranks`` (None: all) whose
        probe now succeeds, or, after an abort, with the abort error."""
        parked = self._parked
        if not parked:
            return
        cluster = self._cluster
        for rank in list(parked) if ranks is None else ranks:
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

    def _maybe_deadlock(self, victim: int | None) -> None:
        """Exact deadlock test, mirroring the event backend's two cases.

        Sound because parked workers are blocked in ``conn.recv()`` and
        cannot send: all-unfinished-parked implies no delivery can be in
        flight on any pipe (a worker's sends are FIFO-ordered before its
        own park request, hence already processed).
        """
        cluster = self._cluster
        if cluster._aborted or not self._unfinished:
            return
        if any(r not in self._parked for r in self._unfinished):
            return
        if victim is None:  # lowest blocked rank (case B's rule in _pass_baton)
            victim = min(self._unfinished)
        reason = self._parked.pop(victim)[1]()
        cluster._aborted = True
        cluster._abort_reason = reason
        self._send(victim, ("err", DeadlockError(reason)))
        self.wake(None)  # the rest: CommAbortedError(reason)

    # ---------------------------- collectives -------------------------- #

    def _collective(
        self, rank: int, group: tuple[int, ...], comm_id: Any, name: str, clock: float,
        payload: Any, messages: int, barriers: int,
    ) -> Any:
        """Worker ``rank`` joins ``SimCluster.collective``'s rendezvous:
        the last member to arrive takes every member's published
        ``(clocks, payloads)`` home and releases the rest.  The replay
        runs in each worker, and all members leave at once."""
        from .runtime import _Rendezvous

        cluster = self._cluster
        cluster._check_abort()
        key = (comm_id, group)
        rv = cluster._rendezvous.get(key)
        if rv is None:
            rv = cluster._rendezvous[key] = _Rendezvous(group)
        generation = rv.generation
        if rv.arrive(group.index(rank), name, clock, payload):
            rv.outcome = rv.close()
            cluster.messages_delivered += messages
            cluster.barriers += barriers
            self.wake(group)
            return rv.outcome
        # Which member parks last is a host race: a deadlock names the
        # lowest blocked rank instead, so the report repeats.
        return self.park(
            rank, lambda: rv.outcome if rv.generation != generation else None,
            rv.describe, victim=None,
        )

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
        if cluster._aborted:
            return
        if error is not None:
            cluster.abort(f"rank {rank} raised {type(error).__name__}: {error}")
        else:
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
        self._retire(rank)
        if not self._cluster._aborted:
            self._cluster.abort(f"rank {rank} raised RuntimeError: {error}")


# --------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------- #


class ProcessScheduler(SchedulerBackend):
    """One worker OS process per rank, each with a private node store.

    Inside a worker the cluster's transport entry points forward to the
    parent broker, so ``notify`` has nobody to wake (single thread, no
    broker) and ``wait`` is never reached.  In the parent both serve the
    broker, which runs the workers' calls on the cluster: ``wait`` parks
    the calling worker and ``notify`` answers it.
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
        self._broker: _Broker | None = None  # the running execute()'s, parent only

    def notify(self, ranks: Iterable[int] | None = None) -> None:
        if self._broker is not None:
            self._broker.wake(ranks)

    def wait(
        self,
        rank: int,
        ready: Callable[[], Any],
        describe: Callable[[], str],
    ) -> Any:
        """The probe's value when it succeeds now; else :data:`_PARKED`:
        worker ``rank`` waits for the reply :meth:`notify` sends.  A
        deadlock this park completes names ``rank``."""
        return self._broker.park(rank, ready, describe, victim=rank)

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
