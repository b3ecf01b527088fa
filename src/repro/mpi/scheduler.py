"""Execution backends for :class:`~repro.mpi.runtime.SimCluster`.

The simulated cluster runs every rank's program on its own OS thread (rank
programs are ordinary blocking Python functions, so each needs its own
stack).  *How* those threads are interleaved is this module's job:

:class:`EventScheduler` (``scheduler="event"``, the default)
    Event-driven cooperative scheduling: exactly one rank thread is
    runnable at any instant, and control is baton-passed directly between
    rank threads through a bare lock per task.  There is no shared lock to
    contend on, no condition-variable broadcast, and no polling -- a
    blocked rank sleeps until the event that can actually
    unblock it (its message delivery, its barrier's completion) puts it
    back on the run queue.  Deadlock detection is *exact*: the moment the
    run queue empties while unfinished ranks remain blocked, a
    :class:`~repro.mpi.errors.DeadlockError` is raised immediately -- no
    wall-clock timeout is ever waited out.  Given a ``seed`` the same
    scheduler fuzzes the host schedule: the baton goes to a seeded draw
    from the run queue instead of its head, and the running rank yields
    at transport entry points on a seeded coin -- the schedule-fuzzing
    suites' way of proving virtual results schedule-independent, with
    every failing schedule replayable from its seed.

:class:`~repro.mpi.process.ProcessScheduler` (``scheduler="process"``)
    Escapes the GIL: forks one worker OS process per rank, each with a
    private node store, with the parent as the deterministic
    control-plane arbiter -- see :mod:`repro.mpi.process`.

Both drive the same virtual-clock/mailbox/barrier machinery in
:mod:`repro.mpi.runtime`, and both must produce bit-identical virtual
results -- the conformance suites in ``tests/mpi/test_scheduler.py`` and
``tests/mpi/test_process_backend.py`` hold them to that.
"""

from __future__ import annotations

import _thread
import random
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import SimCluster

__all__ = [
    "EventScheduler",
    "SCHEDULERS",
    "SEED_NEEDS_EVENT",
    "SchedulerBackend",
    "declare_deadlock",
    "make_scheduler",
]

#: Recognized ``SimCluster(scheduler=...)`` values, the default first.
SCHEDULERS = ("event", "process")

#: Why a ``schedule_seed`` rules out the process backend: the one switch
#: combination refused, by ``ProcessScheduler`` at cluster construction.
SEED_NEEDS_EVENT = (
    "scheduler='process' cannot take a schedule_seed: worker ranks run in "
    "separate processes the host kernel interleaves (use scheduler='event' "
    "for schedule fuzzing)"
)


class SchedulerBackend:
    """Interface the runtime uses to run, block, and wake rank threads.

    The runtime calls ``wait`` to block the calling rank until a readiness
    probe succeeds, and calls ``notify`` after any state change that could
    unblock the named ranks.  Only the running rank touches cluster state,
    so neither needs a lock.
    """

    name: str

    def execute(self, runner: Callable[[int], None], nprocs: int) -> None:
        """Run ``runner(rank)`` for every rank to completion."""
        raise NotImplementedError

    def wait(
        self,
        rank: int,
        ready: Callable[[], Any],
        describe: Callable[[], str],
    ) -> Any:
        """Block ``rank`` until ``ready()`` returns non-``None``; return it.

        ``describe`` renders what the rank is stuck on; it is called only
        when :func:`declare_deadlock` picks this rank as the victim.  In
        the process broker nothing blocks: ``wait`` returns the probe's
        value when it succeeds at once, and otherwise parks the calling
        worker and returns a marker -- ``notify`` re-probes the parked
        worker and answers it.  So a probe must do the whole completion
        (the receive's probe is its pop, the rendezvous's its leave).
        """
        raise NotImplementedError

    def notify(self, ranks: Iterable[int] | None = None) -> None:
        """Record progress that may unblock ``ranks`` (``None`` = anyone)."""
        raise NotImplementedError


class _Task:
    """Cooperative-scheduling bookkeeping for one rank thread.

    ``baton`` is a bare lock used as a binary semaphore, held from birth:
    the task parks in ``baton.acquire()``, and ``wake`` (the lock's
    ``release``) hands it the baton.
    """

    __slots__ = ("rank", "baton", "wake", "finished", "blocked", "queued", "describe", "deadlock")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.baton = _thread.allocate_lock()
        self.baton.acquire()
        self.wake = self.baton.release
        self.finished = False
        self.blocked = False   # parked in wait(), not on the run queue
        self.queued = False    # on the run queue awaiting the baton
        self.describe: Callable[[], str] | None = None
        self.deadlock: str | None = None  # the victim's report, raised on resume


class EventScheduler(SchedulerBackend):
    """Event-driven cooperative execution of the rank threads.

    Invariant: at most one rank thread executes at any moment.  The baton
    is handed directly from the thread that blocks (or finishes) to a task
    on the run queue by releasing that task's bare lock -- the only
    synchronization primitive in the whole backend (``execute`` waits on
    one more of the same).  A task is released only when it is popped from
    the run queue, and queued again only after it has taken the baton, so
    every release is matched by exactly one acquire: a task released
    before it reaches its ``acquire`` finds the lock free and runs on, as
    it would find an event set.  Consequences:

    * cluster state needs no lock;
    * wakeups are precise: ``notify`` enqueues exactly the ranks that a
      delivery or barrier completion could unblock, and nobody else runs;
    * deadlock detection is exact and free: when a rank blocks (or
      finishes) with an empty run queue while unfinished ranks remain,
      *no* future event can occur -- eager sends never block, so every
      possible wakeup source is itself blocked.  :func:`declare_deadlock`
      names the victim, which raises :class:`DeadlockError` when it
      resumes; the abort cascade releases the rest.  No wall-clock
      timeout is involved.

    Unseeded, the run queue is FIFO (filled in rank order, appended in
    notification order), so execution -- and therefore every virtual
    outcome -- is bit-for-bit reproducible run over run.

    With a ``seed`` the schedule is fuzzed instead: :meth:`_pass_baton`
    hands over to a uniformly drawn runnable task, and :meth:`preempt`
    (called by the runtime at every transport entry point) makes the
    running rank yield on a fair coin.  A yielding rank stays on the run
    queue, so the deadlock test above is as exact as before.  The
    generator is re-seeded at every :meth:`execute`: (program, seed) names
    one schedule, and a failing seed replays on its own.
    """

    name = "event"

    def __init__(self, cluster: "SimCluster", seed: int | None = None) -> None:
        self._cluster = cluster
        self._seed = seed
        self._tasks: list[_Task] = []
        self._done: Any = None  # execute()'s own baton, a bare lock per run
        self._run_queue: deque[int] = deque()
        # Chosen once, so the unseeded hand-off never looks at the seed.
        self._next: Callable[[], int] = (
            self._run_queue.popleft if seed is None else self._draw
        )
        self._rng = random.Random(seed)  # re-seeded per execute() when seeded
        self._running = 0  # whom _draw last handed the baton (seeded runs)
        #: Yields :meth:`preempt` took this run (0 on an unseeded run).
        self.preemptions = 0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, runner: Callable[[int], None], nprocs: int) -> None:
        self._tasks = [_Task(r) for r in range(nprocs)]
        self._run_queue.clear()
        self._run_queue.extend(range(nprocs))
        for task in self._tasks:
            task.queued = True
        self._done = _thread.allocate_lock()  # released when every task is finished
        self._done.acquire()
        if self._seed is not None:
            self._rng.seed(self._seed)
        self.preemptions = 0
        threads = [
            threading.Thread(
                target=self._task_main,
                args=(task, runner),
                name=f"sim-rank-{task.rank}",
                daemon=True,
            )
            for task in self._tasks
        ]
        for t in threads:
            t.start()
        self._pass_baton()  # hand control to a rank; all switching is task-to-task
        self._done.acquire()
        for t in threads:
            t.join()

    def _task_main(self, task: _Task, runner: Callable[[int], None]) -> None:
        task.baton.acquire()  # first baton
        try:
            runner(task.rank)
        finally:
            task.finished = True
            self._pass_baton()

    # ------------------------------------------------------------------ #
    # Blocking and wakeups
    # ------------------------------------------------------------------ #

    def notify(self, ranks: Iterable[int] | None = None) -> None:
        tasks = self._tasks if ranks is None else (self._tasks[r] for r in ranks)
        for task in tasks:
            if task.blocked and not task.queued:
                task.queued = True
                self._run_queue.append(task.rank)

    def wait(
        self,
        rank: int,
        ready: Callable[[], Any],
        describe: Callable[[], str],
    ) -> Any:
        cluster = self._cluster
        task = self._tasks[rank]
        while True:
            if task.deadlock is not None:
                raise DeadlockError(task.deadlock)
            cluster._check_abort()
            value = ready()
            if value is not None:
                return value
            task.describe = describe
            task.blocked = True
            if not self._run_queue and self._everyone_stuck():
                # Exact deadlock: this rank just blocked, nobody is
                # runnable, and blocked ranks cannot generate events.
                task.blocked = False
                self._declare()  # the others resume after this rank raises
                continue
            self._pass_baton()
            task.baton.acquire()
            task.blocked = False

    def preempt(self) -> None:
        """Seeded runs only: when someone else is runnable, on a fair coin
        the running rank re-queues itself and passes the baton on (it stays
        runnable, never blocked)."""
        if self._run_queue and self._rng.random() < 0.5:
            task = self._tasks[self._running]
            self.preemptions += 1
            task.queued = True
            self._run_queue.append(task.rank)
            self._pass_baton()
            task.baton.acquire()

    def _draw(self) -> int:
        """The seeded pop: a uniformly drawn runnable rank, remembered as
        the one running so :meth:`preempt` knows whom to re-queue."""
        queue = self._run_queue
        i = self._rng.randrange(len(queue))
        self._running = rank = queue[i]
        del queue[i]
        return rank

    def _everyone_stuck(self) -> bool:
        return all(t.finished or t.blocked for t in self._tasks)

    def _pass_baton(self) -> None:
        """Hand control to the next runnable task, or wind the run down.
        Only a parking task is ever queued (blocked in :meth:`wait` or
        yielding in :meth:`preempt`), so the popped one is never finished."""
        if self._run_queue:
            task = self._tasks[self._next()]
            task.queued = False
            task.wake()
            return
        if all(t.finished for t in self._tasks):
            self._done.release()
            return
        # A task finished (or aborted) leaving only blocked ranks behind:
        # that is a deadlock unless an abort is already draining them.
        if self._cluster._aborted:
            self.notify()
        else:
            self._declare()
        if self._run_queue:
            self._pass_baton()
        else:  # pragma: no cover - unreachable: unfinished implies blocked
            self._done.release()

    def _declare(self) -> None:
        """Nobody can run: mark :func:`declare_deadlock`'s victim and queue
        every blocked rank (the victim raises the report when it resumes,
        the rest :class:`~repro.mpi.errors.CommAbortedError`)."""
        tasks = self._tasks
        victim, reason = declare_deadlock(
            self._cluster, (t.rank for t in tasks if not t.finished),
            lambda rank: tasks[rank].describe(),
        )
        tasks[victim].deadlock = reason
        self.notify()


def declare_deadlock(
    cluster: "SimCluster", unfinished: Iterable[int], describe: Callable[[int], str]
) -> tuple[int, str]:
    """The deadlock rule of both backends, applied once nobody can run (the
    backend's own test: an empty run queue on ``event``, every unfinished
    worker parked on ``process``).  The lowest unfinished rank is the
    victim and ``describe(victim)`` -- what it waits on -- the report, so
    the report is a property of the program, not of which rank blocked
    last.  Aborts ``cluster`` with it; returns ``(victim, report)``."""
    victim = min(unfinished)
    reason = describe(victim)
    cluster._aborted = True
    cluster._abort_reason = reason
    return victim, reason


def make_scheduler(name: str, cluster: "SimCluster", seed: int | None) -> SchedulerBackend:
    """Instantiate the named backend for ``cluster`` (``seed``: see
    :class:`EventScheduler`; the process backend rejects one)."""
    if name == "event":
        return EventScheduler(cluster, seed)
    if name == "process":
        from .process import ProcessScheduler  # deferred: import cycle

        return ProcessScheduler(cluster, seed)
    raise ValueError(f"unknown scheduler {name!r}; expected one of {SCHEDULERS}")
