"""The simulated cluster: virtual clocks over pluggable execution backends.

``SimCluster.run(fn, ...)`` plays the role of ``mpirun -np N``: it executes
``fn`` once per rank, hands each invocation a :class:`~repro.mpi.
communicator.Communicator` (its ``COMM_WORLD``), and collects the results.
Real time is irrelevant; every rank owns a *virtual clock* that advances
only through

* explicit compute charges (``comm.work(seconds)``), and
* the communication cost model (:mod:`repro.mpi.timing`).

Because the Python GIL serializes actual execution, the only way to study
parallel *performance* on this substrate is through those virtual clocks --
which is exactly how the benchmark harness reproduces the paper's tables.

How the rank programs are interleaved on the host is delegated to a
:mod:`~repro.mpi.scheduler` backend, selected by ``scheduler=``:

* ``"event"`` (default) -- cooperative event-driven scheduling: one rank
  runs at a time, blocked ranks are woken precisely by the event that
  unblocks them, and deadlock is detected *exactly* (and instantly) when
  the run queue empties with unfinished ranks blocked.  With a
  ``schedule_seed`` the same scheduler fuzzes the host schedule (seeded
  baton hand-offs and yields at the transport entry points below) for the
  schedule-independence suites;
* ``"process"`` -- one worker OS process per rank, each with a private
  node store (:mod:`repro.mpi.process`): real multi-core execution with the
  parent process as the deterministic control-plane arbiter.  Inside a
  worker, the transport entry points below branch to the worker's pipe
  transport (``self._worker``) instead of the local mailboxes.

Correctness properties the runtime guarantees on either backend:

* per-(source, dest, tag-stream) FIFO message ordering, so virtual results
  are deterministic for named-source receives regardless of host thread
  scheduling;
* deadlock surfaces as :class:`DeadlockError` instead of a hang;
* exception propagation: if any rank raises, all blocked peers are woken
  with :class:`CommAbortedError` and the original exception is re-raised
  from :meth:`SimCluster.run`, with any *other* ranks' original failures
  attached as ``__notes__`` so a genuine multi-rank bug is not masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .communicator import Communicator
from .errors import CommAbortedError, blocked_collective_text, blocked_recv_text
from .faults import FaultPlan, FaultState
from .message import ANY_SOURCE, ANY_TAG, Mailbox, Message
from .scheduler import make_scheduler
from .timing import ORIGIN2000, MachineModel

__all__ = ["RankState", "SimCluster", "run_mpi"]


@dataclass
class RankState:
    """Mutable per-rank bookkeeping owned by the cluster."""

    rank: int
    clock: float = 0.0
    mailbox: Mailbox = field(default_factory=Mailbox)
    finished: bool = False
    result: Any = None
    error: BaseException | None = None
    #: ``(comm_id, source, tag)`` streams ``wait_for_all`` has parked it on;
    #: a delivery wakes the rank only when it empties the set.
    awaiting: set[tuple[Any, int, int]] | None = None


class _Rendezvous:
    """One group's collective rendezvous, run by ``SimCluster.collective``
    and the process broker alike: every member publishes its entry clock
    and payload, and the last to arrive closes the generation.  Keyed by
    ``(comm_id, group)``, so sub-communicators sharing a channel id never
    count each other's arrivals."""

    __slots__ = (
        "group", "name", "arrived", "clocks", "payloads", "generation", "outcome", "left"
    )

    def __init__(self, group: tuple[int, ...]) -> None:
        self.group = group
        self.generation = 0
        self.outcome: Any = None  # what the last generation's members take home
        self._open()

    def _open(self) -> None:
        n = len(self.group)
        self.name = ""
        self.arrived: list[int] = []
        self.clocks = [0.0] * n
        self.payloads: list[Any] = [None] * n
        self.left = 0  # members that took the last generation's outcome home

    def arrive(self, local: int, name: str, clock: float, payload: Any) -> bool:
        """Member ``local`` enters collective ``name``; True when it is the
        last, i.e. the generation is ready to :meth:`close`."""
        self.name = name
        self.arrived.append(local)
        self.clocks[local] = clock
        self.payloads[local] = payload
        return len(self.arrived) == len(self.group)

    def close(self) -> tuple[list[float], list[Any]]:
        """The published ``(clocks, payloads)``, local-rank order; the next
        generation starts on fresh lists."""
        published = self.clocks, self.payloads
        self.generation += 1
        self._open()
        return published

    def describe(self) -> str:
        return blocked_collective_text(self.group[min(self.arrived)], self.name)


class SimCluster:
    """A simulated MPI machine with ``nprocs`` ranks.

    Args:
        nprocs: Number of ranks in ``COMM_WORLD``.
        machine: Cost model used for every communication operation.
        faults: Optional seeded :class:`~repro.mpi.faults.FaultPlan`; a
            fresh per-run :class:`~repro.mpi.faults.FaultState` is built at
            every :meth:`run`, so re-running the same plan replays the same
            faults.
        schedule_seed: Test hook (event backend only): fuzz the host
            schedule.  Every baton hand-off goes to a seeded draw from the
            runnable ranks, and at every transport entry point --
            ``deliver_all``, the two receive waits, ``collective`` -- the running
            rank yields on a seeded coin.  Virtual time must not notice;
            the schedule-fuzzing suites run seeds 0-9 to prove it, and a
            failing seed replays alone.  ``None`` is the FIFO schedule.
        checksums: Arm the checksummed transport: every message pays a
            sender-side checksum and receiver-side verify (virtual time),
            and payload corruption injected by a
            :class:`~repro.mpi.faults.MessageFlipSpec` is absorbed by a
            priced NACK + retransmit path instead of escaping silently.
        scheduler: Execution backend: ``"event"`` (cooperative, precise
            wakeups, exact deadlock detection -- the default, also for
            ``None``) or ``"process"`` (one worker OS process per rank,
            each with a private node store and every collective held by
            the parent broker -- real multi-core execution, identical
            virtual results; it refuses a ``schedule_seed`` here, at
            construction).
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel = ORIGIN2000,
        faults: FaultPlan | None = None,
        schedule_seed: int | None = None,
        checksums: bool = False,
        scheduler: str | None = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.machine = machine
        self.faults = faults
        self.checksums = checksums
        self.fault_state: FaultState | None = (
            FaultState(faults, nprocs) if faults is not None else None
        )
        self.scheduler = scheduler or "event"
        self._backend = make_scheduler(self.scheduler, self, schedule_seed)
        # The seeded yield every in-thread transport entry point takes
        # first; None on the FIFO schedule (process rejects a seed).
        self._preempt: Callable[[], None] | None = (
            self._backend.preempt if schedule_seed is not None else None
        )
        self._ranks = [RankState(r) for r in range(nprocs)]
        self._rendezvous: dict[Any, _Rendezvous] = {}
        #: Point-to-point messages accepted into a mailbox this run (host
        #: observability for the delta-exchange benchmark; quarantined and
        #: dropped messages never count).
        self.messages_delivered = 0
        #: Barrier releases executed this run (host observability for the
        #: hybrid-execution benchmark: interior sweeps are barrier-free).
        self.barriers = 0
        #: Worker-to-broker pipe messages the process backend handled last
        #: run (0 on the in-thread backend): delivers, receive-side
        #: queries, one per collective per member, and finishes.
        self.pipe_requests = 0
        self._aborted = False
        self._abort_reason: str | None = None
        # (comm_id, local src) pairs condemned by quarantine(): a dead rank's
        # host thread may still be running when survivors shrink, so its late
        # sends must be filtered at delivery time, not just purged once.
        self._quarantined: set[tuple[Any, int]] = set()
        # Inside a process-backend worker this holds the worker's pipe
        # transport to the parent broker; every transport entry point
        # branches to it.  Always None in the parent / in-thread backend.
        self._worker: Any = None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        per_rank_args: Sequence[tuple[Any, ...]] | None = None,
    ) -> list[Any]:
        """Execute ``fn(comm, *args)`` on every rank; return per-rank results.

        Args:
            fn: The "MPI program". Its first argument is the rank's world
                communicator.
            *args: Extra positional arguments passed identically to all ranks.
            per_rank_args: Optional per-rank extra arguments, appended after
                ``args``; must have exactly ``nprocs`` entries.

        Returns:
            ``[fn(comm_0, ...), ..., fn(comm_{n-1}, ...)]`` in rank order.

        Raises:
            The first exception raised by any rank (other ranks are
            aborted).  When several ranks fail with their own original
            errors, the re-raised exception carries one ``__notes__`` line
            per additional failed rank (Python >= 3.11), so a genuine
            two-rank bug is visible from the single traceback.
        """
        if per_rank_args is not None and len(per_rank_args) != self.nprocs:
            raise ValueError(
                f"per_rank_args must have {self.nprocs} entries, got {len(per_rank_args)}"
            )
        # Every run() starts from a clean machine: zeroed clocks, empty
        # mailboxes, no stale abort/finished flags (a poisoned flag from a
        # failed run would abort the next one at its first transport call),
        # and -- when a fault plan is armed -- fresh per-rank decision
        # streams, so the same plan replays the same faults even if the
        # cluster object is reused (the backend re-seeds its schedule
        # generator per run for the same reason).
        for state in self._ranks:
            state.clock = 0.0
            state.mailbox.clear()
            state.finished = False
            state.result = None
            state.error = None
            state.awaiting = None
        self._rendezvous.clear()
        self.messages_delivered = 0
        self.barriers = 0
        self.pipe_requests = 0
        self._aborted = False
        self._abort_reason = None
        # Quarantine filters installed by a previous shrink recovery would
        # silently swallow a reused channel id's traffic; a fresh run starts
        # with every rank trusted again (the failure detector re-derives dead
        # ranks from the new fault state below).
        self._quarantined.clear()
        if self.faults is not None:
            self.fault_state = FaultState(self.faults, self.nprocs)
        backend = self._backend

        def runner(rank: int) -> None:
            state = self._ranks[rank]
            comm = Communicator(self, rank, tuple(range(self.nprocs)), comm_id=0)
            extra = per_rank_args[rank] if per_rank_args is not None else ()
            try:
                state.result = fn(comm, *args, *extra)
            except BaseException as exc:  # noqa: BLE001 - reraised in run()
                state.error = exc
                self._aborted = True
                self._abort_reason = f"rank {rank} raised {type(exc).__name__}: {exc}"
                backend.notify()
            finally:
                state.finished = True
                backend.notify()

        backend.execute(runner, self.nprocs)

        # A rank's own failure outranks the CommAbortedError its peers get
        # from the abort cascade.  The first original failure is re-raised;
        # any further ranks' original failures are attached as notes so
        # they are not silently masked.
        primary: BaseException | None = None
        for state in self._ranks:
            if state.error is None or isinstance(state.error, CommAbortedError):
                continue
            if primary is None:
                primary = state.error
            elif hasattr(primary, "add_note"):  # Python >= 3.11
                primary.add_note(
                    f"[simulated cluster] rank {state.rank} also failed: "
                    f"{type(state.error).__name__}: {state.error}"
                )
        if primary is not None:
            raise primary
        for state in self._ranks:  # only abort errors remain, surface the first
            if state.error is not None:
                raise state.error
        return [state.result for state in self._ranks]

    # ------------------------------------------------------------------ #
    # State accessors used by Communicator
    # ------------------------------------------------------------------ #

    def state(self, rank: int) -> RankState:
        """The mutable state record of ``rank`` (world-rank indexed)."""
        return self._ranks[rank]

    def clock(self, rank: int) -> float:
        """Current virtual clock of ``rank``."""
        return self._ranks[rank].clock

    def max_clock(self) -> float:
        """Maximum virtual clock across all ranks (the makespan so far)."""
        return max(state.clock for state in self._ranks)

    def abort(self, reason: str) -> None:
        """Abort the whole cluster; wakes all blocked ranks.

        Must be called from a rank's own thread (any transport entry point
        qualifies) -- on the cooperative backend only the running rank may
        touch cluster state.
        """
        if self._worker is not None:
            self._aborted = True
            self._abort_reason = reason
            self._worker.abort(reason)
            return
        self._aborted = True
        self._abort_reason = reason
        self._backend.notify()

    def quarantine(self, rank: int, dead_srcs: frozenset[int], comm_id: Any) -> int:
        """Drop ``rank``'s in-flight messages from dead peers on one comm.

        ULFM-style hygiene after a shrink: any message a dead rank injected
        before crashing must not be matched by a later receive on the old
        communicator (the survivor would consume stale data and, worse,
        *when* it got consumed would depend on host-thread timing).  Each
        survivor purges its own mailbox; the operation is idempotent and
        keyed to one ``comm_id`` so unrelated communicators are untouched.

        Args:
            rank: World rank whose mailbox is purged (the caller's own).
            dead_srcs: Communicator-*local* source ranks to discard
                (message ``src`` fields are comm-local).
            comm_id: Channel whose traffic is purged.

        Returns:
            Number of messages discarded.
        """
        if self._worker is not None:
            return self._worker.quarantine(dead_srcs, comm_id)
        for src in dead_srcs:
            self._quarantined.add((comm_id, src))
        # Removals can unblock nobody, so there is nothing to notify.
        return self._ranks[rank].mailbox.purge(comm_id, dead_srcs)

    # ------------------------------------------------------------------ #
    # Message transport (called by Communicator)
    # ------------------------------------------------------------------ #

    def deliver_all(self, msgs: list[Message]) -> None:
        """Place one sender's ``msgs`` (one communicator's, in send order)
        into their destination mailboxes and wake the receivers once.

        Messages from a quarantined (comm, source) pair are dropped on the
        floor: a condemned rank's thread can still execute sends after the
        survivors shrank, and those stragglers must never reach a mailbox.
        """
        if not msgs:
            return
        if self._worker is not None:
            self._check_abort()
            for msg in msgs:
                self._worker.deliver(msg)
            return
        if self._preempt is not None:
            self._preempt()
        if self._aborted:
            self._check_abort()
        if (msgs[0].comm_id, msgs[0].src) in self._quarantined:
            return
        ranks = self._ranks
        wake = []
        for msg in msgs:
            state = ranks[msg.dest]
            state.mailbox.append(msg)
            awaiting = state.awaiting
            if awaiting:
                # Parked on several streams: runnable once the last is in.
                awaiting.discard((msg.comm_id, msg.src, msg.tag))
                if awaiting:
                    continue
            wake.append(msg.dest)
        self.messages_delivered += len(msgs)
        self._backend.notify(wake)

    def take_matching(
        self, rank: int, source: int, tag: int, comm_id: Any, consume: bool = True
    ) -> Message | None:
        """Pop (or peek at) the best matching message in ``rank``'s mailbox.

        Matching is FIFO per (source, tag) stream; for wildcard receives
        the per-source stream heads compete on the earliest virtual arrival
        time with the source rank as a deterministic tie-break.  The index
        lookup itself is delegated to :class:`~repro.mpi.message.Mailbox`.
        """
        if self._worker is not None:
            return self._worker.take(source, tag, comm_id, consume)
        return self._ranks[rank].mailbox.take(source, tag, comm_id, consume)

    def pending_sources(self, rank: int, tag: int, comm_id: Any) -> list[int]:
        """Comm-local sources with a queued ``(comm_id, tag)`` message for
        ``rank`` (the delta halo exchange's post-barrier sender discovery)."""
        if self._worker is not None:
            return self._worker.sources(tag, comm_id)
        return self._ranks[rank].mailbox.sources_with(comm_id, tag)

    def wait_for_message(
        self, rank: int, source: int, tag: int, comm_id: Any, consume: bool = True
    ) -> Message:
        """Block ``rank`` until a matching message exists, then pop it."""
        if self._worker is not None:
            return self._worker.recv(source, tag, comm_id, consume)
        if self._preempt is not None:
            self._preempt()
        mailbox = self._ranks[rank].mailbox
        return self._backend.wait(
            rank,
            lambda: mailbox.take(source, tag, comm_id, consume),
            lambda: blocked_recv_text(rank, source, tag),
        )

    def wait_for_all(
        self, comm: Communicator, sources: Sequence[int], tag: int
    ) -> list[Message]:
        """Pop one ``tag`` message per source, in ``sources`` order, parking
        the rank *once* until every named ``(source, tag)`` stream has one.

        A list with a wildcard source, or ``ANY_TAG``, names no set of
        streams to park on, and a source named twice needs a second message
        of its stream: the per-message wait below picks up whatever the
        park did not cover.  A worker asks its broker source by source.
        """
        rank, comm_id = comm._world_rank, comm._comm_id
        if self._worker is not None:
            return [self._worker.recv(q, tag, comm_id, True) for q in sources]
        if self._preempt is not None:
            self._preempt()
        if sources:
            self._check_abort()  # as the first per-message wait would
        state = self._ranks[rank]
        mailbox = state.mailbox
        missing = (
            {(comm_id, q, tag) for q in sources if not mailbox.has(comm_id, q, tag)}
            if tag != ANY_TAG and ANY_SOURCE not in sources
            else None
        )
        if missing:
            state.awaiting = missing
            try:
                self._backend.wait(
                    rank,
                    lambda: None if missing else True,
                    lambda: blocked_recv_text(
                        rank, next(q for q in sources if (comm_id, q, tag) in missing), tag
                    ),
                )
            finally:
                state.awaiting = None
        return [
            mailbox.take(q, tag, comm_id) or self.wait_for_message(rank, q, tag, comm_id)
            for q in sources
        ]

    def _check_abort(self) -> None:
        if self._aborted:
            raise CommAbortedError(self._abort_reason or "cluster aborted")

    # ------------------------------------------------------------------ #
    # Collectives: one rendezvous per call (called by Communicator)
    # ------------------------------------------------------------------ #

    def collective(
        self, comm: Communicator, name: str, payload: Any,
        complete: Callable[[list[float], list[Any]], tuple[list[float], Any]],
        messages: int = 0, barriers: int = 0, last: int | None = None,
    ) -> Any:
        """Run collective ``name`` over ``comm``'s group as one rendezvous.

        Every member publishes its clock and ``payload``; ``complete(clocks,
        payloads)`` (both in local-rank order) maps them to every member's
        exit clock and the result, which this rank takes home.  The
        rendezvous counts the ``messages`` and ``barriers`` the operation
        models, and the last rank to arrive releases exactly the group.
        Member ``last`` leaves after every other member has: a gather's
        root, whose tree receives complete after its senders sent and ran
        on, so what they do next (lose a message, say) comes first.
        Inside a process worker the rendezvous is the parent broker's, and
        its workers leave at once: they run concurrently anyway.
        """
        rank, local, group = comm._world_rank, comm._rank, comm._group
        state = self._ranks[rank]
        if self._worker is not None:
            self._check_abort()
            clocks, result = complete(*self._worker.collective(
                group, comm._comm_id, name, state.clock, payload, messages, barriers
            ))
        else:
            if self._preempt is not None:
                self._preempt()
            self._check_abort()
            key = (comm._comm_id, group)
            rv = self._rendezvous.get(key)
            if rv is None:
                rv = self._rendezvous[key] = _Rendezvous(group)
            generation = rv.generation
            if rv.arrive(local, name, state.clock, payload):
                rv.outcome = complete(*rv.close())
                self.messages_delivered += messages
                self.barriers += barriers
                self._backend.notify(group)
            else:
                self._backend.wait(
                    rank, lambda: True if rv.generation != generation else None, rv.describe
                )
            if local == last:
                others = len(group) - 1
                self._backend.wait(rank, lambda: True if rv.left == others else None, rv.describe)
            elif last is not None:
                rv.left += 1
                self._backend.notify((group[last],))
            clocks, result = rv.outcome
        state.clock = clocks[local]
        return result


def run_mpi(
    fn: Callable[..., Any],
    nprocs: int,
    *args: Any,
    machine: MachineModel = ORIGIN2000,
    per_rank_args: Sequence[tuple[Any, ...]] | None = None,
    faults: FaultPlan | None = None,
    schedule_seed: int | None = None,
    checksums: bool = False,
    scheduler: str | None = None,
) -> list[Any]:
    """One-shot convenience wrapper: build a cluster, run ``fn``, return results."""
    cluster = SimCluster(
        nprocs,
        machine=machine,
        faults=faults,
        schedule_seed=schedule_seed,
        checksums=checksums,
        scheduler=scheduler,
    )
    return cluster.run(fn, *args, per_rank_args=per_rank_args)
