"""``neighbor_send``/``neighbor_recv`` against the per-message loop.

The pair's contract is that it *is* the ``isend``/``recv`` loop -- in
payloads, virtual clocks, message and barrier counts, fault draws and
error text -- on every backend, under every fault plan and with checksums
armed; it merely gets there with one hand-over and one park.  Since
``isend`` and ``recv`` are now the pair's own routines on a batch of one,
the loop side of every comparison runs on :class:`ReferenceCommunicator`:
the per-message transport as it stood before the two were fused, kept here
verbatim so the suite still has an independent derivation of the charge
sequence.  Program A below spells the loop out on it, program B uses the
pair, and everything observable must match.
"""

from __future__ import annotations

import itertools
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mpi.scheduler as scheduler_module
from repro.mpi import (
    ORIGIN2000,
    CommAbortedError,
    Communicator,
    DeadlockError,
    FaultPlan,
    RetryPolicy,
    SimCluster,
    TopologyMachineModel,
)
from repro.mpi.errors import (
    InvalidRankError,
    InvalidTagError,
    MessageLostError,
    blocked_recv_text,
)
from repro.mpi.faults import DelaySpec, DropSpec, MessageFlipSpec, SlowWindow, corrupt_value
from repro.mpi.message import Message, Request, SendRequest
from repro.mpi.timing import estimate_nbytes

from .collective_trees import TreeCollectives

UNPACK_COST = 3e-6


class _Ring:
    """Processor graph whose distance is the hop count around a ring."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs

    def distance(self, i: int, j: int) -> int:
        return min((i - j) % self.nprocs, (j - i) % self.nprocs)


def _machine(kind: str, nprocs: int):
    if kind == "flat":
        return ORIGIN2000
    return TopologyMachineModel.wrap(ORIGIN2000, _Ring(nprocs))


class ReferenceCommunicator(TreeCollectives, Communicator):
    """The per-message transport deleted from ``repro.mpi``: ``isend`` with
    ``_inject``, ``recv`` (the in-thread ``SimCluster.wait_for_message``)
    with ``_finish_recv``, and the in-thread ``SimCluster.deliver`` with
    ``_file`` -- bodies verbatim.
    The pair here is the loop over them, which is what it used to fall back
    to; its collectives are the reference trees, run on the loop as well.
    In-thread only (the process rows put the reference on ``event``)."""

    @classmethod
    def of(cls, comm: Communicator) -> "ReferenceCommunicator":
        return cls(comm._cluster, comm._world_rank, comm._group, comm._comm_id)

    def isend(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> Request:
        """Nonblocking send; the returned request is already complete."""
        self._check_peer(dest)
        if tag < 0:
            raise InvalidTagError(f"tag must be >= 0, got {tag}")
        return self._inject(obj, dest, tag, nbytes)

    def _inject(self, obj: Any, dest: int, tag: int, nbytes: int | None) -> Request:
        size = estimate_nbytes(obj) if nbytes is None else nbytes
        state = self._state()
        machine = self._cluster.machine
        faults = self._cluster.fault_state
        checksums = self._cluster.checksums
        self._charge_cpu(machine.sender_cpu(size))
        if checksums:
            # Checksummed transport: the sender pays to checksum every
            # payload, fault plan or not -- that is the protection overhead.
            self._charge_cpu(machine.checksum_time(size))
        extra_flight = 0.0
        corrupt_attempts = 0
        if faults is not None and faults.plan.perturbs_messages:
            faults.count_message(self._world_rank)
            if faults.plan.drop is not None:
                # Send-side reliable delivery: every lost transmission
                # attempt costs an ack timeout (exponential backoff) plus
                # the resend CPU, all in virtual time.
                retry = faults.plan.retry
                attempt = 1
                while faults.next_drop(self._world_rank):
                    if attempt >= retry.max_attempts:
                        faults.count_lost(self._world_rank)
                        raise MessageLostError(
                            f"message to rank {dest} (tag {tag}) lost after "
                            f"{attempt} transmission attempts"
                        )
                    state.clock += retry.attempt_timeout(
                        attempt, machine.ack_timeout(size)
                    )
                    self._charge_cpu(machine.sender_cpu(size))
                    faults.count_retry(self._world_rank)
                    attempt += 1
            extra_flight = faults.next_delay(self._world_rank)
            if faults.plan.flip_msg is not None:
                # Silent-corruption draws happen on the *sending* rank in
                # program order (like drops), so outcomes are independent of
                # the host schedule.  On a checksummed link each corrupted
                # attempt is NACKed and retransmitted (the decision redraws
                # per attempt); unprotected, the flipped payload is simply
                # delivered.
                if checksums:
                    retry = faults.plan.retry
                    while corrupt_attempts < retry.max_attempts and faults.next_corrupt(
                        self._world_rank
                    ):
                        corrupt_attempts += 1
                    if corrupt_attempts >= retry.max_attempts:
                        faults.count_lost(self._world_rank)
                        raise MessageLostError(
                            f"message to rank {dest} (tag {tag}) corrupted on "
                            f"all {corrupt_attempts} transmission attempts"
                        )
                elif faults.next_corrupt(self._world_rank):
                    obj = corrupt_value(obj, faults.corrupt_token(self._world_rank))
        # src is the communicator-local rank (what the receiver matches on);
        # dest is the world rank (which mailbox to drop the message into).
        msg = Message(
            src=self._rank,
            dest=self._group[dest],
            tag=tag,
            comm_id=self._comm_id,
            payload=obj,
            nbytes=size,
            send_time=state.clock,
            arrival_time=state.clock
            + machine.transfer_time_between(
                size, self._group[self._rank], self._group[dest]
            )
            + extra_flight,
            corrupt_attempts=corrupt_attempts,
        )
        self._deliver(msg)
        return SendRequest()


    def _deliver(self, msg: Message) -> None:
        cluster = self._cluster
        if cluster._preempt is not None:
            cluster._preempt()
        cluster._check_abort()
        if (msg.comm_id, msg.src) in cluster._quarantined:
            return
        state = cluster._ranks[msg.dest]
        state.mailbox.append(msg)
        cluster.messages_delivered += 1
        awaiting = state.awaiting
        if awaiting:
            awaiting.discard((msg.comm_id, msg.src, msg.tag))
            if awaiting:
                return
        cluster._backend.notify((msg.dest,))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive: park until the named stream has a message."""
        self._check_peer(source)
        cluster, rank, comm_id = self._cluster, self._world_rank, self._comm_id
        if cluster._preempt is not None:
            cluster._preempt()
        mailbox = cluster._ranks[rank].mailbox
        msg = cluster._backend.wait(
            rank,
            lambda: mailbox.take(source, tag, comm_id),
            lambda: blocked_recv_text(rank, source, tag),
        )
        return self._finish_recv(msg)

    def _finish_recv(self, msg: Message) -> Any:
        state = self._state()
        machine = self._cluster.machine
        state.clock = max(state.clock, msg.arrival_time)
        if self._cluster.checksums:
            # Verify-and-retransmit: each corrupted attempt costs a failed
            # verify, a NACK round trip, and the full resend (all waited out
            # on the receiver's clock -- sends are eager, so the sender has
            # long moved on); then one clean verify accepts the payload.
            faults = self._cluster.fault_state
            for _ in range(msg.corrupt_attempts):
                state.clock += machine.retransmit_penalty(msg.nbytes)
                if faults is not None:
                    faults.count_retransmit(self._world_rank)
            self._charge_cpu(machine.checksum_time(msg.nbytes))
        self._charge_cpu(machine.receiver_cpu(msg.nbytes))
        return msg.payload


    def neighbor_send(self, outgoing, tag):
        for dest, payload, nbytes in outgoing:
            self.isend(payload, dest, tag=tag, nbytes=nbytes)

    def neighbor_recv(self, sources, tag, each=None):
        payloads = []
        for source in sources:
            payloads.append(self.recv(source=source, tag=tag))
            if each is not None:
                each(payloads[-1])
        return payloads


def on_reference(program):
    """``program`` with its world communicator swapped for the reference."""
    return lambda comm: program(ReferenceCommunicator.of(comm))



@st.composite
def exchanges(draw, max_procs: int = 5):
    """A random fixed-topology exchange: symmetric neighbour lists (each
    rank's in its own drawn order), a few rounds, per-message payloads."""
    nprocs = draw(st.integers(2, max_procs))
    pairs = list(itertools.combinations(range(nprocs), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    neighbours = [[] for _ in range(nprocs)]
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    neighbours = [draw(st.permutations(sorted(peers))) for peers in neighbours]
    rounds = draw(st.integers(1, 3))
    lengths = draw(
        st.lists(st.integers(0, 40), min_size=rounds * nprocs, max_size=rounds * nprocs)
    )
    work = draw(
        st.lists(
            st.floats(0.0, 2e-3, allow_nan=False),
            min_size=rounds * nprocs,
            max_size=rounds * nprocs,
        )
    )
    return {
        "nprocs": nprocs,
        "neighbours": neighbours,
        "rounds": rounds,
        "lengths": lengths,
        "work": work,
        "explicit_nbytes": draw(st.booleans()),
        "interleave": draw(st.booleans()),
    }


def _programs(case):
    """``(loop program, pair program)`` of one drawn exchange."""
    nprocs, neighbours = case["nprocs"], case["neighbours"]
    interleave = case["interleave"]

    def outgoing(rank: int, rnd: int):
        count = case["lengths"][rnd * nprocs + rank]
        out = []
        for q in neighbours[rank]:
            payload = tuple(float(rank * 100 + q + i) for i in range(count + q))
            out.append((q, payload, 16 * len(payload) if case["explicit_nbytes"] else None))
        return out

    def run(comm, exchange):
        log = []

        def unpack(payload):
            comm.work(UNPACK_COST * len(payload))
            log.append((payload, comm.Wtime().hex()))

        for rnd in range(case["rounds"]):
            comm.work(case["work"][rnd * nprocs + comm.rank])
            exchange(comm, outgoing(comm.rank, rnd), neighbours[comm.rank], 3 + rnd, unpack)
            comm.barrier()
        return comm.Wtime().hex(), log

    def loop(comm, out, sources, tag, unpack):
        for dest, payload, nbytes in out:
            comm.isend(payload, dest, tag=tag, nbytes=nbytes)
        received = []
        for q in sources:
            received.append(comm.recv(source=q, tag=tag))
            if interleave:
                unpack(received[-1])
        if not interleave:
            for payload in received:
                unpack(payload)

    def pair(comm, out, sources, tag, unpack):
        comm.neighbor_send(out, tag)
        if interleave:
            comm.neighbor_recv(sources, tag, each=unpack)
        else:
            for payload in comm.neighbor_recv(sources, tag):
                unpack(payload)

    return on_reference(lambda comm: run(comm, loop)), (lambda comm: run(comm, pair))


def _outcome(program, nprocs, **cluster_args):
    """Everything observable about one run (or the error that ended it)."""
    cluster = SimCluster(nprocs, **cluster_args)
    try:
        results = cluster.run(program)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc))
    report = cluster.fault_state.report() if cluster.fault_state is not None else None
    return ("ok", results, cluster.messages_delivered, cluster.barriers, report)


FAULT_PLANS = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 50),
        delay=st.one_of(st.none(), st.builds(DelaySpec, prob=st.floats(0.0, 1.0))),
        drop=st.one_of(st.none(), st.builds(DropSpec, prob=st.floats(0.0, 0.15))),
        flip_msg=st.one_of(st.none(), st.builds(MessageFlipSpec, prob=st.floats(0.0, 0.2))),
        # Ranks 0 and 1 exist in every drawn exchange.
        slow=st.lists(
            st.builds(
                SlowWindow,
                rank=st.integers(0, 1),
                factor=st.floats(1.0, 4.0),
                start=st.floats(0.0, 2e-3),
            ),
            max_size=2,
        ),
    ),
)


class TestDifferential:
    @given(
        case=exchanges(),
        machine=st.sampled_from(["flat", "ring"]),
        checksums=st.booleans(),
        faults=FAULT_PLANS,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_and_seeded_schedules_match_the_loop(
        self, case, machine, checksums, faults, seed
    ):
        loop, pair = _programs(case)
        args = dict(machine=_machine(machine, case["nprocs"]), checksums=checksums, faults=faults)
        reference = _outcome(loop, case["nprocs"], **args)
        assert _outcome(pair, case["nprocs"], **args) == reference
        assert _outcome(pair, case["nprocs"], schedule_seed=seed, **args) == reference

    @given(
        case=exchanges(max_procs=3),
        checksums=st.booleans(),
        faults=FAULT_PLANS,
    )
    @settings(max_examples=8, deadline=None)
    def test_process_workers_match_the_loop(self, case, checksums, faults):
        loop, pair = _programs(case)
        args = dict(checksums=checksums, faults=faults)
        reference = _outcome(loop, case["nprocs"], scheduler="event", **args)
        assert _outcome(pair, case["nprocs"], scheduler="process", **args) == reference

    @given(
        nprocs=st.integers(1, 6),
        root=st.integers(0, 5),
        sizes=st.lists(st.integers(0, 30), min_size=6, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_collective_trees_match_their_loops(self, nprocs, root, sizes):
        """The collectives' rendezvous replays the trees the reference
        communicator runs on the per-message loop."""
        root %= nprocs

        def program(comm):
            mine = [float(comm.rank)] * sizes[comm.rank]
            out = [
                comm.gather(mine, root=root),
                comm.bcast(mine if comm.rank == root else None, root=root),
                comm.alltoall([mine + [float(r)] for r in range(comm.size)]),
                comm.allgather(mine),
            ]
            return out, comm.Wtime().hex()

        native = _outcome(program, nprocs, scheduler="event")
        assert native == _outcome(on_reference(program), nprocs, scheduler="event")


def _deadlock_text(program, nprocs):
    with pytest.raises(DeadlockError) as excinfo:
        SimCluster(nprocs, scheduler="event").run(program)
    return str(excinfo.value)


class TestFailureSemantics:
    @pytest.mark.parametrize(
        "sources, senders, missing",
        [([1, 2], {1}, 2), ([2, 1], {1}, 2), ([1, 2, 3], {1, 3}, 2), ([3, 1, 2], set(), 3)],
    )
    def test_missing_sender_deadlock_text_is_the_loops(self, sources, senders, missing):
        def program(receive):
            def run(comm):
                if comm.rank == 0:
                    receive(comm)
                elif comm.rank in senders:
                    comm.isend("x", 0, tag=7)

            return run

        batch = _deadlock_text(program(lambda comm: comm.neighbor_recv(sources, 7)), 4)
        loop = _deadlock_text(
            on_reference(program(lambda comm: [comm.recv(source=q, tag=7) for q in sources])), 4
        )
        assert batch == loop
        assert batch == (
            f"deadlock: rank 0 waiting on (source={missing}, tag=7) with all ranks blocked"
        )

    def test_peer_exception_wakes_a_parked_batch(self):
        def program(comm):
            if comm.rank == 1:
                comm.recv(source=2, tag=1)  # lets rank 0 park first
                raise ValueError("boom")
            if comm.rank == 2:
                comm.isend("go", 1, tag=1)
                comm.isend("half", 0, tag=4)
                return "sent"
            try:
                comm.neighbor_recv([1, 2], 4)
            except CommAbortedError as exc:
                return f"aborted: {exc}"
            return "received"

        cluster = SimCluster(3, scheduler="event")
        with pytest.raises(ValueError, match="boom"):
            cluster.run(program)
        assert cluster.state(0).result == "aborted: rank 1 raised ValueError: boom"

    def test_quarantined_source_batch_is_dropped(self):
        def program(send):
            def run(comm):
                if comm.rank == 1:
                    comm.quarantine({0})
                comm.barrier()
                if comm.rank == 0:
                    send(comm)
                comm.barrier()
                return comm.pending_sources(9), comm.Wtime().hex()

            return run

        batch = SimCluster(3, scheduler="event")
        results = batch.run(
            program(lambda comm: comm.neighbor_send([(1, "a", None), (2, "b", 64)], 9))
        )
        assert results[1][0] == [] and results[2][0] == []  # the whole batch
        assert batch.messages_delivered == 0
        loop = SimCluster(3, scheduler="event")
        expected = loop.run(
            on_reference(
                program(
                    lambda comm: [comm.isend("a", 1, tag=9), comm.isend("b", 2, tag=9, nbytes=64)]
                )
            )
        )
        assert results == expected  # the sender still paid for both
        assert loop.messages_delivered == 0

    def test_invalid_arguments_raise_like_the_loop(self):
        def bad_dest(comm):
            comm.neighbor_send([(1 - comm.rank, "ok", None), (5, "no", None)], 2)

        with pytest.raises(InvalidRankError, match=r"rank 5 outside \[0, 2\)"):
            SimCluster(2, scheduler="event").run(bad_dest)

        def bad_tag(comm):
            comm.neighbor_send([(1 - comm.rank, "x", None)], -3)

        with pytest.raises(InvalidTagError):
            SimCluster(2, scheduler="event").run(bad_tag)

        def bad_source(comm):
            comm.neighbor_recv([7], 2)

        with pytest.raises(InvalidRankError, match="rank 7"):
            SimCluster(2, scheduler="event").run(bad_source)

    def test_valid_prefix_of_a_bad_batch_is_delivered(self):
        def program(comm):
            if comm.rank == 0:
                try:
                    comm.neighbor_send([(1, "kept", None), (9, "bad", None)], 2)
                except InvalidRankError:
                    pass
                return None
            return comm.recv(source=0, tag=2)

        assert SimCluster(2, scheduler="event").run(program) == [None, "kept"]

    def test_empty_lists_and_generators_on_a_checksummed_link(self):
        def program(comm):
            comm.neighbor_send([], 1)
            assert comm.neighbor_recv([], 1) == []
            if comm.rank == 0:
                comm.neighbor_send(((1, payload, None) for payload in "abc"), 1)
                comm.neighbor_send([(1, "d", None)], 2)
                return comm.Wtime().hex()
            got = comm.neighbor_recv([0], 1) + [comm.recv(0, tag=1)]
            got.append(comm.irecv(0, tag=1).wait())
            got += comm.neighbor_recv((0,), 2)
            return got, comm.Wtime().hex()

        def loop(comm):
            if comm.rank == 0:
                for payload, tag in zip("abcd", (1, 1, 1, 2)):
                    comm.isend(payload, 1, tag=tag)
                return comm.Wtime().hex()
            got = [comm.recv(source=0, tag=1) for _ in range(3)]
            got.append(comm.recv(source=0, tag=2))
            return got, comm.Wtime().hex()

        results = SimCluster(2, checksums=True).run(program)
        assert results[1][0] == ["a", "b", "c", "d"]
        assert results == SimCluster(2, checksums=True).run(on_reference(loop))

    @pytest.mark.parametrize("scheduler", ["event", "process"])
    @pytest.mark.parametrize(
        "sources, error", [([1, 1], ValueError), ([1, 2, 1], ValueError), ([1, 5], InvalidRankError)]
    )
    def test_a_bad_source_list_raises_before_anything_parks(self, scheduler, sources, error):
        """A source named twice, or one outside the group, raises before
        the rank parks or takes a message: had rank 0 parked, rank 1 (in
        the barrier) could never send, and the run would deadlock; had it
        taken ``first``, the receives after the barrier would read
        ``second`` first."""

        def program(comm):
            if comm.rank == 1:
                comm.send("first", 0, tag=3)
                comm.barrier()
                comm.send("second", 0, tag=3)
                return None
            if comm.rank == 2:
                comm.barrier()
                return None
            try:
                comm.neighbor_recv(sources, 3)
            except (ValueError, InvalidRankError) as exc:
                caught = type(exc)
            else:
                caught = None
            comm.barrier()
            return caught, comm.recv(1, tag=3), comm.recv(1, tag=3)

        results = SimCluster(3, scheduler=scheduler).run(program)
        assert results[0] == (error, "first", "second")

    def test_message_lost_mid_batch_keeps_the_prefix_and_the_loops_clock(self):
        """The second of three sends exhausts its retry budget: the error is
        the loop's, the first message is delivered, the third never stamped,
        and the local clock is written back where the loop's stood."""
        # Rank 0's drop draws under seed 3: kept, dropped (the precondition
        # is what the mailbox assertions below check).
        plan = FaultPlan(seed=3, drop=DropSpec(prob=0.5), retry=RetryPolicy(max_attempts=1))

        def program(send):
            def run(comm):
                error = None
                if comm.rank == 0:
                    try:
                        send(comm, [(1, "first", None), (2, "second", 64), (3, "third", None)], 4)
                    except MessageLostError as exc:
                        error = str(exc)
                comm.barrier()
                return error, 0 in comm.pending_sources(4), comm.Wtime().hex()

            return run

        def loop(comm, outgoing, tag):
            for dest, payload, nbytes in outgoing:
                comm.isend(payload, dest, tag=tag, nbytes=nbytes)

        batch = SimCluster(4, faults=plan)
        results = batch.run(program(lambda comm, outgoing, tag: comm.neighbor_send(outgoing, tag)))
        assert results[0][0] == "message to rank 2 (tag 4) lost after 1 transmission attempts"
        assert [got for _, got, _ in results] == [False, True, False, False]
        assert batch.messages_delivered == 1
        reference = SimCluster(4, faults=plan)
        assert results == reference.run(on_reference(program(loop)))
        assert batch.fault_state.report() == reference.fault_state.report()


class _CountingTask(scheduler_module._Task):
    """A task that counts the batons it is handed (its ``wake`` calls)."""

    def __init__(self, rank: int) -> None:
        super().__init__(rank)
        self.wakes = 0
        release = self.wake

        def wake() -> None:
            self.wakes += 1
            release()

        self.wake = wake


#: Batons the per-source ``recv`` loop over (1, 2, 3) takes, by send order.
LOOP_BATONS = {
    (1, 2, 3): 2, (1, 3, 2): 3, (2, 1, 3): 3, (2, 3, 1): 2, (3, 1, 2): 3, (3, 2, 1): 2,
}

ARMED = {
    "checksums": dict(checksums=True),
    "faults": dict(faults=FaultPlan(seed=1, delay=DelaySpec(prob=0.5))),
}


class TestOnePark:
    @staticmethod
    def _batons(receive, order, **cluster_args):
        """How often rank 0 is handed the baton while it receives from three
        sources whose sends are chained in ``order``."""

        def run(comm):
            if comm.rank == 0:
                got = receive(comm)
            else:
                turn = order.index(comm.rank)
                if turn > 0:
                    comm.recv(source=order[turn - 1], tag=8)
                comm.isend(f"from {comm.rank}", 0, tag=5)
                if turn + 1 < len(order):
                    comm.isend("next", order[turn + 1], tag=8)
                got = None
            comm.barrier()  # nobody finishes (and wakes everyone) early
            return got

        cluster = SimCluster(4, scheduler="event", **cluster_args)
        results = cluster.run(run)
        assert results[0] == ["from 1", "from 2", "from 3"]
        return cluster._backend._tasks[0].wakes

    @pytest.mark.parametrize("order", list(itertools.permutations([1, 2, 3])))
    def test_k_sources_take_one_baton(self, monkeypatch, order):
        """Rank 0 parks on three sources whose sends are chained in
        ``order``; whatever the order, it is handed the baton twice: to
        start, and once when the last of the three is in."""
        monkeypatch.setattr(scheduler_module, "_Task", _CountingTask)
        assert self._batons(lambda comm: comm.neighbor_recv([1, 2, 3], 5), order) == 2
        # A named receive parks on its own stream, so the loop is handed the
        # baton to start and once more each time its next source is not in
        # yet: (2, 3, 1) holds 1 back until 2 and 3 are in, (1, 3, 2) makes
        # it wait for 1, then again for 2.
        loop = self._batons(lambda comm: [comm.recv(source=q, tag=5) for q in (1, 2, 3)], order)
        assert loop == LOOP_BATONS[order]

    @pytest.mark.parametrize("order", list(itertools.permutations([1, 2, 3])))
    @pytest.mark.parametrize("armed", list(ARMED))
    def test_k_sources_take_one_baton_when_armed(self, monkeypatch, armed, order):
        """The same two batons with checksums on and under a fault plan:
        nothing a cluster can arm takes the exchange off the one park."""
        monkeypatch.setattr(scheduler_module, "_Task", _CountingTask)
        receive = lambda comm: comm.neighbor_recv([1, 2, 3], 5)  # noqa: E731
        assert self._batons(receive, order, **ARMED[armed]) == 2
