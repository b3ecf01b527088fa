"""``neighbor_send``/``neighbor_recv`` against the per-message loop.

The pair's contract is that it *is* the ``isend``/``recv`` loop -- in
payloads, virtual clocks, message and barrier counts, fault draws and
error text -- on every backend; the event backend merely gets there with
one pass and one park.  Program A below spells the loop out, program B
uses the pair, and everything observable must match.
"""

from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mpi.scheduler as scheduler_module
from repro.mpi import (
    ANY_SOURCE,
    ORIGIN2000,
    CommAbortedError,
    DeadlockError,
    FaultPlan,
    SimCluster,
    TopologyMachineModel,
)
from repro.mpi.errors import InvalidRankError, InvalidTagError
from repro.mpi.faults import DelaySpec, DropSpec, MessageFlipSpec

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

    return (lambda comm: run(comm, loop)), (lambda comm: run(comm, pair))


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
        """The collectives ride the pair; a cluster whose batched entries
        decline puts the same event backend back on the per-message loop."""
        root %= nprocs

        def program(comm):
            mine = [float(comm.rank)] * sizes[comm.rank]
            out = [
                comm.gather(mine, root=root),
                comm.bcast(mine if comm.rank == root else None, root=root),
                comm.scatter([mine] * comm.size if comm.rank == root else None, root=root),
                comm.alltoall([mine + [float(r)] for r in range(comm.size)]),
                comm.allgather(mine),
            ]
            return out, comm.Wtime().hex()

        native = _outcome(program, nprocs, scheduler="event")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimCluster, "deliver_batch", lambda *args: False)
            patch.setattr(SimCluster, "wait_for_batch", lambda *args: None)
            per_message = _outcome(program, nprocs, scheduler="event")
        assert native == per_message


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
            program(lambda comm: [comm.recv(source=q, tag=7) for q in sources]), 4
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
            program(lambda comm: [comm.isend("a", 1, tag=9), comm.isend("b", 2, tag=9, nbytes=64)])
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

    def test_wildcards_duplicates_and_empty_lists(self):
        def program(comm):
            comm.neighbor_send([], 1)
            assert comm.neighbor_recv([], 1) == []
            if comm.rank == 0:
                comm.neighbor_send([(1, "a", None), (1, "b", None), (1, "c", None)], 1)
                return None
            twice = comm.neighbor_recv([0, 0], 1)  # one stream, two messages
            return twice + comm.neighbor_recv([ANY_SOURCE], 1), comm.Wtime().hex()

        def loop(comm):
            if comm.rank == 0:
                for payload in "abc":
                    comm.isend(payload, 1, tag=1)
                return None
            return [comm.recv(source=0, tag=1) for _ in range(3)], comm.Wtime().hex()

        results = SimCluster(2, scheduler="event").run(program)
        assert results[1][0] == ["a", "b", "c"]
        assert results == SimCluster(2, scheduler="event").run(loop)


class _CountingEvent(threading.Event):
    def __init__(self) -> None:
        super().__init__()
        self.sets = 0

    def set(self) -> None:
        self.sets += 1
        super().set()


class _CountingTask(scheduler_module._Task):
    def __init__(self, rank: int) -> None:
        super().__init__(rank)
        self.event = _CountingEvent()


class TestOnePark:
    @pytest.mark.parametrize("order", list(itertools.permutations([1, 2, 3])))
    def test_k_sources_take_one_baton(self, monkeypatch, order):
        """Rank 0 parks on three sources whose sends are chained in
        ``order``; whatever the order, it is handed the baton twice: to
        start, and once when the last of the three is in."""
        monkeypatch.setattr(scheduler_module, "_Task", _CountingTask)

        def program(receive):
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

            return run

        def batons(receive):
            cluster = SimCluster(4, scheduler="event")
            results = cluster.run(program(receive))
            assert results[0] == ["from 1", "from 2", "from 3"]
            return cluster._backend._tasks[0].event.sets

        assert batons(lambda comm: comm.neighbor_recv([1, 2, 3], 5)) == 2
        # The loop is woken by every delivery and re-parks until its next
        # source is in: at least once more unless they arrive in order.
        loop = batons(lambda comm: [comm.recv(source=q, tag=5) for q in (1, 2, 3)])
        assert loop >= 2 and (loop > 2 or order == (1, 2, 3))
