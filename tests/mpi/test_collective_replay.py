"""Collectives as one rendezvous plus a replay, against their trees.

``bcast``/``gather``/``allgather``/``allreduce`` run as one rendezvous
each, under any fault plan, and
:mod:`repro.mpi.collectives` replays the charges, fault legs and flipped
values their trees of point-to-point messages would have produced.  The
trees themselves live on as the reference in :mod:`.collective_trees`.
Every program here runs both ways, and everything observable must match:
``float.hex`` of every clock, the results, ``messages_delivered``,
``barriers``, the :class:`~repro.mpi.faults.FaultReport` and the collective
tag sequence -- or, when a message is lost past its retry budget, the
error's type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ICPlatform
from repro.mpi import ORIGIN2000, CommAbortedError, DeadlockError, FaultPlan, SimCluster
from repro.mpi import TopologyMachineModel
from repro.mpi.collectives import fold
from repro.mpi.errors import MessageLostError, blocked_recv_text
from repro.mpi.faults import (
    CrashEvent,
    DelaySpec,
    DropSpec,
    MessageFlipSpec,
    RetryPolicy,
    SlowWindow,
)
from .collective_trees import tree_collectives

#: Schedule seeds each deadlock report is repeated under.
SEEDS = range(5)


class _Ring:
    """Processor graph whose distance is the hop count around a ring, so a
    transfer's cost depends on the two *world* ranks it links."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs

    def distance(self, i: int, j: int) -> int:
        return min((i - j) % self.nprocs, (j - i) % self.nprocs)


@st.composite
def scenarios(draw, max_procs: int = 17):
    """One collective program: group size, the communicator it runs on,
    roots, per-rank clock skews and payload lengths, checksums, machine."""
    nprocs = draw(st.integers(1, max_procs))
    per_rank = dict(min_size=nprocs, max_size=nprocs)
    return {
        "nprocs": nprocs,
        "comm": draw(st.sampled_from(["world", "shrink"])),
        "stride": draw(st.integers(2, 4)),
        "roots": draw(st.lists(st.integers(0, max_procs), min_size=4, max_size=4)),
        "skews": draw(st.lists(st.floats(0.0, 1e-3, allow_nan=False), **per_rank)),
        "lengths": draw(st.lists(st.integers(0, 12), **per_rank)),
        "checksums": draw(st.booleans()),
        "ring": draw(st.booleans()),
    }


def _member_comm(comm, case):
    """The communicator the collectives run on (``None``: not a member).
    ``shrink`` drops every ``stride``-th rank, so it maps local ranks to
    world ranks other than by identity."""
    dead = {q for q in range(comm.size) if q % case["stride"] == 1}
    if case["comm"] == "shrink" and dead:
        return comm.shrink(dead)
    return comm


def _folded(gathered):
    """What a gather root folds (addition), as a reduce would."""
    return None if gathered is None else fold(gathered, None)


def _program(case):
    def run(comm):
        me = comm.rank
        sub = _member_comm(comm, case)
        if sub is None:
            return None
        rank, size = sub.rank, sub.size
        roots = [root % size for root in case["roots"]]
        mine = [float(me)] * case["lengths"][me]
        skew = case["skews"][me]
        out = []
        for call in (
            lambda: sub.gather(mine, root=roots[0]),
            lambda: sub.bcast(mine if rank == roots[1] else None, root=roots[1]),
            lambda: sub.bcast(
                [mine + [float(q)] for q in range(size)] if rank == roots[2] else None,
                root=roots[2],
            ),
            # A flipped list among the gathered ones makes the fold raise
            # at the root while the senders run on.
            lambda: _folded(sub.gather(mine, root=roots[3])),
            lambda: sub.allgather(mine),
            lambda: sub.allreduce(len(mine)),
            lambda: sub.allreduce(mine, op=lambda a, b: b + a),  # non-commutative
            # A flipped empty list becomes a larger sentinel tuple, so the
            # tree forwards it re-sized.
            lambda: sub.bcast([] if rank == roots[0] else None, root=roots[0]),
            lambda: sub.allgather([]),
            sub.barrier,
        ):
            sub.work(skew)
            out.append(call())
        return out, comm.Wtime().hex(), sub._coll_seq, comm._coll_seq

    return run


@st.composite
def fault_plans(draw, nprocs: int):
    """A random plan over ``nprocs`` ranks: any mix of delays, drops (with
    a retry budget that may run out), message flips, slow windows and
    crashes."""
    maybe = lambda strategy: draw(st.none() | strategy)  # noqa: E731
    probs = st.floats(0.0, 0.5)
    ranks = st.integers(0, nprocs - 1)
    slow = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.floats(0.0, 2e-3))
        length = maybe(st.floats(1e-5, 2e-3))
        end = None if length is None else start + length
        slow.append(SlowWindow(draw(ranks), draw(st.floats(1.0, 4.0)), start, end))
    return FaultPlan(
        seed=draw(st.integers(0, 99)),
        delay=maybe(st.builds(DelaySpec, prob=st.floats(0.0, 1.0), extra=st.floats(0.0, 1e-3))),
        drop=maybe(st.builds(DropSpec, prob=probs)),
        retry=draw(
            st.builds(
                RetryPolicy,
                max_attempts=st.sampled_from([1, 3, 6]),
                timeout=st.none() | st.floats(0.0, 1e-3),
                backoff=st.floats(1.0, 3.0),
            )
        ),
        slow=tuple(slow),
        crashes=tuple(draw(st.lists(st.builds(CrashEvent, ranks, st.integers(1, 5)), max_size=1))),
        flip_msg=maybe(st.builds(MessageFlipSpec, prob=probs)),
    )


def _outcome(case, trees: bool, faults=None, **cluster_args):
    """Everything observable about one run of the case's program, on the
    replay or (``trees``) on the reference trees; a faulted run that fails
    (a message lost past its budget) is its error type."""
    nprocs = case["nprocs"]
    machine = ORIGIN2000
    if case["ring"]:
        machine = TopologyMachineModel.wrap(ORIGIN2000, _Ring(nprocs))
    cluster = SimCluster(
        nprocs, machine=machine, checksums=case["checksums"], faults=faults, **cluster_args
    )
    try:
        with tree_collectives() if trees else nullcontext():
            results = cluster.run(_program(case))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        if faults is None:
            raise
        return "error", type(exc)
    report = None if faults is None else cluster.fault_state.report()
    return results, cluster.messages_delivered, cluster.barriers, report


class TestReplayIsTheTree:
    @given(case=scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_event(self, case, seed):
        tree = _outcome(case, trees=True)
        assert _outcome(case, trees=False) == tree
        assert _outcome(case, trees=False, schedule_seed=seed) == tree

    @given(case=scenarios(max_procs=5))
    @settings(max_examples=6, deadline=None)
    def test_process(self, case):
        tree = _outcome(case, trees=True)
        assert _outcome(case, trees=False, scheduler="process") == tree

    @given(data=st.data(), case=scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_event_under_faults(self, data, case, seed):
        faults = data.draw(fault_plans(case["nprocs"]))
        tree = _outcome(case, trees=True, faults=faults)
        assert _outcome(case, trees=False, faults=faults) == tree
        assert _outcome(case, trees=False, faults=faults, schedule_seed=seed) == tree

    @given(data=st.data(), case=scenarios(max_procs=5))
    @settings(max_examples=20, deadline=None)
    def test_process_under_faults(self, data, case):
        faults = data.draw(fault_plans(case["nprocs"]))
        tree = _outcome(case, trees=True, faults=faults)
        assert _outcome(case, trees=False, faults=faults, scheduler="process") == tree


def _one_collective(name: str, payload):
    """Every rank enters collective ``name`` once (root 0) with ``payload``
    and returns its result and clock."""

    def run(comm):
        call = {
            "bcast": lambda: comm.bcast(payload, root=0),
            "gather": lambda: comm.gather(payload),
            "allgather": lambda: comm.allgather(payload),
            "allreduce": lambda: comm.allreduce(payload, op=lambda a, b: (a, b)),
        }[name]
        return call(), comm.Wtime().hex()

    return run


def _error_text(program, nprocs: int, faults) -> str:
    with pytest.raises(MessageLostError) as excinfo:
        SimCluster(nprocs, faults=faults).run(program)
    return str(excinfo.value)


class TestFaultsOnTheTreeEdges:
    """Deterministic corners of the differential above."""

    @pytest.mark.parametrize("name", ["bcast", "gather"])
    def test_a_lost_message_reads_as_on_the_trees(self, name):
        """Every attempt is dropped and there is no retry: the run fails
        with the tree's text, the lowest failing rank's first send in tree
        order (the bcast root's goes to rank 4 of five).  Which further
        members fail is up to the host schedule on the trees, so the
        differential compares only the error's type."""
        faults = FaultPlan.parse("drop=1.0,retry=1")
        program = _one_collective(name, [1.0])
        replay = _error_text(program, 5, faults)
        with tree_collectives():
            assert _error_text(program, 5, faults) == replay
        assert replay.endswith("lost after 1 transmission attempts")

    @pytest.mark.parametrize("name", ["bcast", "gather", "allgather", "allreduce"])
    def test_flipped_values_travel_on(self, name):
        """Every attempt is flipped on an unprotected link: an empty list
        becomes a larger sentinel tuple that a bcast forwards re-sized and
        flips again, and the gather root collects and folds the flipped
        contributions."""
        faults = FaultPlan.parse("seed=3,flipmsg=1.0")
        runs = _runs(_one_collective(name, []), 6, faults=faults)
        assert runs[False] == runs[True]
        assert any(result not in ([], None) for result, _ in runs[False])

    @pytest.mark.parametrize("seed", [None, *range(10)], ids=["fifo", *map(str, range(10))])
    def test_senders_run_on_before_the_gather_root(self, seed):
        """A gather root folds a flipped sentinel into the lists (a
        ``TypeError``) while a sender's next message, in the allgather, is
        lost.  On the trees the senders run on past their eager sends before
        the root's receive completes, so the lost message fails the run
        under every schedule; the replay must let them run on too."""
        case = {
            "nprocs": 13,
            "comm": "world",
            "stride": 2,
            "roots": [0, 1, 0, 0],
            "skews": [0.0] * 13,
            "lengths": [0] * 13,
            "checksums": False,
            "ring": False,
        }
        faults = FaultPlan(
            seed=1,
            delay=DelaySpec(1.0, 0.0),
            drop=DropSpec(0.5),
            retry=RetryPolicy(6),
            flip_msg=MessageFlipSpec(0.5),
        )
        tree = _outcome(case, trees=True, faults=faults, schedule_seed=seed)
        assert tree == ("error", MessageLostError)
        assert _outcome(case, trees=False, faults=faults, schedule_seed=seed) == tree

    @pytest.mark.parametrize("seed", [None, *range(10)], ids=["fifo", *map(str, range(10))])
    def test_a_forward_is_lost_only_after_its_receive(self, seed):
        """The converse: a gather root's fold raises ``TypeError`` while a
        sender's loss in the next allgather is a broadcast forward, which
        the tree sends only after the allgather's gather completes -- so
        never, and the ``TypeError`` fails the run under every schedule."""
        case = {
            "nprocs": 9,
            "comm": "world",
            "stride": 2,
            "roots": [0, 0, 13, 0],
            "skews": [0.0] * 9,
            "lengths": [0] * 9,
            "checksums": False,
            "ring": False,
        }
        faults = FaultPlan(
            seed=14,
            drop=DropSpec(0.375),
            retry=RetryPolicy(3),
            flip_msg=MessageFlipSpec(0.5),
        )
        tree = _outcome(case, trees=True, faults=faults, schedule_seed=seed)
        assert tree == ("error", TypeError)
        assert _outcome(case, trees=False, faults=faults, schedule_seed=seed) == tree

    @pytest.mark.parametrize("scheduler", ["event", "process"])
    def test_members_past_a_lost_forward_never_leave(self, scheduler):
        """Rank 4 of eight loses its broadcast forward to rank 5: rank 5
        waits on it until the abort, as on the trees, and the run fails with
        the loss."""
        faults = FaultPlan(seed=13, drop=DropSpec(0.3), retry=RetryPolicy(2))
        cluster = SimCluster(8, faults=faults, scheduler=scheduler)
        with pytest.raises(MessageLostError, match="to rank 5 "):
            cluster.run(_one_collective("bcast", [1.0]))
        assert isinstance(cluster.state(4).error, MessageLostError)
        assert isinstance(cluster.state(5).error, CommAbortedError)


# --------------------------------------------------------------------- #
# A rank that never enters
# --------------------------------------------------------------------- #


def _stuck(name: str, missing: int, shrunk: bool):
    """Every rank but ``missing`` enters collective ``name``, on the world
    communicator of four ranks or on the three left when rank 3 is shrunk
    away; ``missing`` returns instead."""

    def run(comm):
        sub = comm.shrink([3]) if shrunk else comm
        if comm.rank == missing or sub is None:
            return None
        root = min(r for r in range(sub.size) if r != missing)
        call = {
            "barrier": sub.barrier,
            "bcast": lambda: sub.bcast(1, root=root),
            "gather": lambda: sub.gather(1.5, root=root),
            "allgather": lambda: sub.allgather("x"),
            "allreduce": lambda: sub.allreduce(2),
        }[name]
        return call()

    return run


def _report(program, scheduler: str = "event", seed: int | None = None) -> str:
    cluster = SimCluster(4, scheduler=scheduler, schedule_seed=seed)
    with pytest.raises(DeadlockError) as excinfo:
        cluster.run(program)
    return str(excinfo.value)


def _receive_ring(comm):
    """Every rank receives from its right neighbour; nobody sends."""
    comm.recv((comm.rank + 1) % comm.size, tag=5)


def _receive_then_barrier(comm):
    """Rank 0 receives from rank 1, which enters a barrier with rank 2."""
    if comm.rank == 0:
        comm.recv(1, tag=5)
    else:
        comm.barrier()


def _barrier_then_receive(comm):
    """Rank 2 receives from rank 1, which enters a barrier with rank 0."""
    if comm.rank == 2:
        comm.recv(1, tag=5)
    else:
        comm.barrier()


def _reports(program, runs, **cluster_args) -> set[tuple[str, tuple[int, ...]]]:
    """``{(DeadlockError text, ranks that raised it)}`` over ``runs``
    fresh clusters of three ranks."""
    out = set()
    for seed in runs:
        cluster = SimCluster(3, schedule_seed=seed, **cluster_args)
        with pytest.raises(DeadlockError) as excinfo:
            cluster.run(program)
        victims = tuple(
            r for r in range(3) if isinstance(cluster.state(r).error, DeadlockError)
        )
        out.add((str(excinfo.value), victims))
    return out


class TestDeadlockReport:
    @pytest.mark.parametrize(
        "program, expected",
        [
            (_receive_ring, blocked_recv_text(0, 1, 5)),
            (_receive_then_barrier, blocked_recv_text(0, 1, 5)),
            (_barrier_then_receive, "deadlock: rank 0 stuck in barrier"),
        ],
        ids=["receive-ring", "receive-then-barrier", "barrier-then-receive"],
    )
    def test_one_report_and_one_victim_on_every_schedule(self, program, expected):
        """Nobody can run: the lowest unfinished rank is the victim and
        what it waits on is the report, on the FIFO schedule, on ten
        fuzzed ones and over five process runs -- whichever rank blocked
        last."""
        assert _reports(program, [None, *range(10)]) == {(expected, (0,))}
        assert _reports(program, [None] * 5, scheduler="process") == {(expected, (0,))}

    @pytest.mark.parametrize("name", ["barrier", "bcast", "gather", "allgather", "allreduce"])
    @pytest.mark.parametrize("missing", [0, 2])
    @pytest.mark.parametrize("shrunk", [False, True])
    def test_names_the_lowest_member_that_entered(self, name, missing, shrunk):
        expected = f"deadlock: rank {1 if missing == 0 else 0} stuck in {name}"
        program = _stuck(name, missing, shrunk)
        assert {_report(program, seed=seed) for seed in (None, *SEEDS)} == {expected}

    @pytest.mark.parametrize(
        "name, shrunk", [("barrier", False), ("allgather", False), ("bcast", True)]
    )
    def test_process_reads_the_same(self, name, shrunk):
        """The broker holds every rendezvous, the world's and a shrunken
        communicator's; both reports read as the event scheduler's."""
        program = _stuck(name, 0, shrunk)
        assert _report(program, scheduler="process") == _report(program)


# --------------------------------------------------------------------- #
# Mailboxes see user traffic only
# --------------------------------------------------------------------- #


def _runs(program, nprocs: int, **cluster_args):
    """``{trees: results}`` of ``program`` on the replay and on the trees."""
    out = {}
    for trees in (False, True):
        with tree_collectives() if trees else nullcontext():
            out[trees] = SimCluster(nprocs, **cluster_args).run(program)
    return out


def _queued(comm) -> int:
    """How many messages wait in this rank's mailbox (in-thread backend)."""
    return len(comm._cluster.state(comm._world_rank).mailbox)


def _queued_before_bcast(comm):
    seen = _queued(comm) if comm.rank == 1 else None
    comm.bcast("v", root=0)
    return seen


class TestMailboxes:
    def test_collective_traffic_never_reaches_a_mailbox(self):
        """A collective never enters a mailbox, so around one the mailbox
        holds the user's message alone."""

        def program(comm):
            if comm.rank == 1:
                comm.isend("user", dest=2, tag=5)
            seen = _queued(comm) if comm.rank == 2 else None
            gathered = comm.allgather(comm.rank)
            total = comm.allreduce(comm.rank)
            if comm.rank != 2:
                return gathered, total
            queued = _queued(comm)
            return seen, queued, comm.recv(1, tag=5), _queued(comm)

        for results in _runs(program, 3).values():
            assert results[2] == (1, 1, "user", 0)

    def test_a_parked_tree_message_was_visible_and_is_gone(self):
        """What changed: on the trees a bcast root could run ahead, and its
        reserved-tag message sat in the child's mailbox; the rendezvous
        leaves nothing there."""
        queued = {trees: results[1] for trees, results in _runs(_queued_before_bcast, 2).items()}
        assert queued == {False: 0, True: 1}

    @pytest.mark.parametrize("checksums", [False, True])
    @pytest.mark.parametrize(
        "spec", ["seed=1,delay=0.0", "seed=1,delay=1.0,drop=0.3", "seed=2,flipmsg=0.5,retry=6"]
    )
    def test_message_faults_leave_nothing_to_see(self, spec, checksums):
        """Under a message-fault plan the collective is the same rendezvous:
        the mailbox stays empty, where the trees' message was there."""
        runs = _runs(_queued_before_bcast, 2, faults=FaultPlan.parse(spec), checksums=checksums)
        assert {trees: results[1] for trees, results in runs.items()} == {False: 0, True: 1}


# --------------------------------------------------------------------- #
# The benchmark workloads count what they counted
# --------------------------------------------------------------------- #


def _perf_workloads():
    """``benchmarks/perf/workloads.py``, loaded by path (it is a script
    directory, not a package)."""
    name = "_perf_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


def _workload_outcome(problem, faults=None, **overrides):
    result = ICPlatform(
        problem.graph,
        problem.node_fns,
        init_value=problem.init_value,
        config=dataclasses.replace(problem.config, **overrides),
        balancer=problem.balancer,
    ).run(problem.partition, scheduler=problem.scheduler, faults=faults)
    values = hashlib.sha256(repr(sorted(result.values.items())).encode()).hexdigest()
    return (
        values,
        result.elapsed.hex(),
        result.iterations,
        result.messages_delivered,
        result.barriers,
        result.fault_report,
        result.phases,
        result.migrations,
        result.trace.records,
        result.trace.reconfigurations,
        result.recoveries,
        result.dead_ranks,
    )


@pytest.mark.parametrize(
    "name, iterations",
    [("rand64_np16_ctrl", 60), ("fixedpoint_hybrid", 12), ("plate320_process", 1)],
)
def test_workload_counters_match_the_trees(name, iterations):
    """Seed 0 of the workloads that call collectives every superstep,
    shortened."""
    problem = _perf_workloads()[name].build(0, iterations)
    replay = _workload_outcome(problem)
    with tree_collectives():
        assert _workload_outcome(problem) == replay


@pytest.mark.parametrize(
    "spec, overrides",
    [
        (
            "seed=7,delay=0.3:0.002,drop=0.1,retry=6,slow=3:2.5:0.0:0.05,crash=5@40",
            dict(recovery_policy="rollback"),
        ),
        (  # checksummed: flips are NACKed and resent
            "seed=5,flipmsg=0.05,drop=0.05,slow=0:3.0:0.0:0.02,crash=9@30",
            dict(recovery_policy="shrink", integrity="full"),
        ),
        ("seed=4,delay=0.0,crash=2@21", dict(recovery_policy="shrink")),
    ],
)
def test_workload_under_faults_matches_the_trees(spec, overrides):
    """The collective-heavy workload with its balancer, checkpoints and
    digests, under message faults, a slow window and a crash with either
    recovery: the same values, clocks, phases, counters, migrations, trace
    and recovery records, and fault report as on the trees."""
    problem = _perf_workloads()["rand64_np16_ctrl"].build(0, 60)
    faults = FaultPlan.parse(spec)
    replay = _workload_outcome(problem, faults, **overrides)
    assert replay[5].crashes == 1
    with tree_collectives():
        assert _workload_outcome(problem, faults, **overrides) == replay
