"""Collectives as one rendezvous plus a replay, against their trees.

Without a fault plan, ``bcast``/``gather``/``scatter``/``allgather``/
``reduce``/``allreduce`` run as one rendezvous each, and
:mod:`repro.mpi.collectives` replays the exit clocks their trees of
point-to-point messages would have charged.  A fault-armed run keeps the
trees; ``SimCluster._collective_trees`` forces that same code on a
fault-free run.  Every program here runs both ways, and everything
observable must match: ``float.hex`` of every clock, the results,
``messages_delivered``, ``barriers`` and the collective tag sequence.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ICPlatform
from repro.mpi import ANY_SOURCE, ANY_TAG, ORIGIN2000, DeadlockError, SimCluster
from repro.mpi import TopologyMachineModel
from repro.mpi.message import Status

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
        "comm": draw(st.sampled_from(["world", "dup", "split", "shrink"])),
        "stride": draw(st.integers(2, 4)),
        "roots": draw(st.lists(st.integers(0, max_procs), min_size=4, max_size=4)),
        "skews": draw(st.lists(st.floats(0.0, 1e-3, allow_nan=False), **per_rank)),
        "lengths": draw(st.lists(st.integers(0, 12), **per_rank)),
        "checksums": draw(st.booleans()),
        "ring": draw(st.booleans()),
    }


def _member_comm(comm, case):
    """The communicator the collectives run on (``None``: not a member).
    ``split`` orders its groups by descending world rank and ``shrink``
    drops every ``stride``-th rank, so both map local ranks to world ranks
    other than by identity."""
    kind, stride, me = case["comm"], case["stride"], comm.rank
    if kind == "dup":
        return comm.dup()
    if kind == "split":
        return comm.split(me % stride, key=-me)
    dead = {q for q in range(comm.size) if q % stride == 1}
    if kind == "shrink" and dead:
        return comm.shrink(dead)
    return comm


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
            lambda: sub.scatter(
                [mine + [float(q)] for q in range(size)] if rank == roots[2] else None,
                root=roots[2],
            ),
            lambda: sub.reduce(mine, root=roots[3]),
            lambda: sub.allgather(mine),
            lambda: sub.allreduce(len(mine)),
            lambda: sub.allreduce(mine, op=lambda a, b: b + a),  # non-commutative
            sub.barrier,
        ):
            sub.work(skew)
            out.append(call())
        return out, comm.Wtime().hex(), sub._coll_seq, comm._coll_seq

    return run


def _outcome(case, trees: bool, **cluster_args):
    nprocs = case["nprocs"]
    machine = ORIGIN2000
    if case["ring"]:
        machine = TopologyMachineModel.wrap(ORIGIN2000, _Ring(nprocs))
    cluster = SimCluster(nprocs, machine=machine, checksums=case["checksums"], **cluster_args)
    cluster._collective_trees = trees
    results = cluster.run(_program(case))
    return results, cluster.messages_delivered, cluster.barriers


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


# --------------------------------------------------------------------- #
# A rank that never enters
# --------------------------------------------------------------------- #


def _stuck(name: str, missing: int, dup: bool):
    """Every rank but ``missing`` enters collective ``name``, on the world
    communicator or a duplicate of it; ``missing`` returns instead."""

    def run(comm):
        sub = comm.dup() if dup else comm
        if comm.rank == missing:
            return None
        root = min(r for r in range(comm.size) if r != missing)
        call = {
            "barrier": sub.barrier,
            "bcast": lambda: sub.bcast(1, root=root),
            "gather": lambda: sub.gather(1.5, root=root),
            "scatter": lambda: sub.scatter([1] * sub.size, root=root),
            "allgather": lambda: sub.allgather("x"),
            "reduce": lambda: sub.reduce(2, root=root),
            "allreduce": lambda: sub.allreduce(2),
        }[name]
        return call()

    return run


def _report(program, scheduler: str = "event", seed: int | None = None) -> str:
    cluster = SimCluster(3, scheduler=scheduler, schedule_seed=seed)
    with pytest.raises(DeadlockError) as excinfo:
        cluster.run(program)
    return str(excinfo.value)


class TestDeadlockReport:
    @pytest.mark.parametrize(
        "name", ["barrier", "bcast", "gather", "scatter", "allgather", "reduce", "allreduce"]
    )
    @pytest.mark.parametrize("missing", [0, 2])
    @pytest.mark.parametrize("dup", [False, True])
    def test_names_the_lowest_member_that_entered(self, name, missing, dup):
        expected = f"deadlock: rank {1 if missing == 0 else 0} stuck in {name}"
        program = _stuck(name, missing, dup)
        assert {_report(program, seed=seed) for seed in (None, *SEEDS)} == {expected}

    @pytest.mark.parametrize(
        "name, dup", [("barrier", False), ("allgather", False), ("bcast", True)]
    )
    def test_process_reads_the_same(self, name, dup):
        """World collectives park in the shared-memory block, a duplicate's
        in the broker; both reports read as the event scheduler's."""
        program = _stuck(name, 0, dup)
        assert _report(program, scheduler="process") == _report(program)


# --------------------------------------------------------------------- #
# Mailboxes see user traffic only
# --------------------------------------------------------------------- #


class TestMailboxes:
    def test_any_tag_receive_sees_only_user_messages(self):
        """A fault-free collective never enters a mailbox, so wildcard
        probes and receives around it see the user's message alone."""

        def program(comm):
            if comm.rank == 1:
                comm.isend("user", dest=2, tag=5)
            seen = comm.iprobe(ANY_SOURCE, ANY_TAG) if comm.rank == 2 else None
            gathered = comm.allgather(comm.rank)
            total = comm.allreduce(comm.rank)
            if comm.rank != 2:
                return gathered, total
            status = Status()
            got = comm.recv(ANY_SOURCE, ANY_TAG, status=status)
            return seen, got, status.source, status.tag, comm.iprobe(ANY_SOURCE, ANY_TAG)

        for trees in (False, True):
            cluster = SimCluster(3)
            cluster._collective_trees = trees
            assert cluster.run(program)[2] == (True, "user", 1, 5, False)

    def test_a_parked_tree_message_was_visible_and_is_gone(self):
        """What changed: on the trees a bcast root could run ahead, and its
        reserved-tag message sat in the child's mailbox for a wildcard
        probe to see; the rendezvous leaves nothing to see."""

        def program(comm):
            seen = comm.iprobe(ANY_SOURCE, ANY_TAG) if comm.rank == 1 else None
            comm.bcast("v", root=0)
            return seen

        probes = {}
        for trees in (False, True):
            cluster = SimCluster(2)
            cluster._collective_trees = trees
            probes[trees] = cluster.run(program)[1]
        assert probes == {False: False, True: True}


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


@pytest.fixture
def trees(monkeypatch):
    """Every cluster built while active runs its collectives as trees."""
    init = SimCluster.__init__

    def forced(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._collective_trees = True

    monkeypatch.setattr(SimCluster, "__init__", forced)


def _workload_outcome(problem):
    result = ICPlatform(
        problem.graph,
        problem.node_fns,
        init_value=problem.init_value,
        config=problem.config,
        balancer=problem.balancer,
    ).run(problem.partition, scheduler=problem.scheduler)
    values = hashlib.sha256(repr(sorted(result.values.items())).encode()).hexdigest()
    return (
        values,
        result.elapsed.hex(),
        result.iterations,
        result.messages_delivered,
        result.barriers,
    )


@pytest.mark.parametrize(
    "name, iterations",
    [("rand64_np16_ctrl", 60), ("fixedpoint_hybrid", 12), ("plate320_process", 1)],
)
def test_workload_counters_match_the_trees(name, iterations, request):
    """Seed 0 of the workloads that call collectives (or, on ``process``,
    rendezvous in the shared-memory block) every superstep, shortened."""
    problem = _perf_workloads()[name].build(0, iterations)
    replay = _workload_outcome(problem)
    request.getfixturevalue("trees")
    assert _workload_outcome(problem) == replay
