"""Property-based tests for the simulated MPI substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import IDEAL, ORIGIN2000, run_mpi


@given(
    nprocs=st.integers(min_value=1, max_value=8),
    root=st.integers(min_value=0, max_value=7),
    payload=st.one_of(
        st.integers(), st.text(max_size=20), st.lists(st.integers(), max_size=5)
    ),
)
@settings(max_examples=40, deadline=None)
def test_bcast_delivers_payload_everywhere(nprocs, root, payload):
    root = root % nprocs

    def fn(comm):
        value = payload if comm.rank == root else None
        return comm.bcast(value, root=root)

    assert run_mpi(fn, nprocs, machine=IDEAL) == [payload] * nprocs


@given(
    nprocs=st.integers(min_value=1, max_value=8),
    values=st.lists(st.integers(min_value=-100, max_value=100), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_allreduce_sum_is_exact(nprocs, values):
    def fn(comm):
        return comm.allreduce(values[comm.rank])

    expected = sum(values[:nprocs])
    assert run_mpi(fn, nprocs, machine=IDEAL) == [expected] * nprocs


@given(
    nprocs=st.integers(min_value=2, max_value=6),
    messages=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=30, deadline=None)
def test_fifo_per_tag_stream(nprocs, messages):
    """Rank 0 sends a random interleaving of (value, tag) pairs to rank 1;
    receiving per tag in order must see each tag's values in send order."""

    def fn(comm):
        if comm.rank == 0:
            for idx, (value, tag) in enumerate(messages):
                comm.isend((idx, value), 1, tag=tag)
            return None
        if comm.rank == 1:
            received: dict[int, list[int]] = {}
            for tag in sorted({t for _, t in messages}):
                count = sum(1 for _, t in messages if t == tag)
                received[tag] = [comm.recv(source=0, tag=tag)[0] for _ in range(count)]
            return received
        return None

    results = run_mpi(fn, nprocs, machine=IDEAL)
    received = results[1]
    for tag, indices in received.items():
        expected = [i for i, (_, t) in enumerate(messages) if t == tag]
        assert indices == expected


@given(
    nprocs=st.integers(min_value=1, max_value=6),
    work_units=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=6,
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_barrier_clock_is_max_of_entries(nprocs, work_units):
    def fn(comm):
        comm.work(work_units[comm.rank])
        comm.barrier()
        return comm.Wtime()

    times = run_mpi(fn, nprocs, machine=IDEAL)
    expected = max(work_units[:nprocs])
    assert all(abs(t - expected) < 1e-12 for t in times)


@given(nprocs=st.integers(min_value=1, max_value=6), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_virtual_elapsed_is_reproducible(nprocs, seed):
    """The same program produces the same virtual clocks every run."""
    import random

    plan = random.Random(seed).choices(["work", "ring", "reduce"], k=6)

    def fn(comm):
        for op in plan:
            if op == "work":
                comm.work((comm.rank + 1) * 1e-4)
            elif op == "ring" and comm.size > 1:
                comm.isend(comm.rank, (comm.rank + 1) % comm.size, tag=7)
                comm.recv(source=(comm.rank - 1) % comm.size, tag=7)
            else:
                comm.allreduce(comm.rank)
        return comm.Wtime()

    first = run_mpi(fn, nprocs, machine=ORIGIN2000)
    second = run_mpi(fn, nprocs, machine=ORIGIN2000)
    assert first == second
