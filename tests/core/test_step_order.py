"""The order a superstep calls the node function in, class by class.

A sweep computes one node class: the internal nodes (every neighbour on the
rank) or the peripheral ones.  The three superstep orders differ only in
where those two sweeps, the commit and the send go:

* Figure 8 (``overlap_communication=False``): internal, peripheral,
  commit, send.
* Figure 8a (``overlap_communication=True``): peripheral, send, internal,
  commit -- the peripheral values are computed first so that their
  messages fly while the internal nodes compute.
* Hybrid (``execution="hybrid"``): peripheral, commit, send, then interior
  sweeps until the interior frontier drains or the cap is hit.

The drain has one shape too: every receive is unpacked as it completes
(``Communicator.neighbor_recv`` is handed ``each=``), except in dense
Figure 8, which receives everything, synchronizes and then unpacks.  That
is a virtual-time rule, not only a call shape: a message that arrives
after the change-driven fence and the receive setup finds the rank busy
unpacking the earlier ones, where receiving everything first would have
left it idle until the arrival.

Every switch is passed, so no test-side default moves these runs.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn
from repro.core import ICPlatform, PlatformConfig
from repro.core.compute import TAG_SHADOW, TAG_SHADOW_DELTA
from repro.graphs import hex64
from repro.mpi import FaultPlan
from repro.mpi.communicator import Communicator
from repro.mpi.faults import DelaySpec
from repro.partitioning import MetisLikePartitioner

from ..twins import scalar_twin

NPROCS = 2


def run(node_fn, execution: str, overlap: bool, activation: str = "dense") -> None:
    """Four supersteps of ``node_fn`` on hex64 over ``NPROCS`` ranks, every
    switch passed."""
    graph = hex64()
    partition = MetisLikePartitioner(seed=0).partition(graph, NPROCS)
    config = PlatformConfig(
        iterations=4,
        comm_rounds=1,
        execution=execution,
        activation=activation,
        overlap_communication=overlap,
        hybrid_inner_cap=4,
        converge="fixed",
        dynamic_load_balancing=False,
        checkpoint_period=0,
        integrity="off",
    )
    ICPlatform(graph, node_fn, config=config).run(partition)


def class_calls(execution: str, overlap: bool) -> tuple[dict, dict]:
    """Per ``(rank, iteration)``, the classes of the node-function calls in
    call order (``"I"``/``"P"``), and each rank's internal count."""
    graph = hex64()
    partition = MetisLikePartitioner(seed=0).partition(graph, NPROCS)
    assignment = partition.assignment
    peripheral = {
        gid
        for gid in graph.nodes()
        if any(assignment[v - 1] != assignment[gid - 1] for v in graph.neighbors(gid))
    }
    internal = {rank: 0 for rank in range(NPROCS)}
    for gid in graph.nodes():
        internal[assignment[gid - 1]] += gid not in peripheral
    average = scalar_twin(make_average_fn(1e-4))  # node by node, on the list store
    calls: dict[tuple[int, int], str] = {}

    def node_fn(view, ctx):
        key = (ctx.rank, ctx.iteration)
        calls[key] = calls.get(key, "") + ("P" if view.global_id in peripheral else "I")
        return average(view, ctx)

    run(node_fn, execution, overlap)
    assert sorted(calls) == [(r, i) for r in range(NPROCS) for i in range(1, 5)]
    return calls, internal


def runs(sequence: str) -> str:
    """``"IIPPI"`` -> ``"IPI"``."""
    return "".join(c for i, c in enumerate(sequence) if sequence[i - 1 : i] != c)


@pytest.mark.parametrize(
    "overlap, order", [(False, "IP"), (True, "PI")], ids=["figure-8", "figure-8a"]
)
def test_bsp_sweeps_each_class_once_in_the_figures_order(overlap, order):
    calls, internal = class_calls("bsp", overlap)
    for (rank, _), sequence in calls.items():
        assert runs(sequence) == order
        assert sequence.count("I") == internal[rank]


def test_hybrid_sweeps_the_boundary_then_the_interior():
    calls, internal = class_calls("hybrid", overlap=False)
    for sequence in calls.values():
        assert runs(sequence) == "PI"
    # The interior phase sweeps more than once: more internal calls than
    # internal nodes (the first superstep's interior is dense).
    assert any(
        sequence.count("I") > internal[rank] for (rank, _), sequence in calls.items()
    )


@pytest.mark.parametrize(
    "execution, activation, overlap, each",
    [
        ("bsp", "dense", False, False),
        ("bsp", "dense", True, True),
        ("bsp", "sparse", False, True),
        ("bsp", "sparse", True, True),
        ("hybrid", "dense", False, True),
    ],
    ids=["figure-8", "figure-8a", "sparse-figure-8", "sparse-figure-8a", "hybrid"],
)
def test_only_dense_figure_8_drains_in_one_batch(
    monkeypatch, execution, activation, overlap, each
):
    """Whether each shadow drain hands ``neighbor_recv`` an ``each=``."""
    handed: list[bool] = []
    neighbor_recv = Communicator.neighbor_recv

    def logged(self, sources, tag, each=None):
        if tag in (TAG_SHADOW, *TAG_SHADOW_DELTA):
            handed.append(each is not None)
        return neighbor_recv(self, sources, tag, each)

    monkeypatch.setattr(Communicator, "neighbor_recv", logged)
    run(scalar_twin(make_average_fn(1e-4)), execution, overlap, activation)
    # One drain per rank and superstep, at least.
    assert len(handed) >= 4 * NPROCS and set(handed) == {each}


#: Half the messages fly 1 ms longer: past the fence and the per-source
#: receive setup, so some arrive while their receiver is already draining.
LATE = FaultPlan(seed=1, delay=DelaySpec(0.5, 1e-3))

#: ``float.hex(elapsed)`` of the late-arrival plate as drained (each
#: message unpacked as its receive completes) and with ``neighbor_recv``
#: forced to the batch shape (receive all, then unpack).
PINNED = {
    "sparse-figure-8": ("0x1.b270d8491b954p-3", "0x1.b757467413de0p-3"),
    "hybrid": ("0x1.8149e8e8727f3p-3", "0x1.81f14334ef2fap-3"),
}


def late_plate(execution: str, activation: str):
    """The quantised 8x8 plate to quiescence on 4 ranks under ``LATE``."""
    graph, boundary, init = hot_edge_plate(8, 8)
    partition = MetisLikePartitioner(seed=0).partition(graph, 4)
    config = PlatformConfig(
        iterations=200,
        comm_rounds=1,
        execution=execution,
        activation=activation,
        overlap_communication=False,
        hybrid_inner_cap=4,
        converge="quiescence",
        dynamic_load_balancing=False,
        checkpoint_period=0,
        integrity="off",
    )
    platform = ICPlatform(
        graph, make_jacobi_fn(boundary, quantize=1), init_value=init, config=config
    )
    return platform.run(partition, faults=LATE)


@pytest.mark.parametrize(
    "execution, activation",
    [("bsp", "sparse"), ("hybrid", "dense")],
    ids=["sparse-figure-8", "hybrid"],
)
def test_unpacking_as_receives_complete_fills_the_wait_for_a_late_one(
    request, monkeypatch, execution, activation
):
    """Unpacking an early message while a later one is still in flight
    takes the unpack off the critical path: same values and traffic, a
    shorter virtual run than the batch drain's."""
    drained = late_plate(execution, activation)
    neighbor_recv = Communicator.neighbor_recv

    def batch(self, sources, tag, each=None):
        payloads = neighbor_recv(self, sources, tag)
        for payload in payloads if each is not None else ():
            each(payload)
        return payloads

    monkeypatch.setattr(Communicator, "neighbor_recv", batch)
    batched = late_plate(execution, activation)
    assert drained.values == batched.values
    assert (drained.messages_delivered, drained.barriers) == (
        batched.messages_delivered,
        batched.barriers,
    )
    assert drained.elapsed < batched.elapsed
    pinned = PINNED[request.node.callspec.id]
    assert (float.hex(drained.elapsed), float.hex(batched.elapsed)) == pinned
