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

Every switch is passed, so no test-side default moves these runs.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex64
from repro.partitioning import MetisLikePartitioner

from ..twins import scalar_twin

NPROCS = 2


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

    config = PlatformConfig(
        iterations=4,
        comm_rounds=1,
        execution=execution,
        activation="dense",
        overlap_communication=overlap,
        hybrid_inner_cap=4,
        converge="fixed",
        dynamic_load_balancing=False,
        checkpoint_period=0,
        integrity="off",
    )
    ICPlatform(graph, node_fn, config=config).run(partition)
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
