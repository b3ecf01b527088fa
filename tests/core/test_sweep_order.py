"""Change-driven sweeps take the dense sweep's order: the owned-set layout.

The paper's sweep walks the internal node list, then the peripheral node
list, each in list order (section 4.1, Figure 8).  A sparse or hybrid sweep
computes a subset of the same lists, so it calls the node function in the
same order, whatever order the gids are in.  A build lays each class out in
ascending gids; a migration appends the adopted node to the end of its
class, so afterwards the layout and gid order part ways, which is where
these runs look.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.core.compute import Frontier
from repro.graphs import hex32
from repro.partitioning import MetisLikePartitioner, Partition

from ..twins import scalar_twin


def skewed(graph, src: int, dst: int) -> Partition:
    """4-way Metis with half of rank ``src``'s nodes handed to ``dst``."""
    assignment = list(MetisLikePartitioner(seed=0).partition(graph, 4).assignment)
    moved = [i for i, proc in enumerate(assignment) if proc == src]
    for i in moved[: len(moved) // 2]:
        assignment[i] = dst
    return Partition.from_assignment(graph, assignment, 4)


@pytest.mark.parametrize(
    "execution, activation, skew",
    [("bsp", "sparse", (3, 0)), ("hybrid", "dense", (0, 2))],
    ids=["sparse", "hybrid"],
)
def test_node_function_runs_in_layout_order(monkeypatch, execution, activation, skew):
    """Per rank, every sweep's calls are in the order of the layout its
    frontier hands out positions of (each ``Frontier.begin`` starts one
    sweep), after migrations moved that layout off gid order."""
    graph = hex32()
    average = scalar_twin(make_average_fn(1e-4))  # node by node, on the list store
    log: dict[int, list] = {}

    def node_fn(view, ctx):
        log[ctx.rank].append(view.global_id)
        return average(view, ctx)

    begin = Frontier.begin

    def logged_begin(self, store, round_idx, part):
        log.setdefault(store.rank, []).append(store.owned_gids())
        return begin(self, store, round_idx, part)

    monkeypatch.setattr(Frontier, "begin", logged_begin)
    config = PlatformConfig(
        iterations=30,
        execution=execution,
        activation=activation,
        dynamic_load_balancing=True,
        lb_period=4,
    )
    result = ICPlatform(graph, node_fn, config=config).run(skewed(graph, *skew))
    assert result.migrations

    sweeps = off_gid_order = 0
    for entries in log.values():
        layout: list[int] = []
        calls: list[int] = []
        for entry in [*entries, []]:
            if isinstance(entry, list):  # a sweep begins
                position = {gid: p for p, gid in enumerate(layout)}
                at = [position[gid] for gid in calls]
                assert at == sorted(at), "a sweep left the layout order"
                sweeps += bool(calls)
                off_gid_order += calls != sorted(calls)
                layout, calls = entry, []
            else:
                calls.append(entry)
    assert sweeps and off_gid_order
