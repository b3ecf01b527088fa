"""Partition-quality metrics.

The thesis judges partitioners by the balance of computational load and by
the *edge cut* (inter-processor communication), and the dynamic load
balancer reasons about buffer lengths (communication volume).  These
functions compute those quantities for a node-to-processor assignment.

An *assignment* is a list with ``assignment[gid - 1] == processor`` for every
global node ID -- the exact shape of the thesis's ``output_arr``.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .graph import Graph, sorted_unique

__all__ = [
    "validate_assignment",
    "edge_cut",
    "weighted_edge_cut",
    "communication_volume",
    "part_loads",
    "load_imbalance",
    "boundary_nodes",
    "neighbor_processors",
    "parts_used",
]


def validate_assignment(graph: Graph, assignment: Sequence[int], nparts: int) -> None:
    """Raise ``ValueError`` unless the assignment covers every node with a
    processor id in ``[0, nparts)``."""
    if len(assignment) != graph.num_nodes:
        raise ValueError(
            f"assignment covers {len(assignment)} nodes, graph has {graph.num_nodes}"
        )
    procs = np.asarray(assignment)
    stray = np.flatnonzero((procs < 0) | (procs >= nparts))
    if len(stray):
        gid = int(stray[0]) + 1
        raise ValueError(
            f"node {gid} assigned to processor {assignment[gid - 1]} outside [0, {nparts})"
        )


def _cut_entries(
    graph: Graph, assignment: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gids, home, remote)`` of the adjacency entries that cross
    processors: the node each sits at, its processor, and the processor of
    the neighbour it names.  A cut edge appears once from each end."""
    csr = graph.csr()
    procs = np.asarray(assignment, dtype=np.int64)
    gids = csr.sources()
    home, remote = procs[gids - 1], procs[csr.indices - 1]
    cut = home != remote
    return gids[cut], home[cut], remote[cut]


def edge_cut(graph: Graph, assignment: Sequence[int]) -> int:
    """Number of edges whose endpoints live on different processors."""
    return len(_cut_entries(graph, assignment)[0]) // 2


def weighted_edge_cut(graph: Graph, assignment: Sequence[int]) -> int:
    """Edge cut counting edge weights."""
    # The graph stores only the weights other than 1: they correct the count.
    return edge_cut(graph, assignment) + sum(
        weight - 1
        for (u, v), weight in graph._edge_weights.items()
        if assignment[u - 1] != assignment[v - 1]
    )


def communication_volume(graph: Graph, assignment: Sequence[int]) -> int:
    """Total shadow-copy count: for each node, the number of *distinct*
    remote processors that need its data.

    This is exactly the sum of the platform's per-processor communication
    buffer lengths, and therefore the quantity its load balancer uses as
    processor-graph edge weights.
    """
    gids, _, remote = _cut_entries(graph, assignment)
    if not len(gids):
        return 0
    return len(sorted_unique(gids * (int(remote.max()) + 1) + remote))


def part_loads(graph: Graph, assignment: Sequence[int], nparts: int) -> list[int]:
    """Total node weight hosted by each processor."""
    loads = np.zeros(nparts, dtype=np.int64)
    np.add.at(loads, np.asarray(assignment, dtype=np.intp), graph.node_weights)
    return loads.tolist()


def load_imbalance(graph: Graph, assignment: Sequence[int], nparts: int) -> float:
    """``max_load / mean_load``; 1.0 is perfect balance."""
    loads = part_loads(graph, assignment, nparts)
    total = sum(loads)
    if total == 0:
        return 1.0
    mean = total / nparts
    return max(loads) / mean


def boundary_nodes(graph: Graph, assignment: Sequence[int]) -> set[int]:
    """Global IDs of peripheral nodes (>= 1 neighbour on another processor)."""
    return set(_cut_entries(graph, assignment)[0].tolist())


def neighbor_processors(
    graph: Graph, assignment: Sequence[int], proc: int
) -> set[int]:
    """Processors that share at least one cut edge with ``proc``."""
    _, home, remote = _cut_entries(graph, assignment)
    return set(remote[home == proc].tolist())


def parts_used(assignment: Sequence[int]) -> Counter:
    """Histogram of node counts per processor."""
    return Counter(assignment)
