"""Initial partitioning of the coarsest graph.

At the bottom of the multilevel ladder the graph is small (tens of
vertices), so we can afford several randomized attempts: greedy graph
growing produces a bisection, FM refinement polishes it, and the best of a
few trials wins.  K-way partitions come from recursive bisection with
weight-proportional targets, which handles non-power-of-two ``nparts``.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from ...graphs.graph import Graph
from ...graphs import metrics
from .refine import fm_refine, rebalance

__all__ = ["greedy_bisection", "recursive_bisection"]


def greedy_bisection(
    graph: Graph,
    left_fraction: float,
    rng: random.Random,
    trials: int = 4,
) -> list[int]:
    """Bisect into parts {0, 1}; part 0 targets ``left_fraction`` of weight.

    Greedy graph growing: BFS-grow part 0 from a random seed until it holds
    its share of the node weight, then FM-refine.  The lowest-cut result of
    ``trials`` attempts is returned.
    """
    if not 0.0 < left_fraction < 1.0:
        raise ValueError(f"left_fraction must be in (0, 1), got {left_fraction}")
    n = graph.num_nodes
    total = graph.total_node_weight()
    target0 = total * left_fraction
    targets = [target0, total - target0]
    weights = graph.node_weights
    rows = list(graph.neighbor_rows(graph.nodes()))

    best_assignment: list[int] | None = None
    best_cut = float("inf")
    for _ in range(max(1, trials)):
        assignment = [1] * n
        seed = rng.randint(1, n)
        load = 0
        queue: deque[int] = deque([seed])
        queued = {seed}
        while load < target0:
            if not queue:
                remaining = [g for g in graph.nodes() if assignment[g - 1] == 1]
                if not remaining:
                    break
                nxt = rng.choice(remaining)
                queue.append(nxt)
                queued.add(nxt)
            gid = queue.popleft()
            if assignment[gid - 1] == 0:
                continue
            w = weights[gid - 1]
            if load > 0 and load + w > target0 + w / 2:
                # crossing the target by more than half this vertex: stop
                break
            assignment[gid - 1] = 0
            load += w
            for v in rows[gid - 1]:
                if assignment[v - 1] == 1 and v not in queued:
                    queue.append(v)
                    queued.add(v)
        if all(p == 1 for p in assignment):  # degenerate: force the seed over
            assignment[seed - 1] = 0
        fm_refine(graph, assignment, 2, targets, rng)
        rebalance(graph, assignment, 2, targets, rng)
        cut = metrics.weighted_edge_cut(graph, assignment)
        if cut < best_cut:
            best_cut = cut
            best_assignment = list(assignment)
    assert best_assignment is not None
    return best_assignment


def recursive_bisection(
    graph: Graph,
    nparts: int,
    rng: random.Random,
    proportions: Sequence[float] | None = None,
) -> list[int]:
    """K-way partition by recursive bisection.

    Args:
        graph: Graph to partition.
        nparts: Number of parts (>= 1).
        proportions: Optional per-part weight shares (normalized internally);
            defaults to uniform.  This is what lets the PaGrid-style driver
            give faster processors bigger pieces.

    Returns:
        ``assignment[gid - 1] in range(nparts)``.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if proportions is None:
        proportions = [1.0] * nparts
    if len(proportions) != nparts:
        raise ValueError(f"proportions needs {nparts} entries")
    if any(p <= 0 for p in proportions):
        raise ValueError("proportions must be positive")

    assignment = [0] * graph.num_nodes

    def split(node_gids: list[int], part_lo: int, part_hi: int) -> None:
        """Assign ``node_gids`` (original gids) to parts ``[part_lo, part_hi)``."""
        count = part_hi - part_lo
        if count == 1 or not node_gids:
            for gid in node_gids:
                assignment[gid - 1] = part_lo
            return
        mid = part_lo + count // 2
        left_share = sum(proportions[part_lo:mid])
        right_share = sum(proportions[mid:part_hi])
        frac = left_share / (left_share + right_share)
        sub, remap = graph.subgraph(node_gids)
        inverse = {new: old for old, new in remap.items()}
        bis = greedy_bisection(sub, frac, rng)
        left = [inverse[i + 1] for i in range(sub.num_nodes) if bis[i] == 0]
        right = [inverse[i + 1] for i in range(sub.num_nodes) if bis[i] == 1]
        if not left or not right:
            # Bisection degenerated (tiny subgraph): split by id for progress.
            ordered = sorted(node_gids)
            cutoff = max(1, round(len(ordered) * frac))
            left, right = ordered[:cutoff], ordered[cutoff:]
        split(left, part_lo, mid)
        split(right, mid, part_hi)

    split(list(graph.nodes()), 0, nparts)
    return assignment
