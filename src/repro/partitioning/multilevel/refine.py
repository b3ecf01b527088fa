"""Boundary refinement (Fiduccia-Mattheyses flavoured, k-way).

After projecting a coarse partition to a finer level, boundary vertices are
greedily moved to the neighbouring part with the best *gain* (external minus
internal edge weight), subject to a balance constraint.  A second routine
restores balance when projection or greedy moves overfill a part.
"""

from __future__ import annotations

import random
from typing import Sequence

from ...graphs.graph import Graph

__all__ = ["move_gains", "fm_refine", "rebalance"]


def move_gains(
    graph: Graph, assignment: Sequence[int], gid: int, nbrs: Sequence[int] | None = None
) -> dict[int, int]:
    """Gain of moving ``gid`` into each adjacent part.

    ``gain[part] = (edge weight into part) - (edge weight into own part)``.
    Positive gain means the cut shrinks by that amount.  ``nbrs`` is
    ``gid``'s neighbour row when the caller already holds it.
    """
    own = assignment[gid - 1]
    external: dict[int, int] = {}
    internal = 0
    weight = graph.known_edge_weight
    for v in graph.neighbors(gid) if nbrs is None else nbrs:
        w = weight(gid, v)
        part = assignment[v - 1]
        if part == own:
            internal += w
        else:
            external[part] = external.get(part, 0) + w
    return {part: ext - internal for part, ext in external.items()}


def _loads(graph: Graph, assignment: Sequence[int], nparts: int) -> list[int]:
    loads = [0] * nparts
    for part, w in zip(assignment, graph.node_weights):
        loads[part] += w
    return loads


def fm_refine(
    graph: Graph,
    assignment: list[int],
    nparts: int,
    target_loads: Sequence[float],
    rng: random.Random,
    max_passes: int = 8,
    tolerance: float = 1.05,
) -> list[int]:
    """Greedy k-way boundary refinement, in place; returns ``assignment``.

    Each pass visits boundary vertices in random order and applies the best
    positive-gain move that keeps the destination under
    ``target * tolerance`` (zero-gain moves are taken only when they strictly
    improve balance).  Passes repeat until a pass makes no move.
    """
    if len(target_loads) != nparts:
        raise ValueError(f"target_loads needs {nparts} entries")
    loads = _loads(graph, assignment, nparts)
    weights = graph.node_weights
    # Caps need headroom for at least one vertex above the target, otherwise
    # exact-balance partitions (the common case with unit weights) freeze.
    w_max = max(weights, default=1)
    caps = [max(t * tolerance, t + w_max) for t in target_loads]
    gids = graph.nodes()
    rows = list(graph.neighbor_rows(gids))

    for _ in range(max_passes):
        boundary = [
            gid
            for gid, nbrs in zip(gids, rows)
            if any(assignment[v - 1] != assignment[gid - 1] for v in nbrs)
        ]
        rng.shuffle(boundary)
        moved = 0
        for gid in boundary:
            own = assignment[gid - 1]
            w = weights[gid - 1]
            if loads[own] <= w:
                continue  # never empty a part (the headroom cap would allow it)
            best_part = -1
            best_key: tuple[int, float] | None = None
            for part, gain in move_gains(graph, assignment, gid, rows[gid - 1]).items():
                if gain < 0:
                    continue
                fits = loads[part] + w <= caps[part]
                balance_delta = (loads[own] - target_loads[own]) - (
                    loads[part] + w - target_loads[part]
                )
                if gain == 0 and balance_delta <= 0:
                    continue  # zero gain must strictly help balance
                if not fits:
                    continue
                key = (gain, balance_delta)
                if best_key is None or key > best_key:
                    best_key = key
                    best_part = part
            if best_part >= 0:
                assignment[gid - 1] = best_part
                loads[own] -= w
                loads[best_part] += w
                moved += 1
        if moved == 0:
            break
    return assignment


def rebalance(
    graph: Graph,
    assignment: list[int],
    nparts: int,
    target_loads: Sequence[float],
    rng: random.Random,
    tolerance: float = 1.05,
) -> list[int]:
    """Push vertices out of overweight parts, cheapest cut damage first.

    Used after projection (coarse vertices are lumpy) and as the final step
    of the k-way driver so every part lands within ``tolerance`` of its
    target whenever vertex granularity allows.
    """
    loads = _loads(graph, assignment, nparts)
    weights = graph.node_weights
    w_max = max(weights, default=1)
    caps = [max(t * tolerance, t + w_max) for t in target_loads]
    rows = list(graph.neighbor_rows(graph.nodes()))

    for _ in range(graph.num_nodes):  # hard bound on total work
        over = [p for p in range(nparts) if loads[p] > caps[p]]
        if not over:
            break
        made_move = False
        for part in sorted(over, key=lambda p: loads[p] - caps[p], reverse=True):
            # candidate boundary vertices of this part
            best: tuple[float, int, int] | None = None  # (-gain, gid, dest)
            for gid in graph.nodes():
                if assignment[gid - 1] != part:
                    continue
                w = weights[gid - 1]
                gains = move_gains(graph, assignment, gid, rows[gid - 1])
                for dest, gain in gains.items():
                    if loads[dest] + w > caps[dest] and loads[dest] >= target_loads[dest]:
                        continue
                    key = (-gain, gid, dest)
                    if best is None or key < best:
                        best = key
            if best is None:
                # No adjacent part can take anything; move the lightest
                # vertex to the globally least-loaded part (last resort,
                # keeps termination guaranteed on pathological graphs).
                members = [g for g in graph.nodes() if assignment[g - 1] == part]
                gid = min(members, key=lambda g: (weights[g - 1], g))
                dest = min(range(nparts), key=lambda p: loads[p] - target_loads[p])
                if dest == part:
                    continue
            else:
                _, gid, dest = best
            w = weights[gid - 1]
            assignment[gid - 1] = dest
            loads[part] -= w
            loads[dest] += w
            made_move = True
        if not made_move:
            break
    return assignment
