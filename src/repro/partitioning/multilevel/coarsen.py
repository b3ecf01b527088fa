"""Graph contraction and the coarsening ladder."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ...graphs.graph import Graph
from .matching import heavy_edge_matching

__all__ = ["CoarseLevel", "contract", "coarsen"]

#: Stop coarsening when the graph shrinks by less than this factor per step.
_MIN_SHRINK = 0.95


@dataclass(frozen=True)
class CoarseLevel:
    """One rung of the coarsening ladder.

    Attributes:
        graph: The coarse graph produced at this level.
        fine_to_coarse: ``fine_to_coarse[fine_gid - 1]`` is the coarse gid
            (1-based, into ``graph``) that the finer level's node collapsed
            into.
    """

    graph: Graph
    fine_to_coarse: tuple[int, ...]

    def project(self, coarse_assignment: Sequence[int]) -> list[int]:
        """Pull a coarse partition back to the finer level."""
        return [coarse_assignment[c - 1] for c in self.fine_to_coarse]


def contract(graph: Graph, match: Sequence[int]) -> CoarseLevel:
    """Contract a matching: matched pairs merge into one coarse vertex.

    Coarse node weights are the sums of their constituents; parallel edges
    between coarse vertices accumulate their weights (the invariant that
    makes coarse cuts equal fine cuts for projected partitions).
    """
    n = graph.num_nodes
    if len(match) != n:
        raise ValueError(f"match has {len(match)} entries for {n} nodes")
    fine_to_coarse = [0] * n
    weights = graph.node_weights
    coarse_weights: list[int] = []
    next_cid = 0
    for gid in graph.nodes():
        if fine_to_coarse[gid - 1]:
            continue
        partner = match[gid - 1]
        if not 1 <= partner <= n or match[partner - 1] != gid:
            raise ValueError(f"inconsistent matching at node {gid}")
        next_cid += 1
        fine_to_coarse[gid - 1] = next_cid
        weight = weights[gid - 1]
        if partner != gid:
            fine_to_coarse[partner - 1] = next_cid
            weight += weights[partner - 1]
        coarse_weights.append(weight)

    edge_accum: dict[tuple[int, int], int] = {}
    for u, v in graph.edges():
        cu, cv = fine_to_coarse[u - 1], fine_to_coarse[v - 1]
        if cu == cv:
            continue
        key = (min(cu, cv), max(cu, cv))
        edge_accum[key] = edge_accum.get(key, 0) + graph.known_edge_weight(u, v)

    adjacency: list[list[int]] = [[] for _ in range(next_cid)]
    for (cu, cv) in edge_accum:
        adjacency[cu - 1].append(cv)
        adjacency[cv - 1].append(cu)
    for lst in adjacency:
        lst.sort()
    coarse = Graph(
        adjacency,
        node_weights=coarse_weights,
        edge_weights=edge_accum,
        name=f"{graph.name}-c{next_cid}",
        validate=False,
    )
    return CoarseLevel(coarse, tuple(fine_to_coarse))


def coarsen(
    graph: Graph,
    min_nodes: int,
    rng: random.Random,
    matcher: Callable[[Graph, random.Random], list[int]] = heavy_edge_matching,
    max_levels: int = 40,
) -> list[CoarseLevel]:
    """Build the coarsening ladder down to roughly ``min_nodes`` vertices.

    Returns the levels top-down: ``levels[0]`` contracts the input graph,
    ``levels[-1].graph`` is the coarsest.  The ladder may be empty when the
    input is already small enough.  Coarsening also stops when a matching
    fails to shrink the graph meaningfully (e.g. star graphs).
    """
    levels: list[CoarseLevel] = []
    current = graph
    for _ in range(max_levels):
        if current.num_nodes <= min_nodes:
            break
        level = contract(current, matcher(current, rng))
        if level.graph.num_nodes >= current.num_nodes * _MIN_SHRINK:
            break
        levels.append(level)
        current = level.graph
    return levels
