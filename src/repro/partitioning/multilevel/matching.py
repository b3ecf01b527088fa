"""Vertex matchings for the coarsening phase.

Multilevel partitioning repeatedly contracts a matching of the current
graph.  Heavy-edge matching (HEM) -- match each vertex with the unmatched
neighbour across its heaviest edge -- is the Metis default [KK98] because it
hides heavy edges inside coarse vertices, which directly lowers the cut the
refinement phase has to fight for.
"""

from __future__ import annotations

import random

from ...graphs.graph import Graph

__all__ = ["heavy_edge_matching", "random_matching"]


def heavy_edge_matching(graph: Graph, rng: random.Random) -> list[int]:
    """Heavy-edge matching.

    Returns ``match`` with ``match[gid - 1]`` = the partner's gid, or the
    node's own gid when it stays unmatched.  Vertices are visited in random
    order; among unmatched neighbours the heaviest edge wins, ties broken by
    the smaller neighbour id (deterministic given the RNG state).
    """
    n = graph.num_nodes
    match = [0] * n
    order = list(graph.nodes())
    rng.shuffle(order)
    weight = graph.known_edge_weight
    rows = list(graph.neighbor_rows(graph.nodes()))
    for gid in order:
        if match[gid - 1]:
            continue
        best = gid  # stay single unless an unmatched neighbour exists
        best_weight = -1
        for v in rows[gid - 1]:
            if match[v - 1]:
                continue
            w = weight(gid, v)
            if w > best_weight or (w == best_weight and v < best):
                best = v
                best_weight = w
        match[gid - 1] = best
        match[best - 1] = gid
    return match


def random_matching(graph: Graph, rng: random.Random) -> list[int]:
    """Random matching: each vertex pairs with a random unmatched neighbour."""
    n = graph.num_nodes
    match = [0] * n
    order = list(graph.nodes())
    rng.shuffle(order)
    rows = list(graph.neighbor_rows(graph.nodes()))
    for gid in order:
        if match[gid - 1]:
            continue
        candidates = [v for v in rows[gid - 1] if not match[v - 1]]
        best = rng.choice(candidates) if candidates else gid
        match[gid - 1] = best
        match[best - 1] = gid
    return match
