"""Application-graph generators.

Covers the paper's generic topologies (hexagonal grids live in
:mod:`repro.graphs.hexgrid`; the connected random graphs of section 5.2 are
generated here) plus a set of standard meshes useful for tests, examples and
ablation benchmarks.  All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import random

import numpy as np

from .graph import Graph

__all__ = [
    "random_connected_graph",
    "random32",
    "random64",
    "grid2d",
    "torus2d",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "binary_tree",
    "preferential_attachment",
]


def random_connected_graph(
    num_nodes: int,
    avg_degree: float = 4.0,
    seed: int = 0,
    name: str | None = None,
) -> Graph:
    """A connected Erdos-Renyi-style random graph.

    A uniform spanning tree (random-walk based) guarantees connectivity;
    extra edges are then sampled uniformly until the average degree target is
    met.  This mirrors the thesis's "random graphs", which must be connected
    for the platform's shadow-node machinery to exercise every processor.

    Args:
        num_nodes: Number of vertices (>= 1).
        avg_degree: Target mean degree; clamped to the achievable range.
        seed: RNG seed (deterministic output).
        name: Graph label; default ``random<N>``.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()

    # Aldous-Broder style random spanning tree for unbiased connectivity.
    unvisited = set(range(2, num_nodes + 1))
    current = 1
    while unvisited:
        nxt = rng.randint(1, num_nodes)
        if nxt in unvisited:
            edges.add((min(current, nxt), max(current, nxt)))
            unvisited.discard(nxt)
        if nxt != current:
            current = nxt

    max_edges = num_nodes * (num_nodes - 1) // 2
    target_edges = min(max_edges, max(len(edges), round(num_nodes * avg_degree / 2)))
    attempts = 0
    while len(edges) < target_edges and attempts < 50 * target_edges:
        u = rng.randint(1, num_nodes)
        v = rng.randint(1, num_nodes)
        attempts += 1
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(
        num_nodes, sorted(edges), name=name or f"random{num_nodes}"
    )


def random32(seed: int = 0) -> Graph:
    """The paper's 32-node random graph (one of the five seeds averaged)."""
    return random_connected_graph(32, avg_degree=4.0, seed=seed, name=f"random32-s{seed}")


def random64(seed: int = 0) -> Graph:
    """The paper's 64-node random graph."""
    return random_connected_graph(64, avg_degree=4.0, seed=seed, name=f"random64-s{seed}")


def _lattice(rows: int, cols: int, wrap: bool) -> np.ndarray:
    """The ``(m, 2)`` edge array of a row-major ``rows x cols`` mesh: every
    cell to its right and lower neighbour, ``wrap`` closing both axes."""
    gids = np.arange(1, rows * cols + 1, dtype=np.int64).reshape(rows, cols)
    if wrap:
        right, below = np.roll(gids, -1, axis=1), np.roll(gids, -1, axis=0)
        pairs = [(gids, right), (gids, below)]
    else:
        pairs = [(gids[:, :-1], gids[:, 1:]), (gids[:-1], gids[1:])]
    return np.concatenate([np.stack((a.ravel(), b.ravel()), axis=1) for a, b in pairs])


def grid2d(rows: int, cols: int, name: str | None = None) -> Graph:
    """A rows x cols 4-neighbour mesh."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    return Graph.from_edges(
        rows * cols, _lattice(rows, cols, wrap=False), name=name or f"grid{rows}x{cols}"
    )


def torus2d(rows: int, cols: int, name: str | None = None) -> Graph:
    """A rows x cols mesh with wraparound links (rows, cols >= 3)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows, cols >= 3 to avoid duplicate edges")
    return Graph.from_edges(
        rows * cols, _lattice(rows, cols, wrap=True), name=name or f"torus{rows}x{cols}"
    )


def path_graph(num_nodes: int) -> Graph:
    """A simple path 1-2-...-n."""
    edges = [(i, i + 1) for i in range(1, num_nodes)]
    return Graph.from_edges(num_nodes, edges, name=f"path{num_nodes}")


def cycle_graph(num_nodes: int) -> Graph:
    """A ring of ``num_nodes`` >= 3 vertices."""
    if num_nodes < 3:
        raise ValueError("cycle needs >= 3 nodes")
    edges = [(i, i + 1) for i in range(1, num_nodes)] + [(num_nodes, 1)]
    return Graph.from_edges(num_nodes, edges, name=f"cycle{num_nodes}")


def star_graph(num_leaves: int) -> Graph:
    """Node 1 connected to ``num_leaves`` leaves."""
    edges = [(1, i) for i in range(2, num_leaves + 2)]
    return Graph.from_edges(num_leaves + 1, edges, name=f"star{num_leaves}")


def complete_graph(num_nodes: int) -> Graph:
    """K_n."""
    edges = [
        (u, v) for u in range(1, num_nodes + 1) for v in range(u + 1, num_nodes + 1)
    ]
    return Graph.from_edges(num_nodes, edges, name=f"K{num_nodes}")


def binary_tree(depth: int) -> Graph:
    """A complete binary tree of the given depth (depth 0 = single node)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    num_nodes = 2 ** (depth + 1) - 1
    edges = []
    for parent in range(1, num_nodes + 1):
        for child in (2 * parent, 2 * parent + 1):
            if child <= num_nodes:
                edges.append((parent, child))
    return Graph.from_edges(num_nodes, edges, name=f"btree{depth}")


def preferential_attachment(num_nodes: int, edges_per_node: int = 2, seed: int = 0) -> Graph:
    """Barabasi-Albert style scale-free graph (irregular-degree stressor)."""
    if num_nodes < edges_per_node + 1:
        raise ValueError("num_nodes must exceed edges_per_node")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    targets = list(range(1, edges_per_node + 1))
    repeated: list[int] = list(targets)
    for new in range(edges_per_node + 1, num_nodes + 1):
        chosen: set[int] = set()
        while len(chosen) < edges_per_node:
            chosen.add(rng.choice(repeated))
        for t in chosen:
            edges.add((min(new, t), max(new, t)))
            repeated.append(t)
        repeated.extend([new] * edges_per_node)
    return Graph.from_edges(num_nodes, sorted(edges), name=f"ba{num_nodes}")
