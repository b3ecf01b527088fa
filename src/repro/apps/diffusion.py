"""Jacobi diffusion / difference-equation workloads.

The introduction motivates the platform with "mesh-structured computations,
such as difference equations [Q04]".  This module provides a weighted
Jacobi relaxation of the discrete Laplace/heat equation as a platform
plug-in, with Dirichlet boundary nodes held fixed -- plus the sequential
reference and a residual metric so convergence is testable.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Mapping

import numpy as np

from ..core.compute import ComputeContext, NodeFn, NodeView
from ..core.soastore import BulkView
from ..graphs.graph import Graph

__all__ = [
    "make_jacobi_fn",
    "jacobi_step_reference",
    "residual",
    "hot_edge_plate",
]

#: Default virtual compute grain per node update.
NODE_GRAIN = 25e-6


def make_jacobi_fn(
    boundary: Mapping[int, float],
    omega: float = 1.0,
    grain: float = NODE_GRAIN,
    quantize: int | None = None,
) -> NodeFn:
    """Weighted-Jacobi node function for the graph Laplace equation.

    Interior nodes relax toward the mean of their neighbours:
    ``x' = (1 - omega) * x + omega * mean(neighbours)``; nodes listed in
    ``boundary`` are Dirichlet-pinned to their given values.

    Args:
        boundary: ``gid -> fixed value`` for boundary nodes.
        omega: Relaxation weight in (0, 1]; 1.0 is plain Jacobi.
        grain: Virtual compute seconds charged per update.
        quantize: Round every update to this many decimal places.  Floats
            asymptote toward the fixed point without ever exactly reaching
            it; quantizing makes the iteration genuinely stationary, so
            change-driven execution (``activation="sparse"``) sees the
            frontier collapse and quiescence termination can fire.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must be in (0, 1], got {omega}")
    # Float pins, as ``jacobi_bulk`` writes them: an ``int`` pin would pack
    # and price differently on the list store than on the SoA store.
    boundary = {gid: float(value) for gid, value in boundary.items()}

    def jacobi_fn(node: NodeView, ctx: ComputeContext) -> float:
        ctx.work(grain)
        pinned = boundary.get(node.global_id)
        if pinned is not None:
            return pinned
        values = node.neighbor_values()
        if not values:
            return node.value
        # Left to right from 0 like ``sum_neighbors()``, not ``sum()``
        # (compensated, hence a different float sequence, from 3.12 on).
        mean = reduce(operator.add, values, 0) / len(values)
        result = (1.0 - omega) * node.value + omega * mean
        if quantize is not None:
            result = round(result, quantize)
        return result

    # The pins as gid-indexed arrays, owned by this function alone (two
    # Jacobi functions with different boundaries may share one platform).
    pinned = np.zeros(max(boundary, default=0) + 1, dtype=bool)
    pinned[list(boundary)] = True
    pin_values = np.zeros(len(pinned))
    pin_values[list(boundary)] = list(boundary.values())

    def jacobi_bulk(view: BulkView) -> np.ndarray:
        nonlocal pinned, pin_values
        gids = view.gids
        try:
            pin_mask = pinned[gids]
        except IndexError:  # gids beyond the largest pinned one: none pinned
            grow = int(gids.max()) + 1 - len(pinned)
            pinned = np.concatenate([pinned, np.zeros(grow, dtype=bool)])
            pin_values = np.concatenate([pin_values, np.zeros(grow)])
            pin_mask = pinned[gids]
        degrees = view.degrees
        safe_degrees = np.where(degrees > 0, degrees, 1)
        mean = view.sum_neighbors() / safe_degrees
        out = (1.0 - omega) * view.values + omega * mean
        if quantize is not None:
            # numpy's round (scale + half-even) is not Python's
            # correctly-rounded ``round(float, ndigits)``; quantization must
            # match the scalar path bit-for-bit, so round per element.
            out = np.asarray(
                [round(value, quantize) for value in out.tolist()], dtype=out.dtype
            )
        # Isolated and pinned nodes bypass the relaxation (and the
        # quantization -- the scalar path returns before rounding).
        isolated = degrees == 0
        if isolated.any():
            out[isolated] = view.values[isolated]
        if pin_mask.any():
            out[pin_mask] = pin_values[gids[pin_mask]]
        return out

    jacobi_bulk.node_grain = grain
    jacobi_fn.bulk = jacobi_bulk
    return jacobi_fn


def jacobi_step_reference(
    graph: Graph,
    values: Mapping[int, float],
    boundary: Mapping[int, float],
    omega: float = 1.0,
) -> dict[int, float]:
    """One synchronous Jacobi step (reference implementation)."""
    out: dict[int, float] = {}
    for gid in graph.nodes():
        pinned = boundary.get(gid)
        if pinned is not None:
            out[gid] = pinned
            continue
        nbrs = graph.neighbors(gid)
        if not nbrs:
            out[gid] = values[gid]
            continue
        mean = reduce(operator.add, [values[v] for v in nbrs], 0) / len(nbrs)
        out[gid] = (1.0 - omega) * values[gid] + omega * mean
    return out


def residual(graph: Graph, values: Mapping[int, float], boundary: Mapping[int, float]) -> float:
    """Max |x - mean(neighbours)| over interior nodes (0 at the fixed point)."""
    worst = 0.0
    for gid in graph.nodes():
        if gid in boundary:
            continue
        nbrs = graph.neighbors(gid)
        if not nbrs:
            continue
        mean = reduce(operator.add, [values[v] for v in nbrs], 0) / len(nbrs)
        worst = max(worst, abs(values[gid] - mean))
    return worst


def hot_edge_plate(rows: int, cols: int, hot: float = 100.0, cold: float = 0.0):
    """A classic test problem on a rows x cols 4-neighbour plate.

    The top edge is held at ``hot``, the other three edges at ``cold``.

    Returns:
        ``(graph, boundary, init_value)`` ready for the platform:
        ``ICPlatform(graph, make_jacobi_fn(boundary), init_value=init_value)``.
    """
    from ..graphs.generators import grid2d

    graph = grid2d(rows, cols, name=f"plate{rows}x{cols}")

    def gid(r: int, c: int) -> int:
        return r * cols + c + 1

    boundary: dict[int, float] = {}
    for c in range(cols):
        boundary[gid(0, c)] = hot
        boundary[gid(rows - 1, c)] = cold
    for r in range(rows):
        boundary[gid(r, 0)] = cold
        boundary[gid(r, cols - 1)] = cold

    def init_value(node_gid: int) -> float:
        return boundary.get(node_gid, (hot + cold) / 2)

    return graph, boundary, init_value
