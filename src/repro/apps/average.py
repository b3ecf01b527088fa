"""The generic neighbour-average application (sections 2.1, 5.1, 5.2).

"Each node computes the average of the data maintained by all its
neighbors.  A dummy 'for loop' is used to inject the grain size.  A size of
0.3 ms is used for the fine grain and 3 ms is used for the coarse grain."

On the virtual-time substrate the dummy loop becomes ``ctx.work(grain)``.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from ..core.compute import ComputeContext, NodeFn, NodeView
from ..core.soastore import BulkView

__all__ = ["FINE_GRAIN", "COARSE_GRAIN", "make_average_fn", "neighbor_average"]

#: Fine grain size: 0.3 ms per node computation.
FINE_GRAIN = 0.3e-3

#: Coarse grain size: 3 ms per node computation.
COARSE_GRAIN = 3.0e-3


def neighbor_average(node: NodeView) -> float:
    """Average of the node's own value and its neighbours' values."""
    values = [node.value, *node.neighbor_values()]
    # Strictly left to right from 0, like the bulk twin's ``sum_closed()``:
    # builtin ``sum()`` over floats is compensated from Python 3.12 on, so
    # it is neither this sequence nor the same on every interpreter.
    return reduce(operator.add, values, 0) / len(values)


def make_average_fn(grain: float = FINE_GRAIN) -> NodeFn:
    """An application node function charging ``grain`` seconds per node.

    Args:
        grain: Injected compute cost, seconds (:data:`FINE_GRAIN` or
            :data:`COARSE_GRAIN` reproduce the paper's settings).
    """
    if grain < 0:
        raise ValueError(f"grain must be >= 0, got {grain}")

    def average_fn(node: NodeView, ctx: ComputeContext) -> float:
        ctx.work(grain)
        return neighbor_average(node)

    def average_bulk(view: BulkView) -> np.ndarray:
        # The closed-segment sum reduces [own, n1, n2, ...] left to right,
        # matching the scalar path's left-to-right reduction exactly.
        return view.sum_closed() / (1 + view.degrees)

    average_bulk.node_grain = grain
    average_fn.bulk = average_bulk
    return average_fn
