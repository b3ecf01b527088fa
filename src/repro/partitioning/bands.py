"""Band partitioners for grid-structured domains.

Section 5.3 evaluates the battlefield simulation under (iii) row band,
(iv) column band, and (v) rectangular band initial partitionings of the
32x32 hex terrain.  These partitioners need the grid geometry, so they are
constructed with ``(rows, cols)`` and assume row-major 1-based global IDs
(the convention of :class:`~repro.graphs.hexgrid.HexGrid`).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from ..graphs.graph import Graph
from .base import Partition, Partitioner

__all__ = [
    "RowBandPartitioner",
    "ColumnBandPartitioner",
    "RectangularPartitioner",
    "balanced_factor_pair",
]


def balanced_factor_pair(nparts: int) -> tuple[int, int]:
    """Factor ``nparts = pr * pc`` with ``pr`` and ``pc`` as close as possible.

    Returns ``(pr, pc)`` with ``pr <= pc``.  Primes degrade gracefully to
    ``(1, nparts)`` (a column-band layout).
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    best = (1, nparts)
    for pr in range(1, int(sqrt(nparts)) + 1):
        if nparts % pr == 0:
            best = (pr, nparts // pr)
    return best


class _GridBandPartitioner(Partitioner):
    """Shared geometry checks for the band family."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    def _check_graph(self, graph: Graph) -> None:
        if graph.num_nodes != self.rows * self.cols:
            raise ValueError(
                f"graph has {graph.num_nodes} nodes; {self.rows}x{self.cols} grid "
                f"needs {self.rows * self.cols}"
            )

    def _bands(self, nrow_bands: int, ncol_bands: int) -> np.ndarray:
        """Every node's ``(row band) * ncol_bands + (column band)``, bands
        being contiguous and equal up to rounding (the last takes the rest)."""
        def band(extent: int, nbands: int) -> np.ndarray:
            return np.minimum(np.arange(extent) * nbands // extent, nbands - 1)

        return np.add.outer(
            band(self.rows, nrow_bands) * ncol_bands, band(self.cols, ncol_bands)
        ).ravel()


class RowBandPartitioner(_GridBandPartitioner):
    """Horizontal strips: processor ``p`` owns a contiguous block of rows."""

    name = "rowband"

    def partition(self, graph: Graph, nparts: int) -> Partition:
        self._check_nparts(graph, nparts)
        self._check_graph(graph)
        if (trivial := self._trivial(graph, nparts)) is not None:
            return trivial
        assignment = self._bands(min(nparts, self.rows), 1)
        return Partition.from_assignment(graph, assignment, nparts, method=self.name)


class ColumnBandPartitioner(_GridBandPartitioner):
    """Vertical strips: processor ``p`` owns a contiguous block of columns."""

    name = "colband"

    def partition(self, graph: Graph, nparts: int) -> Partition:
        self._check_nparts(graph, nparts)
        self._check_graph(graph)
        if (trivial := self._trivial(graph, nparts)) is not None:
            return trivial
        assignment = self._bands(1, min(nparts, self.cols))
        return Partition.from_assignment(graph, assignment, nparts, method=self.name)


class RectangularPartitioner(_GridBandPartitioner):
    """A pr x pc checkerboard of rectangular blocks (pr * pc = nparts).

    The factorization picks the most square arrangement, so the perimeter
    (and hence the edge cut) is lower than either band scheme when nparts
    has a balanced factor pair -- the behaviour Figure 20 shows.
    """

    name = "rectband"

    def partition(self, graph: Graph, nparts: int) -> Partition:
        self._check_nparts(graph, nparts)
        self._check_graph(graph)
        if (trivial := self._trivial(graph, nparts)) is not None:
            return trivial
        pr, pc = balanced_factor_pair(nparts)
        # Orient the factor pair with the grid: more bands along the longer axis.
        if (self.rows >= self.cols) != (pr >= pc):
            pr, pc = pc, pr
        assignment = self._bands(min(pr, self.rows), min(pc, self.cols))
        return Partition.from_assignment(graph, assignment, nparts, method=self.name)
