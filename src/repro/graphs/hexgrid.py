"""Hexagonal grids.

Two of the paper's three workloads live on hexagonal meshes:

* the generic hexagonal-grid topologies (32-, 64- and 96-node grids used in
  section 5.1), and
* the 32x32-hex battlefield terrain of the battlefield management
  simulation (section 5.3), where "the computational domain is divided into
  hexes" and each hex has six neighbours.

We use the standard *odd-r offset* layout: hexes are addressed by
``(row, col)``; odd rows are shifted half a hex to the right.  Interior hexes
have exactly six neighbours; border hexes fewer.  Global IDs are assigned in
row-major order starting at 1, matching the Chaco convention used
throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

__all__ = ["HexGrid", "hex_grid", "hex32", "hex64", "hex96", "battlefield_grid"]

# Neighbour offsets (d_row, d_col) in odd-r layout, keyed by row parity.
_EVEN_ROW_OFFSETS = ((0, -1), (0, 1), (-1, -1), (-1, 0), (1, -1), (1, 0))
_ODD_ROW_OFFSETS = ((0, -1), (0, 1), (-1, 0), (-1, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class HexGrid:
    """A rows x cols hexagonal lattice in odd-r offset coordinates.

    Attributes:
        rows: Number of hex rows.
        cols: Number of hex columns.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def num_cells(self) -> int:
        """Total number of hexes."""
        return self.rows * self.cols

    def gid(self, row: int, col: int) -> int:
        """Global (1-based) ID of the hex at ``(row, col)``."""
        self._check(row, col)
        return row * self.cols + col + 1

    def rc(self, gid: int) -> tuple[int, int]:
        """Inverse of :meth:`gid`."""
        if not 1 <= gid <= self.num_cells:
            raise KeyError(f"gid {gid} outside 1..{self.num_cells}")
        return divmod(gid - 1, self.cols)

    def in_bounds(self, row: int, col: int) -> bool:
        """Whether ``(row, col)`` is inside the grid."""
        return 0 <= row < self.rows and 0 <= col < self.cols

    def _check(self, row: int, col: int) -> None:
        if not self.in_bounds(row, col):
            raise KeyError(f"({row}, {col}) outside {self.rows}x{self.cols} grid")

    def neighbor_cells(self, row: int, col: int) -> list[tuple[int, int]]:
        """In-bounds hex neighbours of ``(row, col)``, at most six."""
        self._check(row, col)
        offsets = _ODD_ROW_OFFSETS if row % 2 else _EVEN_ROW_OFFSETS
        return [
            (row + dr, col + dc)
            for dr, dc in offsets
            if self.in_bounds(row + dr, col + dc)
        ]

    def neighbor_directions(self, row: int, col: int) -> list[tuple[int, tuple[int, int]]]:
        """Like :meth:`neighbor_cells` but keeping the direction index 0..5.

        Direction indices follow the offset tables' order (W, E, then the two
        upper and two lower neighbours), the index Figure 2's per-direction
        ``destroyed[...]`` counters use.  The battlefield here keeps
        aggregate counters per hex, so nothing in the package calls this;
        the geometry tests do.
        """
        self._check(row, col)
        offsets = _ODD_ROW_OFFSETS if row % 2 else _EVEN_ROW_OFFSETS
        return [
            (d, (row + dr, col + dc))
            for d, (dr, dc) in enumerate(offsets)
            if self.in_bounds(row + dr, col + dc)
        ]

    def to_graph(self, name: str | None = None) -> Graph:
        """The hex lattice as an application :class:`Graph`."""
        edges: list[tuple[int, int]] = []
        for row in range(self.rows):
            for col in range(self.cols):
                u = self.gid(row, col)
                for nrow, ncol in self.neighbor_cells(row, col):
                    v = self.gid(nrow, ncol)
                    if u < v:
                        edges.append((u, v))
        label = name or f"hex{self.num_cells}({self.rows}x{self.cols})"
        return Graph.from_edges(self.num_cells, edges, name=label)


def hex_grid(rows: int, cols: int) -> Graph:
    """Hexagonal grid graph with ``rows * cols`` nodes."""
    return HexGrid(rows, cols).to_graph()


def hex32() -> Graph:
    """The paper's 32-node hexagonal grid (4 x 8)."""
    return HexGrid(4, 8).to_graph(name="hex32")


def hex64() -> Graph:
    """The paper's 64-node hexagonal grid (8 x 8)."""
    return HexGrid(8, 8).to_graph(name="hex64")


def hex96() -> Graph:
    """The paper's 96-node hexagonal grid (8 x 12)."""
    return HexGrid(8, 12).to_graph(name="hex96")


def battlefield_grid(rows: int = 32, cols: int = 32) -> HexGrid:
    """The battlefield terrain: a 32 x 32 hex mesh by default."""
    return HexGrid(rows, cols)
