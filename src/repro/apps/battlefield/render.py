"""Text rendering of battlefield states.

Terrain maps make the simulation's spatial dynamics inspectable: where the
front runs, how concentrated the combat zone is, how force density decays.
Used by the examples and handy in a REPL::

    print(render_map(app.scenario.grid, states))
"""

from __future__ import annotations

from typing import Mapping

from ...graphs.hexgrid import HexGrid
from .state import HexState

__all__ = ["render_map"]

#: Density glyphs, light to heavy.
_RED_GLYPHS = "rRM"
_BLUE_GLYPHS = "bBW"


def _glyph(state: HexState, scale: float) -> str:
    """One character summarizing a hex: side + density, 'x' for melee."""
    if state.contested:
        return "x"
    if state.red > 0:
        level = min(2, int(state.red / scale))
        return _RED_GLYPHS[level]
    if state.blue > 0:
        level = min(2, int(state.blue / scale))
        return _BLUE_GLYPHS[level]
    return "."


def render_map(
    grid: HexGrid, states: Mapping[int, HexState], density_scale: float | None = None
) -> str:
    """ASCII terrain map: rows of glyphs, odd rows indented half a hex.

    Legend: ``.`` empty, ``r/R/M`` red (rising density), ``b/B/W`` blue,
    ``x`` contested.
    """
    if density_scale is None:
        peak = max((s.total for s in states.values()), default=1.0)
        density_scale = max(peak / 3.0, 1e-9)
    lines = []
    for row in range(grid.rows):
        indent = " " if row % 2 else ""
        cells = [
            _glyph(states[grid.gid(row, col)], density_scale)
            for col in range(grid.cols)
        ]
        lines.append(indent + " ".join(cells))
    return "\n".join(lines)

