"""Tests for battlefield map rendering."""

from __future__ import annotations

import pytest

from repro.apps.battlefield import (
    BattlefieldApp,
    HexState,
    opposing_fronts,
    render_map,
    simulate_sequential,
)
from repro.graphs import HexGrid


@pytest.fixture(scope="module")
def mid_battle():
    app = BattlefieldApp(
        opposing_fronts(grid=HexGrid(8, 8), depth=3, strength_per_hex=6.0)
    )
    return app, simulate_sequential(app, 10)


class TestRenderMap:
    def test_dimensions(self, mid_battle):
        app, states = mid_battle
        lines = render_map(app.scenario.grid, states).splitlines()
        assert len(lines) == 8
        # odd rows are indented half a hex
        assert lines[1].startswith(" ")
        assert not lines[0].startswith(" ")

    def test_glyph_vocabulary(self, mid_battle):
        app, states = mid_battle
        text = render_map(app.scenario.grid, states)
        assert set(text) <= set(". rRMbBWx\n")

    def test_sides_on_their_sides(self):
        app = BattlefieldApp(
            opposing_fronts(grid=HexGrid(4, 8), depth=2, strength_per_hex=6.0)
        )
        text = render_map(app.scenario.grid, app.scenario.initial)
        rows = text.splitlines()
        for row in rows:
            cells = row.split()
            red_side = "".join(cells[:2])
            blue_side = "".join(cells[-2:])
            assert set(red_side) <= set("rRMx")
            assert set(blue_side) <= set("bBWx")

    def test_empty_board(self):
        grid = HexGrid(3, 3)
        states = {gid: HexState(gid=gid) for gid in range(1, 10)}
        text = render_map(grid, states)
        assert set(text) <= set(". \n")



def _cells(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()]


class TestGlyphs:
    @pytest.mark.parametrize(
        "red,blue,glyph",
        [
            (0.5, 0.0, "r"),
            (1.5, 0.0, "R"),
            (2.5, 0.0, "M"),
            (10.0, 0.0, "M"),
            (0.0, 0.5, "b"),
            (0.0, 1.5, "B"),
            (0.0, 2.5, "W"),
            (0.0, 10.0, "W"),
        ],
    )
    def test_density_levels(self, red, blue, glyph):
        grid = HexGrid(1, 1)
        text = render_map(grid, {1: HexState(gid=1, red=red, blue=blue)}, 1.0)
        assert text == glyph

    def test_contested_hexes_are_exactly_the_xs(self, mid_battle):
        app, states = mid_battle
        grid = app.scenario.grid
        cells = _cells(render_map(grid, states))
        xs = {(r, c) for r, row in enumerate(cells) for c, g in enumerate(row) if g == "x"}
        contested = {grid.rc(gid) for gid, s in states.items() if s.contested}
        assert contested
        assert xs == contested

    def test_one_glyph_per_column(self, mid_battle):
        app, states = mid_battle
        grid = app.scenario.grid
        assert [len(row) for row in _cells(render_map(grid, states))] == [
            grid.cols
        ] * grid.rows

    def test_default_scale_gives_the_densest_hex_the_top_glyph(self):
        grid = HexGrid(1, 3)
        states = {
            1: HexState(gid=1, red=0.5),
            2: HexState(gid=2, red=1.5),
            3: HexState(gid=3, red=3.0),
        }
        assert render_map(grid, states) == "r R M"

    def test_explicit_scale_overrides_the_peak(self):
        grid = HexGrid(1, 2)
        states = {1: HexState(gid=1, red=5.0), 2: HexState(gid=2, blue=25.0)}
        assert render_map(grid, states, density_scale=10.0) == "r W"
