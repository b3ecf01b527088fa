"""Tests for hexagonal grids."""

from __future__ import annotations

import pytest

from repro.graphs import HexGrid, battlefield_grid, hex32, hex64, hex96, hex_grid


class TestHexGrid:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            HexGrid(0, 5)
        with pytest.raises(ValueError):
            HexGrid(3, -1)

    def test_num_cells(self):
        assert HexGrid(4, 8).num_cells == 32

    def test_gid_rc_roundtrip(self):
        grid = HexGrid(5, 7)
        for row in range(5):
            for col in range(7):
                assert grid.rc(grid.gid(row, col)) == (row, col)

    def test_gid_is_row_major_one_based(self):
        grid = HexGrid(3, 4)
        assert grid.gid(0, 0) == 1
        assert grid.gid(0, 3) == 4
        assert grid.gid(1, 0) == 5
        assert grid.gid(2, 3) == 12

    def test_out_of_bounds_raises(self):
        grid = HexGrid(2, 2)
        with pytest.raises(KeyError):
            grid.gid(2, 0)
        with pytest.raises(KeyError):
            grid.rc(5)
        with pytest.raises(KeyError):
            grid.rc(0)

    def test_interior_cell_has_six_neighbors(self):
        grid = HexGrid(5, 5)
        assert len(grid.neighbor_cells(2, 2)) == 6

    def test_corner_cells_have_fewer_neighbors(self):
        grid = HexGrid(5, 5)
        for r, c in ((0, 0), (0, 4), (4, 0), (4, 4)):
            assert 2 <= len(grid.neighbor_cells(r, c)) <= 4

    def test_neighbors_symmetric(self):
        grid = HexGrid(6, 6)
        for r in range(6):
            for c in range(6):
                for nr, nc in grid.neighbor_cells(r, c):
                    assert (r, c) in grid.neighbor_cells(nr, nc)

    def test_even_and_odd_rows_differ(self):
        grid = HexGrid(4, 4)
        even = set(grid.neighbor_cells(2, 2))
        odd = set(grid.neighbor_cells(1, 2))
        # Offset rows shift diagonals to opposite sides.
        assert even != odd

    def test_neighbor_directions_indices(self):
        grid = HexGrid(5, 5)
        dirs = grid.neighbor_directions(2, 2)
        assert [d for d, _ in dirs] == [0, 1, 2, 3, 4, 5]
        assert {cell for _, cell in dirs} == set(grid.neighbor_cells(2, 2))


class TestHexGraphs:
    @pytest.mark.parametrize(
        "factory,expected_nodes",
        [(hex32, 32), (hex64, 64), (hex96, 96)],
    )
    def test_paper_grids(self, factory, expected_nodes):
        g = factory()
        assert g.num_nodes == expected_nodes
        assert g.is_connected()
        assert g.max_degree() == 6

    def test_hex_grid_function(self):
        g = hex_grid(3, 5)
        assert g.num_nodes == 15

    def test_graph_matches_cell_adjacency(self):
        grid = HexGrid(4, 4)
        g = grid.to_graph()
        for row in range(4):
            for col in range(4):
                gid = grid.gid(row, col)
                expected = sorted(
                    grid.gid(nr, nc) for nr, nc in grid.neighbor_cells(row, col)
                )
                assert list(g.neighbors(gid)) == expected

    def test_battlefield_grid_default(self):
        grid = battlefield_grid()
        assert (grid.rows, grid.cols) == (32, 32)
        g = grid.to_graph()
        assert g.num_nodes == 1024
        assert g.is_connected()

    def test_graph_names(self):
        assert HexGrid(3, 4).to_graph().name == "hex12(3x4)"
        assert HexGrid(3, 4).to_graph(name="plate").name == "plate"
        assert [f().name for f in (hex32, hex64, hex96)] == ["hex32", "hex64", "hex96"]

    def test_single_cell_grid(self):
        g = hex_grid(1, 1)
        assert g.num_nodes == 1
        assert g.num_edges == 0


def _hops(graph, source: int) -> dict[int, int]:
    """Breadth-first hop counts from ``source`` over ``graph``'s edges."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _cube_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Hex distance between two odd-r offset cells, through cube coordinates."""

    def cube(row: int, col: int) -> tuple[int, int, int]:
        x = col - (row - (row & 1)) // 2
        return x, -x - row, row

    return max(abs(p - q) for p, q in zip(cube(*a), cube(*b)))


_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 7), (4, 8), (8, 8), (8, 12)]


class TestHexGeometry:
    """The grid's graph is a true hex lattice, clipped to the rectangle."""

    @pytest.mark.parametrize("rows,cols", [(2, 7), (5, 5), (4, 8), (7, 3), (9, 9)])
    def test_hops_equal_cube_distance_between_every_pair(self, rows, cols):
        grid = HexGrid(rows, cols)
        g = grid.to_graph()
        for source in g.nodes():
            hops = _hops(g, source)
            assert len(hops) == grid.num_cells
            for target, d in hops.items():
                assert d == _cube_distance(grid.rc(source), grid.rc(target))

    @pytest.mark.parametrize("radius,count", [(0, 1), (1, 6), (2, 12), (3, 18)])
    def test_ring_sizes_around_an_interior_cell(self, radius, count):
        grid = HexGrid(11, 11)
        hops = _hops(grid.to_graph(), grid.gid(5, 5))
        assert sum(1 for d in hops.values() if d == radius) == count

    @pytest.mark.parametrize("radius", [0, 1, 2, 4])
    def test_disc_sizes_around_an_interior_cell(self, radius):
        grid = HexGrid(13, 13)
        hops = _hops(grid.to_graph(), grid.gid(6, 6))
        within = sum(1 for d in hops.values() if d <= radius)
        assert within == 1 + 3 * radius * (radius + 1)

    def test_corner_disc_is_clipped(self):
        grid = HexGrid(8, 8)
        hops = _hops(grid.to_graph(), grid.gid(0, 0))
        within = sum(1 for d in hops.values() if d <= 2)
        assert 3 < within < 19

    def test_distance_along_a_row(self):
        grid = HexGrid(3, 9)
        hops = _hops(grid.to_graph(), grid.gid(0, 0))
        assert [hops[grid.gid(0, c)] for c in range(9)] == list(range(9))

    def test_distance_down_a_column(self):
        grid = HexGrid(9, 3)
        hops = _hops(grid.to_graph(), grid.gid(0, 0))
        assert [hops[grid.gid(r, 0)] for r in range(9)] == list(range(9))

    @pytest.mark.parametrize("rows,cols", _SHAPES)
    def test_edge_count(self, rows, cols):
        """One edge per adjacent pair in a row, 2*cols-1 between two rows."""
        g = HexGrid(rows, cols).to_graph()
        assert g.num_edges == rows * (cols - 1) + (rows - 1) * (2 * cols - 1)

    @pytest.mark.parametrize("rows,cols", [(4, 8), (8, 8), (8, 12)])
    def test_degree_six_cells_are_the_interior(self, rows, cols):
        grid = HexGrid(rows, cols)
        g = grid.to_graph()
        six = {grid.rc(gid) for gid in g.nodes() if g.degree(gid) == 6}
        interior = {(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)}
        assert six == interior

    def test_directions_come_back_by_their_opposite(self):
        """W/E, upper-left/lower-right and upper-right/lower-left pair up."""
        opposite = {0: 1, 1: 0, 2: 5, 3: 4, 4: 3, 5: 2}
        grid = HexGrid(6, 6)
        for row in range(6):
            for col in range(6):
                for d, (nr, nc) in grid.neighbor_directions(row, col):
                    back = dict(grid.neighbor_directions(nr, nc))
                    assert back[opposite[d]] == (row, col)

    @pytest.mark.parametrize(
        "row,col,inside",
        [
            (0, 0, True),
            (3, 4, True),
            (-1, 0, False),
            (0, -1, False),
            (4, 0, False),
            (0, 5, False),
        ],
    )
    def test_in_bounds(self, row, col, inside):
        assert HexGrid(4, 5).in_bounds(row, col) is inside

    def test_neighbors_of_an_outside_cell_raise(self):
        grid = HexGrid(3, 3)
        with pytest.raises(KeyError):
            grid.neighbor_cells(3, 0)
        with pytest.raises(KeyError):
            grid.neighbor_directions(0, -1)
