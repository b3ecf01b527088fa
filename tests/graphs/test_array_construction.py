"""The array-built graph, partitions and metrics against the loops they replaced.

``Graph.from_edges``/``validate``, ``grid2d``/``torus2d``, the band
partitioners, ``Partition.from_assignment``/``validate_assignment`` and the
partition metrics are array passes (sort + neighbour compare, one cached
``Graph.csr()``).  The loops they replaced are kept *here* as the reference:
same graphs (``==``, ``hash``, adjacency of Python ints), same numbers, and
for bad input the same exception type and message naming the first offence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    boundary_nodes,
    communication_volume,
    edge_cut,
    grid2d,
    hex32,
    hex64,
    neighbor_processors,
    part_loads,
    random64,
    random_connected_graph,
    torus2d,
    validate_assignment,
    weighted_edge_cut,
)
from repro.partitioning import (
    ColumnBandPartitioner,
    MetisLikePartitioner,
    Partition,
    RectangularPartitioner,
    RowBandPartitioner,
    balanced_factor_pair,
)

# --------------------------------------------------------------------- #
# The replaced loops
# --------------------------------------------------------------------- #


def reference_from_edges(num_nodes, edges):
    adj = [[] for _ in range(num_nodes)]
    seen = set()
    for u, v in edges:
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise ValueError(f"edge ({u}, {v}) outside 1..{num_nodes}")
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    for lst in adj:
        lst.sort()
    return Graph(adj, validate=False)


def reference_validate(graph: Graph) -> None:
    n = len(graph._adj)
    for i, nbrs in enumerate(graph._adj):
        gid = i + 1
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"duplicate neighbours at node {gid}")
        for v in nbrs:
            if not 1 <= v <= n:
                raise ValueError(f"node {gid} lists neighbour {v} outside 1..{n}")
            if v == gid:
                raise ValueError(f"self-loop on node {gid}")
            if gid not in graph._adj[v - 1]:
                raise ValueError(f"asymmetric edge ({gid}, {v})")
    for (u, v) in graph._edge_weights:
        if not (1 <= u <= n and 1 <= v <= n) or v not in graph._adj[u - 1]:
            raise ValueError(f"edge weight on missing edge ({u}, {v})")


def reference_mesh_edges(rows, cols, wrap):
    def gid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if wrap:
                edges.append((gid(r, c), gid(r, (c + 1) % cols)))
                edges.append((gid(r, c), gid((r + 1) % rows, c)))
            else:
                if c + 1 < cols:
                    edges.append((gid(r, c), gid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((gid(r, c), gid(r + 1, c)))
    return edges


def reference_edge_cut(graph, assignment):
    return sum(1 for u, v in graph.edges() if assignment[u - 1] != assignment[v - 1])


def reference_weighted_edge_cut(graph, assignment):
    return sum(
        graph.edge_weight(u, v)
        for u, v in graph.edges()
        if assignment[u - 1] != assignment[v - 1]
    )


def reference_communication_volume(graph, assignment):
    volume = 0
    for gid in graph.nodes():
        own = assignment[gid - 1]
        volume += len({assignment[v - 1] for v in graph.neighbors(gid)} - {own})
    return volume


def reference_part_loads(graph, assignment, nparts):
    loads = [0] * nparts
    for gid in graph.nodes():
        loads[assignment[gid - 1]] += graph.node_weight(gid)
    return loads


def reference_boundary_nodes(graph, assignment):
    return {
        gid
        for gid in graph.nodes()
        if any(assignment[v - 1] != assignment[gid - 1] for v in graph.neighbors(gid))
    }


def reference_neighbor_processors(graph, assignment, proc):
    out = set()
    for u, v in graph.edges():
        pu, pv = assignment[u - 1], assignment[v - 1]
        if pu != pv and proc in (pu, pv):
            out.add(pv if pu == proc else pu)
    return out


def reference_band(index, extent, nbands):
    return min(index * nbands // extent, nbands - 1)


def reference_bands(kind, rows, cols, nparts):
    cells = [divmod(i, cols) for i in range(rows * cols)]
    if kind == "row":
        nbands = min(nparts, rows)
        return [reference_band(r, rows, nbands) for r, _ in cells]
    if kind == "col":
        nbands = min(nparts, cols)
        return [reference_band(c, cols, nbands) for _, c in cells]
    pr, pc = balanced_factor_pair(nparts)
    if (rows >= cols) != (pr >= pc):
        pr, pc = pc, pr
    pr, pc = min(pr, rows), min(pc, cols)
    return [
        reference_band(r, rows, pr) * pc + reference_band(c, cols, pc) for r, c in cells
    ]


def outcome(fn):
    """What calling ``fn`` does: ``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def ints_all_the_way_down(graph: Graph) -> bool:
    return all(type(v) is int for row in graph._adj for v in row)


# --------------------------------------------------------------------- #
# Graph.from_edges / validate
# --------------------------------------------------------------------- #

# Endpoints slightly beyond 1..n, so out-of-range ids, self-loops and repeats
# in both orientations all turn up, in any order.
edge_lists = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=14
        ),
    )
)

# Mostly clean edge lists (duplicates in both orientations, nothing illegal).
clean_edge_lists = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]),
            max_size=30,
        ),
    )
)


class TestFromEdges:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists)
    def test_same_graph_or_same_first_error(self, case):
        n, edges = case
        expected = outcome(lambda: reference_from_edges(n, edges))
        actual = outcome(lambda: Graph.from_edges(n, edges))
        if expected[0] == "ok":
            assert actual[0] == "ok", actual
            assert actual[1] == expected[1] and hash(actual[1]) == hash(expected[1])
            assert actual[1]._adj == expected[1]._adj
            assert ints_all_the_way_down(actual[1])
        else:
            assert actual == expected

    @settings(max_examples=150, deadline=None)
    @given(case=clean_edge_lists)
    def test_duplicates_in_both_orientations_collapse(self, case):
        n, edges = case
        graph = Graph.from_edges(n, edges + [(v, u) for u, v in edges])
        assert graph == reference_from_edges(n, edges)
        assert graph.num_edges == len({frozenset(e) for e in edges})

    def test_array_of_edges_yields_python_int_adjacency(self):
        edges = np.array([[1, 2], [3, 2], [2, 1], [4, 1]], dtype=np.int32)
        graph = Graph.from_edges(4, edges)
        assert graph == Graph.from_edges(4, [(1, 2), (2, 3), (1, 4)])
        assert graph._adj == [(2, 4), (1, 3), (2,), (1,)]
        assert ints_all_the_way_down(graph)
        assert all(type(v) is int for v in graph.neighbors(1))
        assert all(type(x) is int for e in graph.edges() for x in e)

    def test_generator_of_edges(self):
        graph = Graph.from_edges(3, ((i, i + 1) for i in (1, 2)))
        assert graph._adj == [(2,), (1, 3), (2,)]

    def test_no_edges(self):
        assert Graph.from_edges(3, [])._adj == [(), (), ()]
        assert Graph.from_edges(0, [])._adj == []
        assert Graph.from_edges(2, np.empty((0, 2), dtype=np.int64))._adj == [(), ()]

    def test_first_offending_edge_wins(self):
        with pytest.raises(ValueError, match=r"^self-loop on node 2$"):
            Graph.from_edges(3, [(1, 2), (2, 2), (1, 9)])
        with pytest.raises(ValueError, match=r"^edge \(1, 9\) outside 1\.\.3$"):
            Graph.from_edges(3, [(1, 2), (1, 9), (2, 2)])
        # Out of range beats self-loop on the same edge.
        with pytest.raises(ValueError, match=r"^edge \(0, 0\) outside 1\.\.3$"):
            Graph.from_edges(3, [(0, 0)])

    def test_weights_ride_along(self):
        graph = Graph.from_edges(
            3, [(1, 2), (2, 3)], node_weights=[1, 2, 3], edge_weights={(2, 1): 5}
        )
        assert graph.node_weights == (1, 2, 3)
        assert graph.edge_weight(1, 2) == 5 and graph.edge_weight(2, 3) == 1
        with pytest.raises(ValueError, match=r"^edge weight on missing edge \(1, 3\)$"):
            Graph.from_edges(3, [(1, 2), (2, 3)], edge_weights={(1, 3): 2})


# Arbitrary small adjacency lists: rows may repeat a neighbour, name
# themselves, a node that does not exist, or one that does not name them back.
adjacencies = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-1, n + 2), max_size=4), min_size=n, max_size=n
    )
)


class TestValidate:
    @settings(max_examples=400, deadline=None)
    @given(adjacency=adjacencies)
    def test_same_verdict_and_message_as_the_loop(self, adjacency):
        graph = Graph(adjacency, validate=False)
        assert outcome(graph.validate) == outcome(lambda: reference_validate(graph))

    @settings(max_examples=100, deadline=None)
    @given(case=clean_edge_lists, drop=st.integers(0, 10**6))
    def test_one_missing_back_edge(self, case, drop):
        n, edges = case
        good = reference_from_edges(n, edges)
        entries = [(i, j) for i, row in enumerate(good._adj) for j in range(len(row))]
        if not entries:
            return
        i, j = entries[drop % len(entries)]
        rows = [list(row) for row in good._adj]
        del rows[i][j]
        broken = Graph(rows, validate=False)
        expected = outcome(lambda: reference_validate(broken))
        assert expected[0] is ValueError and expected[1].startswith("asymmetric edge")
        assert outcome(broken.validate) == expected

    def test_hand_built_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match=r"^asymmetric edge \(1, 2\)$"):
            Graph([(2,), (), ()])
        with pytest.raises(ValueError, match=r"^asymmetric edge \(2, 3\)$"):
            Graph([(2,), (1, 3), ()])

    def test_a_nodes_duplicates_come_before_its_neighbours(self):
        with pytest.raises(ValueError, match=r"^duplicate neighbours at node 1$"):
            Graph([(9, 9), ()])
        with pytest.raises(ValueError, match=r"^node 1 lists neighbour 9 outside 1\.\.2$"):
            Graph([(9,), (2, 2)])

    def test_edge_weight_on_missing_edge(self):
        with pytest.raises(ValueError, match=r"^edge weight on missing edge \(1, 3\)$"):
            Graph([(2,), (1, 3), (2,)], edge_weights={(1, 3): 4})
        with pytest.raises(ValueError, match=r"^edge weight on missing edge \(1, 7\)$"):
            Graph([(2,), (1,)], edge_weights={(1, 7): 4})
        with pytest.raises(ValueError, match=r"^edge weight on missing edge \(1, 2\)$"):
            Graph([(), ()], edge_weights={(1, 2): 4})


class TestCsr:
    def test_rows_are_the_adjacency(self):
        graph = random_connected_graph(30, avg_degree=3.0, seed=4)
        indptr, indices = graph.csr()
        assert indptr.dtype == indices.dtype == np.int64
        for gid in graph.nodes():
            assert tuple(indices[indptr[gid - 1] : indptr[gid]].tolist()) == graph.neighbors(gid)

    def test_built_once_and_read_only(self):
        graph = grid2d(3, 4)
        csr = graph.csr()
        assert graph.csr() is csr
        for array in csr:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7

    def test_row_gather_open_and_closed(self):
        graph = Graph([(2, 3), (1,), (1,), ()])
        csr = graph.csr()
        nodes = np.array([3, 0, 2])  # 0-based; node 4 is isolated
        lens, flat = csr.rows(nodes)
        assert (lens.tolist(), flat.tolist()) == ([0, 2, 1], [2, 3, 1])
        lens, flat = csr.rows(nodes, closed=True)
        assert (lens.tolist(), flat.tolist()) == ([1, 3, 2], [4, 1, 2, 3, 3, 1])
        lens, flat = csr.rows(np.array([], dtype=np.intp), closed=True)
        assert (lens.tolist(), flat.tolist()) == ([], [])

    def test_neighbor_rows_are_the_neighbours_range_checked_once(self):
        graph = grid2d(3, 3)
        rows = list(graph.neighbor_rows([5, 1, 9]))
        assert all(row is graph.neighbors(gid) for row, gid in zip(rows, [5, 1, 9]))
        assert list(graph.neighbor_rows([])) == []
        for bad in ([1, 0], [10, 2]):
            with pytest.raises(KeyError, match="outside 1..9"):
                graph.neighbor_rows(bad)

    def test_a_derived_graph_gets_its_own(self):
        graph = grid2d(2, 2)
        graph.csr()
        heavier = graph.with_node_weights([1, 2, 3, 4])
        assert heavier.csr() is not graph.csr()
        assert heavier.csr().indices.tolist() == graph.csr().indices.tolist()


class TestMeshes:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 1), (2, 2), (3, 5), (6, 4)])
    def test_grid2d(self, rows, cols):
        graph = grid2d(rows, cols)
        assert graph == reference_from_edges(rows * cols, reference_mesh_edges(rows, cols, False))
        assert ints_all_the_way_down(graph) and graph.name == f"grid{rows}x{cols}"

    @pytest.mark.parametrize("rows,cols", [(3, 3), (3, 5), (6, 4)])
    def test_torus2d(self, rows, cols):
        graph = torus2d(rows, cols)
        assert graph == reference_from_edges(rows * cols, reference_mesh_edges(rows, cols, True))
        assert ints_all_the_way_down(graph) and graph.name == f"torus{rows}x{cols}"


# --------------------------------------------------------------------- #
# Partitions and their metrics
# --------------------------------------------------------------------- #


def assert_metrics_match(graph, assignment, nparts):
    for ours, reference in (
        (edge_cut, reference_edge_cut),
        (weighted_edge_cut, reference_weighted_edge_cut),
        (communication_volume, reference_communication_volume),
    ):
        value = ours(graph, assignment)
        assert type(value) is int and value == reference(graph, assignment), ours.__name__
    loads = part_loads(graph, assignment, nparts)
    assert loads == reference_part_loads(graph, assignment, nparts)
    assert all(type(x) is int for x in loads)
    boundary = boundary_nodes(graph, assignment)
    assert boundary == reference_boundary_nodes(graph, assignment)
    assert all(type(gid) is int for gid in boundary)
    for proc in range(nparts):
        peers = neighbor_processors(graph, assignment, proc)
        assert peers == reference_neighbor_processors(graph, assignment, proc)
        assert all(type(p) is int for p in peers)


class TestMetrics:
    @pytest.mark.parametrize("make", [hex32, hex64, random64], ids=["hex32", "hex64", "random64"])
    @pytest.mark.parametrize("nparts", [1, 2, 4, 16])
    def test_paper_graphs(self, make, nparts):
        graph = make()
        partition = MetisLikePartitioner(seed=0).partition(graph, nparts)
        assert_metrics_match(graph, partition.assignment, nparts)
        assert partition.edge_cut() == reference_edge_cut(graph, partition.assignment)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 24),
        seed=st.integers(0, 10**6),
        nparts=st.integers(1, 6),
        data=st.data(),
    )
    def test_random_graphs_weights_and_assignments(self, n, seed, nparts, data):
        plain = random_connected_graph(n, avg_degree=3.0, seed=seed)
        edges = list(plain.edges())
        graph = Graph(
            plain._adj,
            node_weights=data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
            edge_weights={
                e: data.draw(st.integers(1, 7))
                for e in data.draw(st.lists(st.sampled_from(edges), unique=True))
            } if edges else None,
        )
        assignment = data.draw(st.lists(st.integers(0, nparts - 1), min_size=n, max_size=n))
        assert_metrics_match(graph, assignment, nparts)
        assert_metrics_match(graph, tuple(assignment), nparts)

    def test_graph_without_nodes_or_edges(self):
        assert_metrics_match(Graph([]), [], 2)
        assert_metrics_match(Graph([(), ()]), [0, 1], 2)


class TestAssignments:
    def test_first_stray_processor_is_named(self):
        graph = grid2d(2, 3)
        with pytest.raises(ValueError, match=r"^node 2 assigned to processor 5 outside \[0, 2\)$"):
            validate_assignment(graph, [0, 5, 1, -1, 0, 0], 2)
        with pytest.raises(ValueError, match=r"^node 4 assigned to processor -1 outside \[0, 2\)$"):
            validate_assignment(graph, [0, 1, 1, -1, 0, 9], 2)
        with pytest.raises(ValueError, match="assignment covers 2 nodes, graph has 6"):
            validate_assignment(graph, [0, 1], 2)
        validate_assignment(Graph([]), [], 1)

    def test_from_assignment_takes_arrays_and_keeps_python_ints(self):
        graph = grid2d(2, 2)
        for raw in ([0, 1, 1, 0], (0, 1, 1, 0), np.array([0, 1, 1, 0], dtype=np.int32),
                    np.array([0.0, 1.0, 1.0, 0.0]), [np.int64(0), True, 1, 0]):
            partition = Partition.from_assignment(graph, raw, 2)
            assert partition.assignment == (0, 1, 1, 0)
            assert all(type(p) is int for p in partition.assignment)
        with pytest.raises(ValueError, match="node 3 assigned to processor 2"):
            Partition.from_assignment(graph, np.array([0, 1, 2, 0]), 2)


BANDS = {"row": RowBandPartitioner, "col": ColumnBandPartitioner, "rect": RectangularPartitioner}


class TestBands:
    @pytest.mark.parametrize("kind", sorted(BANDS))
    @settings(max_examples=120, deadline=None)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9), nparts=st.integers(2, 24))
    def test_same_assignment_as_the_per_node_formula(self, kind, rows, cols, nparts):
        graph = grid2d(rows, cols)
        partition = BANDS[kind](rows, cols).partition(graph, nparts)
        assert list(partition.assignment) == reference_bands(kind, rows, cols, nparts)
        assert all(type(p) is int for p in partition.assignment)
        assert partition.nparts == nparts and partition.method == BANDS[kind].name
