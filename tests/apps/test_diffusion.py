"""Tests for the Jacobi diffusion application."""

from __future__ import annotations

import pytest

from repro.apps import (
    hot_edge_plate,
    jacobi_step_reference,
    make_jacobi_fn,
    residual,
)
from repro.core import PlatformConfig, run_platform
from repro.mpi import IDEAL
from repro.partitioning import MetisLikePartitioner


class TestJacobiFn:
    def test_omega_validated(self):
        with pytest.raises(ValueError):
            make_jacobi_fn({}, omega=0.0)
        with pytest.raises(ValueError):
            make_jacobi_fn({}, omega=1.5)

    def test_boundary_pinned(self):
        from repro.core import NodeView

        class Ctx:
            num_nodes = 4

            def work(self, s):
                pass

        fn = make_jacobi_fn({1: 100.0}, grain=0.0)
        view = NodeView(global_id=1, value=5.0, neighbors=((2, 0.0),), iteration=1)
        assert fn(view, Ctx()) == 100.0

    def test_interior_relaxes_to_mean(self):
        from repro.core import NodeView

        class Ctx:
            num_nodes = 4

            def work(self, s):
                pass

        fn = make_jacobi_fn({}, omega=1.0, grain=0.0)
        view = NodeView(
            global_id=2, value=0.0, neighbors=((1, 10.0), (3, 20.0)), iteration=1
        )
        assert fn(view, Ctx()) == 15.0

    def test_mean_reduces_strictly_left_to_right(self):
        """Same float sequence as the bulk twin's ``sum_neighbors()`` on every
        interpreter (builtin ``sum()`` is compensated from Python 3.12 on)."""
        import random

        from repro.core import NodeView

        class Ctx:
            def work(self, s):
                pass

        fn = make_jacobi_fn({}, omega=1.0, grain=0.0)
        rng = random.Random(2007)
        for _ in range(2000):
            xs = [rng.uniform(25, 75) for _ in range(rng.randint(3, 7))]
            total = 0.0
            for x in xs:
                total += x
            view = NodeView(
                global_id=1, value=0.0, neighbors=tuple(enumerate(xs, 2)), iteration=1
            )
            assert fn(view, Ctx()) == total / len(xs)


class TestPlateProblem:
    @pytest.fixture(scope="class")
    def plate(self):
        return hot_edge_plate(10, 10)

    def test_platform_matches_reference(self, plate):
        graph, boundary, init_value = plate
        values = {gid: init_value(gid) for gid in graph.nodes()}
        for _ in range(15):
            values = jacobi_step_reference(graph, values, boundary)

        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        result = run_platform(
            graph,
            make_jacobi_fn(boundary, grain=0.0),
            partition,
            config=PlatformConfig(iterations=15),
            machine=IDEAL,
            init_value=init_value,
        )
        for gid in graph.nodes():
            assert result.values[gid] == pytest.approx(values[gid], abs=1e-12)

    def test_residual_decreases(self, plate):
        graph, boundary, init_value = plate
        values = {gid: init_value(gid) for gid in graph.nodes()}
        r0 = residual(graph, values, boundary)
        for _ in range(40):
            values = jacobi_step_reference(graph, values, boundary)
        assert residual(graph, values, boundary) < r0 * 0.5

    def test_solution_bounded_by_boundary_values(self, plate):
        graph, boundary, init_value = plate
        values = {gid: init_value(gid) for gid in graph.nodes()}
        for _ in range(60):
            values = jacobi_step_reference(graph, values, boundary)
        assert all(-1e-9 <= v <= 100.0 + 1e-9 for v in values.values())

    def test_heat_flows_from_hot_edge(self, plate):
        graph, boundary, init_value = plate
        values = {gid: init_value(gid) for gid in graph.nodes()}
        for _ in range(60):
            values = jacobi_step_reference(graph, values, boundary)
        # interior row near the hot edge is warmer than near the cold edge
        near_hot = values[1 * 10 + 5 + 1]
        near_cold = values[8 * 10 + 5 + 1]
        assert near_hot > near_cold

    def test_underrelaxation_also_converges(self, plate):
        graph, boundary, init_value = plate
        values = {gid: init_value(gid) for gid in graph.nodes()}
        for _ in range(60):
            values = jacobi_step_reference(graph, values, boundary, omega=0.7)
        assert residual(graph, values, boundary) < 5.0
