"""Tests for the neighbour-average application."""

from __future__ import annotations

import random

import pytest

from repro.apps import COARSE_GRAIN, FINE_GRAIN, make_average_fn, neighbor_average
from repro.core import NodeView


class _Ctx:
    def __init__(self):
        self.charged = 0.0
        self.num_nodes = 10

    def work(self, seconds):
        self.charged += seconds


def view(value, neighbors, gid=1, iteration=1):
    return NodeView(
        global_id=gid,
        value=value,
        neighbors=tuple(neighbors),
        iteration=iteration,
    )


class TestNeighborAverage:
    def test_average_includes_self(self):
        assert neighbor_average(view(10.0, [(2, 20.0), (3, 30.0)])) == pytest.approx(20.0)

    def test_isolated_node_keeps_value(self):
        assert neighbor_average(view(7.0, [])) == 7.0

    def test_reduces_strictly_left_to_right(self):
        """The bulk twin adds ``[own, n1, n2, ...]`` in order from zero; the
        scalar path must be that same float sequence on every interpreter
        (builtin ``sum()`` is compensated from Python 3.12 on and is not)."""
        rng = random.Random(2007)
        for _ in range(2000):
            xs = [rng.uniform(25, 75) for _ in range(rng.randint(3, 7))]
            total = 0.0
            for x in xs:
                total += x
            node = view(xs[0], list(enumerate(xs[1:], start=2)))
            assert neighbor_average(node) == total / len(xs)

    def test_matches_paper_grain_constants(self):
        assert FINE_GRAIN == pytest.approx(0.3e-3)
        assert COARSE_GRAIN == pytest.approx(3e-3)
        assert COARSE_GRAIN / FINE_GRAIN == pytest.approx(10.0)


class TestMakeAverageFn:
    def test_charges_grain(self):
        fn = make_average_fn(0.5)
        ctx = _Ctx()
        fn(view(1.0, [(2, 3.0)]), ctx)
        assert ctx.charged == 0.5

    def test_returns_average(self):
        fn = make_average_fn(0.0)
        ctx = _Ctx()
        assert fn(view(0.0, [(2, 6.0)]), ctx) == 3.0

    def test_negative_grain_rejected(self):
        with pytest.raises(ValueError):
            make_average_fn(-1.0)
