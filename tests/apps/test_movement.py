"""Tests for the movement doctrine."""

from __future__ import annotations

import pytest

from repro.apps.battlefield import BLUE, HexState, MovementModel, RED


def col_of_factory(cols=8):
    return lambda gid: (gid - 1) % cols


def hexstate(gid, red=0.0, blue=0.0):
    return HexState(gid=gid, red=red, blue=blue)


def decide(model, side, own_gid, own_strength, enemy_here, neighbors, column_of):
    """The departures of ``side`` as a list, from neighbour states."""
    pairs = tuple((s.gid, s) for s in neighbors)
    advance_to = model.advance_target(side, own_gid, [g for g, _ in pairs], column_of)
    departure = model.departure(side, own_strength, enemy_here, pairs, advance_to)
    return [] if departure is None else [departure]


class TestValidation:
    def test_fractions_in_range(self):
        with pytest.raises(ValueError):
            MovementModel(advance_fraction=1.5)
        with pytest.raises(ValueError):
            MovementModel(retreat_fraction=-0.1)

    def test_retreat_ratio_exceeds_one(self):
        with pytest.raises(ValueError):
            MovementModel(retreat_ratio=0.9)

    def test_min_move_nonnegative(self):
        with pytest.raises(ValueError):
            MovementModel(min_move=-1.0)


class TestAdvanceOnObjective:
    def test_red_marches_east(self):
        model = MovementModel(advance_fraction=0.5)
        # hex at col 1; neighbours at cols 0 and 2
        deps = decide(
            model, RED, 2, 4.0, 0.0, [hexstate(1), hexstate(3)], col_of_factory()
        )
        assert len(deps) == 1
        assert deps[0].target_gid == 3
        assert deps[0].strength == 2.0

    def test_blue_marches_west(self):
        model = MovementModel(advance_fraction=0.5)
        deps = decide(
            model, BLUE, 2, 4.0, 0.0, [hexstate(1), hexstate(3)], col_of_factory()
        )
        assert deps[0].target_gid == 1

    def test_red_at_east_edge_holds(self):
        model = MovementModel()
        col_of = col_of_factory(cols=3)
        # hex 3 is at col 2 (east edge); only westward neighbour exists
        deps = decide(
            model, RED, 3, 4.0, 0.0, [hexstate(2)], col_of
        )
        assert deps == []

    def test_small_force_holds(self):
        model = MovementModel(min_move=1.0, advance_fraction=0.5)
        deps = decide(
            model, RED, 2, 1.5, 0.0, [hexstate(3)], col_of_factory()
        )
        assert deps == []  # 0.75 <= min_move

    def test_no_neighbors_no_move(self):
        model = MovementModel()
        assert decide(model, RED, 1, 9.0, 0.0, [], col_of_factory()) == []


class TestEngage:
    def test_moves_toward_strongest_enemy(self):
        model = MovementModel(advance_fraction=0.5)
        deps = decide(
            model, RED, 2, 8.0, 0.0,
            [hexstate(1, blue=1.0), hexstate(3, blue=5.0)],
            col_of_factory(),
        )
        assert deps[0].target_gid == 3
        assert deps[0].side == RED

    def test_does_not_charge_overwhelming_force(self):
        model = MovementModel(advance_fraction=0.5, retreat_ratio=3.0)
        deps = decide(
            model, RED, 2, 2.0, 0.0, [hexstate(3, blue=50.0)], col_of_factory()
        )
        assert deps == []

    def test_stands_when_enemy_in_own_hex(self):
        model = MovementModel()
        deps = decide(
            model, RED, 2, 5.0, 4.0, [hexstate(1), hexstate(3)], col_of_factory()
        )
        assert deps == []


class TestRetreat:
    def test_retreats_when_overrun(self):
        model = MovementModel(retreat_fraction=0.75, retreat_ratio=3.0)
        deps = decide(
            model, RED, 2, 1.0, 4.0,
            [hexstate(1, red=3.0), hexstate(3, blue=3.0)],
            col_of_factory(),
        )
        assert len(deps) == 1
        assert deps[0].target_gid == 1  # friendliest neighbour
        assert deps[0].strength == 0.75

    def test_retreat_prefers_friendly_hex(self):
        model = MovementModel()
        deps = decide(
            model, BLUE, 2, 1.0, 5.0,
            [hexstate(1, red=9.0), hexstate(3, blue=2.0)],
            col_of_factory(),
        )
        assert deps[0].target_gid == 3
