"""Tests for the combat (attrition) model."""

from __future__ import annotations

import pytest

from repro.apps.battlefield import CombatModel


class TestValidation:
    def test_kill_rate_range(self):
        with pytest.raises(ValueError):
            CombatModel(kill_rate=1.5)
        with pytest.raises(ValueError):
            CombatModel(kill_rate=-0.1)

    def test_adjacent_intensity_range(self):
        with pytest.raises(ValueError):
            CombatModel(adjacent_intensity=2.0)


class TestIncomingFire:
    def test_no_defenders_no_fire(self):
        model = CombatModel()
        fire_red, fire_blue = model.incoming_fire(0.0, 0.0, red_near=5.0, blue_near=5.0)
        assert fire_red == 0.0 and fire_blue == 0.0

    def test_own_hex_full_intensity(self):
        model = CombatModel(adjacent_intensity=0.5)
        fire_red, _ = model.incoming_fire(1.0, 4.0, 0.0, 0.0)
        assert fire_red == 4.0

    def test_adjacent_attenuated(self):
        model = CombatModel(adjacent_intensity=0.5)
        # two neighbours holding 4 and 2 blue
        fire_red, _ = model.incoming_fire(1.0, 0.0, red_near=0.0, blue_near=6.0)
        assert fire_red == 3.0

    def test_symmetric_roles(self):
        model = CombatModel(adjacent_intensity=0.5)
        fire_red, fire_blue = model.incoming_fire(2.0, 2.0, 4.0, 4.0)
        assert fire_red == fire_blue == 4.0


class TestResolve:
    def test_losses_proportional(self):
        model = CombatModel(kill_rate=0.1, adjacent_intensity=0.5)
        red, blue, red_losses, blue_losses = model.resolve(10.0, 5.0, 0.0, 0.0)
        assert red_losses == pytest.approx(0.5)   # 0.1 * 5
        assert blue_losses == pytest.approx(1.0)  # 0.1 * 10
        assert red == pytest.approx(9.5)
        assert blue == pytest.approx(4.0)

    def test_losses_capped_at_present_strength(self):
        model = CombatModel(kill_rate=1.0)
        red, _, red_losses, _ = model.resolve(1.0, 100.0, 0.0, 0.0)
        assert red == 0.0
        assert red_losses == 1.0

    def test_peace_means_no_losses(self):
        model = CombatModel()
        red, blue, red_losses, blue_losses = model.resolve(5.0, 0.0, 0.0, 0.0)
        assert (red, blue, red_losses, blue_losses) == (5.0, 0.0, 0.0, 0.0)

    def test_strength_never_negative(self):
        model = CombatModel(kill_rate=1.0, adjacent_intensity=1.0)
        red, blue, *_ = model.resolve(0.5, 0.5, red_near=100.0, blue_near=100.0)
        assert red >= 0.0 and blue >= 0.0
