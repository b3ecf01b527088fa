"""Tests for battlefield hex states and departures."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.apps.battlefield import BLUE, Departure, HexState, RED


class TestDeparture:
    def test_valid(self):
        d = Departure(target_gid=5, side=RED, strength=2.0)
        assert d.target_gid == 5

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            Departure(1, "green", 1.0)

    def test_negative_strength(self):
        with pytest.raises(ValueError):
            Departure(1, RED, -0.5)


class TestHexState:
    def test_defaults_empty(self):
        s = HexState(gid=1)
        assert s.total == 0.0
        assert not s.contested
        assert s.step == 0

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            HexState(gid=1, red=-1.0)

    def test_contested(self):
        assert HexState(gid=1, red=1.0, blue=1.0).contested
        assert not HexState(gid=1, red=1.0).contested

    def test_strength_lookup(self):
        s = HexState(gid=1, red=2.0, blue=3.0)
        assert s.strength(RED) == 2.0
        assert s.strength(BLUE) == 3.0
        with pytest.raises(ValueError):
            s.strength("green")

    def test_with_changes(self):
        s = HexState(gid=1, red=2.0)
        t = s.with_changes(red=5.0, step=3)
        assert t.red == 5.0 and t.step == 3
        assert s.red == 2.0  # immutable original

    def test_with_changes_equals_dataclasses_replace(self):
        """The directly built state is the one ``replace`` would build: equal,
        same hash, repr and pickle bytes (checkpoints and digests pickle it),
        and as frozen as any other."""
        every_field = dict(
            gid=4,
            red=2.0,
            blue=1.5,
            departures=(Departure(5, RED, 0.5),),
            destroyed_red=0.125,
            destroyed_blue=0.75,
            step=2,
        )
        # ``with_changes`` names the fields one by one: a new one goes there
        # and here.
        assert set(every_field) == {f.name for f in dataclasses.fields(HexState)}
        s = HexState(**every_field)
        changes = dict(red=0.0, departures=(), destroyed_blue=0.25, step=3)
        ours, theirs = s.with_changes(**changes), dataclasses.replace(s, **changes)
        assert ours == theirs and hash(ours) == hash(theirs) and repr(ours) == repr(theirs)
        assert pickle.dumps(ours) == pickle.dumps(theirs)
        assert s.with_changes() == s and s.with_changes() is not s
        with pytest.raises(AttributeError):
            ours.red = 5.0  # type: ignore[misc]

    def test_with_changes_still_validates(self):
        with pytest.raises(ValueError, match="strengths must be >= 0"):
            HexState(gid=1, red=2.0).with_changes(red=-1.0)

    def test_with_changes_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="strenght"):
            HexState(gid=1).with_changes(strenght=1.0)

    def test_departing(self):
        s = HexState(
            gid=1,
            red=1.0,
            departures=(Departure(2, RED, 0.5), Departure(3, BLUE, 0.25)),
        )
        assert s.departing(RED) == 0.5
        assert s.departing(BLUE) == 0.25

    def test_total_strengths_counts_marchers(self):
        states = [
            HexState(gid=1, red=1.0, departures=(Departure(2, RED, 0.5),)),
            HexState(gid=2, blue=2.0),
        ]
        red, blue = HexState.total_strengths(states)
        assert red == 1.5
        assert blue == 2.0

    def test_nbytes_models_fat_hex_struct(self):
        assert HexState(gid=1).nbytes >= 1000

    def test_immutability(self):
        s = HexState(gid=1)
        with pytest.raises(AttributeError):
            s.red = 5.0  # type: ignore[misc]
