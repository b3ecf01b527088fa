"""Per-hex battlefield state (the ``hex_node_data_struct`` of Figure 2).

The original simulator keeps, per hex: the units currently present
(``my_units``), buffers for the six neighbours' units, a target list per
unit, and ``destroyed[...]`` counters indexed by direction.  We carry the
same information at force-aggregate granularity: red and blue strength per
hex, per-step departures (units marching to a neighbouring hex), and
cumulative destruction bookkeeping.

States are immutable: the platform ships committed states between
processors by reference, so node functions must *return new objects* rather
than mutate -- exactly the double-buffering discipline the platform's
``data`` / ``most_recent_data`` split encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Side", "RED", "BLUE", "Departure", "HexState"]

Side = str
RED: Side = "red"
BLUE: Side = "blue"


@dataclass(frozen=True)
class Departure:
    """A body of units leaving this hex for a neighbouring one.

    Attributes:
        target_gid: Global ID of the destination hex.
        side: ``"red"`` or ``"blue"``.
        strength: Strength (in assets) on the march.
    """

    target_gid: int
    side: Side
    strength: float

    def __post_init__(self) -> None:
        if self.side not in (RED, BLUE):
            raise ValueError(f"side must be 'red' or 'blue', got {self.side!r}")
        if self.strength < 0:
            raise ValueError(f"strength must be >= 0, got {self.strength}")


@dataclass(frozen=True)
class HexState:
    """Immutable state of one battlefield hex.

    Attributes:
        gid: Global hex ID (1-based, row-major in the terrain grid).
        red: Red strength currently in the hex.
        blue: Blue strength currently in the hex.
        departures: Units leaving this hex at the end of the current step
            (consumed by the movement round, then cleared).
        destroyed_red: Cumulative red assets destroyed *in this hex*.
        destroyed_blue: Cumulative blue assets destroyed in this hex.
        step: Simulation step this state belongs to.
    """

    gid: int
    red: float = 0.0
    blue: float = 0.0
    departures: tuple[Departure, ...] = ()
    destroyed_red: float = 0.0
    destroyed_blue: float = 0.0
    step: int = 0

    def __post_init__(self) -> None:
        if self.red < 0 or self.blue < 0:
            raise ValueError(
                f"hex {self.gid}: strengths must be >= 0 (red={self.red}, blue={self.blue})"
            )

    @property
    def nbytes(self) -> int:
        """Modelled wire size of this hex record.

        The original simulator ships the full ``hex_struct`` of Figure 2 --
        per-hex unit arrays, six neighbour buffers' worth of slots, target
        lists, and the ``destroyed[hex][2][units][7]`` counters -- on the
        order of a kilobyte per hex.  The cost model charges that, not the
        few floats of this aggregate representation.
        """
        return 1200

    @property
    def total(self) -> float:
        """Combined strength present (drives the compute grain)."""
        return self.red + self.blue

    @property
    def contested(self) -> bool:
        """Both sides present: a combat hex."""
        return self.red > 0 and self.blue > 0

    def strength(self, side: Side) -> float:
        """Strength of ``side`` in this hex."""
        if side == RED:
            return self.red
        if side == BLUE:
            return self.blue
        raise ValueError(f"unknown side {side!r}")

    def with_changes(self, **kwargs) -> "HexState":
        """Functional update: a new, validated state with the named fields
        replaced (an unknown name is ``__init__``'s ``TypeError``).  Spelled
        out rather than ``dataclasses.replace``, which re-introspects the
        fields on each call.  The node functions call the constructor
        positionally instead, which skips the keyword handling too."""
        pop = kwargs.pop
        return HexState(
            pop("gid", self.gid),
            pop("red", self.red),
            pop("blue", self.blue),
            pop("departures", self.departures),
            pop("destroyed_red", self.destroyed_red),
            pop("destroyed_blue", self.destroyed_blue),
            pop("step", self.step),
            **kwargs,
        )

    def departing(self, side: Side) -> float:
        """Total strength of ``side`` currently marching out (folded left
        to right: from 3.12 on, ``sum()`` over floats is compensated)."""
        total = 0.0
        for d in self.departures:
            if d.side == side:
                total += d.strength
        return total

    @staticmethod
    def total_strengths(states: Iterable["HexState"]) -> tuple[float, float]:
        """(red, blue) totals over a collection of hexes, including units
        on the march (conservation checks in the tests rely on this)."""
        red = blue = 0.0
        for s in states:
            red += s.red + s.departing(RED)
            blue += s.blue + s.departing(BLUE)
        return red, blue
