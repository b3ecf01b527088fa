"""Movement doctrine: where units march after combat.

Each side decides its departures from purely local (one-hop) information:

* **engage** -- enemy visible in a neighbouring hex: a fraction of the
  force advances into the neighbouring hex with the strongest enemy
  presence (mass against the threat);
* **advance** -- no enemy visible: a fraction marches toward the side's
  objective (red pushes east, blue pushes west), which is what makes the
  two fronts collide mid-terrain and the combat zone "form dynamically";
* **retreat** -- own hex overrun (enemy locally outnumbers the side by the
  retreat ratio): fall back to the friendliest neighbouring hex.

Only the hex itself computes its departures; neighbours merely read the
resulting ``departures`` tuple during the movement round, so no two-hop
knowledge is required anywhere.

Every choice among neighbours is one pass over the ``(gid, state)`` pairs
with an explicit tie-break on the gid, so the result does not depend on the
adjacency order.  The advance target depends only on the topology
(:meth:`MovementModel.advance_target`), so callers may compute it once per
hex.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .state import RED, Departure, HexState, Side

__all__ = ["MovementModel"]

#: Maps a global hex ID to its grid column (for objective-directed marches).
ColumnOf = Callable[[int], int]


class MovementModel:
    """Movement parameters and the departure decision.

    Attributes:
        advance_fraction: Share of a hex's force that marches when moving
            toward the objective or toward the enemy.
        retreat_fraction: Share that falls back when overrun.
        retreat_ratio: Local enemy:own strength ratio that triggers retreat.
        min_move: Strength below which a force stays put (stragglers hold).
    """

    def __init__(
        self,
        advance_fraction: float = 0.5,
        retreat_fraction: float = 0.75,
        retreat_ratio: float = 3.0,
        min_move: float = 0.25,
    ) -> None:
        if not 0.0 <= advance_fraction <= 1.0:
            raise ValueError(f"advance_fraction must be in [0, 1], got {advance_fraction}")
        if not 0.0 <= retreat_fraction <= 1.0:
            raise ValueError(f"retreat_fraction must be in [0, 1], got {retreat_fraction}")
        if retreat_ratio <= 1.0:
            raise ValueError(f"retreat_ratio must exceed 1, got {retreat_ratio}")
        if min_move < 0:
            raise ValueError(f"min_move must be >= 0, got {min_move}")
        self.advance_fraction = advance_fraction
        self.retreat_fraction = retreat_fraction
        self.retreat_ratio = retreat_ratio
        self.min_move = min_move

    @staticmethod
    def advance_target(
        side: Side, own_gid: int, neighbor_gids: Iterable[int], column_of: ColumnOf
    ) -> int | None:
        """The neighbour ``side`` marches to on its objective, or ``None``.

        Red pushes to higher columns, blue to lower ones; among neighbours
        in the furthest column the lowest gid wins.  ``None`` when no
        neighbour lies ahead (the map edge in the objective direction).
        """
        east = side == RED
        dest = None
        dest_col = column_of(own_gid)
        for gid in neighbor_gids:
            col = column_of(gid)
            if (col > dest_col if east else col < dest_col) or (
                col == dest_col and dest is not None and gid < dest
            ):
                dest, dest_col = gid, col
        return dest

    def departure(
        self,
        side: Side,
        own_strength: float,
        enemy_here: float,
        neighbors: Sequence[tuple[int, HexState]],
        advance_to: int | None,
    ) -> Departure | None:
        """The departure of ``side`` from a hex, or ``None`` if it holds.

        Args:
            side: ``"red"`` or ``"blue"``.
            own_strength: Post-combat strength of this side in the hex.
            enemy_here: Post-combat enemy strength sharing the hex.
            neighbors: ``(gid, committed state)`` of each neighbour.
            advance_to: The hex's :meth:`advance_target` for ``side``.
        """
        if own_strength <= self.min_move or not neighbors:
            return None
        red = side == RED

        # Retreat: locally overrun.  Fall back where enemy - own is least.
        if enemy_here > self.retreat_ratio * max(own_strength, 1e-9):
            amount = self.retreat_fraction * own_strength
            if amount <= self.min_move:
                return None
            dest = None
            for gid, s in neighbors:
                key = s.blue - s.red if red else s.red - s.blue
                if dest is None or key < least or (key == least and gid < dest):
                    dest, least = gid, key
            return Departure(dest, side, amount)

        # Engage: mass toward the strongest visible enemy concentration.
        dest = None
        for gid, s in neighbors:
            enemy = s.blue if red else s.red
            if enemy > 0 and (
                dest is None or enemy > most or (enemy == most and gid < dest)
            ):
                dest, most = gid, enemy
        if dest is not None:
            amount = self.advance_fraction * own_strength
            # Do not charge into a hex that massively outguns the mover.
            if most > self.retreat_ratio * amount or amount <= self.min_move:
                return None
            return Departure(dest, side, amount)
        if enemy_here > 0:
            return None  # enemy in our own hex: stand and fight

        # Advance on the objective.
        if advance_to is None:
            return None  # at the map edge in the objective direction
        amount = self.advance_fraction * own_strength
        if amount <= self.min_move:
            return None
        return Departure(advance_to, side, amount)
