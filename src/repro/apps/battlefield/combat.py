"""Combat resolution: targeting and attrition.

Each unit engages every enemy-held hex it can see -- its own hex at full
intensity and the six neighbouring hexes at reduced intensity ([DMP98]'s
per-direction targeting, Figure 2's ``target``/``destroyed`` bookkeeping).
Attrition follows a Lanchester-style square law: the damage a hex's
defenders take is proportional to the firepower aimed at them.

Crucially, the damage a hex receives depends only on its own state and its
immediate neighbours' states, so every hex can resolve its own losses from
the platform's one-hop view -- no two-hop information is ever needed.  The
neighbours enter only through their summed strengths, which the caller folds
once (left to right, so the floats do not depend on the interpreter's
``sum()``) and shares with the movement rules.
"""

from __future__ import annotations

__all__ = ["CombatModel"]


class CombatModel:
    """Attrition parameters and the incoming-fire computation.

    Attributes:
        kill_rate: Fraction of aimed firepower converted to destroyed
            assets per step.
        adjacent_intensity: Fire intensity into neighbouring hexes relative
            to the unit's own hex (range attenuation).
    """

    def __init__(self, kill_rate: float = 0.04, adjacent_intensity: float = 0.5) -> None:
        if not 0.0 <= kill_rate <= 1.0:
            raise ValueError(f"kill_rate must be in [0, 1], got {kill_rate}")
        if not 0.0 <= adjacent_intensity <= 1.0:
            raise ValueError(
                f"adjacent_intensity must be in [0, 1], got {adjacent_intensity}"
            )
        self.kill_rate = kill_rate
        self.adjacent_intensity = adjacent_intensity

    def incoming_fire(
        self, red: float, blue: float, red_near: float, blue_near: float
    ) -> tuple[float, float]:
        """Firepower aimed at a hex holding ``red`` and ``blue`` whose
        neighbours hold ``red_near`` and ``blue_near`` between them.

        Returns ``(fire_at_red, fire_at_blue)``: blue strength in and around
        the hex shoots at red defenders and vice versa.  Fire only counts
        when there is something to shoot at (units do not waste fire on
        empty hexes).
        """
        fire_at_red = 0.0
        fire_at_blue = 0.0
        if red > 0:
            fire_at_red = blue + self.adjacent_intensity * blue_near
        if blue > 0:
            fire_at_blue = red + self.adjacent_intensity * red_near
        return fire_at_red, fire_at_blue

    def resolve(
        self, red: float, blue: float, red_near: float, blue_near: float
    ) -> tuple[float, float, float, float]:
        """Apply one step of attrition to a hex (arguments as
        :meth:`incoming_fire`).

        Returns ``(new_red, new_blue, red_losses, blue_losses)``; losses
        are capped at the strength present.
        """
        fire_at_red, fire_at_blue = self.incoming_fire(red, blue, red_near, blue_near)
        red_losses = min(red, self.kill_rate * fire_at_red)
        blue_losses = min(blue, self.kill_rate * fire_at_blue)
        return red - red_losses, blue - blue_losses, red_losses, blue_losses
