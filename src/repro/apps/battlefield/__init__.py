"""Battlefield management simulation (the existing application of §2.2/§5.3)."""

from .combat import CombatModel
from .movement import MovementModel
from .scenario import (
    Scenario,
    general_engagement,
    meeting_engagement,
    opposing_fronts,
    single_combat_zone,
)
from .render import render_map
from .simulator import BattlefieldApp, BattlefieldCosts, simulate_sequential
from .state import BLUE, RED, Departure, HexState

__all__ = [
    "BLUE",
    "BattlefieldApp",
    "BattlefieldCosts",
    "CombatModel",
    "Departure",
    "HexState",
    "MovementModel",
    "RED",
    "Scenario",
    "general_engagement",
    "meeting_engagement",
    "render_map",
    "opposing_fronts",
    "simulate_sequential",
    "single_combat_zone",
]
