"""The battlefield simulator as an iC2mpi plug-in.

Each simulation step is two compute/communicate rounds ("the computation
and communication function sequence is called more than once, rather than
just once" -- section 2.2):

1. **combat round** -- every hex resolves the fire aimed at it, applies
   attrition, and decides its departures (units marching out);
2. **movement round** -- every hex removes nothing further (departures left
   in round 1 already excluded the marchers) and absorbs the arrivals its
   neighbours dispatched toward it.

The per-hex compute grain scales with the strength present, so combat zones
are computationally hot -- the "load dynamically changes with both time and
space" property the thesis cites as the reason battlefield simulation is an
interesting load-balancing subject.

A sequential reference implementation (:func:`simulate_sequential`) computes
the same evolution without the platform; tests assert that platform runs on
any processor count produce bit-identical states.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.compute import ComputeContext, NodeFn, NodeView
from ...core.config import PlatformConfig
from .combat import CombatModel
from .movement import MovementModel
from .scenario import Scenario
from .state import BLUE, RED, HexState

__all__ = ["BattlefieldCosts", "BattlefieldApp", "simulate_sequential"]


@dataclass(frozen=True)
class BattlefieldCosts:
    """Virtual compute-grain constants per hex per round.

    Calibrated so a 32x32 battlefield runs ~0.09 s per step on one
    processor, matching Tables 7-11's sequential column.

    Attributes:
        combat_base: Fixed combat-round cost per hex.
        combat_per_strength: Additional combat cost per unit of strength
            present (targeting + attrition bookkeeping per unit).
        move_base: Fixed movement-round cost per hex.
        move_per_arrival: Cost per absorbed arrival record.
    """

    combat_base: float = 15e-6
    combat_per_strength: float = 9e-6
    move_base: float = 8e-6
    move_per_arrival: float = 4e-6


class BattlefieldApp:
    """Bundles the scenario, doctrine models, and the two node functions.

    Plug into the platform with::

        app = BattlefieldApp(opposing_fronts())
        platform = ICPlatform(
            app.graph(), app.node_fns(), init_value=app.init_value,
            config=app.platform_config(steps=25),
        )

    Args:
        scenario: Terrain + initial deployments.
        combat: Attrition model (default parameters give a multi-day fight
            on the canonical scenario rather than mutual annihilation).
        movement: Movement doctrine.
        costs: Compute-grain constants.
    """

    def __init__(
        self,
        scenario: Scenario,
        combat: CombatModel | None = None,
        movement: MovementModel | None = None,
        costs: BattlefieldCosts | None = None,
    ) -> None:
        self.scenario = scenario
        self.combat = combat or CombatModel()
        self.movement = movement or MovementModel()
        self.costs = costs or BattlefieldCosts()
        self._column_of = lambda gid: (gid - 1) % scenario.grid.cols
        #: gid -> (red, blue) objective-march target, filled on first visit.
        self._advance_targets: dict[int, tuple[int | None, ...]] = {}

    # ------------------------------------------------------------------ #
    # Platform plug-ins
    # ------------------------------------------------------------------ #

    def graph(self):
        """The application program graph (the hex terrain)."""
        return self.scenario.grid.to_graph(name=f"battlefield-{self.scenario.name}")

    def init_value(self, gid: int) -> HexState:
        """Initial hex state plug-in."""
        return self.scenario.init_value(gid)

    def node_fns(self) -> tuple[NodeFn, NodeFn]:
        """The (combat, movement) node-function pair."""
        return (self.combat_round, self.movement_round)

    def platform_config(self, steps: int, **overrides) -> PlatformConfig:
        """A PlatformConfig with two communication rounds per step.

        The battlefield deployment uses the array-backed hex structures of
        Figures 2/3 rather than the generic global data node *list*, so the
        linear-scan overhead charged for the generic topologies does not
        apply: the scan cost constants are zeroed here (Tables 7-11's
        sequential runtimes confirm per-hex overheads far below an O(n)
        scan on 1024 hexes).
        """
        costs = PlatformConfig().costs.with_overrides(
            data_scan_item_cost=0.0, unpack_scan_item_cost=0.25e-6
        )
        overrides.setdefault("costs", costs)
        return PlatformConfig(iterations=steps, comm_rounds=2, **overrides)

    # ------------------------------------------------------------------ #
    # Round 1: combat + departure decisions
    # ------------------------------------------------------------------ #

    def combat_round(self, node: NodeView, ctx: ComputeContext) -> HexState:
        state: HexState = node.value
        ctx.work(self.costs.combat_base + self.costs.combat_per_strength * state.total)

        # The one read of the neighbourhood's strengths, folded left to
        # right: ``sum()`` over floats is compensated from Python 3.12 on.
        neighbors = node.neighbors
        red_near = blue_near = 0.0
        for _, s in neighbors:
            red_near += s.red
            blue_near += s.blue
        red, blue, red_losses, blue_losses = self.combat.resolve(
            state.red, state.blue, red_near, blue_near
        )

        # The objective-march targets depend only on the topology: one
        # computation per hex and app.
        gid = state.gid
        move = self.movement
        targets = self._advance_targets.get(gid)
        if targets is None:
            gids = [v for v, _ in neighbors]
            targets = self._advance_targets[gid] = tuple(
                move.advance_target(side, gid, gids, self._column_of) for side in (RED, BLUE)
            )
        to_red = move.departure(RED, red, blue, neighbors, targets[0])
        to_blue = move.departure(BLUE, blue, red, neighbors, targets[1])
        departures = ()
        if to_red is not None:
            red -= to_red.strength
            departures = (to_red,)
        if to_blue is not None:
            blue -= to_blue.strength
            departures += (to_blue,)
        return HexState(
            gid,
            max(0.0, red),
            max(0.0, blue),
            departures,
            state.destroyed_red + red_losses,
            state.destroyed_blue + blue_losses,
            state.step,
        )

    # ------------------------------------------------------------------ #
    # Round 2: absorb arrivals
    # ------------------------------------------------------------------ #

    def movement_round(self, node: NodeView, ctx: ComputeContext) -> HexState:
        state: HexState = node.value
        gid = state.gid
        arrivals_red = 0.0
        arrivals_blue = 0.0
        count = 0
        for _, neighbor in node.neighbors:
            for dep in neighbor.departures:
                if dep.target_gid != gid:
                    continue
                count += 1
                if dep.side == RED:
                    arrivals_red += dep.strength
                else:
                    arrivals_blue += dep.strength
        ctx.work(self.costs.move_base + self.costs.move_per_arrival * count)
        return HexState(
            gid,
            state.red + arrivals_red,
            state.blue + arrivals_blue,
            (),
            state.destroyed_red,
            state.destroyed_blue,
            state.step + 1,
        )


def simulate_sequential(app: BattlefieldApp, steps: int) -> dict[int, HexState]:
    """Reference implementation: the same evolution without the platform.

    Runs the combat and movement rounds with global synchronous state,
    returning ``gid -> HexState`` after ``steps`` steps.  Platform runs on
    any processor count must produce identical states (tested).
    """
    grid = app.scenario.grid
    graph = app.graph()

    class _NullCtx:
        """Cost-free context for the reference run."""

        num_nodes = grid.num_cells
        iteration = 0
        round = 0

        @staticmethod
        def work(seconds: float) -> None:
            return None

    ctx = _NullCtx()
    states = dict(app.scenario.initial)
    for step in range(steps):
        for round_fn in (app.combat_round, app.movement_round):
            new_states = {}
            for gid in range(1, grid.num_cells + 1):
                view = NodeView(
                    global_id=gid,
                    value=states[gid],
                    neighbors=tuple((v, states[v]) for v in graph.neighbors(gid)),
                    iteration=step + 1,
                )
                new_states[gid] = round_fn(view, ctx)  # type: ignore[arg-type]
            states = new_states
    return states
