"""Differential check of the battlefield node functions against a reference
copy of the doctrine.

``simulate_sequential`` drives the same node functions the platform calls,
so the equivalence tests elsewhere cannot notice a change of doctrine.  The
reference below spells the rules out the direct way -- ``min``/``max``
with tuple keys over neighbour states, ``HexState.strength`` and
``with_changes`` -- and the kernels must reproduce its states exactly
(``repr``, so every float bit and every departure) after every round.  Its
sums fold left to right from 0, which is what builtin ``sum()`` computed
before 3.12 made it compensated.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.battlefield import (
    BLUE,
    RED,
    BattlefieldApp,
    CombatModel,
    Departure,
    HexState,
    MovementModel,
    Scenario,
)
from repro.core.compute import NodeView
from repro.graphs import HexGrid


def fold(values):
    total = 0
    for value in values:
        total = total + value
    return total


# --------------------------------------------------------------------- #
# The reference doctrine
# --------------------------------------------------------------------- #


def reference_resolve(combat, own, neighbors):
    fire_at_red = fire_at_blue = 0.0
    if own.red > 0:
        fire_at_red = own.blue + combat.adjacent_intensity * fold(s.blue for s in neighbors)
    if own.blue > 0:
        fire_at_blue = own.red + combat.adjacent_intensity * fold(s.red for s in neighbors)
    red_losses = min(own.red, combat.kill_rate * fire_at_red)
    blue_losses = min(own.blue, combat.kill_rate * fire_at_blue)
    return own.red - red_losses, own.blue - blue_losses, red_losses, blue_losses


def reference_departures(move, side, own_gid, own, enemy_here, neighbors, column_of):
    if own <= move.min_move or not neighbors:
        return []
    enemy = BLUE if side == RED else RED
    if enemy_here > move.retreat_ratio * max(own, 1e-9):
        dest = min(neighbors, key=lambda s: (s.strength(enemy) - s.strength(side), s.gid))
        amount = move.retreat_fraction * own
        return [Departure(dest.gid, side, amount)] if amount > move.min_move else []
    hostile = [s for s in neighbors if s.strength(enemy) > 0]
    if hostile:
        dest = max(hostile, key=lambda s: (s.strength(enemy), -s.gid))
        amount = move.advance_fraction * own
        if dest.strength(enemy) > move.retreat_ratio * amount:
            return []
        return [Departure(dest.gid, side, amount)] if amount > move.min_move else []
    if enemy_here > 0:
        return []
    here = column_of(own_gid)
    if side == RED:
        dest = max(neighbors, key=lambda s: (column_of(s.gid), -s.gid))
        forward = column_of(dest.gid) > here
    else:
        dest = min(neighbors, key=lambda s: (column_of(s.gid), s.gid))
        forward = column_of(dest.gid) < here
    amount = move.advance_fraction * own
    if forward and amount > move.min_move:
        return [Departure(dest.gid, side, amount)]
    return []


def reference_combat_round(app, node):
    state = node.value
    neighbors = node.neighbor_values()
    column_of = lambda gid: (gid - 1) % app.scenario.grid.cols
    red, blue, red_losses, blue_losses = reference_resolve(app.combat, state, neighbors)
    departures = reference_departures(
        app.movement, RED, state.gid, red, blue, neighbors, column_of
    ) + reference_departures(app.movement, BLUE, state.gid, blue, red, neighbors, column_of)
    red -= fold(d.strength for d in departures if d.side == RED)
    blue -= fold(d.strength for d in departures if d.side == BLUE)
    return state.with_changes(
        red=max(0.0, red),
        blue=max(0.0, blue),
        departures=tuple(departures),
        destroyed_red=state.destroyed_red + red_losses,
        destroyed_blue=state.destroyed_blue + blue_losses,
    )


def reference_movement_round(app, node):
    state = node.value
    arrivals = [
        d for s in node.neighbor_values() for d in s.departures if d.target_gid == state.gid
    ]
    return state.with_changes(
        red=state.red + fold(d.strength for d in arrivals if d.side == RED),
        blue=state.blue + fold(d.strength for d in arrivals if d.side == BLUE),
        departures=(),
        step=state.step + 1,
    )


# --------------------------------------------------------------------- #
# Driving both
# --------------------------------------------------------------------- #


class _Ctx:
    def work(self, seconds):
        pass


def run_round(round_fn, states, adjacency, step):
    return {
        gid: round_fn(
            NodeView(gid, state, tuple((v, states[v]) for v in adjacency[gid]), step)
        )
        for gid, state in states.items()
    }


def assert_same_evolution(app, adjacency, steps):
    """Both implementations from the scenario's states, compared by
    ``repr`` after every round; returns the reference's rounds."""
    ctx = _Ctx()
    kernels = (
        lambda node: app.combat_round(node, ctx),
        lambda node: app.movement_round(node, ctx),
    )
    reference = (
        lambda node: reference_combat_round(app, node),
        lambda node: reference_movement_round(app, node),
    )
    ours = theirs = dict(app.scenario.initial)
    rounds = []
    for step in range(1, steps + 1):
        for kernel, oracle in zip(kernels, reference):
            ours = run_round(kernel, ours, adjacency, step)
            theirs = run_round(oracle, theirs, adjacency, step)
            assert {g: repr(s) for g, s in ours.items()} == {
                g: repr(s) for g, s in theirs.items()
            }, f"step {step}"
            rounds.append(theirs)
    return rounds


#: Few distinct values, so neighbours tie on enemy strength and on the
#: retreat key, and some hexes outnumber others by more than any ratio.
STRENGTHS = [0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 12.0]


@st.composite
def battlefields(draw):
    grid = HexGrid(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    rng = draw(st.randoms(use_true_random=False))
    # Drop some lattice edges (possibly isolating hexes) and shuffle each
    # adjacency list: the doctrine must not depend on either.
    keep = draw(st.sampled_from([1.0, 0.8, 0.4]))
    graph = grid.to_graph()
    adjacency = {gid: [] for gid in graph.nodes()}
    for u in graph.nodes():
        for v in graph.neighbors(u):
            if u < v and rng.random() < keep:
                adjacency[u].append(v)
                adjacency[v].append(u)
    for nbrs in adjacency.values():
        rng.shuffle(nbrs)
    initial = {
        gid: HexState(gid, draw(st.sampled_from(STRENGTHS)), draw(st.sampled_from(STRENGTHS)))
        for gid in adjacency
    }
    combat = CombatModel(
        kill_rate=draw(st.sampled_from([0.0, 0.04, 0.3])),
        adjacent_intensity=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    movement = MovementModel(
        advance_fraction=draw(st.sampled_from([0.25, 0.5, 1.0])),
        retreat_fraction=draw(st.sampled_from([0.5, 0.75])),
        retreat_ratio=draw(st.sampled_from([1.5, 3.0])),
        min_move=draw(st.sampled_from([0.0, 0.25, 1.0])),
    )
    app = BattlefieldApp(Scenario("drawn", grid, initial), combat=combat, movement=movement)
    return app, adjacency


@given(battlefields(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_kernels_match_reference_doctrine(battlefield, steps):
    app, adjacency = battlefield
    assert_same_evolution(app, adjacency, steps)


def _departures(states):
    return {g: s.departures for g, s in states.items() if s.departures}


def test_tied_choices_edges_and_isolated_hex():
    """One hand-built field with the cases the draws above rely on: an
    overrun red force whose two friendliest neighbours tie on the retreat
    key, blue engaging two equally strong red hexes, red advancing to the
    east edge and holding there, and a hex with no neighbours."""
    grid = HexGrid(4, 4)  # gid = 4 * row + col + 1
    adjacency = {gid: list(grid.to_graph().neighbors(gid)) for gid in range(1, 17)}
    for v in adjacency[1]:
        adjacency[v].remove(1)
    adjacency[1] = []  # isolated, though it holds both sides
    initial = {gid: HexState(gid) for gid in range(1, 17)}
    initial[1] = HexState(1, red=5.0, blue=5.0)
    initial[10] = HexState(10, red=1.0, blue=12.0)  # red overrun
    initial[9] = HexState(9, red=2.0)  # retreat key 0 - 2 = -2, like gid 14
    initial[14] = HexState(14, red=2.0)
    initial[3] = HexState(3, red=3.0)  # column 2: marches east
    initial[4] = HexState(4, red=3.0)  # column 3, the east edge: holds
    app = BattlefieldApp(Scenario("ties", grid, initial), combat=CombatModel(kill_rate=0.0))
    assert sorted(adjacency[10]) == [5, 6, 9, 11, 13, 14]

    after_combat = assert_same_evolution(app, adjacency, steps=2)[0]
    moves = {g: s.departures for g, s in after_combat.items() if s.departures}
    assert moves == {
        # Both ties go to the lower gid.
        10: (Departure(9, RED, 0.75), Departure(9, BLUE, 6.0)),
        3: (Departure(4, RED, 1.5),),
    }
