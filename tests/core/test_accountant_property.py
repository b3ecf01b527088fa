"""Property tests: the vectorised accountant equals the per-node charge walk.

Every sweep of a node class hands its virtual charges to ``compute._charge``
as one charge plan, folded into the clock and the time buckets with
``np.add.accumulate`` -- or, for per-node grains over fewer than
``_WALK_BELOW`` nodes, walked node by node (``_replay_nodes``).  The
reference below performs the same additions one node at a time, as the
sweep did when it charged while calling the node function.  Virtual time is the paper's result, so the two must
agree to the last bit (``float.hex``), for any degree sequence, grain (one
for every node, as a kernel's, or one per node, as a looped node function
charges them; including 0.0), start clock, shadow fan-out and delta
"changed" mask -- on the clock, on the compute / bookkeeping /
communication-overhead buckets, and on every node's measured load.

The premise -- ``accumulate`` adds strictly left to right -- is pinned
separately, so a numpy that breaks it fails loudly here rather than as an
off-by-one-ulp clock in a conformance suite.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputeContext, PlatformCosts, compute
from repro.core.compute import _WALK_BELOW, _charge, _node_costs
from repro.core.nodestore import ChargePlan
from repro.mpi import IDEAL, FaultPlan, run_mpi

NUM_NODES = 400

#: Armed but never active (the clocks below stay far under 1e300): arms the
#: accountant's per-node fallback without scaling a single charge.
INACTIVE_SLOW = FaultPlan.parse("slow=0:3.0:1e300:2e300")

grains = st.one_of(
    st.just(0.0),
    st.sampled_from([0.3e-3, 3e-3, 1e-9]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
clocks = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
)


@st.composite
def sweeps(draw, per_node: bool = False):
    """A sweep as the seam sees it: an internal plan, then a peripheral one
    (each on either side of the walk cut; the peripheral nodes with shadow
    destinations and a pack mask), a grain (``per_node``: a list per plan,
    one per node) and seeds."""
    n_int = draw(st.integers(min_value=0, max_value=40))
    n_per = draw(st.integers(min_value=0, max_value=2 * _WALK_BELOW))
    total = n_int + n_per
    gids = draw(
        st.lists(
            st.integers(min_value=1, max_value=NUM_NODES),
            min_size=total,
            max_size=total,
            unique=True,
        )
    )
    degrees = draw(
        st.lists(st.integers(min_value=0, max_value=9), min_size=total, max_size=total)
    )
    dests = [
        tuple(range(draw(st.integers(min_value=1, max_value=4)))) for _ in range(n_per)
    ]
    mask = draw(st.lists(st.booleans(), min_size=n_per, max_size=n_per))
    packed = draw(st.sampled_from([True, False, mask]))
    seeds = tuple(draw(clocks) for _ in range(4))
    if per_node:
        grain = draw(st.lists(grains, min_size=total, max_size=total))
        internal_grain, peripheral_grain = grain[:n_int], grain[n_int:]
    else:
        internal_grain = peripheral_grain = draw(grains)
    internal = (gids[:n_int], degrees[:n_int], [], internal_grain, False)
    peripheral = (gids[n_int:], degrees[n_int:], dests, peripheral_grain, packed)
    return [internal, peripheral], seeds


def make_plan(gids, degrees, dests) -> ChargePlan:
    return ChargePlan(
        np.asarray(gids, dtype=np.int64), np.asarray(degrees, dtype=np.int64), dests
    )


def seeded_context(comm, seeds) -> ComputeContext:
    ctx = ComputeContext(comm, PlatformCosts(), NUM_NODES)
    clock, ctx.bookkeeping_time, ctx.compute_time, ctx.comm_overhead_time = seeds
    comm._state().clock = clock
    return ctx


def observed(ctx: ComputeContext) -> dict:
    """Everything the accountant may touch, as exact hex strings."""
    return {
        "clock": ctx.comm._state().clock.hex(),
        "bookkeeping": ctx.bookkeeping_time.hex(),
        "compute": ctx.compute_time.hex(),
        "comm_overhead": ctx.comm_overhead_time.hex(),
        "loads": {gid: load.hex() for gid, load in sorted(ctx.node_loads().items())},
    }


def pack_counts(count, dests, packed) -> list[int]:
    if packed is False:
        return [0] * count
    if packed is True:
        return [len(procs) for procs in dests]
    return [len(procs) if hit else 0 for procs, hit in zip(dests, packed)]


def node_charges(grain, count: int) -> list:
    """Each node's list of charges: a plain grain is every node's one
    charge, a list holds one grain per node or one list per node."""
    if not isinstance(grain, list):
        return [[grain]] * count
    return [g if isinstance(g, list) else [g] for g in grain]


def run_plan(case, faults=None) -> dict:
    """Two sweeps through the seam, each charging the internal plan and
    then the peripheral one (the second sweep hits the memoized matrices
    and lands on loads the first left behind).  Per-node grains go in as
    the list a looped kernel hands over, charge lists as its tuple."""
    classes, seeds = case

    def fn(comm):
        ctx = seeded_context(comm, seeds)
        plans = [(make_plan(g, d, dests), grain, packed) for g, d, dests, grain, packed in classes]
        for _ in range(2):
            for plan, grain, packed in plans:
                if isinstance(grain, list) and any(isinstance(g, list) for g in grain):
                    grain = tuple(grain)
                _charge(ctx, plan, grain, packed)
        return observed(ctx)

    return run_mpi(fn, 1, machine=IDEAL, faults=faults)[0]


def run_walk(case) -> dict:
    """The charge sequence, spelled out node by node."""
    classes, seeds = case
    nodes = []
    for gids, degrees, dests, grain, packed in classes:
        packs = pack_counts(len(gids), dests, packed)
        nodes += zip(gids, degrees, node_charges(grain, len(gids)), packs)

    def fn(comm):
        ctx = seeded_context(comm, seeds)
        for _ in range(2):
            for gid, deg, node, count in nodes:
                ctx._bookkeeping(ctx.node_cost(deg))
                before = ctx.compute_time
                for seconds in node:
                    ctx.work(seconds)
                ctx.loads[gid] += ctx.compute_time - before
                for _ in range(count):
                    ctx._comm_overhead(ctx.costs.pack_cost)
        return observed(ctx)

    return run_mpi(fn, 1, machine=IDEAL)[0]


class TestPlanEqualsWalk:
    @settings(max_examples=150, deadline=None)
    @given(case=sweeps())
    def test_bit_identical_to_the_node_by_node_charges(self, case):
        assert run_plan(case) == run_walk(case)

    @settings(max_examples=150, deadline=None)
    @given(case=sweeps(per_node=True))
    def test_per_node_grains_bit_identical_to_the_walk(self, case):
        assert run_plan(case) == run_walk(case)

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(sweeps(), sweeps(per_node=True)))
    def test_the_fold_on_parts_under_the_cut(self, case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compute, "_WALK_BELOW", 0)  # fold parts of any size
            folded = run_plan(case)
        assert folded == run_walk(case)

    @settings(max_examples=60, deadline=None)
    @given(case=sweeps(per_node=True), data=st.data())
    def test_charge_lists_take_the_walk(self, case, data):
        """Nodes that charged zero times or several: each node's charges in
        call order, after its bookkeeping and before its packs."""
        classes, seeds = case
        def ragged(grain):
            charges = st.sampled_from
            return [data.draw(charges([[], [g], [g, g / 3], [0.0, g, 1e-9]])) for g in grain]

        classes = [(*plan, ragged(grain), packed) for *plan, grain, packed in classes]
        case = (classes, seeds)
        assert run_plan(case) == run_walk(case)

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(sweeps(), sweeps(per_node=True)))
    def test_armed_slow_window_takes_the_walk(self, case):
        """With a ``slow=`` window armed the seam itself walks the nodes."""
        assert run_plan(case, faults=INACTIVE_SLOW) == run_walk(case)

    def test_zero_grain_leaves_no_load_key(self):
        classes = [([3, 1], [2, 2], [], 0.0, False), ([2], [1], [(1,)], 0.0, True)]
        case = (classes, (0.0, 0.0, 0.0, 0.0))
        result = run_plan(case)
        assert result["loads"] == {}
        assert result["compute"] == (0.0).hex()
        assert result == run_walk(case)

    def test_negative_grain_rejected(self):
        case = ([([1], [1], [], -1.0, False)], (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="negative work"):
            run_plan(case)


class TestOneCostTable:
    """The walk and the plan's array read one by-degree memo on the
    context, each entry the formula itself."""

    @settings(max_examples=60, deadline=None)
    @given(degrees=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12))
    def test_memo_is_the_formula_in_any_asking_order(self, degrees):
        ctx = ComputeContext(None, PlatformCosts(), NUM_NODES)
        costs = ctx.costs

        def formula(deg: int) -> float:
            return (
                costs.list_item_cost * (1 + deg)
                + costs.hash_lookup_cost * deg
                + costs.data_scan_item_cost * NUM_NODES / 2
            )

        first = degrees[0]
        assert ctx.node_cost(first).hex() == formula(first).hex()
        assert len(ctx.cost_by_degree) == first + 1
        as_array = _node_costs(ctx, np.asarray(degrees, dtype=np.int64))
        assert [c.hex() for c in as_array.tolist()] == [formula(d).hex() for d in degrees]
        assert [ctx.node_cost(d).hex() for d in degrees] == [formula(d).hex() for d in degrees]
        assert all(type(cost) is float for cost in ctx.cost_by_degree)
        assert len(ctx.cost_by_degree) == max(degrees) + 1


class TestLoadViews:
    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(grains, min_size=1, max_size=4),
        after=st.lists(grains, min_size=1, max_size=4),
    )
    def test_restore_continues_the_same_running_sums(self, before, after):
        """A rollback reinstates captured loads where the accountant keeps
        adding to them: capture + restore in mid-window changes no bit."""
        gids, degrees = [5, 9, 7], [3, 1, 2]

        def fn(comm, interrupted):
            ctx = seeded_context(comm, (0.0, 0.0, 0.0, 0.0))
            plan = make_plan(gids, degrees, [])
            for grain in before:
                _charge(ctx, plan, grain)
            if interrupted:
                saved, compute_time = ctx.node_loads(), ctx.compute_time
                assert type(saved) is dict
                _charge(ctx, plan, 1.0)  # a sweep the rollback undoes
                ctx.compute_time = compute_time
                ctx.set_node_loads(saved)
                assert ctx.node_loads() == saved
            for grain in after:
                _charge(ctx, plan, grain)
            loads = observed(ctx)["loads"]
            ctx.reset_node_loads()
            assert ctx.node_loads() == {}
            return loads

        straight = run_mpi(fn, 1, False, machine=IDEAL)[0]
        assert run_mpi(fn, 1, True, machine=IDEAL)[0] == straight


class TestAccumulateIsSequential:
    """The premise: ``np.add.accumulate`` == Python's left-to-right sum."""

    @pytest.mark.parametrize("count", [1, 2, 3, 17, 1000, 60_000])
    def test_matches_python_running_sum(self, count):
        rng = random.Random(count)
        values = [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-9, 3) for _ in range(count)]
        total = 0.0
        for value in values:
            total += value
        assert float(np.add.accumulate(np.asarray(values))[-1]).hex() == total.hex()
        # The accountant's actual call: rows of a 2-D matrix, along axis 1.
        matrix = np.asarray([values, values[::-1]])
        reverse = 0.0
        for value in values[::-1]:
            reverse += value
        sums = np.add.accumulate(matrix, axis=1)[:, -1].tolist()
        assert [s.hex() for s in sums] == [total.hex(), reverse.hex()]
