"""The computation & communication phase (Figures 8 and 8a).

The platform invokes the user's *application node function* through a
pointer it maintains -- here, a plain callable.  For each owned node it
forms "a list with the current node's data as the head, followed by the
data of the neighbors" (:class:`NodeView`), calls the function, and stores
the returned value in ``most_recent_data``; the peripheral sweep packs the
updated values per destination before it returns, so "by the time the
computation routine returns, the communication buffers are all set up".
On a struct-of-arrays store the function's vectorized kernel computes the
same values, and both stores charge through one accountant.

The unit of computation is one *node class*: :func:`_sweep` computes the
internal nodes (every neighbour local) or the peripheral nodes (at least
one remote), charges them and, for the peripheral class, packs them.
:func:`superstep` is three orders of four steps -- sweep I, sweep P,
commit, send -- and two choices a caller makes:

* **Order** (``overlap``).  Figure 8: I, P, commit, send, then
  blocking-receive the shadows.  Figure 8a: P, send, I, commit -- the
  internals compute *while the transfers are in flight* -- then wait and
  unpack.
* **Activation** (``frontier``).  Without one every owned node computes and
  every peripheral value travels.  With a :class:`Frontier` the sweep is
  change-driven (``--activation sparse``): only *active* nodes (own or
  neighbour value changed since their last evaluation) are recomputed, only
  *changed* peripheral values are packed, empty sends are elided entirely,
  and receivers discover the actual sender set from the mailbox after the
  sweep barrier (the frontier holds the per-round active sets and the
  sweep-parity tag).

With ``frontier.inner_cap`` set the superstep takes the third order,
GraphHP's two-phase one (``--execution hybrid``): P, commit, send -- the
*boundary phase* -- then the *interior phase*, (I, commit) repeated
locally -- no messages, no barrier -- until the interior frontier drains
or the cap is hit, with every inner sweep charged at full virtual cost.
The interior loop runs between the send and the barrier, so it inherently
overlaps the in-flight exchange; arrivals can only activate peripheral
nodes (an owned node with a remote neighbour is peripheral by
definition), which is what makes the interior phase safely independent of
this superstep's traffic.

Every order drains its receives one way: each message is unpacked as its
receive completes, after the change-driven sweep barrier where there is
one, so unpacking an early message overlaps the wait for a later one.
Dense Figure 8 alone receives everything, synchronizes and only then
unpacks, because the appendix's ``CommunicateShadows`` puts its
``MPI_Barrier`` between the receive loop and the unpacking.

Change-driven sweeps assume the node function is *pure per round*: its
return value depends only on the node's own and neighbours' values (cost
charges may vary freely).  A skipped node then provably recomputes to its
current value, so sparse results are value-identical to dense.  The
interior cap additionally requires the *algorithm* to be
order-insensitive (chaotic relaxation, e.g. Jacobi): interior nodes see
newer-than-BSP neighbour values, so the trajectory differs while the
fixed point is preserved.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ..graphs.graph import concat_ranges
from ..mpi.communicator import Communicator
from .buffers import CommBuffers
from .config import PlatformCosts
from .nodestore import ChargePlan, NodeStore, Topology
from .soastore import SoAStore

__all__ = [
    "NodeView",
    "ComputeContext",
    "Frontier",
    "NodeFn",
    "superstep",
    "supports_bulk",
    "TAG_SHADOW",
    "TAG_SHADOW_DELTA",
]

#: Tag for shadow-exchange messages.
TAG_SHADOW = 1

#: Alternating tag pair for the delta shadow exchange.  The barrier between
#: sweeps bounds rank skew to one sweep, so two tags suffice to keep a fast
#: rank's next-sweep sends from matching a slow rank's current-sweep
#: ``pending_sources`` query.
TAG_SHADOW_DELTA = (5, 6)

#: The two node classes, the unit a sweep computes (indexes of
#: ``Topology.spans`` and ``Topology.classes``).
_INTERNAL, _PERIPHERAL = 0, 1


class NodeView(NamedTuple):
    """The node+neighbours list handed to the application node function
    (immutable; one is built per node update, hence a named tuple).

    Attributes:
        global_id: The node being computed.
        value: Its committed value (head of the list).
        neighbors: ``(neighbour_gid, committed value)`` pairs, in adjacency
            order.
        iteration: 1-based sweep number (the appendix's ``index``), which
            the dynamic-imbalance workload keys its grain schedule on.
        round: 0-based communication sub-round within the iteration
            (non-zero only for multi-round applications like the
            battlefield simulation).
    """

    global_id: int
    value: Any
    neighbors: tuple[tuple[int, Any], ...]
    iteration: int
    round: int = 0

    def neighbor_values(self) -> list[Any]:
        """Just the neighbour values, in adjacency order."""
        return [v for _, v in self.neighbors]


class ComputeContext:
    """Per-rank execution context passed to the node function.

    Carries the virtual-clock charging interface (:meth:`work` replaces the
    thesis's dummy grain loops) and the counters that let the platform split
    wall time into the *compute* vs *overhead* buckets of section 5.4.
    """

    def __init__(self, comm: Communicator, costs: PlatformCosts, num_nodes: int) -> None:
        self.comm = comm
        self.costs = costs
        self.num_nodes = num_nodes
        self.iteration = 0
        self.round = 0
        self.compute_time = 0.0
        self.comm_overhead_time = 0.0
        self.bookkeeping_time = 0.0
        #: :meth:`node_cost`'s memo, indexed by degree.
        self.cost_by_degree: list[float] = []
        self._loads: np.ndarray | None = None
        #: Where :meth:`work` records while a looped kernel runs.
        self._charges: list[float] | None = None

    @property
    def loads(self) -> np.ndarray:
        """Per-node compute seconds since the last reset, indexed by gid --
        measured node weights for load-aware repartitioning (window-scoped),
        added by the accountant.  Made on first use, after the store's
        build."""
        if self._loads is None:
            self._loads = np.zeros(self.num_nodes + 1)
        return self._loads

    def node_loads(self) -> dict[int, float]:
        """``gid -> compute seconds`` this window, as a plain dict.

        A node has a key iff its load is non-zero: charges are never
        negative, so a sum never returns to zero.
        """
        hot = np.flatnonzero(self.loads)
        return dict(zip(hot.tolist(), self.loads[hot].tolist()))

    def set_node_loads(self, loads: dict[int, float]) -> None:
        """Reinstate a window that :meth:`node_loads` captured (rollback)."""
        self.reset_node_loads()
        if loads:
            self.loads[list(loads)] = list(loads.values())

    def reset_node_loads(self) -> None:
        """Start a new load-measurement window."""
        self.loads.fill(0.0)

    def node_cost(self, deg: int) -> float:
        """The list-forming bookkeeping charge for a node of degree ``deg``
        (evaluated once per degree)."""
        table, costs = self.cost_by_degree, self.costs
        if deg < len(table):
            return table[deg]
        for missing in range(len(table), deg + 1):
            table.append(
                costs.list_item_cost * (1 + missing)
                + costs.hash_lookup_cost * missing
                # The appendix's SimulatorFunction linearly scans the global
                # data node list (which holds *all* graph nodes on every
                # rank) to locate the current node: an average of n/2 items
                # touched per call.
                + costs.data_scan_item_cost * self.num_nodes / 2
            )
        return table[deg]

    @property
    def rank(self) -> int:
        """This processor's rank."""
        return self.comm.rank

    @property
    def nprocs(self) -> int:
        """Number of processors."""
        return self.comm.size

    def work(self, seconds: float) -> None:
        """Charge application compute time (the node's grain).

        Accumulates the *charged* seconds -- a fault-injected slow window
        (:class:`~repro.mpi.faults.SlowWindow`) inflates them, so the load
        balancer sees the degraded rank as genuinely busier.  Inside a
        sweep's node loop the charge is only recorded: the sweep applies
        it after the loop, in the node's place in the charge order.
        """
        charges = self._charges
        if charges is None:
            self.compute_time += self.comm.work(seconds)
        elif seconds < 0:
            raise ValueError(f"cannot charge negative work: {seconds}")
        else:
            charges.append(seconds)

    def _bookkeeping(self, seconds: float) -> None:
        """Charge platform bookkeeping (lands in computation overhead)."""
        self.bookkeeping_time += self.comm.work(seconds)

    def _comm_overhead(self, seconds: float) -> None:
        """Charge pack/unpack bookkeeping (lands in communication overhead)."""
        self.comm_overhead_time += self.comm.work(seconds)


NodeFn = Callable[[NodeView, ComputeContext], Any]


def _looped_kernel(
    store: NodeStore, rows: list, node_fn: NodeFn, ctx: ComputeContext
) -> tuple[list, list[float] | tuple[list[float], ...]]:
    """The node function as a kernel over the list store's sweep ``rows``:
    per node, form the view from the value column, call the function and
    make its value pending, while ``ctx.work`` records the node's charges.
    Returns the fresh values and the grains for :func:`_charge`: a list,
    one per node (``0.0`` for a node that charged nothing), or, when some
    node charged more than once, a tuple of each node's charges in call
    order."""
    values, pending = store._values, store._pending
    iteration, round_idx = ctx.iteration, ctx.round
    fresh: list = []
    ends: list[int] = []
    charges = ctx._charges = []
    try:
        for gid, slot, nbrs, slots in rows:
            neighbors = tuple([(v, values[s]) for v, s in zip(nbrs, slots)])
            out = node_fn(NodeView(gid, values[slot], neighbors, iteration, round_idx), ctx)
            pending[slot] = out
            fresh.append(out)
            ends.append(len(charges))
    finally:
        ctx._charges = None
    if ends == list(range(1, len(ends) + 1)):
        return fresh, charges
    per_node = [charges[a:b] for a, b in zip([0, *ends], ends)]
    if max(map(len, per_node)) > 1:
        return fresh, tuple(per_node)
    return fresh, [c[0] if c else 0.0 for c in per_node]


# --------------------------------------------------------------------- #
# The accountant
# --------------------------------------------------------------------- #
#
# A sweep computes one node class's values, through the node function's
# *bulk kernel* on a struct-of-arrays store (``fn.bulk``: a pure
# ``kernel(view) -> ndarray`` costing ``kernel.node_grain`` virtual seconds
# a node) or :func:`_looped_kernel` on the list store, then hands the
# accountant (:func:`_charge`) the class's *charge plan*: per node
# bookkeeping, grain, packs, in that order -- so clocks, buckets, loads and
# traces ignore the store.


def supports_bulk(node_fns: tuple[NodeFn, ...] | list[NodeFn]) -> bool:
    """Whether every node function carries a bulk kernel."""
    return all(callable(getattr(fn, "bulk", None)) for fn in node_fns)


#: Per-node grains over fewer nodes are walked, not folded: measured, the
#: fold costs 18-25 us a call, the walk 1.4 us a node (docs/performance.md).
_WALK_BELOW = 16


def _replay_nodes(
    ctx: ComputeContext,
    gids: Iterable[int],
    degrees: Iterable[int],
    charges: Iterable[Iterable[float]],
    packs: Iterable[int],
) -> None:
    """The walk: charge nodes one by one, each as
    :meth:`ComputeContext._bookkeeping`, :meth:`ComputeContext.work` and
    :meth:`ComputeContext._comm_overhead` would -- its list-forming
    bookkeeping, its ``charges`` in call order, then its ``packs`` pack
    charges -- each charge singly through ``comm.work``."""
    work, node_cost, loads, pack_cost = ctx.comm.work, ctx.node_cost, ctx.loads, ctx.costs.pack_cost
    book, compute, overhead = ctx.bookkeeping_time, ctx.compute_time, ctx.comm_overhead_time
    for gid, deg, node_charges, count in zip(gids, degrees, charges, packs):
        book += work(node_cost(deg))
        before = compute
        for seconds in node_charges:
            compute += work(seconds)
        loads[gid] += compute - before
        for _ in range(count):
            overhead += work(pack_cost)
    ctx.bookkeeping_time, ctx.compute_time, ctx.comm_overhead_time = book, compute, overhead


def _node_costs(ctx: ComputeContext, degrees: np.ndarray) -> np.ndarray:
    """:meth:`ComputeContext.node_cost` per node, as an array."""
    try:
        return np.array(ctx.cost_by_degree)[degrees]
    except IndexError:
        ctx.node_cost(int(degrees.max()))  # fills the memo up to that degree
        return np.array(ctx.cost_by_degree)[degrees]


def _charge_rows(
    node_costs: np.ndarray, grains: float | list[float], pack_cost: float, packs: list[int] | None
) -> list[np.ndarray]:
    """Lay a plan's charges out as one row per accumulator, each holding
    only its own charges in order after a column 0 reserved for the seed:
    the clock (per node its bookkeeping cost, grain and ``packs[i]`` pack
    charges), bookkeeping, compute and, unless nothing is packed,
    communication overhead."""
    count = len(node_costs)
    if packs is None:
        clock = np.empty(1 + 2 * count)
        cost_cols: Any = slice(1, None, 2)
        grain_cols: Any = slice(2, None, 2)
    else:
        cost_cols = 1 + 2 * np.arange(count) + np.cumsum(packs) - packs
        grain_cols = cost_cols + 1
        clock = np.full(1 + 2 * count + sum(packs), pack_cost, dtype=float)
    clock[cost_cols] = node_costs
    clock[grain_cols] = grains
    bookkeeping, compute = np.empty(1 + count), np.empty(1 + count)
    bookkeeping[1:] = node_costs
    compute[1:] = grains
    rows = [clock, bookkeeping, compute]
    if packs is not None:
        rows.append(np.full(1 + sum(packs), pack_cost, dtype=float))
    return rows


def _charge(
    ctx: ComputeContext,
    plan: ChargePlan,
    grains: float | list[float] | tuple[list[float], ...],
    packed: bool | list[bool] = False,
) -> None:
    """The accountant, the one seam every sweep charge goes through: per
    node of a plan, list-forming bookkeeping, the grain (``grains``: a
    kernel's one for all, a list of one per node, or a tuple of each
    node's charges) and, ``packed`` (all, or a per-node mask), one
    ``pack_cost`` per shadow destination.

    Each accumulator's own charges are folded into it by
    ``np.add.accumulate`` over one row seeded with its current value: it
    adds strictly left to right, the same IEEE-754 operations as a walk,
    where ``reduce``/``reduceat`` pair operands up and land an ulp away.
    Rows for a kernel's grain are memoized on the plan.  :func:`_replay_nodes`
    walks the nodes instead for per-node grains under :data:`_WALK_BELOW`
    nodes, for a node that charged more than once and under a ``slow=``
    window, which scales a charge by the clock *at charge time*.
    """
    count = len(plan.gids)
    if not count:
        return
    scalar = isinstance(grains, (int, float))
    if scalar and grains < 0:
        raise ValueError(f"cannot charge negative work: {grains}")
    memo, packs = plan.templates, None
    if packed is True or (packed and any(packed)):
        packs = memo.get("fanout")
        if packs is None:
            packs = memo["fanout"] = [len(procs) for procs in plan.dests]
        if packed is not True:
            packs = [n if hit else 0 for n, hit in zip(packs, packed)]
    if (
        type(grains) is tuple
        or (not scalar and count < _WALK_BELOW)
        or (ctx.comm.faults is not None and ctx.comm.faults.plan.slow)
    ):
        walk = memo.get("walk")  # the gids and degrees as lists
        if walk is None:
            walk = memo["walk"] = (plan.gids.tolist(), plan.degrees.tolist())
        charges = repeat((grains,)) if scalar else grains if type(grains) is tuple else zip(grains)
        _replay_nodes(ctx, *walk, charges, repeat(0) if packs is None else packs)
        return

    static = scalar and (packs is None or packed is True)
    key = (ctx.costs, ctx.num_nodes, grains, packs is not None)
    template = memo.get(key) if static else None
    if template is None:
        node_costs = _node_costs(ctx, plan.degrees)
        template = _charge_rows(node_costs, grains, ctx.costs.pack_cost, packs)
        if static:
            memo[key] = template
    state = ctx.comm._state()
    seeds = (state.clock, ctx.bookkeeping_time, ctx.compute_time, ctx.comm_overhead_time)
    sums = []
    for row, seed in zip(template, seeds):
        row[0] = seed
        sums.append(np.add.accumulate(row))
    totals = [float(row[-1]) for row in sums]
    state.clock, ctx.bookkeeping_time, ctx.compute_time = totals[:3]
    if len(totals) > 3:
        ctx.comm_overhead_time = totals[3]
    # Consecutive compute prefixes differ by exactly one node's grain as
    # the walk measures it (``compute_time - before``).
    compute = sums[2]
    ctx.loads[plan.gids] += compute[1:] - compute[:-1]


def _sweep(
    store: NodeStore,
    node_fn: NodeFn,
    ctx: ComputeContext,
    buffers: CommBuffers,
    frontier: Frontier | None,
    part: int,
) -> int:
    """Compute one node class: the frontier's active positions of it
    (consumed), or the whole class when dense.  Runs the bulk kernel on a
    struct-of-arrays store, :func:`_looped_kernel` on the list store,
    charges the nodes through :func:`_charge` and, for the peripheral
    class, packs their values (with a ``frontier``, the changed ones).
    Returns how many nodes it computed."""
    positions = None if frontier is None else frontier.begin(store, ctx.round, part)
    topo = store.topology()
    dense = topo.classes[part]
    count = len(dense.slots) if positions is None else len(positions)
    if not count:
        return 0
    delta = frontier is not None and part == _PERIPHERAL
    if isinstance(store, SoAStore):
        kernel = node_fn.bulk
        view = store.bulk_view(positions, ctx.iteration, ctx.round, part)
        plan, grains = view.plan, kernel.node_grain
        committed = view.values.tolist() if delta else None
        fresh = store.scatter_pending(view.slots, kernel(view))
        del view  # free the gathers before the accountant lays out its rows
    else:
        rows = store.sweep_rows()
        if positions is None:
            plan, rows = dense.plan, rows[topo.spans[part]]
        else:
            plan, rows = store.charge_plan(positions), [rows[p] for p in positions.tolist()]
        committed = [store._values[row[1]] for row in rows] if delta else None
        fresh, grains = _looped_kernel(store, rows, node_fn, ctx)
    if part == _INTERNAL:
        del fresh  # likewise: only packed values are read again
        _charge(ctx, plan, grains)
        return count
    if type(fresh) is np.ndarray:
        fresh = fresh.tolist()  # exact Python objects, as the looped kernel packs
    # With a ``frontier`` a value equal to the committed one is not packed
    # (receivers treat absent records as "shadow still current").
    packed: bool | list[bool] = committed is None or [
        not (v is None or v == c) for v, c in zip(fresh, committed)
    ]
    _charge(ctx, plan, grains, packed)
    destinations = _destinations(plan)
    if packed is not True:
        kept = []
        for proc, idx, gids in destinations:
            hits = [packed[i] for i in idx]
            kept.append((proc, list(compress(idx, hits)), list(compress(gids, hits))))
        destinations = kept
    buffers.pack_all(destinations, fresh)
    return count


def _destinations(plan: ChargePlan) -> list[tuple[int, list[int], list[int]]]:
    """Per shadow destination of a plan of peripheral nodes: the rows
    (into ``plan.dests``) and gids of the nodes it shadows, in plan order
    (memoized)."""
    by_dest = plan.templates.get("destinations")
    if by_dest is None:
        rows: dict[int, list[int]] = {}
        for i, procs in enumerate(plan.dests):
            for proc in procs:
                rows.setdefault(proc, []).append(i)
        by_dest = plan.templates["destinations"] = [
            (proc, idx, plan.gids[idx].tolist()) for proc, idx in rows.items()
        ]
    return by_dest


# --------------------------------------------------------------------- #
# Change-driven (delta / active-set) execution
# --------------------------------------------------------------------- #


class Frontier:
    """Per-rank state of change-driven execution: which owned nodes must
    recompute, per communication round.

    One boolean mask per round over the positions of the store's owned-set
    layout, the dense sweep's order (a node is set when its own or a
    neighbour's value changed since the start of that round's last sweep);
    the internal class is the span ``[0, split)``, the peripheral one
    ``[split, n)``.  A *dense* flag per (round, class) marks a class that
    computes every node (the first iteration, and after any ownership
    change: migration, repartition, shrink recovery) and discards what was
    touched into it; a checkpoint records it as ``None``, unlike a class
    with every node active.  The positions come from the epoch's
    :meth:`~repro.core.nodestore.NodeStore.topology`: ownership surgery
    must be followed by :meth:`reset_dense` or :meth:`restore`, and an epoch
    the frontier was not told about raises.

    Per-round masks (rather than a single frontier) keep multi-round
    applications like the battlefield simulation sound: round ``r``'s
    function may move a value even when round ``r-1``'s left it alone, so a
    node may only skip round ``r`` if nothing in its closed neighbourhood
    changed since its last *round-r* evaluation.

    Every sweep consumes one node class of a round.  The change-driven
    superstep consumes each class once; the hybrid one consumes the
    peripheral (*boundary*) class once and the internal (*interior*) class
    repeatedly, up to ``inner_cap`` sweeps (``None`` outside hybrid
    execution).  A changed node activates its owned neighbours whatever
    their class; arrivals can only reach peripheral nodes (an owned
    neighbour of a shadow is peripheral by definition), which is what lets
    the interior phase run before a superstep's messages are drained.

    ``parity`` indexes :data:`TAG_SHADOW_DELTA` and flips once per exchange;
    it advances in lockstep on all ranks, so it is deliberately *not*
    checkpointed.  The active sets and the cumulative ``inner_sweeps``
    counter are: a rollback must not resume with an empty frontier, and
    replays to bit-identical telemetry.
    """

    def __init__(self, rounds: int, inner_cap: int | None = None) -> None:
        self.rounds = rounds
        self.inner_cap = inner_cap
        self.parity = 0
        #: Interior sweeps executed over the whole run (telemetry).
        self.inner_sweeps = 0
        self.reset_dense()

    def reset_dense(self) -> None:
        """Fall back to dense sweeps for every round and class, over the
        store's next epoch: after any event that changes ownership or
        rebuilds stores from bare values (migration, repartition, shrink
        recovery).  A dense round is a safe superset of any frontier, and
        purity makes the extra evaluations value-neutral."""
        self._topology: Topology | None = None
        self._dense = np.ones((self.rounds, 2), dtype=bool)

    def _bind(self, store: NodeStore) -> Topology:
        """The epoch's topology; the first ask after :meth:`reset_dense`
        derives the masks and the position arrays from it."""
        topo = store.topology()
        if topo is self._topology:
            return topo
        if self._topology is not None:
            raise RuntimeError(
                f"rank {store.rank}: the owned set changed under the frontier"
                " (reset_dense or restore must follow ownership surgery)"
            )
        self._topology = topo
        count = len(topo.slots)
        #: ``gid -> position`` (-1 for a node this rank does not own).
        self._position_of = np.full(store.graph.num_nodes + 1, -1, dtype=np.intp)
        self._position_of[topo.gids] = np.arange(count)
        # Each owned node's closed neighbourhood as positions, on
        # ``topo.indptr`` (-1 for a shadow), and its length.
        at_slot = np.full(store.num_records(), -1, dtype=np.intp)
        at_slot[topo.slots] = np.arange(count)
        self._closed = at_slot[topo.flat_slots]
        self._items = np.diff(topo.indptr)
        # One spare slot past the spans: a touch of position -1 (a shadow, or
        # a node owned elsewhere) lands there, and no span reads it.
        self._masks = [np.zeros(count + 1, dtype=bool) for _ in range(self.rounds)]
        return topo

    def begin(self, store: NodeStore, round_idx: int, part: int) -> np.ndarray | None:
        """Consume one class of round ``round_idx``'s active set: the
        positions to compute, ascending -- ``None`` for a dense class.  The
        consumed bits clear, ready to collect this sweep's changes."""
        span = self._bind(store).spans[part]
        mask, dense = self._masks[round_idx], self._dense[round_idx]
        active = None if dense[part] else np.flatnonzero(mask[span]) + span.start
        dense[part] = False
        mask[span] = False
        return active

    def _touch(self, positions: np.ndarray) -> None:
        for mask in self._masks:
            mask[positions] = True

    def record_commit(self, store: NodeStore, changed: Sequence[int], ctx: ComputeContext) -> None:
        """Committed owned values changed (``commit_owned``'s list or
        array): those nodes and their owned neighbours must recompute in
        every round."""
        if not len(changed):
            return
        indptr = self._bind(store).indptr
        at = self._position_of[changed]
        items = self._items[at]
        self._touch(self._closed[concat_ranges(indptr[at], items, np.cumsum(items))])
        # One charge per node, ``1 + degree`` items, in commit order and
        # summed left to right.
        cost = np.add.accumulate(ctx.costs.list_item_cost * items)[-1]
        if cost:
            ctx._bookkeeping(float(cost))

    def record_arrivals(self, store: NodeStore, changed: list[int], ctx: ComputeContext) -> None:
        """Shadow values changed: their owned neighbours must recompute."""
        if not changed:
            return
        self._bind(store)
        neighbors = store.graph.neighbors
        touched: list[int] = []
        for gid in changed:
            around = neighbors(gid)
            # One charge per record: an armed slow window scales each by the
            # clock at charge time.
            ctx._bookkeeping(ctx.costs.list_item_cost * (1 + len(around)))
            touched.extend(around)
        self._touch(self._position_of[touched])

    def capture(self, store: NodeStore) -> dict[str, Any]:
        """Checkpoint payload: the active sets as plain sorted gid lists
        (``None`` for a dense class)."""
        topo = self._bind(store)
        gids, spans = topo.gids, topo.spans
        active = [
            [None if dense[p] else sorted(gids[s][mask[s]].tolist()) for p, s in enumerate(spans)]
            for mask, dense in zip(self._masks, self._dense)
        ]
        if self.inner_cap is None:
            return {"dirty": [None if i is None else sorted(i + p) for i, p in active]}
        return {
            "boundary": [peripheral for _, peripheral in active],
            "interior": [internal for internal, _ in active],
            "inner_sweeps": self.inner_sweeps,
        }

    def restore(self, state: dict[str, Any], store: NodeStore) -> None:
        """Reinstate what a checkpoint captured over the restored ``store``
        (rollback path); gids it does not own are dropped."""
        if "dirty" in state:  # both classes at once
            active = [[dirty, dirty] for dirty in state["dirty"]]
        else:
            active = [list(parts) for parts in zip(state["interior"], state["boundary"])]
            self.inner_sweeps = state["inner_sweeps"]
        self.reset_dense()
        self._bind(store)
        self._dense = np.array([[part is None for part in parts] for parts in active])
        for mask, parts in zip(self._masks, active):
            mask[self._position_of[[gid for part in parts for gid in part or ()]]] = True


# --------------------------------------------------------------------- #
# The superstep
# --------------------------------------------------------------------- #


def _unpack(
    store: NodeStore,
    records: tuple[tuple[int, Any], ...],
    ctx: ComputeContext,
    frontier: Frontier | None = None,
) -> None:
    """Write received shadows; a change-driven sweep's ``frontier`` also
    learns which of them changed."""
    changed = store.update_shadows(records)
    if frontier is not None:
        frontier.record_arrivals(store, changed, ctx)
    # Per-record constant plus the appendix's linear scan of the global
    # data node list while locating each record's home.
    ctx._comm_overhead(
        len(records)
        * (ctx.costs.unpack_cost + ctx.costs.unpack_scan_item_cost * ctx.num_nodes / 2)
    )


def superstep(
    comm: Communicator,
    store: NodeStore,
    node_fn: NodeFn,
    ctx: ComputeContext,
    buffers: CommBuffers,
    frontier: Frontier | None = None,
    overlap: bool = False,
) -> int:
    """One compute+communicate superstep; returns how many owned values
    changed.  The module docstring describes the choices; as orders of
    class sweeps (I internal, P peripheral) they come to:

    * Figure 8 -- ``ComputeOverNodes``: I, P (packing), commit.
      ``CommunicateShadows``: send all buffers, blocking-receive from each
      neighbouring processor, barrier, unpack into the data node list.
    * Figure 8a (``overlap``) -- P, send, I while the shadow messages are
      in flight, commit; finally the receives are completed and unpacked
      one by one.
    * ``frontier`` -- the same two orders over the active nodes (layout
      order).  Elision breaks receive symmetry -- a rank can no
      longer post one receive per graph neighbour -- so the sweep barrier
      doubles as the delivery fence: afterwards the mailbox is asked which
      peers actually sent this sweep's tag, and exactly those messages are
      received.
    * ``frontier.inner_cap`` (``overlap`` is ignored) -- P, commit, send
      (the boundary phase), then (I, commit) while the interior frontier
      has active nodes, at most ``inner_cap`` times, with no communication
      at all.  Finally the fence and the drain; arrivals activate only
      boundary nodes, for the *next* superstep.

    The drain is one rule: each receive is unpacked as it completes
    (``neighbor_recv(..., each=)``), after the fence where there is one --
    except in dense Figure 8, the one batch drain (receive all, barrier,
    unpack), where the appendix puts its barrier.

    Quiescence safety: the returned count covers boundary plus all
    interior commits.  Frontier entries are only ever created by a
    *changed* commit (counted here) or a *changed* arrival (counted at
    its sender's commit), so a global all-zero verdict implies every
    frontier on every rank is empty -- a capped-out interior frontier
    always has a nonzero change count backing it.
    """
    buffers.reset()
    sparse = frontier is not None
    inner_cap = frontier.inner_cap if sparse else None
    tag = TAG_SHADOW
    if sparse:
        tag = TAG_SHADOW_DELTA[frontier.parity]
        frontier.parity ^= 1

    def commit(count: int) -> int:
        changed = store.commit_owned()
        # Only the ``count`` recomputed nodes carry a pending value, so only
        # they pay the update charge -- every owned node on a dense sweep
        # (identical to the pre-delta cost model), the active ones on a
        # change-driven sweep: part of the sparse mode's virtual-time win.
        ctx._bookkeeping(ctx.costs.update_cost * count)
        if sparse:
            frontier.record_commit(store, changed, ctx)
        return len(changed)

    def send() -> list[int]:
        # Every nonempty buffer, as one neighbourhood exchange: empty sends
        # are elided (no sender CPU, no wire cost, no receive to match).
        # Buffers go as tuples: the in-process transport passes payloads by
        # reference, and the next ``buffers.reset()`` would otherwise mutate
        # a list the receiver has not drained yet.
        peers = buffers.nonempty_procs()
        comm.neighbor_send([(q, tuple(buffers.outgoing(q)), buffers.nbytes(q)) for q in peers], tag)
        if not sparse:
            # Per-peer receive-buffer allocation + initialization (appendix
            # mallocs a MAX_SIZE recvbuffer per neighbouring processor every
            # call); receives match when completed, so none is posted early.
            ctx._comm_overhead(ctx.costs.recv_setup_cost * len(peers))
        return peers

    def sweep(part: int) -> int:
        return _sweep(store, node_fn, ctx, buffers, frontier, part)

    if inner_cap is not None:
        # ---- Boundary phase (globally synchronous, delta exchange) -------
        # Boundary changes land in the *unconsumed* interior class, feeding
        # this superstep's interior phase; interior commits below land in the
        # freshly consumed boundary class, feeding the next superstep.
        changed = commit(sweep(_PERIPHERAL))
        sources = send()
        # ---- Interior phase (local, asynchronous, overlaps the exchange) --
        sweeps = 0
        while sweeps < inner_cap and (count := sweep(_INTERNAL)):
            sweeps += 1
            changed += commit(count)
        frontier.inner_sweeps += sweeps
    elif overlap:
        count = sweep(_PERIPHERAL)
        sources = send()
        changed = commit(count + sweep(_INTERNAL))
    else:
        count = sweep(_INTERNAL)
        changed = commit(count + sweep(_PERIPHERAL))
        sources = send()

    if sparse:
        # The senders are whoever had a change to report, not the peers just
        # sent to.  Every peer's sends of this sweep happen-before its
        # barrier entry (sends are eagerly buffered), so after release the
        # pending-sources query is deterministic.
        comm.barrier()
        sources = comm.pending_sources(tag)
        ctx._comm_overhead(ctx.costs.recv_setup_cost * len(sources))

    if sparse or overlap:
        comm.neighbor_recv(sources, tag, each=lambda got: _unpack(store, got, ctx, frontier))
        return changed
    received = comm.neighbor_recv(sources, tag)
    # The appendix's CommunicateShadows synchronizes all ranks between the
    # receive loop and the buffer unpacking (its MPI_Barrier) -- one of the
    # per-iteration couplings the Figure-8a order removes.
    comm.barrier()
    for records in received:
        _unpack(store, records, ctx)
    return changed
