"""The computation & communication phase (Figures 8 and 8a).

The platform invokes the user's *application node function* through a
pointer it maintains -- here, a plain callable.  For each owned node it
forms "a list with the current node's data as the head, followed by the
data of the neighbors" (:class:`NodeView`), calls the function, and stores
the returned value in ``most_recent_data``.  Updated peripheral data is
packed into per-destination communication buffers as the sweep proceeds, so
"by the time the computation routine returns, the communication buffers are
all set up".

There is one pipeline, :func:`superstep`, in GraphHP's shape -- *boundary
phase, exchange, interior phase* -- and three choices a caller makes.  It
computes node by node through the node function or, with ``bulk=True`` on a
struct-of-arrays store, through the function's vectorized kernel (same
values, same virtual charges):

* **Order** (``overlap``).  Figure 8 computes internals, then peripherals
  (packing), commits, then ``Isend`` everything and blocking-receives
  the shadows.  Figure 8a computes the peripherals first and dispatches
  them, so the internals compute *while the transfers are in flight*, then
  waits and unpacks.
* **Activation** (``frontier``).  Without one every owned node computes and
  every peripheral value travels.  With a :class:`Frontier` the sweep is
  change-driven (``--activation sparse``): only *active* nodes (own or
  neighbour value changed since their last evaluation) are recomputed, only
  *changed* peripheral values are packed, empty sends are elided entirely,
  and receivers discover the actual sender set from the mailbox after the
  sweep barrier (the frontier holds the per-round active sets and the
  sweep-parity tag).
* **Interior cap** (``frontier.inner_cap``).  Set, the superstep is GraphHP's
  two-phase one (``--execution hybrid``): the *boundary phase* computes the
  active peripheral nodes and dispatches their deltas exactly like the
  change-driven sweep, then the *interior phase* iterates the interior
  active set locally -- no messages, no barrier -- until the frontier
  drains or the cap is hit, with every inner sweep charged at full virtual
  cost.  The interior loop runs between the ``Isend`` and the barrier, so
  it inherently overlaps the in-flight exchange; arrivals can only
  activate peripheral nodes (an owned node with a remote neighbour is
  peripheral by definition), which is what makes the interior phase safely
  independent of this superstep's traffic.

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

from itertools import compress
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..graphs.graph import concat_ranges
from ..mpi.communicator import Communicator
from .buffers import CommBuffers
from .config import PlatformCosts
from .nodestore import NodeStore
from .soastore import ChargePlan, SoAStore

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

#: The two node classes a sweep computes in separate phases.
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

    @property
    def loads(self) -> np.ndarray:
        """Per-node compute seconds since the last reset, indexed by gid --
        measured node weights for load-aware repartitioning (window-scoped).
        Scalar sweeps add node by node, the bulk accountant a whole sweep at
        once.  Made on first use, after the store's build."""
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
        balancer sees the degraded rank as genuinely busier.
        """
        self.compute_time += self.comm.work(seconds)

    def _bookkeeping(self, seconds: float) -> None:
        """Charge platform bookkeeping (lands in computation overhead)."""
        self.bookkeeping_time += self.comm.work(seconds)

    def _comm_overhead(self, seconds: float) -> None:
        """Charge pack/unpack bookkeeping (lands in communication overhead)."""
        self.comm_overhead_time += self.comm.work(seconds)


NodeFn = Callable[[NodeView, ComputeContext], Any]


def _sweep_positions(
    store: NodeStore, round_idx: int, frontier: Frontier | None, part: int | None
) -> np.ndarray | None:
    """The positions in the store's owned-set layout one sweep computes,
    internal nodes first: the frontier's active set of the round, or the
    ``part`` class of it, consumed and taken in gid order within each class
    -- or, dense, ``None`` for the whole layout, or ``part``'s range."""
    split = store.num_internal()
    active = frontier.begin(store, round_idx, part) if frontier is not None else None
    if active is not None:
        positions = frontier.positions(active)
        if part is None:
            internal = positions < split
            positions = np.concatenate((positions[internal], positions[~internal]))
        return positions
    if part is None:
        return None
    bounds = (0, split) if part == _INTERNAL else (split, store.num_owned())
    return np.arange(*bounds, dtype=np.intp)


class _ScalarPhases:
    """One sweep's two compute phases, node by node through the node
    function, over the store's sweep rows at the positions
    :func:`_sweep_positions` picks; with a ``frontier`` only changed values
    are packed (delta exchange).  ``count`` is the number of nodes the sweep
    computes."""

    def __init__(
        self,
        store: NodeStore,
        node_fn: NodeFn,
        ctx: ComputeContext,
        buffers: CommBuffers,
        frontier: Frontier | None = None,
        part: int | None = None,
    ) -> None:
        self._args = (node_fn, ctx, buffers, frontier is not None)
        rows = store.sweep_rows()
        split = store.num_internal()
        positions = _sweep_positions(store, ctx.round, frontier, part)
        if positions is None:
            self._internal, self._peripheral = rows[:split], rows[split:]
        else:
            picked = [rows[p] for p in positions.tolist()]
            cut = int(np.count_nonzero(positions < split))
            self._internal, self._peripheral = picked[:cut], picked[cut:]
        self.count = len(self._internal) + len(self._peripheral)

    def compute_internal(self) -> None:
        """Compute the selected internal nodes."""
        self._sweep(self._internal, pack=False)

    def compute_peripheral(self) -> None:
        """Compute the selected peripheral nodes, packing as it goes."""
        self._sweep(self._peripheral, pack=True)

    def _sweep(self, rows: list, pack: bool) -> None:
        """Per node, in order: charge the list-forming cost, form the view,
        call the node function, record the node's load and, with ``pack``,
        buffer the fresh value for every processor shadowing the node.  The
        host resolved each neighbourhood once per surgery epoch; the model's
        machine still probes its hash table on every update
        (``hash_lookup_cost * deg`` inside ``node_cost``)."""
        node_fn, ctx, buffers, changed_only = self._args
        work, node_cost, pack_cost = ctx.comm.work, ctx.node_cost, ctx.costs.pack_cost
        iteration, round_idx, loads = ctx.iteration, ctx.round, ctx.loads
        for gid, record, nbrs, records, procs in rows:
            ctx.bookkeeping_time += work(node_cost(len(records)))
            value = record.data
            neighbors = tuple([(v, r.data) for v, r in zip(nbrs, records)])
            before = ctx.compute_time
            fresh = node_fn(NodeView(gid, value, neighbors, iteration, round_idx), ctx)
            record.most_recent_data = fresh
            loads[gid] += ctx.compute_time - before  # the window's measured load
            # With ``changed_only`` a value equal to the committed one is not
            # packed (receivers treat absent records as "shadow still
            # current").
            if pack and not (changed_only and (fresh is None or fresh == value)):
                for proc in procs:
                    buffers.pack(proc, gid, fresh)
                    ctx.comm_overhead_time += work(pack_cost)


# --------------------------------------------------------------------- #
# Bulk (struct-of-arrays) compute phases
# --------------------------------------------------------------------- #
#
# When the store is a SoAStore and the node function carries a *bulk
# kernel* (``fn.bulk``: a callable ``kernel(view) -> ndarray`` with a
# ``node_grain`` float attribute), a ``bulk=True`` sweep computes every
# active node's value in one vectorized pass over a :class:`~repro.core.soastore.BulkView`
# and hands the scalar path's charge sequence for those nodes to the
# accountant (:func:`_charge`) as one *charge plan*.  Every virtual-clock
# addition still happens in the same order with the same amounts, so
# clocks, phase splits, per-node load measurements, and trace streams stay
# bit-identical to the object store's scalar sweeps.
#
# Bulk kernels must be pure (values from committed neighbour state only)
# and must cost exactly ``node_grain`` virtual seconds per node; functions
# with richer cost behaviour simply omit ``.bulk``, and the platform then
# runs them node by node on the object store (as it does kernels on graphs
# too small per rank for the arrays to pay off).


def supports_bulk(node_fns: tuple[NodeFn, ...] | list[NodeFn]) -> bool:
    """Whether every node function carries a bulk kernel."""
    return all(callable(getattr(fn, "bulk", None)) for fn in node_fns)


def _replay_node(gid: int, deg: int, grain: float, ctx: ComputeContext) -> None:
    """Charge one node's scalar-path costs (no value computation)."""
    ctx._bookkeeping(ctx.node_cost(deg))
    before = ctx.compute_time
    ctx.work(grain)
    ctx.loads[gid] += ctx.compute_time - before


def _part(plan: ChargePlan, part: int) -> slice:
    """Where a plan's internal or peripheral nodes sit in its arrays."""
    return slice(0, plan.split) if part == _INTERNAL else slice(plan.split, None)


def _node_costs(ctx: ComputeContext, degrees: np.ndarray) -> np.ndarray:
    """:meth:`ComputeContext.node_cost` per node, as an array."""
    try:
        return np.array(ctx.cost_by_degree)[degrees]
    except IndexError:
        ctx.node_cost(int(degrees.max()))  # fills the memo up to that degree
        return np.array(ctx.cost_by_degree)[degrees]


def _charge_rows(
    node_costs: np.ndarray, grain: float, pack_cost: float, packs: list[int] | None
) -> list[np.ndarray]:
    """Lay a part's charges out as one row per accumulator, each holding
    only its own charges in scalar-path order after a column 0 reserved for
    the seed: the clock (per node its bookkeeping cost, its grain and
    ``packs[i]`` pack charges), bookkeeping (the costs), compute (the
    grains) and, unless the part packs nothing, communication overhead
    (the pack charges)."""
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
    clock[grain_cols] = grain
    bookkeeping = np.empty(1 + count)
    bookkeeping[1:] = node_costs
    rows = [clock, bookkeeping, np.full(1 + count, grain, dtype=float)]
    if packs is not None:
        rows.append(np.full(1 + sum(packs), pack_cost, dtype=float))
    return rows


def _charge(
    ctx: ComputeContext,
    plan: ChargePlan,
    part: int,
    grain: float,
    packed: bool | list[bool] = False,
) -> None:
    """The accountant: charge one sweep over a plan's internal or
    peripheral nodes -- the single seam every bulk-sweep charge goes through.

    Per node, in order, the scalar path charges list-forming bookkeeping,
    the grain, and (``packed``: ``True`` = every node, or a per-node mask)
    one ``pack_cost`` per shadow destination.  With no fault scaling these
    are plain float additions, so each accumulator's own charges -- every
    one for the clock, its bucket's for each of the three time buckets --
    are folded into it by ``np.add.accumulate`` over one row seeded with
    its current value.  ``accumulate`` must produce every prefix, hence
    adds strictly left to right -- the same IEEE-754 operations as the
    scalar path, to the last bit -- where ``np.add.reduce``/``reduceat``
    pair operands up and land an ulp away.  The compute bucket's prefixes
    also yield each node's measured load.  The static rows are memoized on
    the plan, i.e. per surgery epoch (dense) or per geometry LRU slot
    (sparse); only a delta sweep's changing pack mask is laid out per
    call.

    An armed slow window (``slow=`` fault) scales each charge by a factor
    that depends on the clock *at charge time*, so that one case walks the
    nodes through :func:`_replay_node` instead.
    """
    if grain < 0:
        raise ValueError(f"cannot charge negative work: {grain}")
    gids = plan.gids[_part(plan, part)]
    if not len(gids):
        return
    pack_cost = ctx.costs.pack_cost
    packs = None
    if packed is not False and (packed is True or any(packed)):
        packs = [len(procs) for procs in plan.dests]
        if packed is not True:
            packs = [n if hit else 0 for n, hit in zip(packs, packed)]
    degrees = plan.degrees[_part(plan, part)]
    faults = ctx.comm.faults
    if faults is not None and faults.plan.slow:
        for i, (gid, deg) in enumerate(zip(gids.tolist(), degrees.tolist())):
            _replay_node(gid, deg, grain, ctx)
            for _ in range(packs[i] if packs else 0):
                ctx._comm_overhead(pack_cost)
        return

    static = packs is None or packed is True
    key = (ctx.costs, ctx.num_nodes, part, grain, packs is not None)
    template = plan.templates.get(key) if static else None
    if template is None:
        template = _charge_rows(_node_costs(ctx, degrees), grain, pack_cost, packs)
        if static:
            plan.templates[key] = template
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
    # the scalar path measures it (``compute_time - before``).
    compute = sums[2]
    ctx.loads[gids] += compute[1:] - compute[:-1]


#: The plan of a sweep whose active set selects nothing.
_NO_NODES = ChargePlan(np.empty(0, np.int64), np.empty(0, np.int64), 0, [])


class _BulkPhases:
    """:class:`_ScalarPhases` over the struct-of-arrays store: the kernel
    computes every selected node's pending value up front, in one pass (it
    is not called when an active set selects nothing); the two phases are
    then pure accounting plus packing of the peripheral nodes' values."""

    def __init__(
        self,
        store: SoAStore,
        node_fn: NodeFn,
        ctx: ComputeContext,
        buffers: CommBuffers,
        frontier: Frontier | None = None,
        part: int | None = None,
    ) -> None:
        kernel = node_fn.bulk
        self._ctx, self._buffers, self._changed_only = ctx, buffers, frontier is not None
        self._grain = kernel.node_grain
        positions = _sweep_positions(store, ctx.round, frontier, part)
        if positions is not None and not len(positions):
            self._plan, self._fresh, self._committed, self.count = _NO_NODES, [], [], 0
            return
        view = store.bulk_view(
            positions, ctx.iteration, ctx.round, key="dense" if positions is None else None
        )
        self._plan = view.plan
        split = view.plan.split
        # Exact Python objects, as the scalar path puts on the wire.
        self._fresh = store.scatter_pending(positions, kernel(view), boxed_from=split)
        self._committed = view.values[split:].tolist() if self._changed_only else []
        self.count = len(view)

    def compute_internal(self) -> None:
        """Charge the internal nodes' share of the sweep."""
        _charge(self._ctx, self._plan, _INTERNAL, self._grain)

    def compute_peripheral(self) -> None:
        """Charge the peripheral nodes' share and pack their fresh values --
        all, or only those differing from the committed value, exactly as
        :meth:`_ScalarPhases._sweep` decides."""
        plan, fresh = self._plan, self._fresh
        packed: bool | list[bool] = True
        if self._changed_only:
            packed = [not (v is None or v == c) for v, c in zip(fresh, self._committed)]
        _charge(self._ctx, plan, _PERIPHERAL, self._grain, packed)
        for proc, rows, gids in _destinations(plan):
            if packed is not True:
                hits = [packed[i] for i in rows]
                rows, gids = list(compress(rows, hits)), list(compress(gids, hits))
            self._buffers.pack_all(proc, gids, [fresh[i] for i in rows])


def _destinations(plan: ChargePlan) -> list[tuple[int, list[int], list[int]]]:
    """Per shadow destination of a plan's peripheral nodes: the rows (into
    ``plan.dests``) and gids of the nodes it shadows, in plan order --
    each buffer's record order under per-node packing.  Memoized on the
    plan."""
    by_dest = plan.templates.get("destinations")
    if by_dest is None:
        rows: dict[int, list[int]] = {}
        for i, procs in enumerate(plan.dests):
            for proc in procs:
                rows.setdefault(proc, []).append(i)
        gids = plan.gids[plan.split :]
        by_dest = plan.templates["destinations"] = [
            (proc, idx, gids[idx].tolist()) for proc, idx in rows.items()
        ]
    return by_dest


# --------------------------------------------------------------------- #
# Change-driven (delta / active-set) execution
# --------------------------------------------------------------------- #


class _FrontierIndex:
    """What a :class:`Frontier` derives from a store's owned set, rebuilt
    once per surgery epoch.  *Local* indices number the owned nodes in gid
    order -- the order active sets are consumed in."""

    def __init__(self, store: NodeStore) -> None:
        self.store = store
        self.epoch = store.surgery_epoch
        owned = np.array(store.owned_gids(), dtype=np.int64)
        #: Sweep position (in the store's owned-set layout) of each local.
        self.position = np.argsort(owned)
        #: Owned gids, ascending.
        self.gids = owned[self.position]
        count = len(self.gids)
        #: ``gid -> local`` (-1 for a node this rank does not own).
        self.local_of = np.full(store.graph.num_nodes + 1, -1, dtype=np.intp)
        self.local_of[self.gids] = np.arange(count)
        is_peripheral = self.position >= store.num_internal()
        #: Membership masks of the two node classes (``None`` = both).
        self.classes = {
            None: np.ones(count, dtype=bool),
            _INTERNAL: ~is_peripheral,
            _PERIPHERAL: is_peripheral,
        }
        #: ``1 + degree`` per owned node, over the *whole* graph.
        self.items, closed = store.graph.csr().rows(self.gids - 1, closed=True)
        # CSR of the owned closed neighbourhoods, as locals: row ``i`` is
        # ``targets[starts[i] : starts[i] + lens[i]]``.
        flat = self.local_of[closed]
        kept = np.concatenate(([0], np.cumsum(flat >= 0)))
        bounds = kept[np.concatenate(([0], np.cumsum(self.items)))]
        self.starts, self.lens = bounds[:-1], np.diff(bounds)
        self.targets = flat[flat >= 0]

    def closed_neighbourhoods(self, local: np.ndarray) -> np.ndarray:
        """The owned nodes in the closed neighbourhoods of ``local`` (a
        node once per neighbourhood it lies in)."""
        lens = self.lens[local]
        return self.targets[concat_ranges(self.starts[local], lens, np.cumsum(lens))]


class Frontier:
    """Per-rank state of change-driven execution: which owned nodes must
    recompute, per communication round.

    One boolean mask per round over the rank's owned nodes *in gid order*
    (a node is set when its own or a neighbour's value changed since the
    start of that round's last sweep), plus a *dense* flag per (round, node
    class): a dense class computes every node, in layout order (the first
    iteration, and after any ownership change: migration, repartition,
    shrink recovery), and discards what was touched into it meanwhile.
    Dense is a state of its own rather than an all-true mask because the
    two orders differ after a migration and charges are order-sensitive
    float sums.

    Per-round masks (rather than a single frontier) keep multi-round
    applications like the battlefield simulation sound: round ``r``'s
    function may move a value even when round ``r-1``'s left it alone, so a
    node may only skip round ``r`` if nothing in its closed neighbourhood
    changed since its last *round-r* evaluation.

    The change-driven sweeps consume a round whole (``part=None``); the
    hybrid sweep consumes it by node class -- the peripheral (*boundary*)
    nodes once per superstep, the internal (*interior*) nodes repeatedly
    inside it, up to ``inner_cap`` sweeps (``None`` outside hybrid
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
        """Fall back to dense sweeps for every round and class.

        Called after any event that changes ownership or rebuilds stores
        from bare values (migration, repartition, shrink recovery) -- a
        dense round is a safe superset of any frontier, and purity makes
        the extra evaluations value-neutral.
        """
        self._index: _FrontierIndex | None = None
        #: Active gids per round and class (``None`` = dense) while no index
        #: is bound: a restore can run before the store it describes exists.
        self._unbound: list[list[list[int] | None]] = [[None, None]] * self.rounds

    def _bind(self, store: NodeStore) -> _FrontierIndex:
        """The index for ``store`` as it is now; the active sets carry over
        by gid when it had to be rebuilt."""
        index = self._index
        if index is None or index.store is not store or index.epoch != store.surgery_epoch:
            active = self._active()
            index = self._index = _FrontierIndex(store)
            self._dense = np.array([[part is None for part in parts] for parts in active])
            self._masks = []
            for parts in active:
                local = index.local_of[[gid for part in parts for gid in part or ()]]
                mask = np.zeros(len(index.gids), dtype=bool)
                mask[local[local >= 0]] = True
                self._masks.append(mask)
        return index

    def _active(self) -> list[list[list[int] | None]]:
        """Active gids per round and class, ascending (``None`` = dense)."""
        index = self._index
        if index is None:
            return self._unbound
        return [
            [
                None if dense[part] else index.gids[mask & index.classes[part]].tolist()
                for part in (_INTERNAL, _PERIPHERAL)
            ]
            for mask, dense in zip(self._masks, self._dense)
        ]

    def begin(self, store: NodeStore, round_idx: int, part: int | None = None) -> np.ndarray | None:
        """Consume round ``round_idx``'s active set, or one class of it: the
        local indices to compute, ascending -- ``None`` for a dense sweep.
        The consumed bits clear, ready to collect this sweep's changes."""
        index = self._bind(store)
        members = index.classes[part]
        mask = self._masks[round_idx]
        parts = slice(None) if part is None else part
        if self._dense[round_idx, parts].any():
            self._dense[round_idx, parts] = False
            mask[members] = False
            return None
        active = np.flatnonzero(mask & members)
        mask[active] = False
        return active

    def positions(self, active: np.ndarray) -> np.ndarray:
        """The sweep positions of :meth:`begin`'s local indices (in gid
        order)."""
        return self._index.position[active]

    def _touch(self, local: np.ndarray) -> None:
        for mask in self._masks:
            mask[local] = True

    def record_commit(self, store: NodeStore, changed: Sequence[int], ctx: ComputeContext) -> None:
        """Committed owned values changed (``commit_owned``'s list or
        array): those nodes and their owned neighbours must recompute in
        every round."""
        if not len(changed):
            return
        index = self._bind(store)
        local = index.local_of[changed]
        self._touch(index.closed_neighbourhoods(local))
        # One charge per node in commit order, summed left to right.
        cost = np.add.accumulate(ctx.costs.list_item_cost * index.items[local])[-1]
        if cost:
            ctx._bookkeeping(float(cost))

    def record_arrivals(self, store: NodeStore, changed: list[int], ctx: ComputeContext) -> None:
        """Shadow values changed: their owned neighbours must recompute."""
        if not changed:
            return
        index = self._bind(store)
        neighbors = store.graph.neighbors
        touched: list[int] = []
        for gid in changed:
            around = neighbors(gid)
            # One charge per record: an armed slow window scales each by the
            # clock at charge time.
            ctx._bookkeeping(ctx.costs.list_item_cost * (1 + len(around)))
            touched.extend(around)
        local = index.local_of[touched]
        self._touch(local[local >= 0])

    def capture(self, store: NodeStore) -> dict[str, Any]:
        """Checkpoint payload: the active sets as plain sorted gid lists."""
        self._bind(store)
        active = self._active()
        if self.inner_cap is None:
            return {"dirty": [None if i is None else sorted(i + p) for i, p in active]}
        return {
            "boundary": [peripheral for _, peripheral in active],
            "interior": [internal for internal, _ in active],
            "inner_sweeps": self.inner_sweeps,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Reinstate what a checkpoint captured (rollback path)."""
        self.reset_dense()
        if "dirty" in state:  # both classes at once; binding takes the union
            self._unbound = [[dirty, dirty] for dirty in state["dirty"]]
        else:
            self._unbound = [list(parts) for parts in zip(state["interior"], state["boundary"])]
            self.inner_sweeps = state["inner_sweeps"]


# --------------------------------------------------------------------- #
# The superstep
# --------------------------------------------------------------------- #


def _send_all(comm: Communicator, buffers: CommBuffers, tag: int) -> list[int]:
    """Dispatch every nonempty buffer as one neighbourhood exchange; returns
    the peer list (symmetric on a dense sweep).  Empty sends are elided
    entirely (no sender CPU, no wire cost, no receive to match).

    Buffers are snapshotted into tuples: the in-process transport passes
    payloads by reference, and the next sweep's ``buffers.reset()`` would
    otherwise mutate a list the receiver has not drained yet.
    """
    peers = buffers.nonempty_procs()
    comm.neighbor_send(
        [(q, tuple(buffers.outgoing(q)), buffers.nbytes(q)) for q in peers], tag
    )
    return peers


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
    bulk: bool = False,
) -> int:
    """One compute+communicate superstep; returns how many owned values
    changed.  The module docstring describes the three choices; in step
    order they come to:

    * Figure 8 -- ``ComputeOverNodes``: internals, then peripherals with
      packing, then commit.  ``CommunicateShadows``: Isend all buffers,
      blocking-receive from each neighbouring processor, unpack into the
      data node list.
    * Figure 8a (``overlap``) -- peripherals are processed and dispatched
      first, internals compute while the shadow messages are in flight,
      finally the receives are completed and unpacked one by one.
    * ``frontier`` -- the same two orders over the active nodes (gid order
      within each class).  Elision breaks receive symmetry -- a rank can no
      longer post one receive per graph neighbour -- so the sweep barrier
      doubles as the delivery fence: afterwards the mailbox is asked which
      peers actually sent this sweep's tag, and exactly those messages are
      received.
    * ``frontier.inner_cap`` (``overlap`` is ignored) -- boundary phase: the
      change-driven sweep restricted to the cut.  Interior phase: the
      interior frontier is iterated locally, each sweep committing and
      re-deriving the next frontier, with no communication at all.  Finally
      the fence and the drain; arrivals activate only boundary nodes, for
      the *next* superstep.

    Quiescence safety: the returned count covers boundary plus all
    interior commits.  Frontier entries are only ever created by a
    *changed* commit (counted here) or a *changed* arrival (counted at
    its sender's commit), so a global all-zero verdict implies every
    frontier on every rank is empty -- a capped-out interior frontier
    always has a nonzero change count backing it.
    """
    buffers.reset()
    make_phases = _BulkPhases if bulk else _ScalarPhases
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

    def dispatch() -> list[int]:
        peers = _send_all(comm, buffers, tag)
        if not sparse:
            # Per-peer receive-buffer allocation + initialization (appendix
            # mallocs a MAX_SIZE recvbuffer per neighbouring processor every
            # call).  Receives are matched when completed, so nothing needs
            # posting before the internal phase for the transfers to overlap
            # it.
            ctx._comm_overhead(ctx.costs.recv_setup_cost * len(peers))
        return peers

    if inner_cap is not None:
        # ---- Boundary phase (globally synchronous, delta exchange) -------
        boundary = make_phases(store, node_fn, ctx, buffers, frontier, _PERIPHERAL)
        boundary.compute_peripheral()
        # Boundary changes land in the *unconsumed* interior class, feeding
        # this superstep's interior phase; interior commits below land in the
        # freshly consumed boundary class, feeding the next superstep.
        changed = commit(boundary.count)
        sources = dispatch()
        # ---- Interior phase (local, asynchronous, overlaps the exchange) --
        sweeps = 0
        while sweeps < inner_cap:
            interior = make_phases(store, node_fn, ctx, buffers, frontier, _INTERNAL)
            if not interior.count:
                break
            sweeps += 1
            interior.compute_internal()
            changed += commit(interior.count)
        frontier.inner_sweeps += sweeps
    else:
        phases = make_phases(store, node_fn, ctx, buffers, frontier)
        if overlap:
            phases.compute_peripheral()
            sources = dispatch()
            phases.compute_internal()
            changed = commit(phases.count)
        else:
            phases.compute_internal()
            phases.compute_peripheral()
            changed = commit(phases.count)
            sources = dispatch()

    if sparse:
        # The senders are whoever had a change to report, not the peers just
        # sent to.  Every peer's sends of this sweep happen-before its
        # barrier entry (sends are eagerly buffered), so after release the
        # pending-sources query is deterministic.
        comm.barrier()
        sources = comm.pending_sources(tag)
        ctx._comm_overhead(ctx.costs.recv_setup_cost * len(sources))

    if overlap and inner_cap is None:
        comm.neighbor_recv(sources, tag, each=lambda got: _unpack(store, got, ctx, frontier))
        return changed
    received = comm.neighbor_recv(sources, tag)
    if not sparse:
        # The appendix's CommunicateShadows synchronizes all ranks between
        # the receive loop and the buffer unpacking (its MPI_Barrier) -- one
        # of the per-iteration couplings the Figure-8a order removes.
        comm.barrier()
    for records in received:
        _unpack(store, records, ctx, frontier)
    return changed
