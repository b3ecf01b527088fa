"""Platform configuration and overhead cost constants.

The thesis measures six phase/overhead categories (section 5.4).  On the
real machine those overheads arise from pointer chasing through the node
lists; on the virtual-time substrate they are charged explicitly through the
:class:`PlatformCosts` constants below, which were calibrated so that

* single-processor totals track Tables 2-4 (grain dominates, with the
  platform's per-node bookkeeping adding the observed ~8-10 %), and
* fine-grain (0.3 ms) speedups flatten around 8-16 processors, as every
  speedup figure in the paper shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..mpi.scheduler import SCHEDULERS

__all__ = [
    "AT_LEAST",
    "CHOICES",
    "ConfigError",
    "INERT",
    "PlatformConfig",
    "PlatformCosts",
]

#: The one declaration of every enumerated switch: its legal values, the
#: default first.  :class:`PlatformConfig` takes its defaults from it and
#: validates against it, ``cli.build_parser`` takes its ``choices=`` from it,
#: and ``tests/core/test_config_oracle.py`` draws configurations from it.
#: ``scheduler`` is the one switch that is an argument of
#: :meth:`ICPlatform.run <repro.core.platform.ICPlatform.run>`, not a field.
CHOICES: dict[str, tuple[str, ...]] = {
    "rebalance_mode": ("migrate", "repartition"),
    "recovery_policy": ("rollback", "shrink"),
    "integrity": ("off", "checksum", "digest", "full"),
    "execution": ("bsp", "hybrid"),
    "activation": ("dense", "sparse"),
    "converge": ("fixed", "quiescence"),
    "scheduler": SCHEDULERS,
}

#: Lower limit of every bounded :class:`PlatformConfig` field.
AT_LEAST: dict[str, int] = {
    "iterations": 0,
    "lb_period": 1,
    "lb_threshold": 0,
    "comm_rounds": 1,
    "max_migrations_per_pair": 1,
    "checkpoint_period": 0,
    "hybrid_inner_cap": 1,
}

#: Switches a switch value makes inert: under ``execution="hybrid"`` the run
#: is change-driven and overlapped by construction, so neither ``activation``
#: nor ``overlap_communication`` moves any result.
INERT: dict[tuple[str, str], tuple[str, ...]] = {
    ("execution", "hybrid"): ("activation", "overlap_communication"),
}


class ConfigError(ValueError):
    """A :class:`PlatformConfig` field outside its declared range.

    Attributes:
        field: Name of the offending field.
        problem: What is wrong with it (``"must be >= 1, got 0"``).
    """

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


@dataclass(frozen=True)
class PlatformCosts:
    """Virtual-time cost constants for the platform's own bookkeeping.

    Attributes:
        list_item_cost: Forming one entry of the node+neighbours list handed
            to the application node function (computation overhead).
        update_cost: Committing one node's ``most_recent_data`` (computation
            overhead).
        hash_lookup_cost: One hash-table access (computation overhead).
        pack_cost: Appending one record to a communication buffer
            (communication overhead).
        unpack_cost: Draining one received record into the data node list
            via the hash table (communication overhead).
        data_scan_item_cost: Per-list-item cost of the appendix's *linear
            scan of the global data node list* that its SimulatorFunction
            performs for every node computation (the global list holds all
            ``n`` graph nodes on every rank, so this charges
            ``n/2 * data_scan_item_cost`` per node computed) -- the source
            of the paper's superlinear single-processor times.
        unpack_scan_item_cost: Same linear scan, performed per *received*
            record when updating shadow data after communication -- the
            dominant "communication overhead" of Figures 21/22.
        recv_setup_cost: Per neighbouring-processor fixed cost of the
            receive path each sweep: the appendix allocates and initializes
            a fresh ``MAX_SIZE_FOR_RECVBUFFER`` receive buffer per neighbour
            per CommunicateShadows call.
        init_node_cost: Initialization-phase cost per owned node.
        init_shadow_cost: Initialization-phase cost per shadow insertion.
        lb_stat_cost: Per-processor cost of assembling load statistics when
            the balancer runs.
        migrate_fixed_cost: Fixed data-structure surgery cost charged to the
            busy and idle processors per migration.
        migrate_item_cost: Per neighbour-record cost of a migration transfer.
        checkpoint_item_cost: Serializing one data-node record into a
            checkpoint snapshot.
        restore_item_cost: Rebuilding one data-node record (plus its hash
            table slot) while restoring a checkpoint.
        crash_detect_cost: Fixed failure-detection + coordination latency
            every rank pays when a crash fault fires under the ``rollback``
            policy (the ``shrink`` policy prices detection through the
            machine model's heartbeat parameters instead).
        restart_fixed_cost: Extra fixed cost the *crashed* rank pays to
            respawn before it can restore its checkpoint (rollback policy
            only -- it covers process re-launch, MPI re-initialization, and
            rejoining the world communicator, which is why shrinking past
            the failure is usually cheaper).
    """

    list_item_cost: float = 2.0e-6
    update_cost: float = 2.0e-6
    hash_lookup_cost: float = 1.0e-6
    pack_cost: float = 6.0e-6
    unpack_cost: float = 10.0e-6
    data_scan_item_cost: float = 0.8e-6
    unpack_scan_item_cost: float = 0.8e-6
    recv_setup_cost: float = 100.0e-6
    init_node_cost: float = 40.0e-6
    init_shadow_cost: float = 25.0e-6
    lb_stat_cost: float = 20.0e-6
    migrate_fixed_cost: float = 120.0e-6
    migrate_item_cost: float = 15.0e-6
    checkpoint_item_cost: float = 4.0e-6
    restore_item_cost: float = 6.0e-6
    crash_detect_cost: float = 2.0e-3
    restart_fixed_cost: float = 0.5

    def with_overrides(self, **kwargs: Any) -> "PlatformCosts":
        """Copy with selected constants replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class PlatformConfig:
    """Run-time switches of the iC2mpi platform.

    Attributes:
        iterations: Number of compute/communicate sweeps to run.
        dynamic_load_balancing: Enable the periodic load balancer + task
            migration phase (off = pure static partition, the paper's
            "Static Partition" series).
        lb_period: Invoke the balancer every this many iterations (the
            paper uses 10).
        lb_threshold: Relative-work threshold for declaring a processor
            busy (the paper's 25 % -> 0.25).
        overlap_communication: Use the Figure-8a pipeline (peripheral nodes
            first, Isend/Irecv, internals overlap the transfer) instead of
            the basic Figure-8 sequence.
        comm_rounds: Compute/communicate sub-rounds per iteration; the
            battlefield application sets this > 1 ("the computation and
            communication function sequence is called more than once").
        hash_table_length: Accepted and ignored: the data node list is
            indexed by a dict, and the thesis's hash-table probes are priced
            by ``costs.hash_lookup_cost``, which no bucket count changes.
            Kept only because ``benchmarks/perf/workloads.py`` still passes
            it.
        costs: Bookkeeping cost constants.
        max_migrations_per_pair: Tasks to migrate per busy-idle pair per
            balancer invocation (the thesis ships exactly one; its section 7
            calls a multi-task policy future work, so > 1 is our extension).
        rebalance_mode: ``"migrate"`` (the thesis's task migration) or
            ``"repartition"`` (re-run a static partitioner on measured node
            loads and rebuild from scratch -- the costly alternative section
            4.3 warns about, implemented for the section-8 comparison).
        checkpoint_period: Serialize every rank's node store every this many
            iterations (0 = off).  When a fault plan schedules crashes, a
            post-initialization baseline checkpoint is always taken, so
            recovery works even with periodic checkpoints disabled (it just
            replays from iteration 1).  Each rank keeps only its newest
            snapshot.
        recovery_policy: What to do when a crash fault fires:
            ``"rollback"`` (all ranks restore the last checkpoint and
            re-execute, the dead rank resurrected -- PR 1 behaviour) or
            ``"shrink"`` (survivors drop the dead rank from the
            communicator, adopt its checkpointed partition, and continue on
            ``nprocs - 1`` processors).
        integrity: Protection against silent data corruption:
            ``"off"`` (unprotected -- injected flips escape), ``"checksum"``
            (checksummed transport only: message flips are absorbed by a
            priced NACK/retransmit path, memory flips still escape),
            ``"digest"`` (per-superstep partition-state digests detect
            memory flips; every corruption recovers by checkpoint rollback),
            or ``"full"`` (checksums + digests + shadow-replica surgical
            repair: a corrupted *boundary* node is re-fetched point-to-point
            from the neighbor rank that mirrors it, no rollback needed).
        execution: Superstep structure: ``"bsp"`` (every sweep is globally
            synchronous -- the thesis's behaviour) or ``"hybrid"`` (the
            GraphHP split: each superstep first runs a *boundary phase*
            that computes cut-adjacent nodes and exchanges their deltas
            exactly as BSP does, then an *interior phase* where each rank
            iterates its interior active set locally -- no messages, no
            barrier -- until the local frontier drains or
            ``hybrid_inner_cap`` inner sweeps have run, charging virtual
            compute cost per inner sweep).  Hybrid execution requires node
            functions that are *pure per round* (like sparse activation)
            and is only value-equivalent to BSP for order-insensitive
            (chaotic-relaxation) algorithms such as Jacobi/diffusion: the
            fixed point is identical, the trajectory is not.  Hybrid mode
            is inherently change-driven (it supersedes ``activation``) and
            inherently overlaps interior compute with the boundary
            exchange (``overlap_communication`` is ignored).
        hybrid_inner_cap: Most interior sweeps one rank may run inside a
            single superstep in hybrid mode (>= 1); bounds the asynchrony
            so a rank cannot spin its interior forever while peers wait at
            the boundary barrier.
        activation: Which owned nodes each sweep recomputes: ``"dense"``
            (every owned node, every sweep -- the thesis's behaviour) or
            ``"sparse"`` (change-driven: a node is recomputed only when its
            own or a neighbour's committed value changed since it was last
            evaluated; the first sweep of each comm round is always dense).
            Sparse activation requires node functions that are *pure per
            round* -- the returned value must depend only on the node's own
            and neighbours' values.
        store: Accepted and ignored: the node functions and the graph's
            size pick the store
            (:meth:`~repro.core.platform.ICPlatform.vectorized`).  When every
            function ships a bulk kernel (``fn.bulk``) and the ranks average
            enough nodes, each rank keeps a struct-of-arrays store and
            sweeps vectorized, otherwise a store with list columns, swept
            node by node.  Kept only because
            ``benchmarks/perf/workloads.py`` still passes it.
        converge: Termination rule: ``"fixed"`` (run exactly
            ``iterations`` sweeps) or ``"quiescence"`` (additionally stop as
            soon as a global reduction observes that *no* node's committed
            value changed during an iteration -- the computation has reached
            its fixed point and further sweeps cannot alter any value).
        track_trace: Record a per-iteration :class:`~repro.core.trace.
            ExecutionTrace` (makespans, compute imbalance, migrations).
        validate_each_iteration: Run (expensive) data-structure invariant
            checks every iteration -- for tests.
    """

    iterations: int = 20
    dynamic_load_balancing: bool = False
    lb_period: int = 10
    lb_threshold: float = 0.25
    overlap_communication: bool = False
    comm_rounds: int = 1
    hash_table_length: int | None = None
    costs: PlatformCosts = field(default_factory=PlatformCosts)
    max_migrations_per_pair: int = 1
    rebalance_mode: str = CHOICES["rebalance_mode"][0]
    checkpoint_period: int = 0
    recovery_policy: str = CHOICES["recovery_policy"][0]
    integrity: str = CHOICES["integrity"][0]
    store: str | None = None
    execution: str = CHOICES["execution"][0]
    hybrid_inner_cap: int = 32
    activation: str = CHOICES["activation"][0]
    converge: str = CHOICES["converge"][0]
    track_trace: bool = False
    validate_each_iteration: bool = False

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name in AT_LEAST and value < AT_LEAST[name]:
                raise ConfigError(name, f"must be >= {AT_LEAST[name]}, got {value}")
            if name in CHOICES and value not in CHOICES[name]:
                legal = ", ".join(map(repr, CHOICES[name]))
                raise ConfigError(name, f"must be one of {legal}, got {value!r}")

    def with_overrides(self, **kwargs: Any) -> "PlatformConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)
