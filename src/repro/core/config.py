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

import os
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["PlatformCosts", "PlatformConfig"]


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
        hash_table_length: Buckets in each processor's node hash table.
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
            replays from iteration 1).
        checkpoint_keep: Snapshots retained per rank (older ones pruned);
            bounds checkpoint memory on long runs with small periods.
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
        integrity_period: Exchange corruption claims collectively every
            this many iterations (>= 1); digests are still refreshed and
            diffed locally each iteration.  With 1 a flip is agreed on the
            superstep it fires and boundary repair is exact; larger values
            cheapen the exchange at the price of detection latency -- a
            flip detected late
            has contaminated downstream state, so recovery falls back to a
            rollback past the injection point regardless of replicas.
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
            exchange (``overlap_communication`` is ignored).  The default
            honours the ``REPRO_EXECUTION`` environment variable.
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
        store: Node-state representation: ``"object"`` (one
            :class:`~repro.core.node.NodeData` instance per node -- the
            conformance oracle) or ``"soa"`` (struct-of-arrays: contiguous
            numpy arrays for values, versions, and halt flags, with
            vectorized sweeps whenever the node functions carry bulk
            kernels).  Results are bit-identical across stores.  The
            default honours the ``REPRO_STORE`` environment variable, so a
            CI matrix axis can flip the whole suite.  The multiprocess
            execution backend (``scheduler="process"``) requires ``"soa"``:
            worker processes share the store arrays through named
            shared-memory segments, which only the float64 array layout
            can inhabit (see :meth:`validate_for_scheduler`).
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
    hash_table_length: int = 64
    costs: PlatformCosts = field(default_factory=PlatformCosts)
    max_migrations_per_pair: int = 1
    rebalance_mode: str = "migrate"
    checkpoint_period: int = 0
    checkpoint_keep: int = 2
    recovery_policy: str = "rollback"
    integrity: str = "off"
    integrity_period: int = 1
    store: str = field(
        default_factory=lambda: os.environ.get("REPRO_STORE", "object")
    )
    execution: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXECUTION", "bsp")
    )
    hybrid_inner_cap: int = 32
    activation: str = "dense"
    converge: str = "fixed"
    track_trace: bool = False
    validate_each_iteration: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.lb_period < 1:
            raise ValueError(f"lb_period must be >= 1, got {self.lb_period}")
        if self.lb_threshold < 0:
            raise ValueError(f"lb_threshold must be >= 0, got {self.lb_threshold}")
        if self.comm_rounds < 1:
            raise ValueError(f"comm_rounds must be >= 1, got {self.comm_rounds}")
        if self.max_migrations_per_pair < 1:
            raise ValueError(
                f"max_migrations_per_pair must be >= 1, got {self.max_migrations_per_pair}"
            )
        if self.checkpoint_period < 0:
            raise ValueError(
                f"checkpoint_period must be >= 0, got {self.checkpoint_period}"
            )
        if self.checkpoint_keep < 1:
            raise ValueError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep}"
            )
        if self.recovery_policy not in ("rollback", "shrink"):
            raise ValueError(
                f"recovery_policy must be 'rollback' or 'shrink', "
                f"got {self.recovery_policy!r}"
            )
        if self.integrity not in ("off", "checksum", "digest", "full"):
            raise ValueError(
                f"integrity must be 'off', 'checksum', 'digest', or 'full', "
                f"got {self.integrity!r}"
            )
        if self.integrity_period < 1:
            raise ValueError(
                f"integrity_period must be >= 1, got {self.integrity_period}"
            )
        if self.store not in ("object", "soa"):
            raise ValueError(
                f"store must be 'object' or 'soa', got {self.store!r}"
            )
        if self.execution not in ("bsp", "hybrid"):
            raise ValueError(
                f"execution must be 'bsp' or 'hybrid', got {self.execution!r}"
            )
        if self.hybrid_inner_cap < 1:
            raise ValueError(
                f"hybrid_inner_cap must be >= 1, got {self.hybrid_inner_cap}"
            )
        if self.activation not in ("dense", "sparse"):
            raise ValueError(
                f"activation must be 'dense' or 'sparse', got {self.activation!r}"
            )
        if self.converge not in ("fixed", "quiescence"):
            raise ValueError(
                f"converge must be 'fixed' or 'quiescence', got {self.converge!r}"
            )
        if self.rebalance_mode not in ("migrate", "repartition"):
            raise ValueError(
                f"rebalance_mode must be 'migrate' or 'repartition', "
                f"got {self.rebalance_mode!r}"
            )

    def validate_for_scheduler(self, scheduler: str | None) -> None:
        """Reject switch combinations the execution backend cannot honour.

        The multiprocess backend keeps node state in shared float64
        segments, so only the struct-of-arrays store can run on it.  The
        platform calls this before building the cluster, so an unsupported
        pairing fails fast -- no workers forked, no segments allocated --
        with :class:`~repro.mpi.errors.UnsupportedBackendError` instead of
        a mid-run divergence.
        """
        if scheduler == "process" and self.store != "soa":
            from ..mpi.errors import UnsupportedBackendError

            raise UnsupportedBackendError(
                "scheduler='process' requires store='soa': worker processes "
                "share the node arrays through float64 shared-memory "
                f"segments, which the {self.store!r} store cannot inhabit"
            )

    def with_overrides(self, **kwargs: Any) -> "PlatformConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)
