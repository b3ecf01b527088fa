"""The iC2mpi platform driver.

:class:`ICPlatform` wires the three phases together exactly as Figure 6's
flow of control prescribes:

1. **Initialization** -- a static partitioner (plug-in) provides the
   node-to-processor mapping; every rank builds its node lists, data node
   list and hash table (:class:`~repro.core.nodestore.NodeStore`).
2. **Computation & communication** -- ``iterations`` sweeps of
   compute-over-nodes plus the shadow exchange (basic Figure-8 or
   overlapped Figure-8a pipeline; the battlefield app runs the sequence
   ``comm_rounds`` times per step).
3. **Load balancing & task migration** -- when dynamic load balancing is
   enabled, every ``lb_period`` iterations rank 0 assembles the run-time
   processor graph, the balancer plug-in nominates busy-idle pairs, and
   tasks migrate.

The whole thing executes on the virtual-time simulated cluster, so
``result.elapsed`` is directly comparable (in *shape*) with the wall-clock
seconds of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from ..graphs.graph import Graph
from ..mpi.communicator import Communicator
from ..mpi.failure import FailureDetector
from ..mpi.faults import FaultPlan, FaultReport
from ..mpi.runtime import SimCluster
from ..mpi.timing import ORIGIN2000, MachineModel
from ..partitioning.base import Partition
from .buffers import CommBuffers
from .checkpoint import Checkpointer
from .compute import (
    ComputeContext,
    Frontier,
    NodeFn,
    supports_bulk,
    sweep_basic,
    sweep_basic_delta,
    sweep_hybrid,
    sweep_overlapped,
    sweep_overlapped_delta,
)
from .config import PlatformConfig
from .integrity import IntegrityGuard, inject_memory_flips
from .loadbalance import CentralizedHeuristicBalancer, LoadBalancer
from .migration import MigrationEvent, load_balance_phase
from .nodestore import NodeStore
from .phases import PhaseTimes
from .recovery import send_dying_checkpoint, shrink_reconfigure
from .repartition import repartition_phase
from .soastore import SoAStore
from .trace import (
    ExecutionTrace,
    IntegrityRecord,
    IterationRecord,
    QuiescenceRecord,
    ReconfigurationRecord,
)

__all__ = ["ICPlatform", "PlatformResult", "RankOutcome", "run_platform"]

InitValueFn = Callable[[int], Any]


@dataclass
class RankOutcome:
    """What one rank reports back after the run.

    ``rank`` is always the *world* rank (shrinking recovery re-ranks the
    communicator, but outcomes stay addressed by the original identity).
    A rank killed by a crash fault under the shrink policy reports
    ``dead=True`` with empty values/ownership; its trace records past its
    last checkpoint are pruned (survivors re-executed those iterations
    without it).
    """

    rank: int
    elapsed: float
    phases: PhaseTimes
    values: dict[int, Any]
    owned: list[int]
    migrations: list[MigrationEvent]
    versions: dict[int, int] = field(default_factory=dict)
    repartitions: int = 0
    trace_records: list[IterationRecord] = field(default_factory=list)
    recoveries: int = 0
    checkpoints: int = 0
    dead: bool = False
    reconfigurations: list[ReconfigurationRecord] = field(default_factory=list)
    integrity_records: list[IntegrityRecord] = field(default_factory=list)
    repairs: int = 0
    quiescence_records: list[QuiescenceRecord] = field(default_factory=list)
    iterations_executed: int = 0
    inner_sweeps: int = 0
    sparse_geom_hits: int = 0
    sparse_geom_misses: int = 0


@dataclass
class PlatformResult:
    """Aggregated outcome of a platform run.

    Attributes:
        elapsed: Virtual makespan (all ranks synchronize on a final
            barrier, so every rank reports the same figure) -- the number
            the paper's tables print.
        nprocs: Processors used.
        iterations: Sweeps executed.
        phases: Per-rank phase breakdowns (Figures 21/22 plot their mean
            over ranks 2..16).
        values: Final committed value of every node, merged across ranks.
        versions: Final owner-side version counter of every node (how many
            times its committed value changed), merged across ranks -- a
            conformance signal the differential store oracle pins.
        final_assignment: Node-to-processor map after any migrations.
        migrations: Every executed migration, in order.
        repartitions: Full from-scratch repartitions executed (repartition
            rebalance mode only).
        recoveries: Recovery events performed after injected crashes
            (rollbacks or shrinks; collective, so this counts *events*, not
            per-rank actions).
        checkpoints: Checkpoints each rank took (baseline + periodic).
        dead_ranks: World ranks lost to crash faults under the shrink
            policy (empty under rollback -- the dead are resurrected).
        repairs: Corrupted nodes healed surgically from shadow replicas
            (``integrity="full"`` only); corruption events that instead
            rolled back count under ``recoveries``.
        quiesced_at: Iteration at which quiescence termination fired (no
            node's value changed globally), or ``None`` when the run went
            the configured distance; when set, ``iterations`` reports the
            sweeps actually executed rather than the configured count.
        messages_delivered: Point-to-point messages the simulated cluster
            delivered over the whole run (shadow exchange, collectives,
            migration, recovery) -- the figure the delta exchange shrinks.
        barriers: Global barrier releases the simulated cluster executed
            over the whole run -- the figure hybrid execution shrinks (its
            interior sweeps are barrier-free).
        inner_sweeps: Interior sweeps executed across all ranks under
            ``execution="hybrid"`` (0 under BSP) -- the asynchronous work
            that replaced full supersteps.
        sparse_geom_hits: Anonymous sparse BulkView geometry-LRU hits
            summed over ranks (SoA store only).
        sparse_geom_misses: Geometry-LRU misses (CSR gathers actually
            built) summed over ranks.
        fault_report: Tally of injected fault activity when the run used a
            :class:`~repro.mpi.faults.FaultPlan`, else ``None``.
    """

    elapsed: float
    nprocs: int
    iterations: int
    phases: list[PhaseTimes]
    values: dict[int, Any]
    final_assignment: tuple[int, ...]
    migrations: list[MigrationEvent]
    versions: dict[int, int] = field(default_factory=dict)
    repartitions: int = 0
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    recoveries: int = 0
    checkpoints: int = 0
    dead_ranks: tuple[int, ...] = ()
    repairs: int = 0
    quiesced_at: int | None = None
    messages_delivered: int = 0
    barriers: int = 0
    inner_sweeps: int = 0
    sparse_geom_hits: int = 0
    sparse_geom_misses: int = 0
    fault_report: FaultReport | None = None

    @property
    def mean_phases(self) -> PhaseTimes:
        """Average phase breakdown across ranks."""
        return PhaseTimes.mean(self.phases)


class ICPlatform:
    """The platform: plug in a graph, a node function, and go.

    Args:
        graph: The application program graph.
        node_fn: The application node function (or a sequence of them, one
            per communication round -- the battlefield customization).
        init_value: ``gid -> initial value`` (default: the gid itself, as
            the appendix initializes ``data = globalID``).
        config: Run-time switches (:class:`PlatformConfig`).
        balancer: Dynamic load balancer plug-in; defaults to the thesis's
            centralized heuristic at the configured threshold.
        repartitioner: Static partitioner used by the ``"repartition"``
            rebalance mode; defaults to the Metis-like multilevel plug-in.
    """

    def __init__(
        self,
        graph: Graph,
        node_fn: NodeFn | Sequence[NodeFn],
        init_value: InitValueFn | None = None,
        config: PlatformConfig | None = None,
        balancer: LoadBalancer | None = None,
        repartitioner: Any = None,
    ) -> None:
        self.graph = graph
        self.config = config or PlatformConfig()
        if callable(node_fn):
            self.node_fns: tuple[NodeFn, ...] = (node_fn,) * self.config.comm_rounds
        else:
            fns = tuple(node_fn)
            if len(fns) != self.config.comm_rounds:
                raise ValueError(
                    f"{len(fns)} node functions for comm_rounds={self.config.comm_rounds}"
                )
            self.node_fns = fns
        self.init_value: InitValueFn = init_value or (lambda gid: gid)
        self.balancer = balancer or CentralizedHeuristicBalancer(self.config.lb_threshold)
        if repartitioner is None and self.config.rebalance_mode == "repartition":
            from ..partitioning.multilevel.kway import MetisLikePartitioner

            repartitioner = MetisLikePartitioner(seed=0, trials=1)
        self.repartitioner = repartitioner

    # ------------------------------------------------------------------ #

    def run(
        self,
        partition: Partition,
        machine: MachineModel = ORIGIN2000,
        deadlock_timeout: float = 30.0,
        faults: FaultPlan | None = None,
        sched_jitter: Callable[[], None] | None = None,
        scheduler: str | None = None,
    ) -> PlatformResult:
        """Execute the configured number of iterations on the partition.

        Args:
            partition: Static node-to-processor mapping to start from.
            machine: Virtual-time machine model.
            deadlock_timeout: Real-seconds watchdog for the simulated
                cluster.
            faults: Optional deterministic fault-injection plan (message
                delays/drops, slow ranks, crashes).  Crash events require
                the platform to recover via checkpoint/restart; a baseline
                checkpoint is always taken when crashes are scheduled.
            sched_jitter: Test hook forwarded to :class:`SimCluster` --
                called at thread scheduling points to perturb the *host*
                schedule without affecting virtual-time results.
            scheduler: Execution backend for the simulated cluster
                (``"event"``, ``"threads"``, or ``"process"``); ``None``
                lets the cluster pick (event unless jitter fuzzing is
                armed).  Virtual-time results are identical on every
                backend; ``"process"`` additionally runs each rank as a
                real OS process over shared-memory SoA stores and
                requires ``config.store == "soa"``.
        """
        if partition.graph is not self.graph and partition.graph != self.graph:
            raise ValueError("partition was computed for a different graph")
        self.config.validate_for_scheduler(scheduler)
        nprocs = partition.nparts
        cluster = SimCluster(
            nprocs,
            machine=machine,
            deadlock_timeout=deadlock_timeout,
            faults=faults,
            sched_jitter=sched_jitter,
            checksums=self.config.integrity in ("checksum", "full"),
            scheduler=scheduler,
        )
        outcomes: list[RankOutcome] = cluster.run(self._rank_main, partition)

        values: dict[int, Any] = {}
        versions: dict[int, int] = {}
        for outcome in outcomes:
            values.update(outcome.values)
            versions.update(outcome.versions)
        final_assignment = [0] * self.graph.num_nodes
        for outcome in outcomes:
            for gid in outcome.owned:
                final_assignment[gid - 1] = outcome.rank
        # Migration/repartition/recovery logs are recorded collectively, so
        # any *surviving* rank's copy is authoritative (rank 0 itself may be
        # the one the fault plan killed).
        reporter = next(o for o in outcomes if not o.dead)
        quiesced_at = (
            reporter.quiescence_records[0].iteration
            if reporter.quiescence_records
            else None
        )
        return PlatformResult(
            elapsed=max(o.elapsed for o in outcomes),
            nprocs=nprocs,
            iterations=reporter.iterations_executed,
            phases=[o.phases for o in outcomes],
            values=values,
            versions=versions,
            final_assignment=tuple(final_assignment),
            migrations=list(reporter.migrations),
            repartitions=reporter.repartitions,
            trace=ExecutionTrace(
                (record for outcome in outcomes for record in outcome.trace_records),
                (
                    record
                    for outcome in outcomes
                    for record in outcome.reconfigurations
                ),
                (
                    record
                    for outcome in outcomes
                    for record in outcome.integrity_records
                ),
                (
                    record
                    for outcome in outcomes
                    for record in outcome.quiescence_records
                ),
            ),
            recoveries=reporter.recoveries,
            repairs=reporter.repairs,
            checkpoints=sum(o.checkpoints for o in outcomes),
            dead_ranks=tuple(sorted(o.rank for o in outcomes if o.dead)),
            quiesced_at=quiesced_at,
            messages_delivered=cluster.messages_delivered,
            barriers=cluster.barriers,
            inner_sweeps=sum(o.inner_sweeps for o in outcomes),
            sparse_geom_hits=sum(o.sparse_geom_hits for o in outcomes),
            sparse_geom_misses=sum(o.sparse_geom_misses for o in outcomes),
            fault_report=(
                cluster.fault_state.report() if cluster.fault_state is not None else None
            ),
        )

    # ------------------------------------------------------------------ #

    def _rank_main(self, comm: Communicator, partition: Partition) -> RankOutcome:
        config = self.config
        phases = PhaseTimes()
        # Hybrid execution supersedes the activation switch (it is
        # inherently change-driven).  Both thread one Frontier through the
        # sweeps; the dense pipelines keep the thesis's exact behaviour.
        hybrid = config.execution == "hybrid"
        frontier = (
            Frontier(len(self.node_fns), config.hybrid_inner_cap if hybrid else None)
            if hybrid or config.activation == "sparse"
            else None
        )
        # The struct-of-arrays store takes the vectorized pipelines whenever
        # every node function ships a bulk kernel; functions without one
        # (imbalance schedules, battlefield) run the scalar sweeps, which
        # are equally conformant on either store.
        store_cls = SoAStore if config.store == "soa" else NodeStore
        bulk = config.store == "soa" and supports_bulk(self.node_fns)
        if hybrid:
            sweep = partial(sweep_hybrid, frontier=frontier, bulk=bulk)
        elif frontier is not None:
            delta_sweep = (
                sweep_overlapped_delta
                if config.overlap_communication
                else sweep_basic_delta
            )
            sweep = partial(delta_sweep, frontier=frontier, bulk=bulk)
        elif config.overlap_communication:
            sweep = partial(sweep_overlapped, bulk=bulk)
        else:
            sweep = partial(sweep_basic, bulk=bulk)
        quiescing = config.converge == "quiescence"
        # Stable identity: shrink recovery re-ranks the communicator, but
        # outcomes and trace records stay addressed by the original rank.
        world_rank = comm.rank

        # ---- Initialization phase -------------------------------------
        t0 = comm.Wtime()
        assignment = list(partition.assignment)  # this rank's output_arr copy
        ctx = ComputeContext(comm, config.costs, self.graph.num_nodes)
        store = store_cls(
            comm.rank,
            self.graph,
            assignment,
            self.init_value,
            hash_table_length=config.hash_table_length,
        )
        # Process-backend workers back the SoA arrays with a named
        # shared-memory segment (no-op on the in-thread backends).
        allocator = comm._cluster.shared_store_allocator()
        if allocator is not None:
            store.use_shared_arrays(allocator)
        num_shadows = len(store.shadow_gids())
        comm.work(
            config.costs.init_node_cost * store.num_owned()
            + config.costs.init_shadow_cost * num_shadows
        )
        comm.barrier()
        phases.initialization = comm.Wtime() - t0

        # ---- Iterate ---------------------------------------------------
        buffers = CommBuffers(comm.size)
        migrations: list[MigrationEvent] = []
        repartitions = 0
        window_exec_time = 0.0

        trace_records: list[IterationRecord] = []

        # Checkpoint/restart machinery (fault-injection support).  Crash
        # events are declared in the fault plan, so every rank sees the same
        # ones at the same iteration: detection, rollback, and re-execution
        # stay collective and deterministic.
        fault_state = comm.faults
        plan = fault_state.plan if fault_state is not None else None
        has_crashes = plan is not None and bool(plan.crashes)
        checkpointer = Checkpointer(config.checkpoint_period, keep=config.checkpoint_keep)
        recoveries = 0
        attempt = 0
        handled_crashes: set[tuple[int, int]] = set()
        shrinking = has_crashes and config.recovery_policy == "shrink"
        detector = (
            FailureDetector(plan, comm.machine, comm.size) if shrinking else None
        )
        reconfigurations: list[ReconfigurationRecord] = []

        # Silent-corruption machinery.  Memory flips fire whenever the plan
        # schedules them; whether anything *notices* depends on the
        # configured integrity level (see PlatformConfig.integrity).
        has_flips = plan is not None and bool(plan.flips)
        digesting = config.integrity in ("digest", "full")
        guard = (
            IntegrityGuard(
                comm,
                store,
                repair=config.integrity == "full",
                period=config.integrity_period,
            )
            if digesting
            else None
        )
        applied_flips: set[tuple[int, int, int | None]] = set()
        integrity_records: list[IntegrityRecord] = []
        repairs = 0
        quiescence_records: list[QuiescenceRecord] = []

        def loop_extras() -> dict[str, Any]:
            # Rollback-sensitive loop state that lives outside the store.
            # The frontier rides under the key of the mode it serves.
            active = frontier.capture(store) if frontier is not None else None
            return {
                "window_exec_time": window_exec_time,
                "migrations": list(migrations),
                "repartitions": repartitions,
                "node_compute": ctx.node_loads(),
                "delta": None if hybrid else active,
                "hybrid": active if hybrid else None,
            }

        def restore_delta(extras: dict[str, Any]) -> None:
            # Reinstate the change frontier a checkpoint captured -- a
            # rollback must not resume with an empty frontier (nodes whose
            # pending changes were rolled back would never recompute).
            if frontier is not None:
                frontier.restore(extras["hybrid" if hybrid else "delta"])

        if has_crashes or (digesting and has_flips) or checkpointer.period:
            # Post-initialization baseline: guarantees a recovery point even
            # before the first periodic checkpoint is due.  Digest-detected
            # corruption may need it too: rollback is the fallback whenever
            # surgical repair is impossible.
            t_ck = comm.Wtime()
            checkpointer.take(0, store, **loop_extras())
            comm.work(config.costs.checkpoint_item_cost * len(store.data_records))
            phases.recovery += comm.Wtime() - t_ck

        if guard is not None:
            t_ig = comm.Wtime()
            guard.refresh()
            phases.recovery += comm.Wtime() - t_ig

        iteration = 1
        while iteration <= config.iterations:
            if shrinking:
                detected = detector.poll(iteration)
                dead_locals = (
                    sorted(
                        local
                        for local in (
                            comm.local_rank_of(e.rank) for e in detected.events
                        )
                        if local is not None
                    )
                    if detected is not None
                    else []
                )
                if dead_locals:
                    dead_worlds = tuple(comm.world_rank_of(d) for d in dead_locals)
                    if comm.rank in dead_locals:
                        # This rank dies: hand the last checkpoint to the
                        # survivors' coordinator and leave the computation.
                        # Trace records past the checkpoint describe work
                        # the survivors will redo without this rank, so
                        # they are pruned rather than left to shadow the
                        # re-executed iterations.
                        if fault_state is not None:
                            fault_state.count_crash(world_rank)
                        send_dying_checkpoint(comm, checkpointer, dead_locals)
                        last_saved = checkpointer.last.iteration
                        return RankOutcome(
                            rank=world_rank,
                            elapsed=comm.Wtime(),
                            phases=phases,
                            values={},
                            owned=[],
                            migrations=migrations,
                            repartitions=repartitions,
                            trace_records=[
                                r
                                for r in trace_records
                                if r.iteration <= last_saved
                            ],
                            recoveries=recoveries,
                            checkpoints=checkpointer.taken,
                            dead=True,
                            reconfigurations=reconfigurations,
                            integrity_records=integrity_records,
                            repairs=repairs,
                            inner_sweeps=(
                                frontier.inner_sweeps if frontier is not None else 0
                            ),
                            sparse_geom_hits=getattr(store, "sparse_geom_hits", 0),
                            sparse_geom_misses=getattr(
                                store, "sparse_geom_misses", 0
                            ),
                        )
                    t_rec = comm.Wtime()
                    comm.work(detected.detection_cost)
                    shrunk = shrink_reconfigure(
                        comm, store, ctx, checkpointer, dead_locals
                    )
                    store = shrunk.store
                    comm = shrunk.comm
                    ctx.comm = comm
                    buffers = CommBuffers(comm.size)
                    extras = shrunk.extras
                    window_exec_time = extras["window_exec_time"]
                    migrations[:] = extras["migrations"]
                    repartitions = extras["repartitions"]
                    ctx.set_node_loads(extras["node_compute"])
                    if frontier is not None:
                        # The survivor stores were rebuilt from bare values
                        # (fresh version counters, new interior/boundary
                        # split), so any saved frontier is meaningless: fall
                        # back to dense sweeps.
                        frontier.reset_dense()
                    if guard is not None:
                        guard.rebind(comm, store)
                    recovery_elapsed = comm.Wtime() - t_rec
                    phases.recovery += recovery_elapsed
                    reconfigurations.append(
                        ReconfigurationRecord(
                            rank=world_rank,
                            iteration=iteration,
                            policy="shrink",
                            dead_ranks=dead_worlds,
                            survivors=shrunk.survivors,
                            nodes_redistributed=shrunk.nodes_redistributed,
                            detection_cost=detected.detection_cost,
                            reconfiguration_cost=recovery_elapsed
                            - detected.detection_cost,
                            resumed_iteration=shrunk.saved_iteration + 1,
                        )
                    )
                    recoveries += 1
                    attempt += 1
                    iteration = shrunk.saved_iteration + 1
                    continue
            elif has_crashes:
                crashes = [
                    c
                    for c in plan.crashes_at(iteration)
                    if (c.rank, c.iteration) not in handled_crashes
                ]
                if crashes:
                    t_rec = comm.Wtime()
                    crashed_here = False
                    for c in crashes:
                        handled_crashes.add((c.rank, c.iteration))
                        if c.rank == comm.rank:
                            crashed_here = True
                            if fault_state is not None:
                                fault_state.count_crash(comm.rank)
                    # Every rank pays the failure-detection latency; the
                    # crashed rank additionally pays to respawn.
                    comm.work(config.costs.crash_detect_cost)
                    if crashed_here:
                        comm.work(config.costs.restart_fixed_cost)
                    saved_iteration, extras = checkpointer.restore(store)
                    comm.work(
                        config.costs.restore_item_cost * len(store.data_records)
                    )
                    window_exec_time = extras["window_exec_time"]
                    migrations[:] = extras["migrations"]
                    repartitions = extras["repartitions"]
                    ctx.set_node_loads(extras["node_compute"])
                    restore_delta(extras)
                    if guard is not None:
                        guard.reset_after_restore()
                    comm.barrier()
                    recovery_elapsed = comm.Wtime() - t_rec
                    phases.recovery += recovery_elapsed
                    reconfigurations.append(
                        ReconfigurationRecord(
                            rank=world_rank,
                            iteration=iteration,
                            policy="rollback",
                            dead_ranks=tuple(sorted(c.rank for c in crashes)),
                            survivors=comm.group,
                            nodes_redistributed=0,
                            detection_cost=config.costs.crash_detect_cost,
                            reconfiguration_cost=recovery_elapsed
                            - config.costs.crash_detect_cost,
                            resumed_iteration=saved_iteration + 1,
                        )
                    )
                    recoveries += 1
                    attempt += 1
                    iteration = saved_iteration + 1
                    continue

            # ---- Silent corruption: inject, detect, repair/rollback ----
            if has_flips and fault_state is not None:
                # The flip itself is free (it is the *fault*); only the
                # protection machinery below costs virtual time.
                inject_memory_flips(
                    store, fault_state, world_rank, iteration, applied_flips
                )
            if guard is not None:
                t_ig = comm.Wtime()
                decision = guard.check(iteration)
                if decision is None:
                    phases.recovery += comm.Wtime() - t_ig
                elif decision.repair:
                    guard.repair_from_replicas(decision, fault_state)
                    event_cost = comm.Wtime() - t_ig
                    phases.recovery += event_cost
                    repairs += len(decision.claims)
                    for claim in decision.claims:
                        integrity_records.append(
                            IntegrityRecord(
                                rank=world_rank,
                                iteration=iteration,
                                gid=claim.gid,
                                owner=comm.world_rank_of(claim.owner),
                                flip_iteration=claim.flip_iteration,
                                latency=iteration - claim.flip_iteration,
                                mode="repair",
                                replica=comm.world_rank_of(min(claim.holders)),
                                cost=event_cost,
                                resumed_iteration=iteration,
                            )
                        )
                    # Fall through: the iteration proceeds on healed state.
                else:
                    # Interior node or late detection: checkpoints taken at
                    # or after the injection are contaminated, so discard
                    # them and roll back to the newest clean snapshot.
                    checkpointer.discard_since(decision.min_flip_iteration)
                    saved_iteration, extras = checkpointer.restore(store)
                    comm.work(
                        config.costs.restore_item_cost * len(store.data_records)
                    )
                    window_exec_time = extras["window_exec_time"]
                    migrations[:] = extras["migrations"]
                    repartitions = extras["repartitions"]
                    ctx.set_node_loads(extras["node_compute"])
                    restore_delta(extras)
                    guard.reset_after_restore()
                    comm.barrier()
                    event_cost = comm.Wtime() - t_ig
                    phases.recovery += event_cost
                    for claim in decision.claims:
                        integrity_records.append(
                            IntegrityRecord(
                                rank=world_rank,
                                iteration=iteration,
                                gid=claim.gid,
                                owner=comm.world_rank_of(claim.owner),
                                flip_iteration=claim.flip_iteration,
                                latency=iteration - claim.flip_iteration,
                                mode="rollback",
                                replica=None,
                                cost=event_cost,
                                resumed_iteration=saved_iteration + 1,
                            )
                        )
                    recoveries += 1
                    attempt += 1
                    iteration = saved_iteration + 1
                    continue

            ctx.iteration = iteration
            iter_clock_start = comm.Wtime()
            iter_compute0 = ctx.compute_time
            iter_comm_oh0 = ctx.comm_overhead_time
            migrations_before = len(migrations)
            iter_changed = 0
            for round_idx, node_fn in enumerate(self.node_fns):
                ctx.round = round_idx
                t_sweep = comm.Wtime()
                compute0 = ctx.compute_time
                overhead0 = ctx.comm_overhead_time
                book0 = ctx.bookkeeping_time
                sweep(comm, store, node_fn, ctx, buffers)
                iter_changed += ctx.changed_last_sweep
                t_end = comm.Wtime()
                d_compute = ctx.compute_time - compute0
                d_comm_oh = ctx.comm_overhead_time - overhead0
                d_book = ctx.bookkeeping_time - book0
                phases.compute += d_compute
                phases.communication_overhead += d_comm_oh
                phases.computation_overhead += d_book
                # Whatever wall time the counters do not explain is message
                # injection/drain cost and waiting on peers: "communicate".
                remainder = (t_end - t_sweep) - d_compute - d_comm_oh - d_book
                phases.communicate += max(0.0, remainder)
                # The thesis times *ComputeOverNodes only* as the processor
                # weight for the load balancer -- waiting inside the
                # communication step must not equalize the measurements.
                window_exec_time += d_compute + d_book

            if config.validate_each_iteration:
                store.check_invariants()

            # Quiescence: fold the changed-node count into the iteration's
            # collective cadence.  The reduction is collective, so every
            # rank agrees on the verdict; when nothing changed anywhere the
            # computation is at its fixed point and further sweeps are
            # provably no-ops (pure node functions).
            quiesced = False
            if quiescing:
                quiesced = comm.allreduce(iter_changed) == 0

            if (
                not quiesced
                and config.dynamic_load_balancing
                and iteration % config.lb_period == 0
            ):
                t_lb = comm.Wtime()
                if config.rebalance_mode == "repartition":
                    store, changed = repartition_phase(
                        comm, store, self.repartitioner, ctx
                    )
                    repartitions += int(changed)
                else:
                    events = load_balance_phase(
                        comm,
                        store,
                        self.balancer,
                        window_exec_time,
                        ctx,
                        iteration,
                        max_migrations_per_pair=config.max_migrations_per_pair,
                    )
                    migrations.extend(events)
                window_exec_time = 0.0  # the thesis resets the window
                ctx.reset_node_loads()
                if frontier is not None:
                    # Ownership changed (or stores were rebuilt) and interior
                    # vs boundary nodes were reclassified: the saved frontier
                    # no longer describes this rank's nodes, so the next
                    # sweep of every round runs dense.
                    frontier.reset_dense()
                comm.barrier()
                phases.load_balancing += comm.Wtime() - t_lb
                if config.validate_each_iteration:
                    store.check_invariants()

            if config.track_trace:
                own_moves = sum(
                    1
                    for event in migrations[migrations_before:]
                    if comm.rank in (event.from_proc, event.to_proc)
                )
                trace_records.append(
                    IterationRecord(
                        rank=world_rank,
                        iteration=iteration,
                        start=iter_clock_start,
                        end=comm.Wtime(),
                        compute=ctx.compute_time - iter_compute0,
                        comm_overhead=ctx.comm_overhead_time - iter_comm_oh0,
                        migrations=own_moves,
                        attempt=attempt,
                    )
                )

            if quiesced:
                # Fixed point reached: stop early, skipping the remaining
                # configured iterations (they could not change any value).
                quiescence_records.append(
                    QuiescenceRecord(
                        rank=world_rank,
                        iteration=iteration,
                        configured_iterations=config.iterations,
                        saved_iterations=config.iterations - iteration,
                    )
                )
                break

            if checkpointer.due(iteration):
                t_ck = comm.Wtime()
                checkpointer.take(iteration, store, **loop_extras())
                comm.work(
                    config.costs.checkpoint_item_cost * len(store.data_records)
                )
                phases.recovery += comm.Wtime() - t_ck

            if guard is not None:
                # Reference digests of the just-committed values: next
                # iteration's check diffs against these.
                t_ig = comm.Wtime()
                guard.refresh()
                phases.recovery += comm.Wtime() - t_ig

            iteration += 1

        comm.barrier()
        elapsed = comm.Wtime()
        return RankOutcome(
            rank=world_rank,
            elapsed=elapsed,
            phases=phases,
            values=store.owned_values(),
            owned=[node.global_id for node in store.owned_nodes()],
            migrations=migrations,
            versions=store.owned_versions(),
            repartitions=repartitions,
            trace_records=trace_records,
            recoveries=recoveries,
            checkpoints=checkpointer.taken,
            reconfigurations=reconfigurations,
            integrity_records=integrity_records,
            repairs=repairs,
            quiescence_records=quiescence_records,
            iterations_executed=(
                iteration if quiescence_records else config.iterations
            ),
            inner_sweeps=frontier.inner_sweeps if frontier is not None else 0,
            sparse_geom_hits=getattr(store, "sparse_geom_hits", 0),
            sparse_geom_misses=getattr(store, "sparse_geom_misses", 0),
        )

def run_platform(
    graph: Graph,
    node_fn: NodeFn | Sequence[NodeFn],
    partition: Partition,
    config: PlatformConfig | None = None,
    machine: MachineModel = ORIGIN2000,
    init_value: InitValueFn | None = None,
    balancer: LoadBalancer | None = None,
    faults: FaultPlan | None = None,
    sched_jitter: Callable[[], None] | None = None,
    scheduler: str | None = None,
) -> PlatformResult:
    """One-shot convenience wrapper around :class:`ICPlatform`."""
    platform = ICPlatform(
        graph, node_fn, init_value=init_value, config=config, balancer=balancer
    )
    return platform.run(
        partition,
        machine=machine,
        faults=faults,
        sched_jitter=sched_jitter,
        scheduler=scheduler,
    )
