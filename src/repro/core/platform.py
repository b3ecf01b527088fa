"""The iC2mpi platform driver.

:class:`ICPlatform` wires the three phases together exactly as Figure 6's
flow of control prescribes:

1. **Initialization** -- a static partitioner (plug-in) provides the
   node-to-processor mapping; every rank builds its node lists and data
   node list (:class:`~repro.core.nodestore.NodeStore`).
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
from typing import Any, Callable, Sequence

import numpy as np

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
    superstep,
    supports_bulk,
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

#: Mean nodes per rank from which the struct-of-arrays store pays for
#: itself.  Its sweep has fixed costs (array gathers, charge rows, one pack
#: per destination) that only enough nodes amortize: below this, kernel
#: functions sweep node by node on the list store like any other
#: (measurements in docs/performance.md).
BULK_MIN_NODES_PER_RANK = 64


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
        sparse_geom_hits: Always 0: sparse bulk views keep no gather
            memo any more.  Kept only because
            ``benchmarks/perf/sample.py`` still reads it.
        sparse_geom_misses: Always 0, kept for the same reason.
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

    def vectorized(self, nprocs: int) -> bool:
        """Whether a run on ``nprocs`` ranks keeps a
        :class:`~repro.core.soastore.SoAStore` on every rank and sweeps
        through the bulk kernels: every node function ships one
        (``fn.bulk``) and the ranks average at least
        :data:`BULK_MIN_NODES_PER_RANK` nodes.  Otherwise (imbalance
        schedules, battlefield, small graphs) each rank keeps a
        :class:`~repro.core.nodestore.NodeStore`, swept node by node."""
        return (
            supports_bulk(self.node_fns)
            and self.graph.num_nodes >= BULK_MIN_NODES_PER_RANK * nprocs
        )

    def run(
        self,
        partition: Partition,
        machine: MachineModel = ORIGIN2000,
        deadlock_timeout: float | None = None,
        faults: FaultPlan | None = None,
        schedule_seed: int | None = None,
        scheduler: str | None = None,
    ) -> PlatformResult:
        """Execute the configured number of iterations on the partition.

        Args:
            partition: Static node-to-processor mapping to start from.
            machine: Virtual-time machine model.
            deadlock_timeout: Accepted and ignored (deadlock detection is
                exact; no backend has a watchdog).  Kept only because
                ``benchmarks/perf/sample.py`` still passes it.
            faults: Optional deterministic fault-injection plan (message
                delays/drops, slow ranks, crashes).  Crash events require
                the platform to recover via checkpoint/restart; a baseline
                checkpoint is always taken when crashes are scheduled.
            schedule_seed: Test hook forwarded to :class:`SimCluster` --
                fuzzes the *host* schedule of the event backend from this
                seed without affecting virtual-time results.
            scheduler: Execution backend for the simulated cluster
                (``"event"``, the default, or ``"process"``).
                Virtual-time results are identical on both; ``"process"``
                additionally runs each rank as a real OS process with a
                private node store, and refuses a ``schedule_seed``
                before anything forks.
        """
        if partition.graph is not self.graph and partition.graph != self.graph:
            raise ValueError("partition was computed for a different graph")
        nprocs = partition.nparts
        # Built here, once, so every rank's initialisation reads the same
        # arrays (rank threads share them, forked workers inherit them).
        self.graph.csr()
        cluster = SimCluster(
            nprocs,
            machine=machine,
            faults=faults,
            schedule_seed=schedule_seed,
            checksums=self.config.integrity in ("checksum", "full"),
            scheduler=scheduler,
        )
        outcomes: list[RankOutcome] = cluster.run(self._rank_main, partition)

        values: dict[int, Any] = {}
        versions: dict[int, int] = {}
        for outcome in outcomes:
            values.update(outcome.values)
            versions.update(outcome.versions)
        final_assignment = np.zeros(self.graph.num_nodes + 1, dtype=np.int64)
        for outcome in outcomes:
            final_assignment[np.array(outcome.owned, dtype=np.intp)] = outcome.rank
        # Migration/repartition/recovery logs are recorded collectively, so
        # any *surviving* rank's copy is authoritative (rank 0 itself may be
        # the one the fault plan killed).
        reporter = next(o for o in outcomes if not o.dead)
        quiesced_at = (
            reporter.quiescence_records[0].iteration
            if reporter.quiescence_records
            else None
        )

        def gathered(attr: str) -> Any:
            return (record for outcome in outcomes for record in getattr(outcome, attr))

        return PlatformResult(
            elapsed=max(o.elapsed for o in outcomes),
            nprocs=nprocs,
            iterations=reporter.iterations_executed,
            phases=[o.phases for o in outcomes],
            values=values,
            versions=versions,
            final_assignment=tuple(final_assignment[1:].tolist()),
            migrations=list(reporter.migrations),
            repartitions=reporter.repartitions,
            trace=ExecutionTrace(
                gathered("trace_records"),
                gathered("reconfigurations"),
                gathered("integrity_records"),
                gathered("quiescence_records"),
            ),
            recoveries=reporter.recoveries,
            repairs=reporter.repairs,
            checkpoints=sum(o.checkpoints for o in outcomes),
            dead_ranks=tuple(sorted(o.rank for o in outcomes if o.dead)),
            quiesced_at=quiesced_at,
            messages_delivered=cluster.messages_delivered,
            barriers=cluster.barriers,
            inner_sweeps=sum(o.inner_sweeps for o in outcomes),
            fault_report=(
                cluster.fault_state.report() if cluster.fault_state is not None else None
            ),
        )

    # ------------------------------------------------------------------ #

    def _rank_main(self, comm: Communicator, partition: Partition) -> RankOutcome:
        """One rank's pass through Figure 6's flow of control, as a loop
        over :class:`_RankRun`'s named steps."""
        run = _RankRun(self, comm)
        run.init(partition)
        while run.iteration <= self.config.iterations and not run.dead:
            if run.recover() or run.integrity():
                continue  # rewound to a checkpoint (or died): start over from there
            run.sweep()
            run.vote()
            run.balance()
            run.record()
            if run.quiesced:
                # Fixed point reached: stop early, skipping the remaining
                # configured iterations (they could not change any value).
                break
            run.checkpoint()
            run.refresh_digests()
            run.iteration += 1
        return run.outcome()


class _RankRun:
    """One rank's loop state plus the steps :meth:`ICPlatform._rank_main`
    sequences: init, recover (shrink | restart), integrity, sweep, vote,
    balance, record, checkpoint, refresh_digests, outcome.  A step reads and
    writes the run's attributes only, so each can be wrapped (timed, traced)
    from outside.  ``recover`` and ``integrity`` return whether they rewound
    the run to a checkpoint."""

    def __init__(self, platform: ICPlatform, comm: Communicator) -> None:
        config = platform.config
        self.platform, self.config, self.comm = platform, config, comm
        # Stable identity: shrink recovery re-ranks the communicator, but
        # outcomes and trace records stay addressed by the original rank.
        self.world_rank = comm.rank
        self.phases = PhaseTimes()
        self.ctx = ComputeContext(comm, config.costs, platform.graph.num_nodes)
        # Hybrid execution supersedes the activation switch (it is
        # inherently change-driven).  Both thread one Frontier through the
        # supersteps; without one they keep the thesis's exact behaviour.
        hybrid = config.execution == "hybrid"
        self.frontier = (
            Frontier(len(platform.node_fns), config.hybrid_inner_cap if hybrid else None)
            if hybrid or config.activation == "sparse"
            else None
        )
        self.bulk = platform.vectorized(comm.size)
        self.iteration = 0  # the one just completed; 0 = initialization
        self.dead = False
        self.quiesced = False
        self.migrations: list[MigrationEvent] = []
        self.repartitions = 0
        self.window_exec_time = 0.0
        self.trace_records: list[IterationRecord] = []

        # Checkpoint/restart machinery (fault-injection support).  Crash
        # events are declared in the fault plan, so every rank sees the same
        # ones at the same iteration: detection, rollback, and re-execution
        # stay collective and deterministic.
        self.fault_state = comm.faults
        self.plan = plan = self.fault_state.plan if self.fault_state is not None else None
        self.has_crashes = plan is not None and bool(plan.crashes)
        self.checkpointer = Checkpointer(config.checkpoint_period)
        self.recoveries = 0
        self.attempt = 0
        self.handled_crashes: set[tuple[int, int]] = set()
        self.detector = (
            FailureDetector(plan, comm.machine, comm.size)
            if self.has_crashes and config.recovery_policy == "shrink"
            else None
        )
        self.reconfigurations: list[ReconfigurationRecord] = []

        # Silent-corruption machinery.  Memory flips fire whenever the plan
        # schedules them; whether anything *notices* depends on the
        # configured integrity level (see PlatformConfig.integrity).
        self.has_flips = plan is not None and bool(plan.flips)
        self.guard: IntegrityGuard | None = None
        self.applied_flips: set[tuple[int, int, int | None]] = set()
        self.integrity_records: list[IntegrityRecord] = []
        self.repairs = 0
        self.quiescence_records: list[QuiescenceRecord] = []

    # ---- Initialization phase ------------------------------------------

    def init(self, partition: Partition) -> None:
        """Build this rank's node lists, then take the recovery baseline."""
        comm, config, platform = self.comm, self.config, self.platform
        t0 = comm.Wtime()
        store_cls = SoAStore if self.bulk else NodeStore
        self.store = store = store_cls(
            comm.rank,
            platform.graph,
            list(partition.assignment),  # this rank's output_arr copy
            platform.init_value,
        )
        comm.work(
            config.costs.init_node_cost * store.num_owned()
            + config.costs.init_shadow_cost * store.num_shadows()
        )
        comm.barrier()
        self.phases.initialization = comm.Wtime() - t0
        self.buffers = CommBuffers(comm.size)
        if config.integrity in ("digest", "full"):
            self.guard = IntegrityGuard(comm, store, repair=config.integrity == "full")
        self.checkpoint()
        self.refresh_digests()
        self.iteration = 1

    # ---- Recovery from crash faults ------------------------------------

    def recover(self) -> bool:
        """Handle the crash faults due at this iteration, by the configured
        policy."""
        if not self.has_crashes:
            return False
        return self._recover_restart() if self.detector is None else self._recover_shrink()

    def _recover_shrink(self) -> bool:
        comm = self.comm
        detected = self.detector.poll(self.iteration)
        if detected is None:
            return False
        dead_locals = sorted(
            local
            for local in (comm.local_rank_of(e.rank) for e in detected.events)
            if local is not None
        )
        if not dead_locals:
            return False
        dead_worlds = tuple(comm.world_rank_of(d) for d in dead_locals)
        if comm.rank in dead_locals:
            # This rank dies: hand the last checkpoint to the survivors'
            # coordinator and leave the computation.
            self.fault_state.count_crash(self.world_rank)
            send_dying_checkpoint(comm, self.checkpointer, dead_locals)
            self.dead = True
            return True
        t_rec = comm.Wtime()
        comm.work(detected.detection_cost)
        shrunk = shrink_reconfigure(comm, self.store, self.ctx, self.checkpointer, dead_locals)
        self.store = shrunk.store
        self.comm = self.ctx.comm = shrunk.comm
        self.buffers = CommBuffers(shrunk.comm.size)
        self._reinstate(shrunk.extras)
        if self.frontier is not None:
            # The survivor stores were rebuilt from bare values (fresh
            # version counters, new interior/boundary split), so any saved
            # frontier is meaningless: fall back to dense sweeps.
            self.frontier.reset_dense()
        if self.guard is not None:
            self.guard.rebind(shrunk.comm, shrunk.store)
        self._reconfigured(
            t_rec,
            detected.detection_cost,
            shrunk.saved_iteration + 1,
            policy="shrink",
            dead_ranks=dead_worlds,
            survivors=shrunk.survivors,
            nodes_redistributed=shrunk.nodes_redistributed,
        )
        return True

    def _recover_restart(self) -> bool:
        comm, costs = self.comm, self.config.costs
        crashes = [
            c
            for c in self.plan.crashes_at(self.iteration)
            if (c.rank, c.iteration) not in self.handled_crashes
        ]
        if not crashes:
            return False
        t_rec = comm.Wtime()
        crashed_here = False
        for c in crashes:
            self.handled_crashes.add((c.rank, c.iteration))
            if c.rank == comm.rank:
                crashed_here = True
                self.fault_state.count_crash(comm.rank)
        # Every rank pays the failure-detection latency; the crashed rank
        # additionally pays to respawn.
        comm.work(costs.crash_detect_cost)
        if crashed_here:
            comm.work(costs.restart_fixed_cost)
        resumed = self._rollback()
        self._reconfigured(
            t_rec,
            costs.crash_detect_cost,
            resumed,
            policy="rollback",
            dead_ranks=tuple(sorted(c.rank for c in crashes)),
            survivors=comm.group,
            nodes_redistributed=0,
        )
        return True

    def _rollback(self) -> int:
        """Restore the newest checkpoint (collective); returns the
        iteration to resume at."""
        comm, store = self.comm, self.store
        saved_iteration, extras = self.checkpointer.restore(store)
        comm.work(self.config.costs.restore_item_cost * store.num_records())
        self._reinstate(extras)
        if self.frontier is not None:
            # Reinstate the change frontier the checkpoint captured -- a
            # rollback must not resume with an empty frontier (nodes whose
            # pending changes were rolled back would never recompute).
            self.frontier.restore(extras["frontier"], store)
        if self.guard is not None:
            self.guard.refresh()
        comm.barrier()
        return saved_iteration + 1

    def _loop_extras(self) -> dict[str, Any]:
        """Rollback-sensitive loop state that lives outside the store."""
        frontier = self.frontier
        return {
            "window_exec_time": self.window_exec_time,
            "migrations": list(self.migrations),
            "repartitions": self.repartitions,
            "node_compute": self.ctx.node_loads(),
            "frontier": frontier.capture(self.store) if frontier is not None else None,
        }

    def _reinstate(self, extras: dict[str, Any]) -> None:
        """Put back what :meth:`_loop_extras` captured (frontier aside)."""
        self.window_exec_time = extras["window_exec_time"]
        self.migrations[:] = extras["migrations"]
        self.repartitions = extras["repartitions"]
        self.ctx.set_node_loads(extras["node_compute"])

    def _resume(self, iteration: int) -> None:
        self.recoveries += 1
        self.attempt += 1
        self.iteration = iteration

    def _reconfigured(
        self, t_rec: float, detection_cost: float, resumed_iteration: int, **what: Any
    ) -> None:
        """Close a crash recovery begun at ``t_rec``: time it, log it (with
        ``what`` the policy did), and rewind the loop."""
        recovery_elapsed = self.comm.Wtime() - t_rec
        self.phases.recovery += recovery_elapsed
        self.reconfigurations.append(
            ReconfigurationRecord(
                rank=self.world_rank,
                iteration=self.iteration,
                detection_cost=detection_cost,
                reconfiguration_cost=recovery_elapsed - detection_cost,
                resumed_iteration=resumed_iteration,
                **what,
            )
        )
        self._resume(resumed_iteration)

    # ---- Silent corruption: inject, detect, repair/rollback ------------

    def integrity(self) -> bool:
        """Fire this iteration's memory flips, then check the digests and
        heal what they expose."""
        iteration = self.iteration
        if self.has_flips:
            # The flip itself is free (it is the *fault*); only the
            # protection machinery below costs virtual time.
            inject_memory_flips(
                self.store, self.fault_state, self.world_rank, iteration, self.applied_flips
            )
        guard = self.guard
        if guard is None:
            return False
        comm = self.comm
        t_ig = comm.Wtime()
        decision = guard.check(iteration)
        if decision is None:
            self.phases.recovery += comm.Wtime() - t_ig
            return False
        if decision.repair:
            # The iteration proceeds on healed state.
            guard.repair_from_replicas(decision, self.fault_state)
            self.repairs += len(decision.claims)
            resumed = iteration
        else:
            # An interior node (no replica) or repair disabled: the newest
            # snapshot predates the flip, so roll back to it.
            resumed = self._rollback()
        event_cost = comm.Wtime() - t_ig
        self.phases.recovery += event_cost
        for claim in decision.claims:
            self.integrity_records.append(
                IntegrityRecord(
                    rank=self.world_rank,
                    iteration=iteration,
                    gid=claim.gid,
                    owner=comm.world_rank_of(claim.owner),
                    mode="repair" if decision.repair else "rollback",
                    replica=comm.world_rank_of(min(claim.holders)) if decision.repair else None,
                    cost=event_cost,
                    resumed_iteration=resumed,
                )
            )
        if decision.repair:
            return False
        self._resume(resumed)
        return True

    # ---- Computation & communication phase -----------------------------

    def sweep(self) -> None:
        """One superstep per communication round."""
        comm, ctx, phases = self.comm, self.ctx, self.phases
        overlap = self.config.overlap_communication
        ctx.iteration = self.iteration
        times = comm.Wtime(), ctx.compute_time, ctx.comm_overhead_time
        self._at_start = (*times, len(self.migrations))
        self.changed = 0
        for round_idx, node_fn in enumerate(self.platform.node_fns):
            ctx.round = round_idx
            t_sweep = comm.Wtime()
            compute0 = ctx.compute_time
            overhead0 = ctx.comm_overhead_time
            book0 = ctx.bookkeeping_time
            self.changed += superstep(
                comm, self.store, node_fn, ctx, self.buffers, self.frontier, overlap
            )
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
            self.window_exec_time += d_compute + d_book
        if self.config.validate_each_iteration:
            self.store.check_invariants()

    def vote(self) -> None:
        """Quiescence: fold the changed-node count into the iteration's
        collective cadence.  The reduction is collective, so every rank
        agrees on the verdict; when nothing changed anywhere the computation
        is at its fixed point and further sweeps are provably no-ops (pure
        node functions)."""
        if self.config.converge == "quiescence":
            self.quiesced = self.comm.allreduce(self.changed) == 0

    # ---- Load balancing & task migration phase -------------------------

    def balance(self) -> None:
        """Every ``lb_period`` iterations: migrate tasks or repartition."""
        config, comm, ctx = self.config, self.comm, self.ctx
        if self.quiesced or not config.dynamic_load_balancing or self.iteration % config.lb_period:
            return
        t_lb = comm.Wtime()
        if config.rebalance_mode == "repartition":
            self.store, changed = repartition_phase(
                comm, self.store, self.platform.repartitioner, ctx
            )
            self.repartitions += int(changed)
        else:
            self.migrations.extend(
                load_balance_phase(
                    comm,
                    self.store,
                    self.platform.balancer,
                    self.window_exec_time,
                    ctx,
                    self.iteration,
                    max_migrations_per_pair=config.max_migrations_per_pair,
                )
            )
        self.window_exec_time = 0.0  # the thesis resets the window
        ctx.reset_node_loads()
        if self.frontier is not None:
            # Ownership changed (or stores were rebuilt) and interior vs
            # boundary nodes were reclassified: the saved frontier no longer
            # describes this rank's nodes, so the next sweep of every round
            # runs dense.
            self.frontier.reset_dense()
        comm.barrier()
        self.phases.load_balancing += comm.Wtime() - t_lb
        if config.validate_each_iteration:
            self.store.check_invariants()

    # ---- Bookkeeping at the end of an iteration ------------------------

    def record(self) -> None:
        """Log the iteration (``track_trace``) and a quiescence verdict."""
        config, comm, ctx = self.config, self.comm, self.ctx
        if config.track_trace:
            start, compute0, comm_oh0, migrations_before = self._at_start
            own_moves = sum(
                1
                for event in self.migrations[migrations_before:]
                if comm.rank in (event.from_proc, event.to_proc)
            )
            self.trace_records.append(
                IterationRecord(
                    rank=self.world_rank,
                    iteration=self.iteration,
                    start=start,
                    end=comm.Wtime(),
                    compute=ctx.compute_time - compute0,
                    comm_overhead=ctx.comm_overhead_time - comm_oh0,
                    migrations=own_moves,
                    attempt=self.attempt,
                )
            )
        if self.quiesced:
            self.quiescence_records.append(
                QuiescenceRecord(
                    rank=self.world_rank,
                    iteration=self.iteration,
                    configured_iterations=config.iterations,
                    saved_iterations=config.iterations - self.iteration,
                )
            )

    def checkpoint(self) -> None:
        """Snapshot the store and loop extras when one is owed: every
        ``checkpoint_period`` iterations, and once after initialization."""
        iteration, comm, store = self.iteration, self.comm, self.store
        # Post-initialization baseline: guarantees a recovery point even
        # before the first periodic checkpoint is due.  Digest-detected
        # corruption may need it too: rollback is the fallback whenever
        # surgical repair is impossible.
        baseline = self.has_crashes or (self.guard is not None and self.has_flips)
        if not (self.checkpointer.due(iteration) or (iteration == 0 and baseline)):
            return
        t_ck = comm.Wtime()
        self.checkpointer.take(iteration, store, **self._loop_extras())
        comm.work(self.config.costs.checkpoint_item_cost * store.num_records())
        self.phases.recovery += comm.Wtime() - t_ck

    def refresh_digests(self) -> None:
        """Reference digests of the just-committed values: next iteration's
        check diffs against these."""
        if self.guard is not None:
            t_ig = self.comm.Wtime()
            self.guard.refresh()
            self.phases.recovery += self.comm.Wtime() - t_ig

    def outcome(self) -> RankOutcome:
        """What this rank reports back.  A dead rank owns nothing any more,
        and its trace records past the checkpoint describe work the
        survivors redo without it, so they are pruned rather than left to
        shadow the re-executed iterations."""
        dead, store, frontier = self.dead, self.store, self.frontier
        trace_records = self.trace_records
        if dead:
            last_saved = self.checkpointer.last.iteration
            trace_records = [r for r in trace_records if r.iteration <= last_saved]
        else:
            self.comm.barrier()
        executed = self.iteration if self.quiesced else 0 if dead else self.config.iterations
        return RankOutcome(
            rank=self.world_rank,
            elapsed=self.comm.Wtime(),
            phases=self.phases,
            values={} if dead else store.owned_values(),
            owned=[] if dead else store.owned_gids(),
            migrations=self.migrations,
            versions={} if dead else store.owned_versions(),
            repartitions=self.repartitions,
            trace_records=trace_records,
            recoveries=self.recoveries,
            checkpoints=self.checkpointer.taken,
            dead=dead,
            reconfigurations=self.reconfigurations,
            integrity_records=self.integrity_records,
            repairs=self.repairs,
            quiescence_records=self.quiescence_records,
            iterations_executed=executed,
            inner_sweeps=frontier.inner_sweeps if frontier is not None else 0,
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
    schedule_seed: int | None = None,
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
        schedule_seed=schedule_seed,
        scheduler=scheduler,
    )
