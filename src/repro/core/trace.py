"""Per-iteration execution traces.

Goal 4 of the thesis is "carrying out of refinements and performance tuning
for efficient computation and communication on the platform itself" -- which
needs visibility beyond end-to-end totals.  When
``PlatformConfig(track_trace=True)`` is set, every rank records one
:class:`IterationRecord` per iteration: the virtual-clock window and the
compute / communication-overhead split inside it.

:class:`ExecutionTrace` aggregates the records: per-iteration makespans,
per-rank utilization, an imbalance time-series (watch the dynamic load
balancer actually flatten it), and a text timeline rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "IterationRecord",
    "ReconfigurationRecord",
    "IntegrityRecord",
    "QuiescenceRecord",
    "ExecutionTrace",
]


@dataclass(frozen=True)
class IterationRecord:
    """One rank's accounting for one iteration.

    Attributes:
        rank: The processor.
        iteration: 1-based iteration number.
        start: Virtual clock when the iteration's first sweep began.
        end: Virtual clock when its last sweep ended.
        compute: Application grain seconds charged during the iteration.
        comm_overhead: Pack/unpack bookkeeping seconds.
        migrations: Tasks this rank sent or received in the trailing
            load-balance phase (0 outside LB iterations).
        attempt: Recovery generation: 0 until the first fault-injected
            crash rolls the loop back, then +1 per rollback.  Records of an
            iteration re-executed after a rollback carry a higher attempt
            than the (rolled-back) originals.
    """

    rank: int
    iteration: int
    start: float
    end: float
    compute: float
    comm_overhead: float
    migrations: int = 0
    attempt: int = 0

    @property
    def duration(self) -> float:
        """Wall (virtual) time the iteration occupied on this rank."""
        return self.end - self.start


@dataclass(frozen=True)
class ReconfigurationRecord:
    """One recovery event as one survivor saw it.

    Every survivor records the same logical content (dead ranks, survivor
    re-ranking, redistribution counts) because recovery is collective and
    deterministic; only ``rank`` differs across the copies the platform
    aggregates.

    Attributes:
        rank: The *world* rank that recorded this (a survivor).
        iteration: 1-based iteration at whose start the failure surfaced.
        policy: ``"rollback"`` or ``"shrink"``.
        dead_ranks: World ranks lost in this event, ascending.
        survivors: Surviving world ranks in their new dense-rank order
            (``survivors[new_local_rank] == world_rank``); under rollback
            this is simply the full world, unchanged.
        nodes_redistributed: Graph nodes reassigned from the dead ranks to
            survivors (0 under rollback -- the dead rank is resurrected).
        detection_cost: Virtual seconds each survivor charged to notice and
            agree on the failure.
        reconfiguration_cost: Virtual seconds this rank spent on everything
            after detection: checkpoint restore, communicator shrink, state
            redistribution, store rebuild.
        resumed_iteration: First iteration (re-)executed after recovery.
    """

    rank: int
    iteration: int
    policy: str
    dead_ranks: tuple[int, ...]
    survivors: tuple[int, ...]
    nodes_redistributed: int
    detection_cost: float
    reconfiguration_cost: float
    resumed_iteration: int


@dataclass(frozen=True)
class IntegrityRecord:
    """One silent-corruption recovery event as one rank saw it.

    Like :class:`ReconfigurationRecord`, every rank records the same logical
    content (the claim exchange is collective), so only ``rank`` differs
    across the copies; :meth:`ExecutionTrace.integrity_events` collapses
    them back to the per-event view.

    Attributes:
        rank: The *world* rank that recorded this copy.
        iteration: 1-based iteration at whose start the flip fired and
            the digest exchange confirmed it.
        gid: Global id of the corrupted node.
        owner: World rank that owned the corrupted node.
        mode: ``"repair"`` (surgical replica re-fetch, no rollback) or
            ``"rollback"`` (restore of the newest checkpoint).
        replica: World rank whose shadow copy supplied the repair value
            (None for rollbacks).
        cost: Virtual seconds this rank charged to the detection + recovery
            (digest re-check, claim exchange, and the repair fetch or the
            checkpoint restore).
        resumed_iteration: First iteration (re-)executed after recovery --
            equals ``iteration`` for repairs (no work is redone).
    """

    rank: int
    iteration: int
    gid: int
    owner: int
    mode: str
    replica: int | None
    cost: float
    resumed_iteration: int


@dataclass(frozen=True)
class QuiescenceRecord:
    """Early termination because the computation reached its fixed point.

    Recorded once per rank when ``PlatformConfig(converge="quiescence")``
    observes, through a collective reduction, that no node's committed
    value changed during an iteration.  All ranks record the same logical
    content (the decision is collective); only ``rank`` differs, and
    :meth:`ExecutionTrace.quiescence_events` collapses the copies.

    Attributes:
        rank: The *world* rank that recorded this copy.
        iteration: 1-based iteration whose sweeps produced zero changes --
            the last iteration actually executed.
        configured_iterations: The ``iterations`` the run was configured
            for.
        saved_iterations: Sweeps skipped thanks to early termination
            (``configured_iterations - iteration``).
    """

    rank: int
    iteration: int
    configured_iterations: int
    saved_iterations: int


class ExecutionTrace:
    """All ranks' iteration records for one platform run."""

    def __init__(
        self,
        records: Iterable[IterationRecord] = (),
        reconfigurations: Iterable[ReconfigurationRecord] = (),
        integrity: Iterable[IntegrityRecord] = (),
        quiescence: Iterable[QuiescenceRecord] = (),
    ) -> None:
        self._records: list[IterationRecord] = list(records)
        self._reconfigurations: list[ReconfigurationRecord] = list(reconfigurations)
        self._integrity: list[IntegrityRecord] = list(integrity)
        self._quiescence: list[QuiescenceRecord] = list(quiescence)

    def add(self, record: IterationRecord) -> None:
        """Append one record."""
        self._records.append(record)

    def extend(self, records: Iterable[IterationRecord]) -> None:
        """Append many records."""
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        return tuple(self._records)

    @property
    def reconfigurations(self) -> tuple[ReconfigurationRecord, ...]:
        """All recovery events, in (iteration, rank) order."""
        return tuple(
            sorted(self._reconfigurations, key=lambda r: (r.iteration, r.rank))
        )

    def reconfiguration_events(self) -> list[ReconfigurationRecord]:
        """One representative record per recovery event (lowest rank's copy).

        Survivors record identical logical content, so collapsing by
        iteration + dead set gives the per-event view without double
        counting the per-rank copies.
        """
        seen: dict[tuple[int, tuple[int, ...]], ReconfigurationRecord] = {}
        for r in self.reconfigurations:
            seen.setdefault((r.iteration, r.dead_ranks), r)
        return [seen[key] for key in sorted(seen)]

    @property
    def integrity(self) -> tuple[IntegrityRecord, ...]:
        """All silent-corruption events, in (iteration, gid, rank) order."""
        return tuple(
            sorted(self._integrity, key=lambda r: (r.iteration, r.gid, r.rank))
        )

    def integrity_events(self) -> list[IntegrityRecord]:
        """One representative record per corruption event (lowest rank's
        copy), collapsing the identical per-rank copies of each collective
        decision."""
        seen: dict[tuple[int, int, str], IntegrityRecord] = {}
        for r in self.integrity:
            seen.setdefault((r.iteration, r.gid, r.mode), r)
        return [seen[key] for key in sorted(seen)]

    @property
    def quiescence(self) -> tuple[QuiescenceRecord, ...]:
        """All quiescence records, in (iteration, rank) order."""
        return tuple(
            sorted(self._quiescence, key=lambda r: (r.iteration, r.rank))
        )

    def quiescence_events(self) -> list[QuiescenceRecord]:
        """One representative record per quiescence event (lowest rank's
        copy), collapsing the identical per-rank copies."""
        seen: dict[int, QuiescenceRecord] = {}
        for r in self.quiescence:
            seen.setdefault(r.iteration, r)
        return [seen[key] for key in sorted(seen)]

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #

    def iterations(self) -> list[int]:
        """Sorted iteration numbers present in the trace."""
        return sorted({r.iteration for r in self._records})

    def ranks(self) -> list[int]:
        """Sorted ranks present in the trace."""
        return sorted({r.rank for r in self._records})

    def of_iteration(self, iteration: int) -> list[IterationRecord]:
        """All ranks' *committed* records for one iteration (rank order).

        When checkpoint/restart rolled an iteration back and re-ran it,
        only each rank's latest attempt is returned; the superseded records
        stay in :attr:`records` and feed :meth:`recovery_overhead`.
        """
        best: dict[int, IterationRecord] = {}
        for r in self._records:
            if r.iteration != iteration:
                continue
            current = best.get(r.rank)
            if current is None or r.attempt > current.attempt:
                best[r.rank] = r
        return [best[rank] for rank in sorted(best)]

    def rolled_back(self) -> list[IterationRecord]:
        """Records superseded by a post-recovery re-execution.

        A record is rolled back when a *later attempt* exists for the same
        (rank, iteration) -- the virtual time it covers was wasted work that
        a crash fault forced the platform to redo.
        """
        latest: dict[tuple[int, int], int] = {}
        for r in self._records:
            key = (r.rank, r.iteration)
            latest[key] = max(latest.get(key, 0), r.attempt)
        return [r for r in self._records if r.attempt < latest[(r.rank, r.iteration)]]

    def recovery_overhead(self) -> float:
        """Virtual seconds of work that crashes forced the platform to redo
        (summed across ranks; the checkpoint/restore machinery itself is
        accounted separately in ``PhaseTimes.recovery``)."""
        return sum(r.duration for r in self.rolled_back())

    def makespan(self, iteration: int) -> float:
        """Latest end minus earliest start across ranks for one iteration."""
        records = self.of_iteration(iteration)
        if not records:
            raise KeyError(f"no records for iteration {iteration}")
        return max(r.end for r in records) - min(r.start for r in records)

    def compute_imbalance(self, iteration: int) -> float:
        """``max(compute) / mean(compute)`` across ranks (1.0 = balanced).

        Iterations where nothing computed report 1.0.
        """
        records = self.of_iteration(iteration)
        values = [r.compute for r in records]
        total = sum(values)
        if total == 0:
            return 1.0
        return max(values) / (total / len(values))

    def imbalance_series(self) -> list[tuple[int, float]]:
        """Per-iteration compute imbalance -- the curve the dynamic load
        balancer is supposed to pull toward 1.0."""
        return [(it, self.compute_imbalance(it)) for it in self.iterations()]

    def utilization(self, rank: int) -> float:
        """Fraction of the rank's traced window spent in application compute."""
        records = [r for r in self._records if r.rank == rank]
        if not records:
            raise KeyError(f"no records for rank {rank}")
        window = sum(r.duration for r in records)
        if window == 0:
            return 0.0
        return sum(r.compute for r in records) / window

    def total_migrations(self) -> int:
        """Tasks moved across the whole run (counted on the sending side)."""
        return sum(r.migrations for r in self._records)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def render(self, max_iterations: int = 40, bar_width: int = 30) -> str:
        """Text timeline: one line per iteration with an imbalance bar.

        Iterations that were rolled back and re-executed after a crash
        fault are flagged with ``R``, and a recovery summary line reports
        the total redone virtual time.
        """
        redone = {(r.rank, r.iteration) for r in self.rolled_back()}
        redone_iters = {it for _, it in redone}
        lines = ["iter   makespan    imbalance"]
        for it in self.iterations()[:max_iterations]:
            imbalance = self.compute_imbalance(it)
            span = self.makespan(it)
            # Bar shows the overload fraction above perfect balance.
            filled = min(bar_width, round((imbalance - 1.0) * bar_width))
            bar = "#" * filled + "." * (bar_width - filled)
            flag = " R" if it in redone_iters else ""
            lines.append(f"{it:4d}  {span * 1e3:8.3f}ms   {imbalance:6.3f} |{bar}|{flag}")
        remaining = len(self.iterations()) - max_iterations
        if remaining > 0:
            lines.append(f"... {remaining} more iterations")
        overhead = self.recovery_overhead()
        if overhead:
            lines.append(
                f"recovery: {len(redone)} iteration records rolled back, "
                f"{overhead * 1e3:.3f}ms re-executed"
            )
        for event in self.reconfiguration_events():
            lines.append(
                f"reconfiguration @ iter {event.iteration} [{event.policy}]: "
                f"dead={','.join(str(r) for r in event.dead_ranks)}, "
                f"{len(event.survivors)} survivors, "
                f"{event.nodes_redistributed} nodes redistributed, "
                f"detect {event.detection_cost * 1e3:.3f}ms + "
                f"reconfigure {event.reconfiguration_cost * 1e3:.3f}ms"
            )
        for event in self.integrity_events():
            source = (
                f"replica on rank {event.replica}"
                if event.mode == "repair"
                else f"rollback to iter {event.resumed_iteration - 1}"
            )
            lines.append(
                f"integrity @ iter {event.iteration} [{event.mode}]: "
                f"node {event.gid} on rank {event.owner}, {source}, "
                f"cost {event.cost * 1e3:.3f}ms"
            )
        for event in self.quiescence_events():
            lines.append(
                f"quiescence @ iter {event.iteration}: fixed point reached, "
                f"{event.saved_iterations} of "
                f"{event.configured_iterations} iterations saved"
            )
        return "\n".join(lines)
