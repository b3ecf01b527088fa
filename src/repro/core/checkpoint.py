"""Checkpoint/restart layer for the platform's BSP loop.

Every ``checkpoint_period`` iterations each rank serializes its
:class:`~repro.core.nodestore.NodeStore` (data node list and
node-to-processor map), the iteration counter, and the platform
loop's rollback-sensitive extras (load window, migration log) into an
in-memory pickle.  When the fault plan crashes a rank, *every* rank restores
the last checkpoint and the loop re-runs from there -- coordinated rollback
recovery, with the detection, restore, and re-execution costs all charged to
the virtual clocks so :class:`~repro.core.trace.ExecutionTrace` shows the
true overhead of surviving the failure.

Checkpoints are rank-local by design: because all ranks checkpoint at the
same (deterministic) iterations, the per-rank snapshots together form a
consistent global cut, with no message in flight across it (the sweep's
shadow exchange has completed when a checkpoint is taken).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

from .nodestore import NodeStore

__all__ = ["Checkpoint", "CheckpointError", "Checkpointer"]


class CheckpointError(RuntimeError):
    """No checkpoint is available to restore, or (de)serialization failed."""


@dataclass(frozen=True)
class Checkpoint:
    """One serialized recovery point.

    Attributes:
        iteration: The iteration whose *completed* state the payload holds
            (0 = the post-initialization baseline).
        payload: Pickled ``{"iteration", "store", "extras"}`` blob.
    """

    iteration: int
    payload: bytes

    @property
    def nbytes(self) -> int:
        """Serialized size, bytes (drives the checkpoint cost model)."""
        return len(self.payload)


class Checkpointer:
    """Per-rank checkpoint schedule + storage.

    Only the newest snapshot is kept: a rollback restores it, and a memory
    flip is agreed on the iteration it fires, before any checkpoint could
    hold the corrupted value.

    Args:
        period: Take a checkpoint after every ``period`` completed
            iterations (0 disables periodic checkpoints; the baseline taken
            via :meth:`take` at iteration 0 still allows restart-from-
            scratch recovery).
    """

    def __init__(self, period: int = 0) -> None:
        if period < 0:
            raise ValueError(f"checkpoint period must be >= 0, got {period}")
        self.period = period
        #: The newest snapshot (None before the first take).
        self.last: Checkpoint | None = None
        self.taken = 0

    def due(self, iteration: int) -> bool:
        """Whether a periodic checkpoint is owed after ``iteration``."""
        return self.period > 0 and iteration % self.period == 0

    def take(self, iteration: int, store: NodeStore, **extras: Any) -> Checkpoint:
        """Serialize the store (plus loop extras) as the new recovery point.

        Args:
            iteration: The just-completed iteration number (0 = baseline).
            store: The rank's node store.
            **extras: Additional picklable loop state restored verbatim
                (e.g. ``window_exec_time``, the migration log).

        Raises:
            CheckpointError: If any node value refuses to pickle.
        """
        state = {
            "iteration": iteration,
            "store": store.capture_state(),
            "extras": extras,
        }
        try:
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"iteration-{iteration} checkpoint failed to serialize: {exc}"
            ) from exc
        self.last = Checkpoint(iteration=iteration, payload=payload)
        self.taken += 1
        return self.last

    def restore(self, store: NodeStore) -> tuple[int, dict[str, Any]]:
        """Rebuild ``store`` from the last checkpoint.

        Returns:
            ``(iteration, extras)`` -- the checkpointed iteration number and
            the extras dict passed to :meth:`take`.

        Raises:
            CheckpointError: When no checkpoint has been taken.
        """
        if self.last is None:
            raise CheckpointError("no checkpoint available to restore")
        try:
            state = pickle.loads(self.last.payload)
        except Exception as exc:  # pragma: no cover - symmetric guard
            raise CheckpointError(f"checkpoint failed to deserialize: {exc}") from exc
        store.restore_state(state["store"])
        return state["iteration"], state["extras"]
