"""Per-phase virtual-time accounting (section 5.4's six categories)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PhaseTimes", "PHASE_NAMES"]

#: Display order matching Figures 21/22; ``recovery`` (fault-injection
#: checkpoint/restart costs) is our extension, appended after the paper's
#: six categories.
PHASE_NAMES = (
    "initialization",
    "computation_overhead",
    "compute",
    "communication_overhead",
    "communicate",
    "load_balancing",
    "recovery",
)


@dataclass
class PhaseTimes:
    """Accumulated virtual seconds per platform phase on one rank.

    Attributes:
        initialization: Setting up node lists, data lists, hash tables.
        computation_overhead: Forming node+neighbour lists and committing
            updated data.
        compute: Actual application node computation (the injected grain).
        communication_overhead: Packing/unpacking communication buffers and
            updating the data node lists with received shadows.
        communicate: Shipping and receiving shadow-node messages.
        load_balancing: Gathering imbalance statistics and migrating tasks.
        recovery: Taking checkpoints, detecting crashes, and restoring
            state after a fault-injected rank failure -- under the shrink
            policy this also covers communicator reconfiguration and the
            redistribution of the dead rank's partition (re-executed
            iterations land in their usual categories; this bucket holds
            only the fault-tolerance machinery itself).
    """

    initialization: float = 0.0
    computation_overhead: float = 0.0
    compute: float = 0.0
    communication_overhead: float = 0.0
    communicate: float = 0.0
    load_balancing: float = 0.0
    recovery: float = 0.0

    def total(self) -> float:
        """Sum across all categories."""
        return sum(getattr(self, name) for name in PHASE_NAMES)

    def add(self, other: "PhaseTimes") -> None:
        """Accumulate another record into this one (in place)."""
        for name in PHASE_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, float]:
        """Phase name -> seconds, in display order."""
        return {name: getattr(self, name) for name in PHASE_NAMES}

    @classmethod
    def mean(cls, records: list["PhaseTimes"]) -> "PhaseTimes":
        """Element-wise mean across ranks (what the overhead figures plot)."""
        if not records:
            return cls()
        out = cls()
        for name in PHASE_NAMES:
            setattr(out, name, sum(getattr(r, name) for r in records) / len(records))
        return out

    @classmethod
    def maximum(cls, records: list["PhaseTimes"]) -> "PhaseTimes":
        """Element-wise maximum across ranks."""
        if not records:
            return cls()
        out = cls()
        for name in PHASE_NAMES:
            setattr(out, name, max(getattr(r, name) for r in records))
        return out
