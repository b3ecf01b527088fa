"""Node-level data structures (Figures 1 and 7 of the thesis).

Two records exist per node, mirroring the C structs:

* :class:`NodeData` -- the *data node list* entry: the user-visible value,
  double-buffered (``data`` is what neighbours read this iteration,
  ``most_recent_data`` is where the node's new value lands before being
  committed).
* :class:`OwnNode` -- the *node information* entry kept in the internal or
  peripheral list: node type, owning processor, neighbour IDs, the
  ``shadow_for_procs`` set that drives communication-buffer construction,
  and a direct reference to the node's :class:`NodeData` (the C code's
  ``data_location`` pointer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["NodeKind", "NodeData", "OwnNode", "INTERNAL", "PERIPHERAL"]

#: Node-type flags, matching the thesis's ``internal_or_peripheral`` char.
INTERNAL = "i"
PERIPHERAL = "p"

NodeKind = str  # "i" | "p"


@dataclass
class NodeData:
    """One entry of the data node list.

    Attributes:
        global_id: 1-based global node identifier.
        data: The committed value neighbours may read this iteration.
        most_recent_data: The freshly computed value; promoted to ``data``
            by :meth:`commit` once the whole sweep is done (the old value
            "might still be required for the computation purposes of the
            neighboring nodes").
        version: How many times the committed value has *changed* since
            initialization.  Owners bump it in :meth:`commit`, shadow
            holders in :meth:`~repro.core.nodestore.NodeStore.update_shadow`
            -- only when the value actually differs, so owner and replica
            counters stay in lockstep whether every value is re-sent (dense
            exchange) or only the changed ones (delta exchange).
        halted: Whether the node has voted to halt (vertex-program style).
            Halted peripherals are excluded from the load-balance
            communication statistics (``buffer_sizes`` / ``neighbor_procs``)
            -- they still receive shadow updates so a later wake-up resumes
            with consistent data.
    """

    global_id: int
    data: Any
    most_recent_data: Any = None
    version: int = 0
    halted: bool = False

    def commit(self) -> bool:
        """Promote the freshly computed value to the readable slot.

        The pending slot is consumed (reset to ``None``): a node skipped by
        the next sweep must not re-promote a stale value.  Returns whether
        the committed value actually changed (and bumped :attr:`version`).
        """
        if self.most_recent_data is None:
            return False
        changed = self.most_recent_data != self.data
        self.data = self.most_recent_data
        self.most_recent_data = None
        if changed:
            self.version += 1
        return changed

    def __repr__(self) -> str:
        return f"NodeData(gid={self.global_id}, data={self.data!r}, v{self.version})"


@dataclass(slots=True)
class OwnNode:
    """One entry of the internal or peripheral node list.

    Attributes:
        global_id: 1-based global node identifier.
        kind: ``"i"`` (internal: all neighbours local) or ``"p"``
            (peripheral: at least one neighbour on another processor).
        owning_proc: The processor that owns (computes) this node.
        data: Reference into the data node list (``data_location``).
        neighboring_nodes: Global IDs of the node's graph neighbours.
        shadow_for_procs: Processors holding this node as a shadow -- i.e.
            remote processors owning at least one neighbour.  Non-empty only
            for peripheral nodes; it tells the communication phase exactly
            who needs this node's updates.
    """

    global_id: int
    kind: NodeKind
    owning_proc: int
    data: NodeData
    neighboring_nodes: tuple[int, ...]
    shadow_for_procs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (INTERNAL, PERIPHERAL):
            raise ValueError(f"kind must be '{INTERNAL}' or '{PERIPHERAL}', got {self.kind!r}")
        if self.kind == INTERNAL and self.shadow_for_procs:
            raise ValueError(
                f"internal node {self.global_id} cannot be a shadow for anyone"
            )

    @property
    def is_peripheral(self) -> bool:
        """Whether the node sits on a processor boundary."""
        return self.kind == PERIPHERAL

    def __repr__(self) -> str:
        return (
            f"OwnNode(gid={self.global_id}, kind={self.kind!r}, "
            f"proc={self.owning_proc}, shadows={list(self.shadow_for_procs)})"
        )
