"""The data node list's record (Figures 1 and 7 of the thesis).

:class:`NodeData` is one entry of the object store's *data node list*: the
user-visible value, double-buffered (``data`` is what neighbours read this
iteration, ``most_recent_data`` is where the node's new value lands before
being committed).  The thesis's internal and peripheral node lists have no
record type of their own: a store keeps them as its *owned-set layout*
(owned gids in sweep order, the internal count, each peripheral node's
``shadow_for_procs``; see :class:`~repro.core.nodestore.NodeStore`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["NodeData"]


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
    """

    global_id: int
    data: Any
    most_recent_data: Any = None
    version: int = 0

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
