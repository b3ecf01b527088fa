"""Partitioner plug-in interface.

The platform treats static graph partitioners as third-party plug-ins (Goal
1 of the thesis): anything implementing :class:`Partitioner` can be handed
to the initialization phase.  A partitioner maps an application
:class:`~repro.graphs.graph.Graph` onto ``nparts`` processors and returns a
:class:`Partition` -- a thin wrapper around the thesis's ``output_arr``
(``assignment[gid - 1] == processor``) with quality accessors attached.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph
from ..graphs import metrics

__all__ = ["Partition", "Partitioner"]


@dataclass(frozen=True)
class Partition:
    """A node-to-processor mapping for a specific graph.

    Attributes:
        graph: The application graph that was partitioned.
        assignment: ``assignment[gid - 1]`` is the owning processor of node
            ``gid`` (processors are ``0..nparts-1``).
        nparts: Number of processors the mapping targets.  Processors may be
            empty (e.g. partitioning 32 nodes over 16 processors can leave
            some idle under band schemes).
        method: Name of the partitioner that produced the mapping.
    """

    graph: Graph
    assignment: tuple[int, ...]
    nparts: int
    method: str = "unknown"

    def __post_init__(self) -> None:
        metrics.validate_assignment(self.graph, self.assignment, self.nparts)

    @classmethod
    def from_assignment(
        cls,
        graph: Graph,
        assignment: Sequence[int],
        nparts: int,
        method: str = "unknown",
    ) -> "Partition":
        """Build from any integer sequence or array (copied to a tuple of
        Python ints)."""
        procs = np.asarray(assignment).astype(np.int64, copy=False)
        return cls(graph, tuple(procs.tolist()), nparts, method)

    # ------------------------------------------------------------------ #
    # Quality metrics
    # ------------------------------------------------------------------ #

    def edge_cut(self) -> int:
        """Edges crossing processor boundaries."""
        return metrics.edge_cut(self.graph, self.assignment)

    def weighted_edge_cut(self) -> int:
        """Edge cut counting edge weights."""
        return metrics.weighted_edge_cut(self.graph, self.assignment)

    def communication_volume(self) -> int:
        """Total shadow copies (sum of platform comm-buffer lengths)."""
        return metrics.communication_volume(self.graph, self.assignment)

    def loads(self) -> list[int]:
        """Node weight hosted per processor."""
        return metrics.part_loads(self.graph, self.assignment, self.nparts)

    def imbalance(self) -> float:
        """``max_load / mean_load`` (1.0 = perfect)."""
        return metrics.load_imbalance(self.graph, self.assignment, self.nparts)

    def owner(self, gid: int) -> int:
        """Owning processor of node ``gid``."""
        return self.assignment[gid - 1]

    def nodes_of(self, proc: int) -> list[int]:
        """Global IDs owned by ``proc``."""
        return [gid for gid in self.graph.nodes() if self.assignment[gid - 1] == proc]

    def __str__(self) -> str:
        return (
            f"Partition({self.method}, k={self.nparts}, cut={self.edge_cut()}, "
            f"imbalance={self.imbalance():.3f})"
        )


class Partitioner(abc.ABC):
    """Abstract static graph partitioner (a third-party plug-in slot)."""

    #: Short name used in experiment tables ("metis", "pagrid", "rowband"...).
    name: str = "abstract"

    @abc.abstractmethod
    def partition(self, graph: Graph, nparts: int) -> Partition:
        """Map ``graph`` onto ``nparts`` processors."""

    def _check_nparts(self, graph: Graph, nparts: int) -> None:
        if nparts < 1:
            raise ValueError(f"nparts must be >= 1, got {nparts}")
        if graph.num_nodes == 0:
            raise ValueError("cannot partition an empty graph")

    def _trivial(self, graph: Graph, nparts: int) -> Partition | None:
        """Handle the k=1 shortcut shared by every implementation."""
        if nparts == 1:
            return Partition.from_assignment(
                graph, [0] * graph.num_nodes, 1, method=self.name
            )
        return None
