"""The application program graph.

The thesis feeds *application program graphs* in Chaco format to the
partitioners and to the platform's initialization phase.  Chaco numbers
vertices 1..n, and the appendix code keeps that convention everywhere
(``globalID`` starts at 1); we preserve it so data structures, partition
files, and examples line up with the paper.

:class:`Graph` is a simple immutable-ish undirected graph with optional
integer node weights and edge weights, adjacency-list backed, plus the
validation and conversion utilities the rest of the library needs.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, pairwise
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = ["Graph", "CSR", "concat_ranges", "sorted_unique"]


def concat_ranges(starts: np.ndarray, lens: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``starts[i] : starts[i] + lens[i]``, one after
    the other (a CSR row gather); ``ends`` is ``np.cumsum(lens)``."""
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.intp) + np.repeat(starts - (ends - lens), lens)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending, by sort + neighbour compare.

    ``np.unique`` gives the same answer but on numpy 2.4 here it costs
    0.26 s on the 409k int64 edge keys of the 320x320 plate, where
    ``np.sort`` plus one comparison pass costs 0.015 s.
    """
    keys = np.sort(keys)
    if len(keys):
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


class CSR(NamedTuple):
    """A graph's adjacency as two read-only arrays: the neighbours of node
    ``gid`` are ``indices[indptr[gid - 1] : indptr[gid]]`` (1-based global
    IDs, in adjacency order)."""

    indptr: np.ndarray
    indices: np.ndarray

    def rows(self, nodes: np.ndarray, closed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``(lens, flat)``: the adjacency rows of the 0-based ``nodes``,
        one after the other in ``flat``, row ``i`` being ``lens[i]`` long.
        ``closed`` puts each node's own gid in front of its row."""
        starts = self.indptr[nodes]
        lens = self.indptr[nodes + 1] - starts
        ends = np.cumsum(lens)
        flat = self.indices[concat_ranges(starts, lens, ends)]
        if closed:
            flat = np.insert(flat, ends - lens, nodes + 1)
            lens = lens + 1
        return lens, flat

    def sources(self) -> np.ndarray:
        """The gid whose row each entry of ``indices`` sits in."""
        return np.repeat(np.arange(1, len(self.indptr)), np.diff(self.indptr))


class Graph:
    """Undirected application graph with 1-based global node IDs.

    Args:
        adjacency: ``adjacency[i]`` lists the neighbours (1-based global IDs)
            of node ``i + 1``.  Must be symmetric and self-loop free.
        node_weights: Optional per-node computational weights (1-based node
            ``i`` weight at index ``i - 1``); default all 1.
        edge_weights: Optional mapping ``(u, v) -> weight`` with ``u < v``;
            missing edges default to weight 1.
        name: Optional label used in reprs and experiment tables.
    """

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        node_weights: Sequence[int] | None = None,
        edge_weights: Mapping[tuple[int, int], int] | None = None,
        name: str = "graph",
        validate: bool = True,
    ) -> None:
        self._adj: list[tuple[int, ...]] = [tuple(nbrs) for nbrs in adjacency]
        n = len(self._adj)
        if node_weights is None:
            self._node_weights = [1] * n
        else:
            if len(node_weights) != n:
                raise ValueError(
                    f"node_weights has {len(node_weights)} entries for {n} nodes"
                )
            self._node_weights = list(node_weights)
        # Weight-1 entries are dropped so that graphs compare equal whether
        # default weights were implicit or spelled out (e.g. after Chaco I/O).
        self._edge_weights: dict[tuple[int, int], int] = {}
        if edge_weights:
            for (u, v), w in edge_weights.items():
                if w != 1:
                    self._edge_weights[self._ekey(u, v)] = w
        self.name = name
        self._csr: CSR | None = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        node_weights: Sequence[int] | None = None,
        edge_weights: Mapping[tuple[int, int], int] | None = None,
        name: str = "graph",
    ) -> "Graph":
        """Build from an edge list over nodes ``1..num_nodes`` (any iterable
        of pairs, or an ``(m, 2)`` integer array); duplicates in either
        orientation collapse."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        outside = (u < 1) | (u > num_nodes) | (v < 1) | (v > num_nodes)
        bad = outside | (u == v)
        if bad.any():
            first = int(np.argmax(bad))
            if outside[first]:
                raise ValueError(f"edge ({u[first]}, {v[first]}) outside 1..{num_nodes}")
            raise ValueError(f"self-loop on node {u[first]}")
        # Both orientations as one sortable key each: sorting groups the rows
        # and orders the neighbours, the compare drops repeated edges.
        span = num_nodes + 1
        keys = sorted_unique(np.concatenate((u * span + v, v * span + u)))
        degrees = np.bincount(keys // span, minlength=span)[1:]
        bounds = np.concatenate(([0], np.cumsum(degrees))).tolist()
        # One Python int per gid, shared by every row that names it (an
        # int per adjacency entry would be 13 MB on the 320x320 plate).
        flat = np.arange(span).astype(object)[keys % span].tolist()
        adj = [tuple(flat[a:b]) for a, b in pairwise(bounds)]
        return cls(adj, node_weights=node_weights, edge_weights=edge_weights, name=name)

    @classmethod
    def from_networkx(cls, nxg, name: str = "graph") -> "Graph":
        """Convert a ``networkx.Graph`` (nodes relabelled to 1..n)."""
        nodes = sorted(nxg.nodes())
        index = {node: i + 1 for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nxg.edges()]
        weights = [int(nxg.nodes[node].get("weight", 1)) for node in nodes]
        eweights = {
            (min(index[u], index[v]), max(index[u], index[v])): int(d.get("weight", 1))
            for u, v, d in nxg.edges(data=True)
        }
        return cls.from_edges(
            len(nodes), edges, node_weights=weights, edge_weights=eweights, name=name
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def nodes(self) -> range:
        """All global IDs, ``1..n``."""
        return range(1, self.num_nodes + 1)

    def neighbors(self, gid: int) -> tuple[int, ...]:
        """Neighbours of global node ``gid`` (sorted, 1-based)."""
        self._check(gid)
        return self._adj[gid - 1]

    def neighbor_rows(self, gids: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """:meth:`neighbors` of each of ``gids``, range-checked once."""
        if len(gids):
            self._check(min(gids))
            self._check(max(gids))
        return map(self._adj.__getitem__, [gid - 1 for gid in gids])

    def degree(self, gid: int) -> int:
        """Degree of ``gid``."""
        return len(self.neighbors(gid))

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for an empty graph)."""
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        self._check(u)
        self._check(v)
        return v in self._adj[u - 1]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for u in self.nodes():
            for v in self._adj[u - 1]:
                if u < v:
                    yield (u, v)

    def node_weight(self, gid: int) -> int:
        """Computational weight of ``gid`` (default 1)."""
        self._check(gid)
        return self._node_weights[gid - 1]

    @property
    def node_weights(self) -> tuple[int, ...]:
        """All node weights in global-ID order."""
        return tuple(self._node_weights)

    def total_node_weight(self) -> int:
        """Sum of all node weights."""
        return sum(self._node_weights)

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge ``{u, v}`` (default 1); raises if absent."""
        if not self.has_edge(u, v):
            raise KeyError(f"no edge ({u}, {v})")
        return self.known_edge_weight(u, v)

    def known_edge_weight(self, u: int, v: int) -> int:
        """Weight of an edge ``{u, v}`` the caller took from
        :meth:`neighbors` or :meth:`edges`: unlike :meth:`edge_weight`, no
        check that it exists (a non-edge reads 1)."""
        return self._edge_weights.get((u, v) if u < v else (v, u), 1)

    @property
    def has_node_weights(self) -> bool:
        """True when any node weight differs from 1."""
        return any(w != 1 for w in self._node_weights)

    @property
    def has_edge_weights(self) -> bool:
        """True when any edge weight differs from 1."""
        return any(w != 1 for w in self._edge_weights.values())

    @staticmethod
    def _ekey(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def _check(self, gid: int) -> None:
        if not 1 <= gid <= len(self._adj):
            raise KeyError(f"node {gid} outside 1..{len(self._adj)}")

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def csr(self) -> CSR:
        """The adjacency as read-only arrays, built at the first call.

        Every array pass of the initialisation phase (store build, the
        per-epoch topology, partition metrics) reads this one copy;
        ``ICPlatform.run`` asks before the cluster starts, so rank threads
        share it and forked workers inherit it.
        """
        csr = self._csr
        if csr is None:
            adj = self._adj
            indptr = np.zeros(len(adj) + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, adj), np.int64, len(adj)), out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(adj), np.int64, int(indptr[-1]))
            indptr.flags.writeable = indices.flags.writeable = False
            csr = self._csr = CSR(indptr, indices)
        return csr

    def validate(self) -> None:
        """Check symmetry, ID range, self-loops, duplicates; raise ValueError
        naming the first offence in node order (a node's duplicates before
        its neighbours, each neighbour's range before self-loop before
        symmetry)."""
        n = len(self._adj)
        csr = self.csr()
        indices = csr.indices
        if len(indices):
            gids = csr.sources()
            # One sortable key per directed entry, wide enough that even an
            # out-of-range neighbour cannot collide with another row's.
            low = min(1, int(indices.min()))
            width = max(n, int(indices.max())) - low + 1
            keys = np.sort(gids * width + (indices - low))
            repeated = keys[1:][keys[1:] == keys[:-1]] // width
            # Entry (g, v) is symmetric when the key of (v, g) is present.
            reverse = indices * width + (gids - low)
            at = np.searchsorted(keys, reverse)
            at[at == len(keys)] = 0
            outside = (indices < 1) | (indices > n)
            bad = outside | (indices == gids) | (keys[at] != reverse)
            first = int(np.argmax(bad)) if bad.any() else None
            if len(repeated) and (first is None or repeated[0] <= gids[first]):
                raise ValueError(f"duplicate neighbours at node {repeated[0]}")
            if first is not None:
                gid, v = int(gids[first]), int(indices[first])
                if outside[first]:
                    raise ValueError(f"node {gid} lists neighbour {v} outside 1..{n}")
                if v == gid:
                    raise ValueError(f"self-loop on node {gid}")
                raise ValueError(f"asymmetric edge ({gid}, {v})")
        for (u, v) in self._edge_weights:
            if not (1 <= u <= n and 1 <= v <= n) or v not in self._adj[u - 1]:
                raise ValueError(f"edge weight on missing edge ({u}, {v})")

    def is_connected(self) -> bool:
        """BFS connectivity check (empty graphs count as connected)."""
        n = self.num_nodes
        if n == 0:
            return True
        seen = [False] * (n + 1)
        seen[1] = True
        queue: deque[int] = deque([1])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self._adj[u - 1]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == n

    def connected_components(self) -> list[list[int]]:
        """All connected components, each a sorted list of global IDs."""
        n = self.num_nodes
        seen = [False] * (n + 1)
        comps: list[list[int]] = []
        for start in self.nodes():
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue: deque[int] = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._adj[u - 1]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            comps.append(sorted(comp))
        return comps

    def bfs_order(self, start: int) -> list[int]:
        """Nodes in BFS order from ``start`` (only the reachable ones)."""
        self._check(start)
        seen = {start}
        order = [start]
        queue: deque[int] = deque([start])
        while queue:
            u = queue.popleft()
            for v in self._adj[u - 1]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    queue.append(v)
        return order

    # ------------------------------------------------------------------ #
    # Derivations
    # ------------------------------------------------------------------ #

    def with_node_weights(self, weights: Sequence[int]) -> "Graph":
        """Copy of this graph with new node weights."""
        return Graph(
            self._adj,
            node_weights=weights,
            edge_weights=dict(self._edge_weights),
            name=self.name,
            validate=False,
        )

    def subgraph(self, nodes: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph; returns ``(graph, old_gid -> new_gid map)``."""
        keep = sorted(set(nodes))
        for gid in keep:
            self._check(gid)
        remap = {old: new + 1 for new, old in enumerate(keep)}
        adj = [
            tuple(remap[v] for v in self._adj[old - 1] if v in remap) for old in keep
        ]
        weights = [self._node_weights[old - 1] for old in keep]
        eweights = {
            (min(remap[u], remap[v]), max(remap[u], remap[v])): w
            for (u, v), w in self._edge_weights.items()
            if u in remap and v in remap
        }
        return (
            Graph(adj, node_weights=weights, edge_weights=eweights,
                  name=f"{self.name}-sub", validate=False),
            remap,
        )

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with weight attributes."""
        import networkx as nx

        nxg = nx.Graph(name=self.name)
        for gid in self.nodes():
            nxg.add_node(gid, weight=self.node_weight(gid))
        for u, v in self.edges():
            nxg.add_edge(u, v, weight=self.edge_weight(u, v))
        return nxg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._adj == other._adj
            and self._node_weights == other._node_weights
            and self._edge_weights == other._edge_weights
        )

    def __hash__(self) -> int:  # adjacency is effectively immutable
        return hash((tuple(self._adj), tuple(self._node_weights)))

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
