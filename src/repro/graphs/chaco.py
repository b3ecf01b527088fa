"""Chaco graph-format I/O.

The thesis feeds graphs to Metis/PaGrid in Chaco format and reads the
node-to-processor mapping back from a partition file (Appendix A's
``InitializeGraph`` / ``InitializeInputArray`` / ``InitializeOutputArray``).
This module implements both directions, covering the four ``fmt`` codes the
appendix parses:

* ``fmt = 0``  -- unweighted graph,
* ``fmt = 1``  -- weights on edges,
* ``fmt = 10`` -- a single weight on each vertex,
* ``fmt = 11`` -- weights on both vertices and edges.

A Chaco file's first line is ``<num_vertices> <num_edges> [fmt]``; each of
the following ``num_vertices`` lines lists (optionally a vertex weight, then)
the neighbours of vertex ``i`` as 1-based IDs, with the edge weight following
each neighbour when edges are weighted.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Sequence

from .graph import Graph

__all__ = [
    "read_chaco",
    "write_chaco",
    "parse_chaco",
    "format_chaco",
    "read_partition",
    "write_partition",
    "parse_partition",
    "format_partition",
]

_VALID_FMTS = (0, 1, 10, 11)


def parse_chaco(text: str, name: str = "chaco") -> Graph:
    """Parse Chaco-format text into a :class:`Graph`."""
    # Comment lines are dropped; *blank* lines are kept because a vertex
    # with no neighbours (and no weights) is encoded as an empty line.
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("%")]
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise ValueError("empty Chaco input")
    try:  # vertices, edges and an optional fmt
        num_vertices, num_edges, fmt = map(int, [*lines[0].split(), "0"][:3])
    except ValueError:
        raise ValueError(f"bad Chaco header: {lines[0]!r}") from None
    if fmt not in _VALID_FMTS:
        raise ValueError(f"unsupported Chaco fmt {fmt}; expected one of {_VALID_FMTS}")
    body = lines[1:]
    # Tolerate extra trailing blank lines (editors often add one); interior
    # blanks are significant (isolated vertices).
    while len(body) > num_vertices and not body[-1].strip():
        body.pop()
    if len(body) != num_vertices:
        raise ValueError(
            f"Chaco header promises {num_vertices} vertex lines, found {len(body)}"
        )

    vertex_weighted = fmt in (10, 11)
    edge_weighted = fmt in (1, 11)

    adjacency: list[list[int]] = []
    node_weights: list[int] = []
    edge_weights: dict[tuple[int, int], int] = {}
    for gid, line in enumerate(body, start=1):
        tokens = [int(tok) for tok in line.split()]
        idx = 0
        if vertex_weighted:
            if not tokens:
                raise ValueError(f"vertex {gid}: missing vertex weight")
            node_weights.append(tokens[0])
            idx = 1
        else:
            node_weights.append(1)
        nbrs: list[int] = []
        if edge_weighted:
            rest = tokens[idx:]
            if len(rest) % 2 != 0:
                raise ValueError(f"vertex {gid}: dangling edge weight")
            for pos in range(0, len(rest), 2):
                v, w = rest[pos], rest[pos + 1]
                nbrs.append(v)
                key = (min(gid, v), max(gid, v))
                prior = edge_weights.get(key)
                if prior is not None and prior != w:
                    raise ValueError(
                        f"edge ({key[0]}, {key[1]}): inconsistent weights {prior} vs {w}"
                    )
                edge_weights[key] = w
        else:
            nbrs.extend(tokens[idx:])
        adjacency.append(nbrs)

    graph = Graph(
        adjacency,
        node_weights=node_weights,
        edge_weights=edge_weights or None,
        name=name,
    )
    if graph.num_edges != num_edges:
        raise ValueError(
            f"Chaco header promises {num_edges} edges, adjacency has {graph.num_edges}"
        )
    return graph


def read_chaco(path: str | Path, name: str | None = None) -> Graph:
    """Read a Chaco-format graph file."""
    path = Path(path)
    return parse_chaco(path.read_text(), name=name or path.stem)


def format_chaco(graph: Graph, fmt: int | None = None) -> str:
    """Render ``graph`` as Chaco text.

    When ``fmt`` is None, the smallest fmt that preserves the graph's
    weights is chosen.
    """
    if fmt is None:
        fmt = (10 if graph.has_node_weights else 0) + (1 if graph.has_edge_weights else 0)
    if fmt not in _VALID_FMTS:
        raise ValueError(f"unsupported Chaco fmt {fmt}")
    vertex_weighted = fmt in (10, 11)
    edge_weighted = fmt in (1, 11)
    out = io.StringIO()
    header = f"{graph.num_nodes} {graph.num_edges}"
    if fmt != 0:
        header += f" {fmt:02d}" if fmt >= 10 else f" {fmt}"
    out.write(header + "\n")
    for gid in graph.nodes():
        tokens: list[str] = []
        if vertex_weighted:
            tokens.append(str(graph.node_weight(gid)))
        for v in graph.neighbors(gid):
            tokens.append(str(v))
            if edge_weighted:
                tokens.append(str(graph.edge_weight(gid, v)))
        out.write(" ".join(tokens) + "\n")
    return out.getvalue()


def write_chaco(graph: Graph, path: str | Path, fmt: int | None = None) -> None:
    """Write ``graph`` to ``path`` in Chaco format."""
    Path(path).write_text(format_chaco(graph, fmt=fmt))


# --------------------------------------------------------------------- #
# Partition files: one processor id per line, vertex order
# (this is the "output array" Appendix A loads from e.g. 64_r_out_16p.txt)
# --------------------------------------------------------------------- #


def parse_partition(text: str) -> list[int]:
    """Parse a partition file body into ``assignment[gid - 1] = proc``."""
    assignment: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            assignment.append(int(stripped))
        except ValueError as exc:
            raise ValueError(f"partition file line {lineno}: {stripped!r}") from exc
    return assignment


def read_partition(path: str | Path, num_nodes: int | None = None) -> list[int]:
    """Read a partition file; optionally check the expected node count."""
    assignment = parse_partition(Path(path).read_text())
    if num_nodes is not None and len(assignment) != num_nodes:
        raise ValueError(
            f"partition file has {len(assignment)} entries, expected {num_nodes}"
        )
    return assignment


def format_partition(assignment: Sequence[int]) -> str:
    """Render an assignment as partition-file text."""
    return "\n".join(str(p) for p in assignment) + "\n"


def write_partition(assignment: Sequence[int], path: str | Path) -> None:
    """Write an assignment to a partition file."""
    Path(path).write_text(format_partition(assignment))
