#!/usr/bin/env python
"""PageRank as a BSP vertex program (the thesis's closing future-work item).

"We will also explore extending it to applications that use the BSP model
[HMS98], as this model essentially divides the computation from
communication phases as iC2mpi does."  This example runs Pregel-style
PageRank as a vertex program, which executes as an ordinary node function
on the platform (sparse activation, quiescence termination) over the same
partitioner plug-ins.

Run:  python examples/bsp_pagerank.py
"""

from __future__ import annotations

from repro.core import VertexContext, run_vertex_program
from repro.graphs import preferential_attachment
from repro.mpi import IDEAL
from repro.partitioning import MetisLikePartitioner

DAMPING = 0.85
SUPERSTEPS = 30


class PageRank:
    """Undirected-graph PageRank: each vertex spreads its rank along its
    incident edges every superstep; after a fixed horizon everyone halts."""

    def __init__(self, graph):
        self.num_vertices = graph.num_nodes

    def initial_value(self, gid: int, graph) -> float:
        return 1.0 / self.num_vertices

    def compute(self, value: float, inbox: list[float], ctx: VertexContext) -> float:
        if ctx.superstep > 0:
            value = (1 - DAMPING) / self.num_vertices + DAMPING * sum(inbox)
        if ctx.superstep < SUPERSTEPS:
            if ctx.neighbors:
                ctx.send_to_neighbors(value / len(ctx.neighbors))
        else:
            ctx.vote_to_halt()
        return value


def main() -> None:
    graph = preferential_attachment(100, edges_per_node=2, seed=7)
    print(f"graph: {graph.name} ({graph.num_nodes} vertices, {graph.num_edges} edges)")

    for nprocs in (1, 4, 8):
        partition = MetisLikePartitioner(seed=1).partition(graph, nprocs)
        values, supersteps = run_vertex_program(
            graph,
            partition,
            PageRank(graph),
            max_supersteps=SUPERSTEPS + 2,
            machine=IDEAL,
        )
        total = sum(values.values())
        top = sorted(values.items(), key=lambda kv: -kv[1])[:5]
        print(
            f"\n{nprocs} processors, {supersteps} supersteps, "
            f"rank mass {total:.6f}"
        )
        print("  top vertices:", ", ".join(f"{g}:{r:.4f}" for g, r in top))
        if nprocs == 1:
            reference = values
        else:
            drift = max(abs(values[g] - reference[g]) for g in graph.nodes())
            print(f"  max drift vs sequential run: {drift:.2e}")
            # Inboxes arrive in adjacency order whatever the partition, so
            # every rank's float sums are the sequential run's.
            assert drift == 0.0

    # Sanity: high-degree hubs rank highest on a preferential-attachment graph.
    hub = max(graph.nodes(), key=graph.degree)
    assert reference[hub] == max(reference.values())
    print(f"\nhighest-rank vertex is the biggest hub (vertex {hub}, "
          f"degree {graph.degree(hub)})")


if __name__ == "__main__":
    main()
