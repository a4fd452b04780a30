"""DAG preprocessing (Section 4.2.3, Algorithm 1).

One pass over the vertices in topological order removes:

* interactions on an outgoing edge of ``v`` with timestamp smaller than
  the smallest timestamp entering ``v`` (they can never carry inflow) —
  that timestamp is ``v``'s *time floor*;
* edges whose last interaction falls below their tail's floor;
* vertices left with no incoming edges (nothing can flow through them)
  together with their outgoing edges;
* vertices left with no outgoing edges (nothing can reach the sink via
  them) together with their incoming edges — cascading *upwards*
  recursively, since those predecessors were already visited.

The pass changes only its own neighbour sets and floors; the result is a
new graph of the input rows that survive, still in time order, and the
input graph is left as it was.

If the source loses all outgoing edges or the sink all incoming ones,
the maximum flow is 0 and no solver needs to run. The whole procedure
is linear in the number of interactions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import TemporalGraph


@dataclass
class PreprocessResult:
    graph: TemporalGraph
    interactions_removed: int
    edges_removed: int
    vertices_removed: int
    zero_flow: bool


def preprocess(g: TemporalGraph) -> PreprocessResult:
    """Run Algorithm 1 on ``g`` (requires a DAG); ``g`` is unchanged."""
    order = g.topological_order()  # raises on non-DAG, per the paper
    s, t = g.source, g.sink

    # The algorithm's working state: each vertex's surviving neighbours,
    # and its time floor, the earliest interaction that can enter it.
    # An outgoing interaction below its tail's floor can never carry
    # inflow; an edge whose last interaction is below it goes.
    out_nb, in_nb = g.adjacency
    out = {v: set(out_nb.get(v, ())) for v in g.vertices}
    inc = {v: set(in_nb.get(v, ())) for v in g.vertices}
    floor = dict.fromkeys(g.vertices, -math.inf)
    deleted_vertices = set()

    def delete_edge(v: int, u: int) -> None:
        out[v].discard(u)
        inc[u].discard(v)

    def delete_vertex_down(v: int) -> None:
        """Remove v and its outgoing edges (no-incoming case)."""
        deleted_vertices.add(v)
        for u in list(out[v]):
            delete_edge(v, u)

    def delete_vertex_up(v: int) -> None:
        """Remove v and its incoming edges; cascade to predecessors
        that lose their last outgoing edge (they precede v in the
        topological order, so they will not be revisited)."""
        deleted_vertices.add(v)
        for w in list(inc[v]):
            delete_edge(w, v)
            if w != s and w not in deleted_vertices and not out[w]:
                delete_vertex_up(w)

    for v in order:
        if v in (s, t) or v in deleted_vertices:
            continue
        if not inc[v]:
            delete_vertex_down(v)
            continue
        # Each surviving in-edge keeps an interaction at or above its
        # tail's floor; the earliest of those is v's floor.
        floor[v] = min(
            next(x for x, _ in g.edges[(w, v)] if x >= floor[w]) for w in inc[v]
        )
        for u in list(out[v]):
            if g.edges[(v, u)][-1][0] < floor[v]:
                delete_edge(v, u)
        if not out[v]:
            delete_vertex_up(v)

    rows = tuple(r for r in g.rows if r[2] in out[r[1]] and r[0] >= floor[r[1]])
    return PreprocessResult(
        graph=TemporalGraph(rows, s, t),
        interactions_removed=len(g.rows) - len(rows),
        edges_removed=len(g.edges) - sum(map(len, out.values())),
        vertices_removed=len(deleted_vertices),
        zero_flow=(not out[s]) or (not inc[t]),
    )
