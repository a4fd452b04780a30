"""DAG preprocessing (Section 4.2.3, Algorithm 1).

One pass over the vertices in topological order removes:

* interactions on an outgoing edge of ``v`` with timestamp smaller than
  the smallest timestamp entering ``v`` (they can never carry inflow);
* edges whose interaction sequence becomes empty;
* vertices left with no incoming edges (nothing can flow through them)
  together with their outgoing edges;
* vertices left with no outgoing edges (nothing can reach the sink via
  them) together with their incoming edges — cascading *upwards*
  recursively, since those predecessors were already visited.

If the source loses all outgoing edges or the sink all incoming ones,
the maximum flow is 0 and no solver needs to run. The whole procedure
is linear in the number of interactions.
"""
from __future__ import annotations

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
    """Run Algorithm 1 on a copy of ``g`` (requires a DAG)."""
    h = g.copy()
    order = h.topological_order()  # raises on non-DAG, per the paper
    s, t = h.source, h.sink

    # Mutable adjacency (edge -> interactions lives in h.edges).
    vertices = h.vertices
    out = {v: set() for v in vertices}
    inc = {v: set() for v in vertices}
    for v, u in h.edges:
        out[v].add(u)
        inc[u].add(v)

    n_inter0 = h.n_interactions
    n_edges0 = len(h.edges)
    deleted_vertices = set()

    def delete_edge(v: int, u: int) -> None:
        h.edges.pop((v, u), None)
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
        mintime = min(
            tq[0] for w in inc[v] for tq in h.edges[(w, v)]
        )
        for u in list(out[v]):
            seq = h.edges[(v, u)]
            kept = [tq for tq in seq if tq[0] >= mintime]
            if kept:
                h.edges[(v, u)] = kept
            else:
                delete_edge(v, u)
        if not out[v]:
            delete_vertex_up(v)

    zero_flow = (not out[s]) or (not inc[t])
    return PreprocessResult(
        graph=h,
        interactions_removed=n_inter0 - h.n_interactions,
        edges_removed=n_edges0 - len(h.edges),
        vertices_removed=len(deleted_vertices),
        zero_flow=zero_flow,
    )
