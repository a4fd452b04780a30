"""Graph simplification (Section 4.2.4, Algorithm 2, Lemma 3).

A chain ``s v_1 v_2 ... v_k`` hanging off the source (each ``v_i``,
``i < k``, with in-degree 1 and out-degree 1) can be replaced by a
single edge ``(s, v_k)`` carrying the interactions that increase
``B_{v_k}`` when the greedy algorithm runs on the chain — reserving
flow at ``s`` or at chain-interior vertices can never help (Lemma 3).
If ``(s, v_k)`` already exists the two edges merge (their interaction
sequences interleave by timestamp), which may create new reducible
chains; the procedure iterates to a fixpoint. Each reduction removes at
least one vertex, so the loop terminates.

The loop's working state is each edge's rows plus the neighbour sets,
so a reduction costs what its chain holds: it pops the chain's edges,
runs greedy on their rows (the chain's own graph) and adds the
deliveries ``(t, s, v_k, x)`` to the rows of ``(s, v_k)``. The
surviving rows are sorted once, into the result graph; the input graph
is left as it was.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Set

from .graph import Edge, Row, TemporalGraph
from .greedy import greedy_sink_deliveries


@dataclass
class SimplifyResult:
    graph: TemporalGraph
    chains_reduced: int
    vertices_removed: int


def _find_source_chain(g: TemporalGraph) -> List[int] | None:
    """Find one maximal chain ``[s, v1, ..., vk]`` with ≥1 interior vertex.

    ``v1 .. v_{k-1}`` must have in-degree 1 and out-degree 1; ``vk`` is
    the first vertex breaking the condition (or the sink). Returns None
    when no reducible chain exists. Deterministic: lowest-id ``v1``
    first.
    """
    out, inc = g.adjacency
    return _source_chain(out, inc, g.source, g.sink)


def _source_chain(
    out: Mapping[int, Collection[int]],
    inc: Mapping[int, Collection[int]],
    s: int,
    sink: int,
) -> List[int] | None:
    """:func:`_find_source_chain` on the out- and in-neighbours of each
    vertex (lists or sets; a missing vertex has none).

    Raises ``ValueError`` when the walk comes back to ``s``: the graph has
    a cycle through the source, which a DAG never has.
    """
    for v1 in sorted(out.get(s, ())):
        if v1 == sink or len(inc.get(v1, ())) != 1 or len(out.get(v1, ())) != 1:
            continue
        path = [s, v1]
        cur = v1
        while True:
            (nxt,) = out[cur]
            if nxt == s:
                raise ValueError("graph has a cycle through the source; Algorithm 2 needs a DAG")
            path.append(nxt)
            if (
                nxt == sink
                or len(inc.get(nxt, ())) != 1
                or len(out.get(nxt, ())) != 1
            ):
                break
            cur = nxt
        return path
    return None


def simplify(g: TemporalGraph) -> SimplifyResult:
    """Run Algorithm 2 on ``g`` until no chain remains; ``g`` is unchanged."""
    s = g.source
    rows: Dict[Edge, List[Row]] = {}
    for r in g.rows:
        rows.setdefault((r[1], r[2]), []).append(r)
    out: Dict[int, Set[int]] = {}
    inc: Dict[int, Set[int]] = {}
    for v, u in rows:
        out.setdefault(v, set()).add(u)
        inc.setdefault(u, set()).add(v)
    chains = 0
    removed = 0
    while (path := _source_chain(out, inc, s, g.sink)) is not None:
        vk = path[-1]
        # Greedy on the chain alone yields the deliveries into v_k; the
        # interior vertices go with the chain's edges.
        chain = sorted(r for e in zip(path, path[1:]) for r in rows.pop(e))
        deliveries = greedy_sink_deliveries(TemporalGraph(tuple(chain), s, vk))
        out[s].discard(path[1])
        inc[vk].discard(path[-2])
        for v in path[1:-1]:
            del out[v], inc[v]
        if deliveries:
            rows.setdefault((s, vk), []).extend((t, s, vk, x) for t, x in deliveries)
            out[s].add(vk)
            inc[vk].add(s)
        removed += len(path) - 2
        chains += 1
    if chains:
        g = TemporalGraph(tuple(sorted(r for rs in rows.values() for r in rs)), s, g.sink)
    return SimplifyResult(graph=g, chains_reduced=chains, vertices_removed=removed)
