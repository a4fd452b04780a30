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

Each reduction is one pass over the graph's rows: the rows on the chain,
already in time order, are the chain's own graph, and the next graph is
the rows off the chain plus the deliveries ``(t, s, v_k, x)``. The input
graph is left as it was.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .graph import Row, TemporalGraph
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
    s = g.source
    for v1 in sorted(out.get(s, [])):
        if v1 == g.sink or len(inc.get(v1, [])) != 1 or len(out.get(v1, [])) != 1:
            continue
        path = [s, v1]
        cur = v1
        while True:
            nxt = out[cur][0]
            path.append(nxt)
            if (
                nxt == g.sink
                or nxt == s
                or len(inc.get(nxt, [])) != 1
                or len(out.get(nxt, [])) != 1
            ):
                break
            cur = nxt
        return path
    return None


def simplify(g: TemporalGraph) -> SimplifyResult:
    """Run Algorithm 2 on ``g`` until no chain remains; ``g`` is unchanged."""
    h = g
    chains = 0
    removed = 0
    while (path := _find_source_chain(h)) is not None:
        s, vk = path[0], path[-1]
        on_chain = set(zip(path, path[1:]))
        chain: List[Row] = []
        rest: List[Row] = []
        for r in h.rows:
            (chain if (r[1], r[2]) in on_chain else rest).append(r)
        # Greedy on the chain alone yields the deliveries into v_k.
        deliveries = greedy_sink_deliveries(TemporalGraph(tuple(chain), s, vk))
        rest += [(t, s, vk, x) for t, x in deliveries]
        h = TemporalGraph(tuple(sorted(rest)), h.source, h.sink)
        removed += len(path) - 2
        chains += 1
    return SimplifyResult(graph=h, chains_reduced=chains, vertices_removed=removed)
