"""Greedy-solubility test (Section 4.2.2, Lemmas 1-2).

Lemma 2: if every vertex other than the source and the sink has exactly
one outgoing edge, the greedy algorithm computes the maximum flow (a
chain, Lemma 1, is the special case). Checking costs O(V) — one pass
over out-degrees.
"""
from __future__ import annotations

from .graph import TemporalGraph


def soluble_by_greedy(g: TemporalGraph) -> bool:
    """True iff Lemma 2 guarantees greedy == maximum flow for ``g``."""
    out, _ = g.adjacency
    for v in g.vertices:
        if v in (g.source, g.sink):
            continue
        if len(out.get(v, [])) != 1:
            return False
    return True
