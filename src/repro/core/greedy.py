"""Greedy flow computation (Section 4.1, Definitions 4-5).

A single scan of all interactions in time order: each interaction
``(t, q)`` on edge ``(v, u)`` moves ``min(q, B_v^t)`` from ``B_v`` to
``B_u``; the source's buffer is infinite. The flow of the graph is the
sink's buffer after the last interaction. Cost is linear in the number
of interactions (Section 4.1, complexity analysis).

Equal-timestamp semantics: ``B_v^t`` counts inflow that arrived
*strictly before* ``t`` (the paper's eq. 2 uses ``t_j < t_i``), so all
interactions sharing a timestamp are served from the buffer state as of
just before that timestamp — a quantity arriving at ``t`` is not
re-spendable at ``t``. This keeps greedy consistent with the LP and the
time-expanded max-flow reduction, which both encode the strict rule.
Multiple same-timestamp interactions leaving one vertex still compete
for its (pre-``t``) buffer in deterministic ``(src, dst, qty)`` order.
"""
from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

from .graph import TemporalGraph


def _scan(g: TemporalGraph) -> Tuple[Dict[int, float], List[Tuple[float, float]]]:
    """Run the scan; return ``(final_buffers, sink_deliveries)``, the
    latter the ``(t, x)`` of every interaction that moved ``x > 0`` into
    the sink."""
    s, sink = g.source, g.sink
    B: Dict[int, float] = defaultdict(float)
    B[s] = math.inf
    delivered: List[Tuple[float, float]] = []
    # Quantities arriving at time t become spendable only after t: they
    # wait here, summed per vertex, until the timestamp changes.
    arrivals: Dict[int, float] = {}
    now = None
    for t, v, u, q in g.rows:
        if t != now:
            for w, a in arrivals.items():
                B[w] += a
            arrivals.clear()
            now = t
        if v == s:
            x = q
        else:
            x = min(q, B[v])
            B[v] -= x
        arrivals[u] = arrivals.get(u, 0.0) + x
        if u == sink and x > 0:
            delivered.append((t, x))
    for w, a in arrivals.items():
        B[w] += a
    return dict(B), delivered


def greedy_buffers(g: TemporalGraph) -> Dict[int, float]:
    """Run the greedy scan; return the final buffer of every vertex."""
    return _scan(g)[0]


def greedy_flow(g: TemporalGraph) -> float:
    """Definition 5: the sink's buffered quantity after the full scan."""
    return greedy_buffers(g).get(g.sink, 0.0)


def greedy_sink_deliveries(g: TemporalGraph) -> List[Tuple[float, float]]:
    """The interactions that *increase the sink's buffer* under greedy.

    Returns ``[(t, x)]`` with ``x > 0`` — exactly the interaction
    sequence Lemma 3 puts on the reduced edge ``(s, v_k)`` when a
    source-chain is collapsed, and the sequence the paper stores per path
    in the L2/L3/C2 precomputed tables (Section 5.2). Ours store the
    path's PreSim flow, which on a path is the greedy flow, this
    sequence's sum (Lemma 1).
    """
    return _scan(g)[1]
