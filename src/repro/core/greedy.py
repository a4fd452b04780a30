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
from itertools import groupby
from typing import Dict, List, Tuple

from .graph import TemporalGraph


def _scan(
    g: TemporalGraph,
) -> Tuple[List[Tuple[float, int, int, float, float]], Dict[int, float]]:
    """Run the scan; return ``(transfers, final_buffers)`` where each
    transfer is ``(t, v, u, q, x)`` with ``x`` the quantity actually
    moved by the greedy rule."""
    B: Dict[int, float] = defaultdict(float)
    B[g.source] = math.inf
    transfers: List[Tuple[float, int, int, float, float]] = []
    rows = g.interactions_in_time_order()
    for t, group in groupby(rows, key=lambda r: r[0]):
        arrivals: Dict[int, float] = defaultdict(float)
        for _, v, u, q in group:
            x = q if v == g.source else min(q, B[v])
            if v != g.source:
                B[v] -= x
            arrivals[u] += x
            transfers.append((t, v, u, q, x))
        # Quantities arriving at time t become spendable only after t.
        for u, a in arrivals.items():
            B[u] += a
    return transfers, dict(B)


def greedy_buffers(g: TemporalGraph) -> Dict[int, float]:
    """Run the greedy scan; return the final buffer of every vertex."""
    return _scan(g)[1]


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
    transfers, _ = _scan(g)
    return [(t, x) for t, v, u, q, x in transfers if u == g.sink and x > 0]
