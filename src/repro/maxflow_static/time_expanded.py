"""Temporal → static max-flow reduction (Section 4.2.1 / Akrida et al.).

The paper shows the temporal interaction max-flow problem equals a
classic static max-flow problem on a time-expanded graph. We use this
as the *exact combinatorial oracle* against which the LP path is
verified (and as an alternative solver):

* one node ``(v, t)`` per vertex ``v`` and distinct timestamp ``t`` at
  which ``v`` has an *outgoing* interaction — the buffer state usable at
  time ``t`` (inflow strictly before ``t``);
* infinite-capacity "holdover" edges along each vertex's timeline
  (buffers are unbounded and never expire);
* an interaction ``(t, q)`` on ``(v, u)`` becomes a capacity-``q`` edge
  from ``(v, t)`` to ``(u, t')`` where ``t'`` is ``u``'s first outgoing
  timestamp strictly after ``t`` (strict, matching eq. 2's ``t_j <
  t_i``); arrivals into the sink go to the super-sink directly and
  arrivals the receiver can never re-spend are dropped;
* the source is a single super-node (infinite buffer at all times).

Node and edge counts are linear in the interaction count, so Dinic on
this graph is the paper's "quadratic in the number of interactions"
bound in the worst case but typically far better.
"""
from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from ..core.graph import TemporalGraph
from .dinic import Dinic


def build_time_expanded(g: TemporalGraph) -> Tuple[Dinic, int, int]:
    """Construct the static network; returns ``(dinic, s_node, t_node)``."""
    rows = g.rows
    # Distinct outgoing timestamps per vertex (spend points).
    out_times: Dict[int, List[float]] = {}
    for t, v, u, q in rows:
        out_times.setdefault(v, [])
        if not out_times[v] or out_times[v][-1] != t:
            out_times[v].append(t)  # rows are time-sorted

    node_of: Dict[Tuple[int, float], int] = {}
    n = 0

    def node(v: int, t: float) -> int:
        nonlocal n
        key = (v, t)
        if key not in node_of:
            node_of[key] = n
            n += 1
        return node_of[key]

    S = n
    n += 1
    T = n
    n += 1
    # Pre-register all (v, t) spend nodes.
    for v, ts in out_times.items():
        if v == g.source:
            continue
        for t in ts:
            node(v, t)

    d = Dinic(n + len(rows))  # upper bound; extra ids unused
    INF = float("inf")
    # Holdover edges along each vertex timeline.
    for v, ts in out_times.items():
        if v == g.source:
            continue
        for a, b in zip(ts, ts[1:]):
            d.add_edge(node(v, a), node(v, b), INF)

    for t, v, u, q in rows:
        tail = S if v == g.source else node_of[(v, t)]
        if u == g.sink:
            head = T
        elif u == g.source:
            continue  # arrivals into the infinite-buffer source are moot
        else:
            ts = out_times.get(u, [])
            i = bisect.bisect_right(ts, t)
            if i >= len(ts):
                continue  # u can never re-spend this arrival
            head = node_of[(u, ts[i])]
        d.add_edge(tail, head, q)
    return d, S, T


def max_flow_time_expanded(g: TemporalGraph) -> float:
    """Exact maximum flow of the temporal graph via the static reduction."""
    d, s, t = build_time_expanded(g)
    return d.max_flow(s, t)
