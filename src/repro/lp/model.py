"""Maximum-flow LP formulation (Section 4.2.1, equations (1)-(3)).

One variable per interaction that does *not* originate from the source;
source-origin interactions are fixed at their full quantity (the paper's
observation that reserving at the infinite-buffer source never helps)
and folded into the constraint right-hand sides as constants.

For variable interaction ``i`` on edge ``(v, u)``:

* ``0 <= x_i <= q_i``                                  (eq. 1)
* ``x_i + sum_{out j of v, t_j < t_i} x_j
        - sum_{in  j of v, t_j < t_i} x_j  <=  F_v(t_i)``  (eq. 2)

where ``F_v(t_i)`` is the fixed inflow to ``v`` from source-origin
interactions strictly before ``t_i``. The objective (eq. 3) maximizes
the total quantity arriving at the sink (plus the constant contribution
of any direct source→sink interactions).

The eq. (2) block is built by broadcasting the variables' sources,
destinations and timestamps against each other (one ``n × n`` comparison
per term), and ``F_v`` by a running sum of ``v``'s fixed inflow looked up
with ``searchsorted``; no Python loop runs per variable pair.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.graph import TemporalGraph
from .simplex import LPResult, solve_lp_maximize


def build_lp(g: TemporalGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, List[Tuple[float, int, int, float]]]:
    """Build ``(c, A, b, constant, variables)`` for the max-flow LP.

    ``variables[k]`` is the interaction ``(t, src, dst, q)`` that
    variable ``k`` controls; ``constant`` is the fixed flow delivered
    straight from the source into the sink. ``A`` has ``2n`` rows: the
    eq. (1) bounds, then one eq. (2) row per variable.
    """
    rows = g.interactions_in_time_order()
    var_rows = [r for r in rows if r[1] != g.source]
    n = len(var_rows)
    # fixed_in[v]: times and quantities of source-origin interactions
    # entering v, in time order.
    fixed_in: Dict[int, Tuple[List[float], List[float]]] = {}
    constant = 0.0
    for t, v, u, q in rows:
        if v == g.source:
            if u == g.sink:
                constant += q
            else:
                ts, qs = fixed_in.setdefault(u, ([], []))
                ts.append(t)
                qs.append(q)

    c = np.zeros(n)
    A = np.zeros((2 * n, n))
    b = np.zeros(2 * n)
    if n == 0:
        return c, A, b, constant, var_rows
    t, src, dst, q = (np.array(col) for col in zip(*var_rows))
    c[dst == g.sink] = 1.0
    A[np.arange(n), np.arange(n)] = 1.0
    b[:n] = q
    # Eq. (2) row n + k, column j. Outgoing siblings at the *same*
    # timestamp are included (<=), k itself among them: the paper's strict
    # "<" would let simultaneous interactions each spend the full buffer
    # independently. With "<=", every member of a same-timestamp group
    # carries the joint constraint
    #   sum(group) + earlier-out - earlier-in <= fixed-in,
    # matching the time-expanded reduction and the greedy scan. Inflow
    # stays strict, so a self-loop j at v cancels to 0 unless t_j = t_k.
    earlier_eq = t[None, :] <= t[:, None]
    earlier = t[None, :] < t[:, None]
    A[n:] = (src[None, :] == src[:, None]) & earlier_eq
    A[n:] -= (dst[None, :] == src[:, None]) & earlier
    for v, (ts, qs) in fixed_in.items():
        (ks,) = (src == v).nonzero()
        if ks.size:
            before = np.concatenate(([0.0], np.cumsum(qs)))
            b[n + ks] = before[np.searchsorted(ts, t[ks], side="left")]
    return c, A, b, constant, var_rows


def max_flow_lp(g: TemporalGraph) -> float:
    """Solve the max-flow LP for ``g`` and return the optimal flow."""
    c, A, b, constant, var_rows = build_lp(g)
    if len(var_rows) == 0:
        return constant
    res: LPResult = solve_lp_maximize(c, A, b)
    return res.value + constant
