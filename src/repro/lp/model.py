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

Like lpsolve, the solver gets eq. (1) as bounds, not rows:
:func:`flow_lp` builds the ``n × n`` eq. (2) block, its right-hand side
and the bound vector ``q``, and :func:`solve_flow_lp` hands them to the
simplex as they are. Every eq. (2) coefficient is -1, 0 or +1, so the
block is ``int8``: one byte per entry, and the simplex's float64 tableau
is the only float ``n²``-sized array of a solve. The block is built by
broadcasting the variables' sources, destinations and timestamps against
each other (one ``n × n`` one-byte mask per term), and ``F_v`` by a
running sum of ``v``'s fixed inflow looked up with ``searchsorted``; no
Python loop runs per variable pair.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.graph import Row, TemporalGraph
from .simplex import LPResult, solve_lp_maximize


def flow_lp(
    g: TemporalGraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, List[Row]]:
    """Build ``(c, A, b, q, constant, variables)``: the LP
    ``max c@x s.t. A@x <= b, 0 <= x <= q``.

    ``A`` is the ``n × n`` eq. (2) block, ``int8``, and ``q`` the eq. (1)
    bounds.
    ``variables[k]`` is the interaction ``(t, src, dst, q)`` that variable
    ``k`` controls; ``constant`` is the fixed flow delivered straight from
    the source into the sink.
    """
    rows = g.rows
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
    b = np.zeros(n)
    if n == 0:
        return c, np.zeros((0, 0), dtype=np.int8), b, np.zeros(0), constant, var_rows
    t, src, dst, q = (np.array(col) for col in zip(*var_rows))
    c[dst == g.sink] = 1.0
    # Eq. (2) row k, column j. Outgoing siblings at the *same* timestamp
    # are included (<=), k itself among them: the paper's strict "<"
    # would let simultaneous interactions each spend the full buffer
    # independently. With "<=", every member of a same-timestamp group
    # carries the joint constraint
    #   sum(group) + earlier-out - earlier-in <= fixed-in,
    # matching the time-expanded reduction and the greedy scan. Inflow
    # stays strict, so a self-loop j at v cancels to 0 unless t_j = t_k.
    # Both terms are boolean masks, combined in place, so at most two
    # n x n one-byte temporaries are alive beside the block.
    A = t[None, :] <= t[:, None]
    A &= src[None, :] == src[:, None]
    A = A.view(np.int8)
    inflow = dst[None, :] == src[:, None]
    inflow &= t[None, :] < t[:, None]
    A -= inflow.view(np.int8)
    for v, (ts, qs) in fixed_in.items():
        (ks,) = (src == v).nonzero()
        if ks.size:
            before = np.concatenate(([0.0], np.cumsum(qs)))
            b[ks] = before[np.searchsorted(ts, t[ks], side="left")]
    return c, A, b, q.astype(np.float64), constant, var_rows


def build_lp(g: TemporalGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, List[Row]]:
    """The LP of :func:`flow_lp` with eq. (1) as rows: ``(c, A, b,
    constant, variables)``, where ``A`` is float64 with ``2n`` rows, the
    identity block of the bounds ``x_i <= q_i`` on top of the eq. (2)
    block.

    :func:`solve_lp_maximize` presolves the identity rows back into the
    same bounds, so this form solves along the same pivot path. Its
    tableau fill gathers the kept rows as float64, a copy of up to
    ``n × n × 8`` bytes beside the tableau; no measured path uses this
    form, only traced replays and tests that compare it with
    :func:`flow_lp`.
    """
    c, A2, b2, q, constant, var_rows = flow_lp(g)
    n = len(var_rows)
    A = np.concatenate((np.eye(n), A2))
    b = np.concatenate((q, b2))
    return c, A, b, constant, var_rows


def solve_flow_lp(g: TemporalGraph) -> LPResult:
    """Solve the max-flow LP of ``g``; the value includes the fixed
    source→sink flow."""
    c, A, b, q, constant, var_rows = flow_lp(g)
    if not var_rows:
        return LPResult(constant, np.zeros(0), 0)
    res = solve_lp_maximize(c, A, b, upper=q)
    return LPResult(res.value + constant, res.x, res.iterations)


def max_flow_lp(g: TemporalGraph) -> float:
    """Solve the max-flow LP for ``g`` and return the optimal flow."""
    return solve_flow_lp(g).value
