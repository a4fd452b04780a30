"""Sparse bounded-variable primal simplex — offline substitute for lpsolve.

The paper solves max-flow LPs with the lpsolve library; that (and any
other LP package) is unavailable here, so this module implements the
solver from scratch. Scope is exactly what `repro.lp.model` produces:

    maximize    c @ x
    subject to  A @ x <= b,   x >= 0,   with b >= 0

Like lpsolve, it presolves and keeps bounds out of the constraint matrix:

* **Presolve.** A row with one nonzero coefficient ``a > 0`` becomes the
  upper bound ``x_k <= b / a`` (the tightest one wins when several rows
  bound the same variable). A row with one negative coefficient, or none,
  can never bind since ``x >= 0`` and ``b >= 0``, and is dropped. Every
  eq. (1) row ``x_i <= q_i`` of the flow LP becomes a bound this way.
* **Bounded ratio test** (upper-bounding technique). A nonbasic variable
  at its upper bound ``u`` is substituted as ``x = u - x'``: its column is
  negated and the right-hand side shifted. The step stops at the first of
  a basic variable dropping to 0, a basic variable rising to its bound
  (its row is negated before the pivot) or the entering variable reaching
  its own bound (a bound flip, no pivot).
* **Sparse pivots.** A pivot updates only the rows where the pivot column
  is nonzero and the columns where the pivot row is nonzero; flow LPs
  have a few nonzeros per row and column.

``b >= 0`` means the all-slack basis is feasible, so a single-phase
tableau simplex suffices (no two-phase / big-M machinery). Pivoting is
Dantzig's rule for speed with a fallback to Bland's rule once degenerate
stalling is detected: the lowest-index improving variable enters and ties
in the ratio test go to the lowest variable index, which guarantees
termination. ``LPResult.iterations`` counts pivots plus bound flips.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9


class SimplexError(RuntimeError):
    """Raised on malformed input or a non-terminating solve."""


@dataclass
class LPResult:
    value: float
    x: np.ndarray
    iterations: int


def solve_lp_maximize(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    *,
    max_iter: int | None = None,
) -> LPResult:
    """Solve ``max c@x s.t. A@x <= b, x >= 0`` (requires ``b >= 0``).

    Returns the optimal value and one optimal vertex solution. Raises
    :class:`SimplexError` if the LP is unbounded (cannot happen for the
    flow LPs, whose variables are box-bounded) or the input is invalid.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2:
        raise SimplexError("A must be 2-D")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SimplexError("shape mismatch between c, A, b")
    if np.any(b < -_TOL):
        raise SimplexError("b must be non-negative (all-slack basis infeasible)")
    b = np.maximum(b, 0.0)
    if n == 0:
        return LPResult(0.0, np.zeros(0), 0)

    A, b, ub = _presolve(A, b)
    m = A.shape[0]
    # Tableau: m rows of [A | I | b] and an objective row [-c | 0 | 0].
    # Variable k is structural for k < n and the slack of row k - n after.
    T = np.zeros((m + 1, n + m + 1), dtype=np.float64)
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = -c
    upper = np.concatenate([ub, np.full(m, np.inf)])
    # at_upper[k]: variable k is held as x' = upper[k] - x in the tableau.
    at_upper = np.zeros(n + m, dtype=bool)
    basis = np.arange(n, n + m)

    if max_iter is None:
        max_iter = 200 * (m + n) + 2000
    bland = False
    stall = 0
    last_obj = 0.0
    for it in range(max_iter):
        obj_row = T[m, :-1]
        if bland:
            elig = np.flatnonzero(obj_row < -_TOL)
            if elig.size == 0:
                return _finish(T, basis, at_upper, upper, n, it)
            j = int(elig[0])
        else:
            j = int(np.argmin(obj_row))
            if obj_row[j] >= -_TOL:
                return _finish(T, basis, at_upper, upper, n, it)
        # Ratio test. Candidate 0 is j reaching its own bound; candidate
        # r + 1 is the basic variable of row r reaching 0 or its bound.
        col = T[:m, j]
        beta = T[:m, -1]
        steps = np.full(m + 1, np.inf)
        steps[0] = upper[j]
        down = col > _TOL
        steps[1:][down] = beta[down] / col[down]
        up = (col < -_TOL) & (upper[basis] < np.inf)
        steps[1:][up] = (upper[basis[up]] - beta[up]) / -col[up]
        np.maximum(steps, 0.0, out=steps)
        k = int(np.argmin(steps))  # ties -> the bound flip, then lowest row
        if steps[k] == np.inf:
            raise SimplexError("unbounded LP")
        if bland:
            # Bland: among tied candidates, the lowest variable index leaves.
            ties = np.flatnonzero(steps <= steps[k] + _TOL)
            ids = np.concatenate(([j], basis))[ties]
            k = int(ties[np.argmin(ids)])
        if k == 0:
            # Bound flip: j moves to its other bound; no basis change.
            T[:, -1] -= upper[j] * T[:, j]
            T[:, j] *= -1.0
            at_upper[j] = ~at_upper[j]
        else:
            r = k - 1
            leaving = basis[r]
            if col[r] < 0:
                # The leaving variable rises to its bound: hold it as
                # x' = u - x, which makes its row's pivot entry positive.
                T[r] *= -1.0
                T[r, leaving] = 1.0
                T[r, -1] += upper[leaving]
                at_upper[leaving] = ~at_upper[leaving]
            _pivot(T, r, j)
            basis[r] = j
        # Degeneracy watch: if the objective stops improving, switch to
        # Bland's rule (terminates by theory).
        obj = T[m, -1]
        if obj <= last_obj + _TOL:
            stall += 1
            if stall > m + n:
                bland = True
        else:
            stall = 0
        last_obj = max(last_obj, obj)
    raise SimplexError(f"simplex did not terminate in {max_iter} iterations")


def _presolve(A: np.ndarray, b: np.ndarray):
    """Turn singleton rows into variable bounds; drop rows that cannot bind.

    Returns the remaining ``(A, b)`` rows and the upper bound of each
    variable (``inf`` where no singleton row bounds it).
    """
    nonzero = A != 0
    count = nonzero.sum(axis=1)
    rows = np.flatnonzero(count == 1)
    cols = nonzero[rows].argmax(axis=1)
    a = A[rows, cols]
    pos = a > 0
    ub = np.full(A.shape[1], np.inf)
    np.minimum.at(ub, cols[pos], b[rows[pos]] / a[pos])
    keep = count > 1
    return A[keep], b[keep], ub


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    """Pivot on ``(r, j)``, touching only the nonzero rows of column ``j``
    and the nonzero columns of row ``r``."""
    T[r] /= T[r, j]
    piv = T[r]
    cols = np.flatnonzero(piv)
    rows = np.flatnonzero(T[:, j])
    rows = rows[rows != r]
    T[np.ix_(rows, cols)] -= np.outer(T[rows, j], piv[cols])
    T[rows, j] = 0.0
    T[r, j] = 1.0


def _finish(
    T: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    upper: np.ndarray,
    n: int,
    it: int,
) -> LPResult:
    x = np.where(at_upper, upper, 0.0)
    beta = T[:-1, -1]
    x[basis] = np.where(at_upper[basis], upper[basis] - beta, beta)
    return LPResult(float(T[-1, -1]), x[:n], it)
