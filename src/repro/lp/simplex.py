"""Sparse bounded-variable primal simplex — offline substitute for lpsolve.

The paper solves max-flow LPs with the lpsolve library; that (and any
other LP package) is unavailable here, so this module implements the
solver from scratch. Scope is exactly what `repro.lp.model` produces:

    maximize    c @ x
    subject to  A @ x <= b,   0 <= x <= upper,   with b >= 0

Like lpsolve, it takes bounds as data and keeps them out of the
constraint matrix; the flow LP passes its eq. (1) ``x_i <= q_i`` as
``upper``. ``A`` may have any integer or floating dtype and is read in
the dtype it has: the flow LP's ``int8`` eq. (2) block is never copied
to float64, so the float64 tableau is the only float matrix of a solve.

* **Presolve.** A row with one nonzero coefficient ``a > 0`` becomes the
  upper bound ``x_k <= b / a`` (the tightest of these and ``upper[k]``
  wins), as does the eq. (2) row of an interaction with no earlier
  siblings. A row with one negative coefficient, or none, can never bind
  since ``x >= 0`` and ``b >= 0``, and is dropped. The tableau's
  structural block is filled from the rows that are left in one gather,
  ``A[kept]``, which copies them in ``A``'s dtype (one byte per entry
  for the flow LP).
* **Bounded ratio test** (upper-bounding technique). A nonbasic variable
  at its upper bound ``u`` is substituted as ``x = u - x'``: its column is
  negated and the right-hand side shifted. The step stops at the first of
  a basic variable dropping to 0, a basic variable rising to its bound
  (its row is negated before the pivot) or the entering variable reaching
  its own bound (a bound flip, no pivot).
* **Sparse iterations.** Each iteration reads the entering column once
  and works on its nonzero rows only: the ratio test computes each step
  as ``where(col > 0, beta, ub - beta) / |col|`` on them (rows with
  ``|col| <= tol`` are skipped, and a basic variable without a bound gets
  an infinite step), the bound flip shifts only their right-hand sides,
  and a pivot updates those rows at the pivot row's nonzero columns. The
  bounds of the basic variables are kept per row (``ubasis``), not
  gathered from ``upper[basis]``. Flow LPs have a few nonzeros per pivot
  row, so an iteration costs a few dozen small numpy calls whatever the
  tableau's width.

``b >= 0`` means the all-slack basis is feasible, so a single-phase
tableau simplex suffices (no two-phase / big-M machinery). Pivoting is
Dantzig's rule for speed (ties in the ratio test go to the bound flip,
then to the lowest row) with a fallback to Bland's rule once degenerate
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
    upper: np.ndarray | None = None,
    max_iter: int | None = None,
) -> LPResult:
    """Solve ``max c@x s.t. A@x <= b, 0 <= x <= upper`` (requires
    ``b >= 0``; ``upper`` defaults to no bounds).

    ``A`` keeps its dtype, which must be an integer or floating one; its
    entries are promoted to float64 exactly where they enter the tableau.
    Returns the optimal value and one optimal vertex solution. Raises
    :class:`SimplexError` if the LP is unbounded (cannot happen for the
    flow LPs, whose variables are box-bounded) or the input is invalid.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A)
    b = np.asarray(b, dtype=np.float64)
    if A.dtype.kind not in "iuf":
        raise SimplexError(f"A must be an integer or floating array, not {A.dtype}")
    if A.ndim != 2:
        raise SimplexError("A must be 2-D")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SimplexError("shape mismatch between c, A, b")
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=np.float64)
    if upper.shape != (n,):
        raise SimplexError("shape mismatch between A and upper")
    if np.any(upper < 0):
        raise SimplexError("upper must be non-negative")
    if np.any(b < -_TOL):
        raise SimplexError("b must be non-negative (all-slack basis infeasible)")
    b = np.maximum(b, 0.0)
    if n == 0:
        return LPResult(0.0, np.zeros(0), 0)

    kept, ub = _presolve(A, b, upper)
    m = kept.size
    # Tableau: m rows of [A[kept] | I | b[kept]] and an objective row
    # [-c | 0 | 0]. Variable k is structural for k < n and the slack of
    # row k - n after.
    T = np.zeros((m + 1, n + m + 1), dtype=np.float64)
    T[:m, :n] = A[kept]
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b[kept]
    T[m, :n] = -c
    upper = np.concatenate([ub, np.full(m, np.inf)])
    # at_upper[k]: variable k is held as x' = upper[k] - x in the tableau.
    at_upper = np.zeros(n + m, dtype=bool)
    basis = np.arange(n, n + m)

    if max_iter is None:
        max_iter = 200 * (m + n) + 2000
    # ubasis[r]: upper bound of the basic variable of row r.
    ubasis = upper[basis]
    bland = False
    stall = 0
    last_obj = 0.0
    for it in range(max_iter):
        obj_row = T[m, :-1]
        if bland:
            j = int((obj_row < -_TOL).argmax())
        else:
            j = int(obj_row.argmin())
        if obj_row[j] >= -_TOL:
            return _finish(T, basis, at_upper, upper, n, it)
        # Column j is read once; every step below touches only its nonzero
        # rows. The objective row is always among them (its entry < 0).
        col = T[:, j].copy()
        (nz,) = col.nonzero()
        # Ratio test. j reaching its own bound competes with the basic
        # variable of each row reaching 0 (col > 0) or its bound (col < 0);
        # a basic variable without a bound gets an infinite step.
        rows = nz[:-1]
        a = col[rows]
        keep = np.abs(a) > _TOL
        rows, a = rows[keep], a[keep]
        beta = T[rows, -1]
        steps = np.where(a > 0, beta, ubasis[rows] - beta) / np.abs(a)
        np.maximum(steps, 0.0, out=steps)
        flip = max(upper[j], 0.0)
        # i: the row whose basic variable leaves, or -1 for the bound flip.
        # Ties go to the bound flip, then to the lowest row.
        i = int(steps.argmin()) if rows.size else -1
        if i < 0 or flip <= steps[i]:
            i = -1
        best = flip if i < 0 else steps[i]
        if best == np.inf:
            raise SimplexError("unbounded LP")
        if bland:
            # Bland: among tied candidates, the lowest variable index leaves.
            ids = np.concatenate(([j], basis[rows]))
            tied = np.concatenate(([flip], steps)) <= best + _TOL
            i = int(np.where(tied, ids, n + m).argmin()) - 1
        if i < 0:
            # Bound flip: j moves to its other bound; no basis change.
            T[nz, -1] -= upper[j] * col[nz]
            T[nz, j] = -col[nz]
            at_upper[j] = ~at_upper[j]
        else:
            r = int(rows[i])
            leaving = basis[r]
            if col[r] < 0:
                # The leaving variable rises to its bound: hold it as
                # x' = u - x, which makes its row's pivot entry positive.
                T[r] *= -1.0
                T[r, leaving] = 1.0
                T[r, -1] += ubasis[r]
                at_upper[leaving] = ~at_upper[leaving]
                col[r] = -col[r]
            _pivot(T, r, j, col, nz)
            basis[r] = j
            ubasis[r] = upper[j]
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


def _presolve(A: np.ndarray, b: np.ndarray, upper: np.ndarray):
    """Turn singleton rows into variable bounds; drop rows that cannot bind.

    Returns the indices of the remaining rows and the upper bound of each
    variable: the tightest of ``upper`` and its singleton rows (``inf``
    where neither bounds it).
    """
    nonzero = A != 0
    count = nonzero.sum(axis=1)
    rows = np.flatnonzero(count == 1)
    cols = nonzero[rows].argmax(axis=1)
    a = A[rows, cols]
    pos = a > 0
    ub = upper.copy()
    np.minimum.at(ub, cols[pos], b[rows[pos]] / a[pos])
    return np.flatnonzero(count > 1), ub


def _pivot(T: np.ndarray, r: int, j: int, col: np.ndarray, nz: np.ndarray) -> None:
    """Pivot on ``(r, j)``, touching only the nonzero rows ``nz`` of column
    ``j`` (whose entries are ``col``) and the nonzero columns of row
    ``r``."""
    piv = T[r]
    piv /= col[r]
    (cols,) = piv.nonzero()
    rows = nz[nz != r]
    T[rows[:, None], cols] -= col[rows, None] * piv[cols]
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
