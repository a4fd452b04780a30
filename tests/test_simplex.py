"""Unit tests for the from-scratch simplex solver (repro.lp.simplex)."""
import ast
import inspect
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import simplex
from repro.lp.simplex import LPResult, SimplexError, solve_lp_maximize


def _bland_lines():
    """Line numbers of the statements inside the solver's ``if bland:``
    branches."""
    src, first = inspect.getsourcelines(simplex.solve_lp_maximize)
    lines = set()
    for node in ast.walk(ast.parse(textwrap.dedent("".join(src)))):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "bland":
            for stmt in node.body:
                lines.update(
                    n.lineno + first - 1 for n in ast.walk(stmt) if isinstance(n, ast.stmt)
                )
    assert lines, "the solver has no `if bland:` branch"
    return lines


def solve_counting_bland(c, A, b):
    """Solve, and count the statements run inside the ``if bland:``
    branches (0 when the Bland fallback never engaged)."""
    lines, code, hits = _bland_lines(), simplex.solve_lp_maximize.__code__, [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            hits[0] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        res = solve_lp_maximize(c, A, b)
    finally:
        sys.settrace(previous)
    return res, hits[0]


class TestKnownLPs:
    def test_single_variable_bound(self):
        # A lone singleton row: presolve turns it into a bound (m = 0).
        res = solve_lp_maximize([1.0], [[1.0]], [5.0])
        assert res.value == pytest.approx(5.0)
        assert res.x[0] == pytest.approx(5.0)

    def test_two_variables_shared_resource(self):
        # max x + y s.t. x <= 3, y <= 4, x + y <= 5  -> 5
        res = solve_lp_maximize(
            [1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [3.0, 4.0, 5.0]
        )
        assert res.value == pytest.approx(5.0)

    def test_weighted_objective_prefers_heavier_variable(self):
        # max 3x + y s.t. x + y <= 4, x <= 2 -> x=2, y=2 -> 8
        res = solve_lp_maximize([3.0, 1.0], [[1, 1], [1, 0]], [4.0, 2.0])
        assert res.value == pytest.approx(8.0)
        assert res.x == pytest.approx([2.0, 2.0])

    def test_zero_objective(self):
        res = solve_lp_maximize([0.0], [[1.0]], [5.0])
        assert res.value == pytest.approx(0.0)

    def test_negative_objective_keeps_x_zero(self):
        res = solve_lp_maximize([-2.0], [[1.0]], [5.0])
        assert res.value == pytest.approx(0.0)
        assert res.x[0] == pytest.approx(0.0)

    def test_degenerate_constraints(self):
        # Redundant + degenerate rows (b=0) must not cycle.
        res = solve_lp_maximize(
            [1.0, 1.0],
            [[1, 0], [1, 0], [0, 1], [1, 1], [1, -1]],
            [2.0, 2.0, 2.0, 3.0, 0.0],
        )
        assert res.value == pytest.approx(3.0)

    def test_classic_lp(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36, by
        # Dantzig's rule alone.
        res, bland_hits = solve_counting_bland(
            [3.0, 5.0], [[1, 0], [0, 2], [3, 2]], [4.0, 12.0, 18.0]
        )
        assert bland_hits == 0
        assert res.value == pytest.approx(36.0)
        assert res.x == pytest.approx([2.0, 6.0])

    def test_beale_cycling_lp(self):
        # Beale's example cycles under Dantzig's rule with lowest-row ties
        # until the Bland fallback takes over; its third row is a singleton
        # (a bound) beside two b=0 rows.
        res, bland_hits = solve_counting_bland(
            [0.75, -20.0, 0.5, -6.0],
            [[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]],
            [0.0, 0.0, 1.0],
        )
        assert bland_hits > 0
        assert res.value == pytest.approx(1.25)
        assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0])

    def test_tightest_of_several_bounds(self):
        # 2x <= 5, x <= 3, -x <= 0 and 0 <= 5: only x <= 2.5 binds, and
        # presolve leaves no rows.
        res = solve_lp_maximize(
            [1.0], [[2.0], [1.0], [-1.0], [0.0]], [5.0, 3.0, 0.0, 5.0]
        )
        assert res.value == pytest.approx(2.5)
        assert res.x == pytest.approx([2.5])


class TestUpperBounds:
    def test_bounds_as_data(self):
        # max x + y s.t. x + y <= 5, x <= 3, y <= 4, the bounds given as data.
        res = solve_lp_maximize([1.0, 1.0], [[1, 1]], [5.0], upper=[3.0, 4.0])
        assert res.value == pytest.approx(5.0)

    def test_tightest_of_upper_and_singleton_row(self):
        # 2x <= 5 bounds x by 2.5: a looser upper leaves it, a tighter wins.
        assert solve_lp_maximize([1.0], [[2.0]], [5.0], upper=[4.0]).x.tolist() == [2.5]
        assert solve_lp_maximize([1.0], [[2.0]], [5.0], upper=[1.0]).x.tolist() == [1.0]

    def test_infinite_upper_is_no_bound(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], np.zeros((0, 1)), np.zeros(0), upper=[np.inf])


class TestBlandFallback:
    def test_bland_ties_leave_by_lowest_variable_index(self):
        # Marshall and Suurballe's cycling LP, columns permuted, with x2 and
        # x4 bounded by 1. Dantzig's rule stalls on the b = 0 rows until
        # Bland's rule takes over; there the ratio test ties rows whose
        # basic variables are not in row order. Ties to the lowest variable
        # index take 10 iterations; ties to the lowest row would take 13.
        res, hits = solve_counting_bland(
            [-57.0, 10.0, -24.0, -9.0],
            [
                [-5.5, 0.5, 9.0, -2.5],
                [0.0, 0.0, 1.0, 0.0],
                [-1.5, 0.5, 1.0, -0.5],
                [0.0, 0.0, 0.0, 1.0],
            ],
            [0.0, 1.0, 0.0, 1.0],
        )
        assert hits > 0
        assert res.value == 1.0
        assert res.x.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert res.iterations == 10


class TestErrors:
    def test_negative_b_raises(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], [[1.0]], [-1.0])

    def test_unbounded_raises(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0, 1.0], [[1.0, -1.0]], [1.0])

    def test_variable_without_finite_bound_unbounded(self):
        # y's only row is a negative singleton, which bounds nothing.
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0, 1.0], [[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0, 2.0], [[1.0]], [1.0])

    def test_one_dim_A_raises(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], np.ones(3), [1.0])

    def test_no_constraints_positive_c_unbounded(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], np.zeros((0, 1)), np.zeros(0))

    def test_upper_shape_mismatch_raises(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], [[1.0]], [1.0], upper=[1.0, 2.0])

    def test_negative_upper_raises(self):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], [[1.0]], [1.0], upper=[-1.0])

    @pytest.mark.parametrize("A", [[["1"]], [[1.0 + 0j]]], ids=["str", "complex"])
    def test_non_real_A_raises(self, A):
        with pytest.raises(SimplexError):
            solve_lp_maximize([1.0], A, [1.0])

    def test_no_variables_returns_zero(self):
        res = solve_lp_maximize(np.zeros(0), np.zeros((2, 0)), [1.0, 2.0])
        assert res.value == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_lps_feasible_and_dominant(seed):
    """The returned optimum is feasible and >= many random feasible points."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
    A = rng.uniform(0.1, 2.0, size=(m, n))  # positive coeffs -> bounded
    b = rng.uniform(0.5, 5.0, size=m)
    c = rng.uniform(-1.0, 2.0, size=n)
    res: LPResult = solve_lp_maximize(c, A, b)
    assert np.all(A @ res.x <= b + 1e-6)
    assert np.all(res.x >= -1e-9)
    assert res.value == pytest.approx(float(c @ res.x), abs=1e-6)
    for _ in range(25):
        x = rng.uniform(0, 1, size=n)
        # Scale into the feasible region.
        denom = np.max(A @ x / b)
        x = x / max(denom, 1e-9) * rng.uniform(0, 1)
        if np.all(A @ x <= b + 1e-9):
            assert c @ x <= res.value + 1e-6


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_boxed_lps_feasible_and_dominant(seed):
    """Random LPs mixing one to three positive singleton rows per variable
    (tight boxes), negative singleton rows, all-zero rows and mixed-sign
    rows, some with b=0: feasible for the original A, b and >= random
    feasible points."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    rows, rhs = [], []
    for j in range(n):
        u = rng.uniform(0.0, 2.0)
        for _ in range(int(rng.integers(1, 4))):
            a = rng.uniform(0.5, 2.0)
            rows.append(a * np.eye(n)[j])
            rhs.append(a * u * rng.uniform(1.0, 1.5))
    for _ in range(int(rng.integers(0, 3))):
        row = np.zeros(n)
        row[rng.integers(n)] = -rng.uniform(0.5, 2.0)
        rows.append(row)
        rhs.append(rng.uniform(0.0, 1.0))
    for _ in range(int(rng.integers(0, 2))):
        rows.append(np.zeros(n))
        rhs.append(rng.uniform(0.0, 1.0))
    for _ in range(int(rng.integers(0, 6))):
        rows.append(rng.choice([-1.0, 0.0, 1.0, 2.0], size=n))
        rhs.append(0.0 if rng.random() < 0.3 else rng.uniform(0.0, 3.0))
    order = rng.permutation(len(rows))
    A, b = np.array(rows)[order], np.array(rhs)[order]
    c = rng.uniform(-1.0, 2.0, size=n)
    res = solve_lp_maximize(c, A, b)
    assert np.all(A @ res.x <= b + 1e-6)
    assert np.all(res.x >= -1e-9)
    assert res.value == pytest.approx(float(c @ res.x), abs=1e-6)
    for _ in range(50):
        x = rng.uniform(0.0, 2.0, size=n)
        load = A @ x
        pos = load > 0
        # Scale x towards 0 (always feasible) until every row holds.
        x *= np.min(b[pos] / load[pos], initial=1.0) * rng.uniform(0.5, 1.0)
        assert c @ x <= res.value + 1e-6


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_upper_solves_like_unit_bound_rows(seed):
    """Bounds given as ``upper`` and the same bounds as unit rows stacked
    on top of ``A`` (which presolve turns back into bounds) give one
    tableau and one pivot path, bit for bit."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 7))
    A = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(m, n))
    b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 3.0, size=m))
    u = rng.uniform(0.0, 2.0, size=n)
    c = rng.uniform(-1.0, 2.0, size=n)
    want = solve_lp_maximize(c, np.vstack([np.eye(n), A]), np.concatenate([u, b]))
    # A as int8, the dtype of the flow LP's block, solves as float64 does.
    for coeffs in (A, A.astype(np.int8)):
        got = solve_lp_maximize(c, coeffs, b, upper=u)
        assert got.value == want.value
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
