"""Maximum-flow LP (Section 4.2.1) vs paper examples, a loop reference
builder and the exact time-expanded solver."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import TemporalGraph
from repro.core.randgen import random_temporal_dag
from repro.lp.model import build_lp, max_flow_lp
from repro.lp.simplex import solve_lp_maximize
from repro.maxflow_static.time_expanded import max_flow_time_expanded


def figure3_graph():
    return TemporalGraph.from_interactions(
        [(0, 1, 1, 5.0), (0, 2, 2, 3.0), (1, 2, 3, 5.0), (1, 3, 4, 4.0), (2, 3, 5, 1.0)],
        source=0,
        sink=3,
    )


class TestPaperExamples:
    def test_figure3_max_flow_is_5(self):
        # Table 3: y reserves 4 units at (3,5) and sends them at (4,4).
        assert max_flow_lp(figure3_graph()) == pytest.approx(5.0)

    def test_figure1a_max_flow_is_4(self):
        g = TemporalGraph.from_interactions(
            [
                (0, 1, 1, 3.0),
                (1, 3, 5, 5.0),
                (0, 2, 2, 6.0),
                (2, 3, 8, 5.0),
                (2, 4, 9, 4.0),
                (3, 4, 2, 3.0),
            ],
            source=0,
            sink=4,
        )
        assert max_flow_lp(g) == pytest.approx(4.0)


class TestModelStructure:
    def test_one_variable_per_non_source_interaction(self):
        c, A, b, const, var_rows = build_lp(figure3_graph())
        assert len(var_rows) == 3  # (y,z), (y,t), (z,t)
        assert A.shape == (6, 3)  # one bound + one eq-2 row per variable

    def test_objective_marks_sink_edges(self):
        c, A, b, const, var_rows = build_lp(figure3_graph())
        sink_vars = [k for k, (_, v, u, _) in enumerate(var_rows) if u == 3]
        assert all(c[k] == 1.0 for k in sink_vars)
        assert sum(c) == len(sink_vars)

    def test_source_to_sink_interactions_become_constant(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 7.0), (0, 1, 2, 3.0)], source=0, sink=1
        )
        c, A, b, const, var_rows = build_lp(g)
        assert var_rows == []
        assert const == pytest.approx(10.0)
        assert max_flow_lp(g) == pytest.approx(10.0)

    def test_fixed_source_inflow_in_rhs(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 7.0), (1, 2, 5, 9.0)], source=0, sink=2
        )
        c, A, b, const, var_rows = build_lp(g)
        # Bound row: x <= 9; eq-2 row: x <= fixed inflow 7 before t=5.
        assert b[0] == pytest.approx(9.0)
        assert b[1] == pytest.approx(7.0)

    def test_simultaneous_outgoing_joint_constraint(self):
        # Two outgoing interactions at the same timestamp must share the
        # buffer (DESIGN.md deviation note) - the literal eq. (2) would
        # allow 10 here; the correct answer is 5.
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 5.0), (1, 2, 2, 5.0), (1, 3, 2, 5.0), (2, 4, 3, 9.0), (3, 4, 3, 9.0)],
            source=0,
            sink=4,
        )
        assert max_flow_lp(g) == pytest.approx(5.0)
        assert max_flow_time_expanded(g) == pytest.approx(5.0)

    def test_strict_inflow_not_spendable_same_instant(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 5, 4.0), (1, 2, 5, 4.0)], source=0, sink=2
        )
        assert max_flow_lp(g) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(30))
def test_lp_equals_time_expanded_on_random_dags(seed):
    g = random_temporal_dag(n_vertices=7, edge_prob=0.45, seed=seed)
    assert max_flow_lp(g) == pytest.approx(
        max_flow_time_expanded(g), abs=1e-6
    )


def bench_size_dag(seed):
    # 446-574 variables, the size of the benchmarks' larger subgraph LPs.
    return random_temporal_dag(
        n_vertices=30,
        edge_prob=0.5,
        max_interactions_per_edge=4,
        t_range=200,
        integer_qty=False,
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(10))
def test_lp_equals_time_expanded_at_bench_size(seed):
    g = bench_size_dag(1000 + seed)
    assert max_flow_lp(g) == pytest.approx(
        max_flow_time_expanded(g), abs=1e-6
    )


#: seed -> (variables, max_flow_lp value, LPResult.iterations), recorded
#: from the solver. Any change to pivot selection, or to the order of the
#: arithmetic, moves the iteration count or the last bits of the value.
GOLDEN_PIVOT_PATHS = {
    1000: (490, 61.61699999999999, 173),
    1001: (574, 86.08399999999996, 131),
    1003: (532, 64.55899999999998, 261),
    1006: (539, 127.55900000000003, 181),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PIVOT_PATHS))
def test_golden_pivot_path_at_bench_size(seed):
    n_vars, value, iterations = GOLDEN_PIVOT_PATHS[seed]
    g = bench_size_dag(seed)
    c, A, b, constant, var_rows = build_lp(g)
    assert len(var_rows) == n_vars
    assert solve_lp_maximize(c, A, b).iterations == iterations
    assert max_flow_lp(g) == value


@pytest.mark.parametrize("seed", range(10))
def test_lp_solution_respects_bounds(seed):
    g = random_temporal_dag(n_vertices=6, edge_prob=0.5, seed=100 + seed)
    c, A, b, const, var_rows = build_lp(g)
    if not var_rows:
        return
    res = solve_lp_maximize(c, A, b)
    qs = np.array([q for _, _, _, q in var_rows])
    assert np.all(res.x <= qs + 1e-9)
    assert np.all(res.x >= -1e-9)


def build_lp_reference(g):
    """``build_lp`` as one loop per variable over its vertex's siblings:
    the reference the broadcast builder must match bit for bit."""
    rows = g.rows
    var_rows = [r for r in rows if r[1] != g.source]
    n = len(var_rows)
    out_vars, in_vars, fixed_in = {}, {}, {}
    for k, (t, v, u, q) in enumerate(var_rows):
        out_vars.setdefault(v, []).append(k)
        in_vars.setdefault(u, []).append(k)
    constant = 0.0
    for t, v, u, q in rows:
        if v == g.source:
            if u == g.sink:
                constant += q
            else:
                fixed_in.setdefault(u, []).append((t, q))
    c = np.zeros(n)
    for k, (t, v, u, q) in enumerate(var_rows):
        if u == g.sink:
            c[k] = 1.0
    A = np.zeros((2 * n, n))
    b = np.zeros(2 * n)
    for k, (t, v, u, q) in enumerate(var_rows):
        A[k, k] = 1.0
        b[k] = q
    for k, (t, v, u, q) in enumerate(var_rows):
        r = n + k
        A[r, k] = 1.0
        for j in out_vars.get(v, []):
            if j != k and var_rows[j][0] <= t:
                A[r, j] += 1.0
        for j in in_vars.get(v, []):
            if var_rows[j][0] < t:
                A[r, j] -= 1.0
        # Left to right, as ``sum`` adds floats before Python 3.12.
        inflow = 0
        for t2, q2 in fixed_in.get(v, []):
            if t2 < t:
                inflow += q2
        b[r] = inflow
    return c, A, b, constant, var_rows


# Vertex 0 is the source and 1 the sink; few vertices and timestamps make
# parallel interactions, self-loops and timestamp ties common.
_interaction = st.tuples(
    st.integers(0, 4),
    st.integers(0, 4),
    st.one_of(st.integers(0, 3), st.sampled_from([0.5, 2.5])),
    st.one_of(
        st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False),
        st.integers(1, 9),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_interaction, max_size=16))
@example([])  # no interactions, no variables
@example([(0, 2, 1, 4.0), (0, 1, 1, 2.0)])  # only fixed source flow
@example([(0, 1, 1, 3.0), (0, 1, 2, 0.25), (0, 2, 1, 1.5), (2, 1, 2, 1.5)])  # source->sink
@example([(2, 3, 1, 1.0), (2, 3, 1, 2.0), (2, 4, 1, 3.0), (4, 2, 1, 0.5), (3, 2, 1, 0.7)])  # ties
@example([(0, 2, 1, 1.1), (0, 2, 1, 2.2), (2, 1, 2, 1.0), (2, 1, 2, 1.0), (2, 1, 3, 5.0)])  # parallel
@example([(0, 2, 1, 5.0), (0, 2, 1, 0.3), (2, 1, 1, 4.0), (0, 2, 2, 0.1), (2, 3, 2, 1.0)])  # tied inflow
@example([(2, 2, 1, 1.0), (2, 2, 2, 1.0), (2, 1, 2, 3.0), (0, 2, 0, 2.0)])  # self-loops
def test_build_lp_matches_loop_reference(rows):
    g = TemporalGraph.from_interactions(rows, source=0, sink=1)
    c, A, b, constant, var_rows = build_lp(g)
    c_ref, A_ref, b_ref, constant_ref, var_rows_ref = build_lp_reference(g)
    assert var_rows == var_rows_ref
    assert constant == constant_ref
    for got, want in ((c, c_ref), (A, A_ref), (b, b_ref)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
