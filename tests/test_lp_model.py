"""Maximum-flow LP (Section 4.2.1) vs paper examples and the exact
time-expanded solver."""
import numpy as np
import pytest

from repro.core.graph import TemporalGraph
from repro.core.randgen import random_temporal_dag
from repro.lp.model import build_lp, max_flow_lp
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


@pytest.mark.parametrize("seed", range(10))
def test_lp_equals_time_expanded_at_bench_size(seed):
    # 446-574 variables, the size of the benchmarks' larger subgraph LPs.
    g = random_temporal_dag(
        n_vertices=30,
        edge_prob=0.5,
        max_interactions_per_edge=4,
        t_range=200,
        integer_qty=False,
        seed=1000 + seed,
    )
    assert max_flow_lp(g) == pytest.approx(
        max_flow_time_expanded(g), abs=1e-6
    )


@pytest.mark.parametrize("seed", range(10))
def test_lp_solution_respects_bounds(seed):
    from repro.lp.simplex import solve_lp_maximize

    g = random_temporal_dag(n_vertices=6, edge_prob=0.5, seed=100 + seed)
    c, A, b, const, var_rows = build_lp(g)
    if not var_rows:
        return
    res = solve_lp_maximize(c, A, b)
    qs = np.array([q for _, _, _, q in var_rows])
    assert np.all(res.x <= qs + 1e-9)
    assert np.all(res.x >= -1e-9)
