"""Pre / PreSim pipelines and the class A/B/C taxonomy (Section 6.2)."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import TemporalGraph
from repro.core.pipeline import run_all_methods, run_greedy, run_lp, run_pre, run_presim
from repro.core.preprocess import preprocess
from repro.core.randgen import random_temporal_dag
from repro.core.simplify import simplify
from repro.maxflow_static.time_expanded import max_flow_time_expanded


def figure3():
    return TemporalGraph.from_interactions(
        [(0, 1, 1, 5.0), (0, 2, 2, 3.0), (1, 2, 3, 5.0), (1, 3, 4, 4.0), (2, 3, 5, 1.0)],
        source=0,
        sink=3,
    )


def figure1a():
    return TemporalGraph.from_interactions(
        [(0, 1, 1, 3.0), (1, 3, 5, 5.0), (0, 2, 2, 6.0), (2, 3, 8, 5.0), (2, 4, 9, 4.0), (3, 4, 2, 3.0)],
        source=0,
        sink=4,
    )


def chain():
    return TemporalGraph.from_interactions(
        [(0, 1, 1, 5.0), (1, 2, 2, 3.0), (2, 3, 4, 9.0)], source=0, sink=3
    )


class TestClasses:
    def test_chain_is_class_a(self):
        assert run_pre(chain()).cls == "A"
        assert run_presim(chain()).cls == "A"

    def test_figure1a_is_class_b(self):
        # Preprocessing collapses the z branch; the rest is a chain.
        assert run_pre(figure1a()).cls == "B"

    def test_figure3_is_class_c(self):
        # Nothing is removable and y branches: LP is required.
        assert run_pre(figure3()).cls == "C"

    def test_zero_flow_counts_as_class_b(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 5, 2.0), (1, 2, 1, 2.0), (1, 3, 2, 1.0), (1, 2, 0, 1.0)],
            source=0,
            sink=2,
        )
        res = run_pre(g)
        assert res.cls == "B"
        assert res.flow == pytest.approx(0.0)


class TestFlowsAgree:
    @pytest.mark.parametrize("make", [figure3, figure1a, chain])
    def test_pre_presim_lp_agree(self, make):
        g = make()
        expect = max_flow_time_expanded(g)
        assert run_lp(g).flow == pytest.approx(expect)
        assert run_pre(g).flow == pytest.approx(expect)
        assert run_presim(g).flow == pytest.approx(expect)

    @pytest.mark.parametrize("make", [figure3, figure1a, chain])
    def test_greedy_lower_bound(self, make):
        g = make()
        assert run_greedy(g).flow <= max_flow_time_expanded(g) + 1e-9


class TestRunAllMethods:
    def test_row_shape(self):
        row = run_all_methods(figure3())
        assert set(row) == {
            "cls",
            "flow_greedy", "flow_lp", "flow_pre", "flow_presim",
            "ms_greedy", "ms_lp", "ms_pre", "ms_presim",
        }
        assert row["cls"] == "C"

    def test_lp_cap_skips_direct_lp_only(self):
        row = run_all_methods(figure3(), lp_cap=3)
        assert math.isnan(row["flow_lp"])
        assert row["flow_pre"] == pytest.approx(5.0)
        assert row["flow_presim"] == pytest.approx(5.0)

    def test_timings_positive(self):
        row = run_all_methods(figure3())
        for k in ("ms_greedy", "ms_lp", "ms_pre", "ms_presim"):
            assert row[k] >= 0.0


@pytest.mark.parametrize("seed", range(50))
def test_all_methods_consistent_on_random_dags(seed):
    g = random_temporal_dag(n_vertices=7, edge_prob=0.45, seed=seed)
    row = run_all_methods(g)
    exact = max_flow_time_expanded(g)
    assert row["flow_lp"] == pytest.approx(exact, abs=1e-6)
    assert row["flow_pre"] == pytest.approx(exact, abs=1e-6)
    assert row["flow_presim"] == pytest.approx(exact, abs=1e-6)
    assert row["flow_greedy"] <= exact + 1e-6
    if row["cls"] in ("A", "B"):
        assert row["flow_greedy"] == pytest.approx(exact, abs=1e-6) or row["cls"] == "B"


# A DAG interaction (src, dst, t, q) on vertices 0..5, ids in topological
# order; 0 is the source and 5 the sink. Five timestamps and three
# quantities make timestamp ties within and across edges common.
_dag_row = st.builds(
    lambda a, b, t, q: (min(a, b), max(a, b), t, q),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 4),
    st.sampled_from([1.0, 2.0, 3.5]),
).filter(lambda r: r[0] != r[1])
# Rows with exact duplicates appended, and a permutation of them.
_rows_and_permutation = (
    st.lists(_dag_row, min_size=1, max_size=12)
    .map(lambda rows: rows + rows[: len(rows) // 2 + 1])
    .flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows)))
)
_TIED_IN_EDGE = [(0, 1, 1, 2.0), (0, 1, 1, 1.0), (0, 1, 1, 2.0), (1, 2, 1, 3.5), (1, 5, 2, 1.0), (2, 5, 3, 2.0)]
_TIED_ACROSS = [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 5, 2, 1.0), (2, 5, 2, 1.0), (2, 5, 2, 1.0), (1, 2, 2, 1.0)]


@settings(max_examples=200, deadline=None)
@given(_rows_and_permutation)
@example((_TIED_IN_EDGE, _TIED_IN_EDGE[::-1]))
@example((_TIED_ACROSS, _TIED_ACROSS[::-1]))
def test_row_order_does_not_matter(rows_and_permutation):
    """Any permutation of the input rows, exact duplicates included, gives
    the same ``rows`` and bit-equal flows from every method, and
    Algorithms 1 and 2 leave their input graph as it was."""
    g, h = (TemporalGraph.from_interactions(r, source=0, sink=5) for r in rows_and_permutation)
    assert g.rows == h.rows
    before_rows, before_edges = g.rows, {e: list(seq) for e, seq in g.edges.items()}
    preprocess(g)
    simplify(g)
    assert g.rows == before_rows
    assert g.edges == before_edges

    for run in (run_greedy, run_lp, run_pre, run_presim):
        a, b = run(g), run(h)
        assert (a.flow.hex(), a.cls) == (b.flow.hex(), b.cls), run.__name__
    assert max_flow_time_expanded(g).hex() == max_flow_time_expanded(h).hex()
