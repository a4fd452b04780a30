"""Greedy flow computation vs the paper's worked examples (Section 4.1)."""
import pytest

from repro.core.graph import TemporalGraph
from repro.core.greedy import greedy_buffers, greedy_flow, greedy_sink_deliveries

S, Y, Z, T = 0, 1, 2, 3


def figure3_graph():
    """The running example of Section 4 (Figure 3, Tables 2-3)."""
    return TemporalGraph.from_interactions(
        [
            (S, Y, 1, 5.0),
            (S, Z, 2, 3.0),
            (Y, Z, 3, 5.0),
            (Y, T, 4, 4.0),
            (Z, T, 5, 1.0),
        ],
        source=S,
        sink=T,
    )


class TestFigure3:
    def test_flow_matches_table2(self):
        assert greedy_flow(figure3_graph()) == pytest.approx(1.0)

    def test_final_buffers_match_table2(self):
        B = greedy_buffers(figure3_graph())
        assert B[Y] == pytest.approx(0.0)
        assert B[Z] == pytest.approx(7.0)
        assert B[T] == pytest.approx(1.0)

    def test_sink_deliveries(self):
        assert greedy_sink_deliveries(figure3_graph()) == [(5, 1.0)]


class TestFigure1a:
    def graph(self):
        s, x, y, z, t = 0, 1, 2, 3, 4
        return TemporalGraph.from_interactions(
            [
                (s, x, 1, 3.0),
                (x, z, 5, 5.0),
                (s, y, 2, 6.0),
                (y, z, 8, 5.0),
                (y, t, 9, 4.0),
                (z, t, 2, 3.0),
            ],
            source=0,
            sink=4,
        )

    def test_greedy_flow_is_1(self):
        # Intro example: greedy drains y at (8,$5), leaving $1 for (9,$4).
        assert greedy_flow(self.graph()) == pytest.approx(1.0)


class TestChain:
    def test_chain_full_transfer(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 5.0), (1, 2, 2, 3.0), (1, 2, 9, 4.0), (2, 3, 10, 7.0)],
            source=0,
            sink=3,
        )
        # 5 arrives at 1; 3 then min(4, 2)=2 move to 2; 5 moves to sink.
        assert greedy_flow(g) == pytest.approx(5.0)

    def test_deliveries_record_partial_transfers(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 5.0), (1, 2, 2, 3.0), (1, 2, 9, 4.0)], source=0, sink=2
        )
        assert greedy_sink_deliveries(g) == [(2, 3.0), (9, 2.0)]

    def test_source_has_infinite_buffer(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 100.0), (0, 1, 2, 200.0)], source=0, sink=1
        )
        assert greedy_flow(g) == pytest.approx(300.0)


class TestStrictTimestampSemantics:
    def test_same_timestamp_no_chaining(self):
        # A quantity arriving at t is not re-spendable at t (eq. 2 strict).
        g = TemporalGraph.from_interactions(
            [(0, 1, 5, 4.0), (1, 2, 5, 4.0)], source=0, sink=2
        )
        assert greedy_flow(g) == pytest.approx(0.0)

    def test_chaining_works_when_strictly_later(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 5, 4.0), (1, 2, 6, 4.0)], source=0, sink=2
        )
        assert greedy_flow(g) == pytest.approx(4.0)

    def test_simultaneous_spends_share_buffer(self):
        # Vertex 1 holds 5 before t=2; its two t=2 interactions can move
        # at most 5 in total (not 5 each).
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 5.0), (1, 2, 2, 5.0), (1, 3, 2, 5.0), (2, 9, 3, 99.0), (3, 9, 3, 99.0)],
            source=0,
            sink=9,
        )
        assert greedy_flow(g) == pytest.approx(5.0)


class TestDegenerate:
    def test_empty_graph_flow_zero(self):
        g = TemporalGraph((), source=0, sink=1)
        assert greedy_flow(g) == pytest.approx(0.0)

    def test_disconnected_sink(self):
        g = TemporalGraph.from_interactions([(0, 1, 1, 5.0)], source=0, sink=2)
        assert greedy_flow(g) == pytest.approx(0.0)

    def test_interaction_before_any_inflow_moves_nothing(self):
        g = TemporalGraph.from_interactions(
            [(1, 2, 1, 5.0), (0, 1, 3, 5.0)], source=0, sink=2
        )
        assert greedy_flow(g) == pytest.approx(0.0)
