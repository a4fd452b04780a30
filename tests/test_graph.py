"""Unit tests for the TemporalGraph substrate (repro.core.graph)."""
import math

import pytest

from repro.core.graph import SINK, SOURCE, TemporalGraph, add_super_source_sink
from repro.core.greedy import greedy_flow
from repro.maxflow_static.time_expanded import max_flow_time_expanded


def chain_graph():
    return TemporalGraph.from_interactions(
        [(0, 1, 3, 5.0), (0, 1, 1, 2.0), (1, 2, 4, 6.0)], source=0, sink=2
    )


def diamond_graph():
    return TemporalGraph.from_interactions(
        [(0, 1, 1, 5.0), (0, 2, 1, 5.0), (1, 3, 2, 5.0), (2, 3, 3, 5.0)],
        source=0,
        sink=3,
    )


class TestConstruction:
    def test_from_interactions_groups_edges(self):
        g = chain_graph()
        assert set(g.edges) == {(0, 1), (1, 2)}

    def test_interactions_sorted_by_time(self):
        g = chain_graph()
        assert g.edges[(0, 1)] == [(1, 2.0), (3, 5.0)]

    def test_n_interactions(self):
        assert chain_graph().n_interactions == 3

    def test_vertices_include_endpoints(self):
        g = chain_graph()
        assert g.vertices == {0, 1, 2}

    def test_vertices_include_isolated_source_sink(self):
        g = TemporalGraph(edges={}, source=7, sink=9)
        assert g.vertices == {7, 9}

    def test_copy_is_deep_for_interactions(self):
        g = chain_graph()
        h = g.copy()
        h.edges[(0, 1)].append((9, 9.0))
        assert len(g.edges[(0, 1)]) == 2

    def test_float_vertex_ids_coerced_to_int(self):
        g = TemporalGraph.from_interactions([(0.0, 1.0, 1, 1.0)], source=0, sink=1)
        assert (0, 1) in g.edges


class TestAccessors:
    def test_adjacency(self):
        out, inc = diamond_graph().adjacency()
        assert sorted(out[0]) == [1, 2]
        assert sorted(inc[3]) == [1, 2]

    def test_time_order_is_global(self):
        g = chain_graph()
        ts = [t for t, *_ in g.interactions_in_time_order()]
        assert ts == sorted(ts) == [1, 3, 4]

    def test_time_order_tie_break_deterministic(self):
        g = TemporalGraph.from_interactions(
            [(2, 3, 5, 1.0), (0, 1, 5, 1.0), (1, 2, 5, 1.0)], source=0, sink=3
        )
        rows = g.interactions_in_time_order()
        assert [(v, u) for _, v, u, _ in rows] == [(0, 1), (1, 2), (2, 3)]


class TestTopology:
    def test_topological_order_chain(self):
        assert chain_graph().topological_order() == [0, 1, 2]

    def test_topological_order_diamond(self):
        order = diamond_graph().topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for v, u in diamond_graph().edges:
            assert pos[v] < pos[u]

    def test_cycle_raises(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 1.0), (1, 0, 2, 1.0)], source=0, sink=1
        )
        with pytest.raises(ValueError):
            g.topological_order()

    def test_is_dag(self):
        assert diamond_graph().is_dag()
        g = TemporalGraph.from_interactions(
            [(1, 2, 1, 1.0), (2, 1, 2, 1.0)], source=1, sink=2
        )
        assert not g.is_dag()


class TestSuperSourceSink:
    def multi_endpoint(self):
        # Two sources (0, 1) and two sinks (3, 4): Figure 4's situation.
        return TemporalGraph.from_interactions(
            [(0, 2, 1, 3.0), (1, 2, 2, 4.0), (2, 3, 3, 5.0), (2, 4, 4, 9.0)],
            source=0,
            sink=4,
        )

    def test_adds_single_source_and_sink(self):
        h = add_super_source_sink(self.multi_endpoint())
        _, inc = h.adjacency()
        out, _ = h.adjacency()
        assert not inc.get(SOURCE)
        assert not out.get(SINK)

    def test_super_edges_have_infinite_quantity(self):
        h = add_super_source_sink(self.multi_endpoint())
        assert h.edges[(SOURCE, 0)] == [(-math.inf, math.inf)]
        assert h.edges[(3, SINK)] == [(math.inf, math.inf)]

    def test_original_sources_fed_before_everything(self):
        h = add_super_source_sink(self.multi_endpoint())
        # Both original sources push their full outgoing quantity (3 + 4
        # arrive at vertex 2); vertex 2 can forward at most those 7 units
        # over its two outgoing interactions, all of which reach a sink.
        assert greedy_flow(h) == pytest.approx(7.0)

    def test_max_flow_matches_greedy_here(self):
        h = add_super_source_sink(self.multi_endpoint())
        assert max_flow_time_expanded(h) == pytest.approx(greedy_flow(h))
