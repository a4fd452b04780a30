"""Unit tests for the TemporalGraph substrate (repro.core.graph)."""
import pytest

from repro.core.graph import TemporalGraph


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

