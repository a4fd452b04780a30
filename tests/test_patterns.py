"""Pattern definitions and instance→DAG construction (Section 5)."""
import pytest

from repro.core.graph import SINK, SOURCE
from repro.core.patterns import ALL_PATTERNS, P1, P2, P3, P4, P5, P6, RP2, instance_graph
from repro.core.greedy import greedy_flow
from repro.core.solubility import soluble_by_greedy


class TestDefinitions:
    def test_registry_complete(self):
        assert set(ALL_PATTERNS) == {
            "P1", "P2", "P3", "P4", "P5", "P6", "RP1", "RP2", "RP3"
        }

    def test_cyclic_flags(self):
        assert P2.cyclic and P3.cyclic and P4.cyclic and P5.cyclic and P6.cyclic
        assert not P1.cyclic

    def test_labels_in_insertion_order(self):
        assert P5.labels == ["a", "e", "b", "c"]
        assert P6.labels == ["a", "b", "c", "d", "e"]

    def test_relaxed_flags(self):
        assert RP2.relaxed and not P2.relaxed


class TestInstanceGraph:
    def interactions(self):
        return {
            (10, 20): [(1, 5.0)],
            (20, 10): [(2, 4.0)],
            (20, 30): [(2, 3.0)],
            (30, 10): [(3, 2.0)],
            (10, 30): [(1, 1.0)],
        }

    def test_p2_seed_split(self):
        g = instance_graph(P2, {"a": 10, "b": 20}, self.interactions())
        assert set(g.edges) == {(SOURCE, 20), (20, SINK)}
        assert g.edges[(SOURCE, 20)] == [(1, 5.0)]
        assert g.edges[(20, SINK)] == [(2, 4.0)]

    def test_p2_flow_is_chain_greedy(self):
        g = instance_graph(P2, {"a": 10, "b": 20}, self.interactions())
        assert greedy_flow(g) == pytest.approx(4.0)
        assert soluble_by_greedy(g)

    def test_p3_structure(self):
        g = instance_graph(P3, {"a": 10, "b": 20, "c": 30}, self.interactions())
        assert set(g.edges) == {(SOURCE, 20), (20, 30), (30, SINK)}

    def test_p4_chords_present(self):
        g = instance_graph(
            P4, {"a": 10, "b": 20, "c": 30}, self.interactions()
        )
        assert set(g.edges) == {
            (SOURCE, 20), (20, 30), (30, SINK), (SOURCE, 30), (20, SINK)
        }
        # b (=20) now has two outgoing edges -> not greedy-soluble.
        assert not soluble_by_greedy(g)

    def test_p1_chain_endpoints(self):
        g = instance_graph(P1, {"a": 10, "b": 20, "c": 30}, self.interactions())
        assert set(g.edges) == {(SOURCE, 20), (20, SINK)}
        assert g.edges[(20, SINK)] == [(2, 3.0)]

    def test_missing_edge_yields_empty_sequence(self):
        g = instance_graph(P2, {"a": 10, "b": 99}, self.interactions())
        assert g.n_interactions == 0
        assert greedy_flow(g) == pytest.approx(0.0)
