"""Random temporal DAG generator used by the property tests."""
import pytest

from repro.core.randgen import random_temporal_dag


class TestRandomTemporalDag:
    def test_deterministic_in_seed(self):
        a = random_temporal_dag(seed=42)
        b = random_temporal_dag(seed=42)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = random_temporal_dag(seed=1)
        b = random_temporal_dag(seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("seed", range(10))
    def test_always_a_dag(self, seed):
        g = random_temporal_dag(n_vertices=9, edge_prob=0.5, seed=seed)
        assert len(g.topological_order()) == len(g.vertices)  # raises on a cycle

    @pytest.mark.parametrize("seed", range(10))
    def test_source_and_sink_touched(self, seed):
        g = random_temporal_dag(n_vertices=6, edge_prob=0.1, seed=seed)
        assert any(v == g.source for v, _ in g.edges)
        assert any(u == g.sink for _, u in g.edges)

    def test_interaction_counts_bounded(self):
        g = random_temporal_dag(
            n_vertices=5, edge_prob=1.0, max_interactions_per_edge=2, seed=3
        )
        assert all(1 <= len(seq) <= 2 for seq in g.edges.values())

    def test_quantities_positive(self):
        g = random_temporal_dag(seed=11, integer_qty=False)
        assert all(q > 0 for seq in g.edges.values() for _, q in seq)

    def test_min_two_vertices(self):
        g = random_temporal_dag(n_vertices=1, seed=0)
        assert g.source == 0 and g.sink == 1
