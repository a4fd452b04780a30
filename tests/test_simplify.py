"""Algorithm 2 graph simplification (Section 4.2.4, Lemma 3)."""
import pytest
from hypothesis import example, given, settings

from repro.core.graph import TemporalGraph
from repro.core.greedy import greedy_flow, greedy_sink_deliveries
from repro.core.preprocess import preprocess
from repro.core.randgen import random_temporal_dag
from repro.core.simplify import _find_source_chain, simplify
from repro.maxflow_static.time_expanded import max_flow_time_expanded

from .strategies import as_dag, graph, interactions


class TestChainReduction:
    def chain(self):
        # s -> y -> z -> t, 7 interactions (Figure 5(a) spirit).
        return TemporalGraph.from_interactions(
            [
                (0, 1, 1, 5.0),
                (0, 1, 7, 4.0),
                (1, 2, 2, 3.0),
                (1, 2, 5, 2.0),
                (1, 2, 9, 4.0),
                (2, 3, 6, 3.0),
                (2, 3, 8, 4.0),
            ],
            source=0,
            sink=3,
        )

    def test_whole_chain_becomes_single_edge(self):
        res = simplify(self.chain())
        assert set(res.graph.edges) == {(0, 3)}
        assert res.vertices_removed == 2

    def test_reduced_edge_carries_sink_deliveries(self):
        res = simplify(self.chain())
        # Greedy on the chain: z receives 3 at t=6 (buffer 5 from t=2,5)
        # and 4 at t=8 (2 more arrived... let's rely on greedy): the
        # reduced edge must reproduce the original sink inflow exactly.
        assert greedy_flow(res.graph) == pytest.approx(greedy_flow(self.chain()))

    def test_max_flow_preserved(self):
        res = simplify(self.chain())
        assert max_flow_time_expanded(res.graph) == pytest.approx(
            max_flow_time_expanded(self.chain())
        )


class TestMerging:
    def graph(self):
        # Chain s->y->x->z plus an existing direct edge (s,z), then z->w
        # (Figure 7's merge-then-new-chain situation) and a branch to
        # keep w's successor non-trivial.
        return TemporalGraph.from_interactions(
            [
                (0, 1, 1, 2.0),   # s -> y
                (0, 1, 5, 1.0),
                (1, 2, 2, 2.0),   # y -> x
                (1, 2, 6, 1.0),
                (2, 3, 3, 2.0),   # x -> z
                (2, 3, 7, 1.0),
                (0, 3, 2, 5.0),   # existing (s, z)
                (0, 3, 11, 2.0),
                (3, 4, 8, 4.0),   # z -> w
                (4, 5, 9, 3.0),   # w -> t
                (0, 4, 1, 1.0),   # keep w with in-degree 2 (stops chain)
            ],
            source=0,
            sink=5,
        )

    def test_chain_merges_into_existing_edge(self):
        # syxz collapses into (s,z) and merges with the existing (s,z)
        # (Figure 7(b)->(c)); the merge makes z in-1/out-1, so szw
        # collapses next (7(c)->(d)), and the same happens once more for
        # w -> the whole graph telescopes into a single (s,t) edge.
        res = simplify(self.graph())
        assert set(res.graph.edges) == {(0, 5)}
        assert res.graph.edges[(0, 5)] == [(9, 3.0)]
        assert res.chains_reduced >= 3

    def test_flow_preserved_through_merge(self):
        g = self.graph()
        res = simplify(g)
        assert max_flow_time_expanded(res.graph) == pytest.approx(
            max_flow_time_expanded(g)
        )
        assert greedy_flow(res.graph) == pytest.approx(greedy_flow(g))


class TestFindChain:
    def test_no_chain_in_branching_graph(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 3, 2, 1.0), (1, 2, 2, 1.0), (2, 3, 3, 1.0)],
            source=0,
            sink=3,
        )
        # vertex 1 has out-degree 2, vertex 2 in-degree 2: no chain.
        assert _find_source_chain(g) is None

    def test_finds_shortest_interior(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 1.0), (1, 2, 2, 1.0), (2, 3, 3, 1.0), (0, 2, 1, 1.0)],
            source=0,
            sink=3,
        )
        # vertex 1 qualifies (in 1 / out 1) but vertex 2 has in-degree 2,
        # so the chain is s-1-2 and stops there.
        assert _find_source_chain(g) == [0, 1, 2]

    def test_sink_terminates_chain(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 1.0), (1, 2, 2, 1.0)], source=0, sink=2
        )
        assert _find_source_chain(g) == [0, 1, 2]


class TestDegenerate:
    def test_zero_delivery_chain_drops_edge(self):
        # The chain can never deliver (interaction order is reversed):
        # the reduced edge would be empty and is simply not created.
        g = TemporalGraph.from_interactions(
            [(0, 1, 9, 5.0), (1, 2, 1, 5.0), (0, 2, 3, 1.0), (2, 3, 5, 9.0)],
            source=0,
            sink=3,
        )
        res = simplify(g)
        assert (1, 2) not in res.graph.edges
        assert max_flow_time_expanded(res.graph) == pytest.approx(
            max_flow_time_expanded(g)
        )

    def test_graph_without_chains_untouched(self):
        g = TemporalGraph.from_interactions(
            [(0, 1, 1, 5.0), (0, 2, 2, 3.0), (1, 2, 3, 5.0), (1, 3, 4, 4.0), (2, 3, 5, 1.0)],
            source=0,
            sink=3,
        )
        res = simplify(g)
        assert res.chains_reduced == 0
        assert set(res.graph.edges) == set(g.edges)

    def test_cycle_through_source_raises(self):
        # The source's only edge out closes a cycle back to it: a walk
        # along the chain comes back to s. Algorithm 1 raises on it too.
        g = TemporalGraph.from_interactions(
            [(0, 2, 1, 1.0), (2, 0, 2, 1.0), (3, 1, 3, 1.0)], source=0, sink=1
        )
        with pytest.raises(ValueError):
            preprocess(g)
        with pytest.raises(ValueError):
            simplify(g)


@pytest.mark.parametrize("seed", range(40))
def test_simplification_preserves_max_flow(seed):
    g = random_temporal_dag(n_vertices=8, edge_prob=0.35, seed=seed)
    res = simplify(g)
    assert max_flow_time_expanded(res.graph) == pytest.approx(
        max_flow_time_expanded(g), abs=1e-9
    )


@pytest.mark.parametrize("seed", range(15))
def test_simplify_after_preprocess_preserves_max_flow(seed):
    g = random_temporal_dag(n_vertices=8, edge_prob=0.35, seed=500 + seed)
    pre = preprocess(g)
    if pre.zero_flow:
        assert max_flow_time_expanded(g) == pytest.approx(0.0)
        return
    res = simplify(pre.graph)
    assert max_flow_time_expanded(res.graph) == pytest.approx(
        max_flow_time_expanded(g), abs=1e-9
    )


@pytest.mark.parametrize("seed", range(15))
def test_no_reducible_chain_left(seed):
    g = random_temporal_dag(n_vertices=8, edge_prob=0.35, seed=900 + seed)
    res = simplify(g)
    assert _find_source_chain(res.graph) is None


def simplify_reference(g):
    """Algorithm 2 with the whole graph rebuilt per reduction, from the
    rows off the chain plus the deliveries: the reference the per-chain
    loop must match bit for bit. Returns ``(rows, chains, removed)``."""
    h, chains, removed = g, 0, 0
    while (path := _find_source_chain(h)) is not None:
        s, vk = path[0], path[-1]
        on_chain = set(zip(path, path[1:]))
        chain = [r for r in h.rows if (r[1], r[2]) in on_chain]
        rest = [r for r in h.rows if (r[1], r[2]) not in on_chain]
        deliveries = greedy_sink_deliveries(TemporalGraph(tuple(chain), s, vk))
        rest += [(t, s, vk, x) for t, x in deliveries]
        h = TemporalGraph(tuple(sorted(rest)), h.source, h.sink)
        removed += len(path) - 2
        chains += 1
    return h.rows, chains, removed


# Algorithm 2 runs on DAGs. Each example runs on the rows as a DAG, and on
# the rows as drawn (cycles, self-loops) less those into the source: a
# chain closing back at the source would become a source self-loop.
@settings(max_examples=300, deadline=None)
@given(interactions)
@example([(0, 2, 1, 2.0), (0, 2, 5, 1.0), (2, 3, 2, 2.0), (3, 4, 3, 2.0), (0, 4, 2, 5.0), (4, 1, 8, 4.0)])  # merge
@example([(0, 2, 1, 1.1), (0, 2, 1, 2.2), (2, 1, 2, 1.0), (2, 1, 2, 1.0), (2, 1, 3, 5.0)])  # parallel
@example([(0, 2, 9, 5.0), (2, 3, 1, 5.0), (0, 3, 3, 1.0), (3, 1, 5, 9.0)])  # no delivery
@example([(0, 2, 1, 3.0), (2, 3, 2, 3.0), (3, 3, 2, 1.0), (3, 1, 4, 2.0)])  # self-loop
def test_simplify_matches_reference(rows):
    for g in (graph(as_dag(rows)), graph([r for r in rows if r[1] != 0])):
        res = simplify(g)
        assert (res.graph.rows, res.chains_reduced, res.vertices_removed) == simplify_reference(g)
        assert (res.graph.source, res.graph.sink) == (g.source, g.sink)


@pytest.mark.parametrize("seed", range(40))
def test_simplify_matches_reference_on_random_dags(seed):
    g = random_temporal_dag(n_vertices=8, edge_prob=0.35, seed=seed)
    for h in (g, preprocess(g).graph):
        res = simplify(h)
        assert (res.graph.rows, res.chains_reduced, res.vertices_removed) == simplify_reference(h)
