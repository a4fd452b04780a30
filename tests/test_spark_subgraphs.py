"""Section 6.2 subgraph extraction, oracle-checked (Table 5 machinery)."""
import duckdb
import pandas as pd
import pytest

from repro.core.graph import SINK, SOURCE, TemporalGraph
from repro.core.patterns import ALL_PATTERNS
from repro.oracle import assert_equivalent
from repro.spark.pattern_search import gb_instances
from repro.spark.subgraphs import (
    cycle_paths,
    extract_seed_subgraphs,
    seed_edge_sets,
    subgraph_stats,
)

EDGES_SQL = "(select distinct src as u, dst as v from i)"


class TestCyclePaths:
    def test_2hop_matches_oracle(self, interactions, interactions_pdf):
        assert_equivalent(
            cycle_paths(interactions, 2),
            f"""
            select e1.u as a, e1.v as b
            from {EDGES_SQL} e1 join {EDGES_SQL} e2
              on e1.v = e2.u and e2.v = e1.u
            """,
            i=interactions_pdf,
        )

    def test_3hop_matches_oracle(self, interactions, interactions_pdf):
        assert_equivalent(
            cycle_paths(interactions, 3),
            f"""
            select e1.u as a, e1.v as b, e2.v as c
            from {EDGES_SQL} e1
            join {EDGES_SQL} e2 on e1.v = e2.u
            join {EDGES_SQL} e3 on e2.v = e3.u and e3.v = e1.u
            where e2.v != e1.u and e1.v != e2.v
            """,
            i=interactions_pdf,
        )

    def test_bad_hops_raises(self, interactions):
        with pytest.raises(ValueError):
            cycle_paths(interactions, 4)

    def test_no_self_cycles(self, interactions):
        pdf = cycle_paths(interactions, 3).toPandas()
        assert (pdf["a"] != pdf["b"]).all()
        assert (pdf["b"] != pdf["c"]).all()
        assert (pdf["a"] != pdf["c"]).all()


class TestSeedEdgeSets:
    def test_every_seed_subgraph_is_a_dag(self, interactions):
        pdf = seed_edge_sets(interactions).toPandas()
        for seed, grp in pdf.groupby("seed"):
            rows = [
                (SOURCE if u == seed else u, SINK if v == seed else v, 0, 1.0)
                for u, v in zip(grp["u"], grp["v"])
            ]
            g = TemporalGraph.from_interactions(rows, source=SOURCE, sink=SINK)
            assert g.is_dag(), f"seed {seed} produced a cyclic subgraph"

    def test_seed_has_out_and_in_edges(self, interactions):
        pdf = seed_edge_sets(interactions).toPandas()
        for seed, grp in pdf.groupby("seed"):
            assert (grp["u"] == seed).any()
            assert (grp["v"] == seed).any()

    def test_seeds_are_cycle_origins(self, interactions, interactions_pdf):
        seeds = set(seed_edge_sets(interactions).toPandas()["seed"])
        con = duckdb.connect()
        con.register("i", interactions_pdf)
        expected = con.execute(
            f"""
            select distinct a from (
              select e1.u a from {EDGES_SQL} e1 join {EDGES_SQL} e2
                on e1.v=e2.u and e2.v=e1.u
              union
              select e1.u a from {EDGES_SQL} e1
                join {EDGES_SQL} e2 on e1.v=e2.u
                join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
                where e2.v != e1.u and e1.v != e2.v
            )
            """
        ).fetchdf()
        con.close()
        assert seeds == set(expected["a"])

    def test_edge_set_matches_position_oracle(self, interactions, interactions_pdf):
        # The DAG filter as hop rows, a per-(seed, u) min-position table
        # joined on both endpoints, and the seed as head at position 9.
        assert_equivalent(
            seed_edge_sets(interactions),
            """
            with e as (select distinct src as u, dst as v from i where src <> dst),
            p2 as (
              select e1.u a, e1.v b from e e1 join e e2
                on e1.v = e2.u and e2.v = e1.u
            ),
            p3 as (
              select e1.u a, e1.v b, e2.v c from e e1
                join e e2 on e1.v = e2.u
                join e e3 on e2.v = e3.u and e3.v = e1.u
                where e2.v <> e1.u
            ),
            hops as (
              select a seed, 0 i, a u, b v from p2 union all
              select a, 1, b, a from p2 union all
              select a, 0, a, b from p3 union all
              select a, 1, b, c from p3 union all
              select a, 2, c, a from p3
            ),
            pos as (select seed, u, min(i) pos from hops group by seed, u),
            edges as (select distinct seed, u, v from hops)
            select x.seed, x.u, x.v from edges x
              join pos pu on pu.seed = x.seed and pu.u = x.u
              join pos pv on pv.seed = x.seed and pv.u = x.v
              where pu.pos < case when x.v = x.seed then 9 else pv.pos end
            """,
            i=interactions_pdf,
        )


class TestExtraction:
    def test_seed_relabelled_to_source_sink(self, subgraphs):
        pdf = subgraphs.toPandas()
        for seed, grp in pdf.groupby("seed"):
            assert seed not in set(grp["src"]) | set(grp["dst"])
            assert (grp["src"] == SOURCE).any()
            assert (grp["dst"] == SINK).any()

    def test_interaction_cap_enforced(self, interactions):
        capped = extract_seed_subgraphs(interactions, max_interactions=50)
        counts = capped.groupBy("seed").count().toPandas()
        assert (counts["count"] <= 50).all()

    def test_interaction_cap_drops_exactly_the_large_seeds(self, interactions, subgraphs):
        # ``subgraphs`` is capped at 400, so it stands in for the uncapped
        # extraction of every seed up to that size. The cap is a seed size
        # that occurs, so one seed sits exactly at it and must be kept.
        sizes = subgraphs.groupBy("seed").count().toPandas()["count"]
        cap = int(sizes[sizes <= 50].max())
        assert (sizes > cap).any()
        assert_equivalent(
            extract_seed_subgraphs(interactions, max_interactions=cap),
            f"""
            select * from s where seed in (
              select seed from s group by seed having count(*) <= {cap}
            )
            """,
            s=subgraphs,
        )

    def test_interactions_come_from_network(self, subgraphs, interactions_pdf):
        pdf = subgraphs.toPandas()
        net = {
            (r.src, r.dst, r.ts): r.qty for r in interactions_pdf.itertuples()
        }
        for seed, grp in pdf.groupby("seed"):
            for src, dst, ts, qty in zip(grp["src"], grp["dst"], grp["ts"], grp["qty"]):
                u = seed if src == SOURCE else src
                v = seed if dst == SINK else dst
                assert net[(u, v, ts)] == pytest.approx(qty)


class TestSubgraphStats:
    def test_matches_oracle_on_collected_results(self, subgraphs):
        pdf = subgraphs.toPandas()
        per_seed = (
            pdf.assign(edge=list(zip(pdf["src"], pdf["dst"])))
            .groupby("seed")
            .agg(
                n_vertices=("src", lambda s: 0),  # placeholder, fixed below
                n_edges=("edge", "nunique"),
                n_interactions=("edge", "size"),
            )
        )
        per_seed["n_vertices"] = [
            len(set(grp["src"]) | set(grp["dst"]))
            for _, grp in pdf.groupby("seed")
        ]
        expect = pd.DataFrame(
            [
                {
                    "n_subgraphs": len(per_seed),
                    "avg_vertices": per_seed["n_vertices"].mean(),
                    "avg_edges": per_seed["n_edges"].mean(),
                    "avg_interactions": float(per_seed["n_interactions"].mean()),
                }
            ]
        )
        got = subgraph_stats(subgraphs).toPandas()
        pd.testing.assert_frame_equal(
            got.astype(float), expect.astype(float), check_exact=False, rtol=1e-9
        )

    def test_stats_row_sane(self, subgraphs):
        row = subgraph_stats(subgraphs).collect()[0]
        assert row["n_subgraphs"] > 0
        assert row["avg_vertices"] >= 3.0
        assert row["avg_edges"] >= 2.0
        assert row["avg_interactions"] >= row["avg_edges"]


class TestSelfLoop:
    """A self-loop is an edge but never a hop of a cycle, chain or seed DAG."""

    ROWS = [(1, 1, 5, 100.0), (1, 2, 1, 3.0), (2, 1, 2, 3.0), (2, 3, 3, 1.0), (3, 1, 4, 1.0)]

    @pytest.fixture(scope="class")
    def net(self, spark):
        return spark.createDataFrame(self.ROWS, "src long, dst long, ts long, qty double")

    def test_no_repeated_vertex(self, net):
        from repro.spark.paths import c2_table, l2_table

        for df in (cycle_paths(net, 2), l2_table(net), c2_table(net)):
            labels = [c for c in df.columns if c != "flow"]
            for row in df.select(*labels).collect():
                assert len(set(row)) == len(row), row

    def test_instances_repeat_no_vertex(self, net):
        for name in ("P1", "P2", "P3", "P4", "P5", "P6"):
            for row in gb_instances(net, ALL_PATTERNS[name]).collect():
                assert len(set(row)) == len(row), (name, row)

    def test_seed_flow_ignores_loop(self, net):
        from repro.spark.flow_jobs import compute_flows

        row = compute_flows(extract_seed_subgraphs(net)).where("seed = 1").collect()[0]
        for k in ("flow_greedy", "flow_lp", "flow_presim"):
            assert row[k] == pytest.approx(3.0), k
