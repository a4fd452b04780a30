"""repro.spark.network against the DuckDB oracle (Table 4 machinery)."""
import pytest

from repro.core.patterns import ALL_PATTERNS
from repro.oracle import assert_equivalent
from repro.spark.network import dataset_stats, edges_df
from repro.spark.paths import c2_table, l2_table, l3_table
from repro.spark.pattern_search import gb_search
from repro.spark.subgraphs import extract_seed_subgraphs


class TestEdges:
    def test_edges_match_oracle(self, interactions, interactions_pdf):
        assert_equivalent(
            edges_df(interactions),
            "select distinct src as u, dst as v from i",
            i=interactions_pdf,
        )

    def test_edges_are_distinct(self, interactions):
        e = edges_df(interactions)
        assert e.count() == e.distinct().count()


class TestDatasetStats:
    def test_stats_match_oracle(self, interactions, interactions_pdf):
        assert_equivalent(
            dataset_stats(interactions),
            """
            with nodes as (
                select src as n from i union select dst as n from i
            )
            select (select count(*) from nodes) as n_nodes,
                   (select count(*) from (select distinct src, dst from i)) as n_edges,
                   count(*) as n_interactions,
                   avg(qty) as avg_flow
            from i
            """,
            i=interactions_pdf,
        )

    def test_row_values_sane(self, interactions):
        row = dataset_stats(interactions).collect()[0]
        assert row["n_nodes"] > 0
        assert row["n_edges"] >= row["n_nodes"] // 2
        assert row["n_interactions"] >= row["n_edges"]
        assert row["avg_flow"] == pytest.approx(19.2, rel=0.05)


def _analyzed(df) -> str:
    return df._jdf.queryExecution().analyzed().toString()


class TestCheckpointedInput:
    """Entry points plan against one RDD scan of a checkpointed input,
    never against the input's ``LocalRelation`` (whose planning cost
    grows with every scan of it in the plan)."""

    @pytest.mark.parametrize(
        "entry", ["extract_seed_subgraphs", "l2_table", "l3_table", "c2_table", "gb_search"]
    )
    def test_no_local_relation_in_plan(self, spark, interactions_pdf, entry):
        build = {
            "extract_seed_subgraphs": extract_seed_subgraphs,
            "l2_table": l2_table,
            "l3_table": l3_table,
            "c2_table": c2_table,
            "gb_search": lambda df: gb_search(df, ALL_PATTERNS["P3"]),
        }[entry]
        net = spark.createDataFrame(interactions_pdf)
        assert "LocalRelation" in _analyzed(net)
        assert "LocalRelation" not in _analyzed(build(net))
