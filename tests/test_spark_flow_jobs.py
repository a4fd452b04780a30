"""Distributed flow jobs: Spark results == local core results (Tables 5-8)."""
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.graph import SINK, SOURCE, TemporalGraph
from repro.core.patterns import ALL_PATTERNS
from repro.core.pipeline import run_all_methods
from repro.oracle import assert_equivalent
from repro.spark.batched import apply_per_key
from repro.spark.flow_jobs import (
    RESULT_SCHEMA,
    _flow_one_seed,
    compute_flows,
    runtime_table,
)
from repro.spark.paths import c2_table, l2_table, l3_table
from repro.spark.pattern_search import pattern_table_row
from repro.spark.subgraphs import cycle_paths, extract_seed_subgraphs, seed_edge_sets

from .conftest import PROFILE, SF, codegen_compilations


class TestComputeFlows:
    def test_one_row_per_seed(self, subgraphs, flow_results):
        assert flow_results.count() == subgraphs.select("seed").distinct().count()

    def test_flows_match_local_reference(self, subgraphs, flow_results):
        sub = subgraphs.toPandas()
        got = flow_results.toPandas().set_index("seed")
        for seed, grp in sub.groupby("seed"):
            g = TemporalGraph.from_interactions(
                zip(grp["src"], grp["dst"], grp["ts"], grp["qty"]),
                source=SOURCE,
                sink=SINK,
            )
            expect = run_all_methods(g)
            row = got.loc[seed]
            assert row["cls"] == expect["cls"]
            for k in ("flow_greedy", "flow_lp", "flow_pre", "flow_presim"):
                assert row[k] == pytest.approx(expect[k], abs=1e-6), (seed, k)

    def test_methods_agree_distributed(self, flow_results):
        pdf = flow_results.toPandas()
        assert np.allclose(pdf["flow_lp"], pdf["flow_pre"])
        assert np.allclose(pdf["flow_pre"], pdf["flow_presim"])
        assert (pdf["flow_greedy"] <= pdf["flow_pre"] + 1e-6).all()

    def test_class_a_greedy_equals_max(self, flow_results):
        pdf = flow_results.toPandas()
        a = pdf[pdf["cls"] == "A"]
        assert len(a) > 0
        assert np.allclose(a["flow_greedy"], a["flow_pre"])

    def test_all_classes_present(self, flow_results):
        # The ctu13 test network produces all three classes.
        assert set(flow_results.toPandas()["cls"]) == {"A", "B", "C"}

    def test_sizes_recorded(self, subgraphs, flow_results):
        counts = subgraphs.groupBy("seed").count().toPandas().set_index("seed")
        got = flow_results.toPandas().set_index("seed")
        for seed in counts.index:
            assert got.loc[seed, "n_interactions"] == counts.loc[seed, "count"]

    def test_lp_cap_marks_skipped(self, subgraphs):
        res = compute_flows(subgraphs, lp_cap=10).toPandas()
        big = res[res["n_interactions"] > 10]
        assert big["flow_lp"].isna().all()
        assert big["flow_pre"].notna().all()

    def test_one_partition_per_core(self, spark, subgraphs):
        """The exchange feeding the Python stage repartitions by number
        into ``defaultParallelism`` partitions, which AQE never coalesces
        (an ``ENSURE_REQUIREMENTS`` exchange would be merged into one task
        for a shuffle this small)."""
        res = compute_flows(subgraphs)
        res.collect()
        plan = res._jdf.queryExecution().executedPlan().toString()
        lines = plan.splitlines()
        python = next(i for i, l in enumerate(lines) if "InPandas" in l)
        exchange = next(i for i in range(python, len(lines)) if "Exchange" in lines[i])
        n = spark.sparkContext.defaultParallelism
        assert re.search(
            rf"Exchange hashpartitioning\(seed#\d+L, {n}\), REPARTITION_BY_NUM",
            lines[exchange],
        ), plan
        assert not any("coalesced" in l for l in lines[python:exchange]), plan

    def test_flow_pass_reuses_extraction_partitioning(self, spark, interactions):
        """Extraction ends hash-partitioned on the seed into one partition
        per core, so the flow pass plans no second exchange on the seed."""
        res = compute_flows(extract_seed_subgraphs(interactions, max_interactions=50))
        res.collect()
        plan = res._jdf.queryExecution().executedPlan().toString()
        final = plan.split("== Initial Plan ==")[0]
        on_seed = [
            l for l in final.splitlines() if "Exchange hashpartitioning(seed#" in l
        ]
        n = spark.sparkContext.defaultParallelism
        assert len(on_seed) == 1, plan
        assert re.search(
            rf"hashpartitioning\(seed#\d+L, {n}\), REPARTITION_BY_NUM", on_seed[0]
        ), plan


class TestCodegenCache:
    def test_warm_flow_table_pass_compiles_nothing(self, spark):
        """A repeated Tables 6-8 pass finds every generated class in
        Spark's codegen cache: 100 entries in four LRU segments of 25,
        filled by a hash that differs from JVM to JVM. A pass with more
        classes than a segment holds recompiles that segment's classes
        on every pass, and they start unJITted again."""
        from jobs import tables

        def one_pass():
            # As the flow-bitcoin benchmark body does it, on the fixture
            # network (the driver's network seed is SEED).
            results, table = tables.flow_pass(spark, PROFILE, SF)
            table.collect()
            results.toPandas()
            results.unpersist()

        one_pass()
        before = codegen_compilations(spark)
        one_pass()
        assert codegen_compilations(spark) - before == 0

    def test_warm_pattern_table_pass_compiles_at_most(
        self, spark, interactions, l2, l3, c2
    ):
        """A tripwire, not a fit: a fixture Tables 9-11 pass generates
        more classes than the cache holds, so every warm pass recompiles.
        A warm pass over P2-P6, RP2 and RP3 compiled 190-211 classes in
        17 fresh JVMs with this plan and 191-205 in 17 with the plan
        before the seed split moved into SQL (349-353 before the pattern
        plans shared the cycle enumerator). The bound sits above that
        JVM-to-JVM spread, so it fails a plan that adds a few dozen
        recompiles per pass, not one that adds a few."""

        def one_pass():
            for name in ("P2", "P3", "P4", "P5", "P6", "RP2", "RP3"):
                pattern_table_row(interactions, ALL_PATTERNS[name], l2=l2, l3=l3, c2=c2)

        one_pass()
        before = codegen_compilations(spark)
        one_pass()
        assert codegen_compilations(spark) - before <= 240


class TestCallSite:
    """No Column object is built on the Tables 5-11 paths. With PySpark's
    DataFrame debugging on (its default), every Column method and every
    ``F.col`` captures the Python call site: a config read, JVM calls,
    and on first use an ``import IPython``. SQL-string expressions pass
    through DataFrame methods, which are not wrapped."""

    @pytest.fixture
    def captures(self, monkeypatch):
        import pyspark.errors.utils as utils

        real, calls = utils._capture_call_site, []

        def counting(depth):
            calls.append(depth)
            return real(depth)

        monkeypatch.setattr(utils, "_capture_call_site", counting)
        return calls

    def test_flow_table_pass_captures_nothing(self, spark, captures):
        from jobs import tables

        results, table = tables.flow_pass(spark, PROFILE, SF)
        table.collect()
        results.toPandas()
        results.unpersist()
        assert len(captures) == 0

    def test_extraction_captures_nothing(self, interactions, captures):
        extract_seed_subgraphs(interactions).toPandas()
        assert len(captures) == 0

    def test_path_tables_capture_nothing(self, interactions, captures):
        for build in (l2_table, l3_table, c2_table):
            build(interactions).collect()
        assert len(captures) == 0

    def test_pattern_table_pass_captures_nothing(self, interactions, l2, l3, c2, captures):
        for name in ("P2", "P3", "P4", "P5", "P6", "RP2", "RP3"):
            pattern_table_row(interactions, ALL_PATTERNS[name], l2=l2, l3=l3, c2=c2)
        assert len(captures) == 0


@pytest.mark.parametrize(
    "build, source",
    [
        (lambda df: cycle_paths(df, 2), "interactions"),
        (lambda df: cycle_paths(df, 3), "interactions"),
        (seed_edge_sets, "interactions"),
        (extract_seed_subgraphs, "interactions"),
        (compute_flows, "subgraphs"),
        (runtime_table, "flow_results"),
    ],
    ids=["cycles2", "cycles3", "edge_sets", "extract", "flows", "runtime"],
)
def test_cached_input_stays_cached(request, build, source):
    """Building and running a table leaves its cached input cached. Spark
    uncaches every cached plan equal to a temp view that is dropped, as
    ``spark.sql(query, df=...)`` does with its views afterwards."""
    df = request.getfixturevalue(source)
    level = df.storageLevel
    assert level.useMemory
    build(df).collect()
    assert df.storageLevel == level


class TestRuntimeTable:
    def test_rows_all_plus_classes(self, flow_results):
        pdf = runtime_table(flow_results).toPandas()
        assert set(pdf["cls"]) == {"All", "A", "B", "C"}

    def test_sorted_without_range_partitioning(self, flow_results):
        """The four rows are sorted inside one partition; a global
        ``orderBy`` would add a range-partition sampling job."""
        table = runtime_table(flow_results)
        assert list(table.toPandas()["cls"]) == ["A", "All", "B", "C"]
        plan = table._jdf.queryExecution().executedPlan().toString()
        assert "rangepartitioning" not in plan, plan

    def test_counts_match_oracle(self, flow_results):
        assert_equivalent(
            runtime_table(flow_results),
            """
            select 'All' as cls, count(*) as n_subgraphs,
                   avg(ms_greedy) as greedy_ms, avg(ms_lp) as lp_ms,
                   avg(ms_pre) as pre_ms, avg(ms_presim) as presim_ms
            from r
            union all
            select cls, count(*), avg(ms_greedy), avg(ms_lp),
                   avg(ms_pre), avg(ms_presim)
            from r group by cls
            """,
            r=flow_results.toPandas(),
        )

    def test_greedy_fastest_on_average(self, flow_results):
        pdf = runtime_table(flow_results).toPandas()
        allrow = pdf[pdf["cls"] == "All"].iloc[0]
        assert allrow["greedy_ms"] <= allrow["lp_ms"]


class TestPerKeyBuckets:
    """``apply_per_key`` changes how many Python calls run, not what they
    return: per seed, the non-timing columns equal the one-call-per-seed
    ``groupBy("seed").applyInPandas`` reference, also when a seed's rows
    straddle the Arrow batches its partition arrives in."""

    @pytest.fixture(scope="class")
    def reference(self, subgraphs):
        def one_seed(pdf):
            cols = {c: pdf[c].to_numpy() for c in pdf.columns}
            return pd.DataFrame(
                [{"seed": int(pdf["seed"].iloc[0]), **_flow_one_seed(None, cols)}]
            )

        return _non_timing(
            subgraphs.groupBy("seed").applyInPandas(one_seed, RESULT_SCHEMA).toPandas()
        )

    @pytest.mark.parametrize("records_per_batch", [1, 7, 256])
    def test_same_rows_as_per_seed(
        self, spark, subgraphs, reference, records_per_batch
    ):
        conf = "spark.sql.execution.arrow.maxRecordsPerBatch"
        before = spark.conf.get(conf)
        spark.conf.set(conf, records_per_batch)
        try:
            got = apply_per_key(subgraphs, ["seed"], _flow_one_seed, RESULT_SCHEMA)
            got = got.toPandas()
        finally:
            spark.conf.set(conf, before)
        assert got["seed"].is_unique
        pd.testing.assert_frame_equal(_non_timing(got), reference, check_exact=True)


def _non_timing(pdf: pd.DataFrame) -> pd.DataFrame:
    cols = [c for c in pdf.columns if not c.startswith("ms_")]
    return pdf[cols].sort_values("seed").reset_index(drop=True)
