"""Distributed flow computation over extracted subgraphs (Tables 5-8).

Flow computation is sequential *within* one subgraph (a time-ordered
scan / one LP) but embarrassingly parallel *across* the thousands of
extracted subgraphs. The Spark mapping hash-repartitions the subgraph
rows on the seed into one partition per core and makes one
``mapInPandas`` call per partition, which loops over its seeds
(`repro.spark.batched`). Per seed it runs the paper's four methods
(Greedy, LP, Pre, PreSim) and returns one record: flows, per-method
wall-clock milliseconds, and the subgraph's class:

* **A** — soluble by greedy as-is (Lemma 2),
* **B** — soluble after Algorithm-1 preprocessing,
* **C** — still needs the LP.

One call per core only cuts the number of Python calls, whose fixed cost
outweighed the flows themselves (measurements in `repro.spark.batched`);
each ``ms_*`` column still times one method on one subgraph.
"""
from __future__ import annotations

from functools import partial

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import TemporalGraph
from ..core.pipeline import run_all_methods
from .batched import apply_per_key

RESULT_SCHEMA = (
    "seed long, n_vertices long, n_edges long, n_interactions long, "
    "cls string, flow_greedy double, flow_lp double, flow_pre double, "
    "flow_presim double, ms_greedy double, ms_lp double, ms_pre double, "
    "ms_presim double"
)


def _flow_one_seed(_, cols: dict, lp_cap: int | None = None) -> dict:
    g = TemporalGraph.from_columns(cols)
    return {
        "n_vertices": len(g.vertices),
        "n_edges": len(g.edges),
        "n_interactions": g.n_interactions,
        **run_all_methods(g, lp_cap=lp_cap),
    }


def compute_flows(subgraphs: DataFrame, *, lp_cap: int | None = None) -> DataFrame:
    """Run all four methods on every seed subgraph; one result row each."""
    return apply_per_key(
        subgraphs, ["seed"], partial(_flow_one_seed, lp_cap=lp_cap), RESULT_SCHEMA
    )


def runtime_table(results: DataFrame) -> DataFrame:
    """Tables 6-8 shape: All / Class A / B / C rows with per-method
    average milliseconds and subgraph counts, sorted by class in one
    partition: a global order without the sampling job a
    range-partitioned ``orderBy`` runs."""
    summary = results.rollup("cls").agg(
        F.expr("count(*) AS n_subgraphs"),
        *(F.expr(f"avg(ms_{m}) AS {m}_ms") for m in ("greedy", "lp", "pre", "presim")),
    )
    return (
        summary.withColumn("cls", F.expr("coalesce(cls, 'All')"))
        .coalesce(1)
        .sortWithinPartitions(F.expr("cls"))
    )
