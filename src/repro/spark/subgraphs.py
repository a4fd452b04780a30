"""Distributed subgraph extraction (Section 6.2).

The paper's flow-computation experiments extract, for each *seed*
vertex, the union of all ≤3-hop paths that leave the seed and return to
it, split the seed into a source copy and a sink copy, and compute the
flow of the resulting DAG. Here the whole extraction is Catalyst
DataFrame work on the checkpointed network
(`repro.spark.network.checkpointed`), so its ~10 scans of the input plan
as RDD scans:

1. self-join the distinct-edge table into 2-hop (``a→b→a``) and 3-hop
   (``a→b→c→a``) cycles;
2. union the constituent edges per seed, with each intermediate vertex
   annotated by its minimal hop position over all of the seed's paths;
3. keep an intermediate edge ``(u, v)`` only when ``pos(u) < pos(v)``
   — the deterministic DAG guarantee of DESIGN.md §1(4) (Algorithm 1
   requires a DAG; unioning raw cycle paths may create intermediate
   cycles);
4. attach the edges' interaction sequences and relabel the seed's
   outgoing copy as ``SOURCE`` (-1) and incoming copy as ``SINK`` (-2);
5. drop seeds whose subgraph exceeds ``max_interactions`` (the paper
   dropped >10K-interaction subgraphs for the same reason: the direct
   LP baseline explodes).

Returns one row per (seed, interaction): ``seed, src, dst, ts, qty``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE
from .network import checkpointed, edges_df


def cycle_paths(interactions: DataFrame, hops: int) -> DataFrame:
    """All ``hops``-hop cycles as one row per path.

    2 hops → columns ``(a, b)`` for ``a→b→a``; 3 hops → ``(a, b, c)``
    for ``a→b→c→a`` with ``a, b, c`` pairwise distinct.
    """
    e = edges_df(interactions)
    if hops == 2:
        return (
            e.alias("e1")
            .join(
                e.alias("e2"),
                (F.col("e1.v") == F.col("e2.u")) & (F.col("e2.v") == F.col("e1.u")),
            )
            .select(F.col("e1.u").alias("a"), F.col("e1.v").alias("b"))
        )
    if hops == 3:
        return (
            e.alias("e1")
            .join(e.alias("e2"), F.col("e1.v") == F.col("e2.u"))
            .join(
                e.alias("e3"),
                (F.col("e2.v") == F.col("e3.u")) & (F.col("e3.v") == F.col("e1.u")),
            )
            .where(
                (F.col("e2.v") != F.col("e1.u")) & (F.col("e1.v") != F.col("e2.v"))
            )
            .select(
                F.col("e1.u").alias("a"),
                F.col("e1.v").alias("b"),
                F.col("e2.v").alias("c"),
            )
        )
    raise ValueError("hops must be 2 or 3")


def seed_edge_sets(interactions: DataFrame) -> DataFrame:
    """Per-seed DAG edge set: ``(seed, u, v)`` after the pos-filter.

    ``u`` / ``v`` are original vertex ids; the seed itself appears as an
    endpoint and is relabeled later. Also applies the ``pos(u) <
    pos(v)`` DAG filter to intermediate edges.
    """
    p2 = cycle_paths(interactions, 2)
    p3 = cycle_paths(interactions, 3)

    # Candidate edges per seed, tagged with endpoint hop positions
    # (seed-out = 0, seed-in = "infinity" encoded as 9).
    edges = (
        p2.select(F.col("a").alias("seed"), F.col("a").alias("u"), F.col("b").alias("v"))
        .unionByName(p2.select(F.col("a").alias("seed"), F.col("b").alias("u"), F.col("a").alias("v")))
        .unionByName(p3.select(F.col("a").alias("seed"), F.col("a").alias("u"), F.col("b").alias("v")))
        .unionByName(p3.select(F.col("a").alias("seed"), F.col("b").alias("u"), F.col("c").alias("v")))
        .unionByName(p3.select(F.col("a").alias("seed"), F.col("c").alias("u"), F.col("a").alias("v")))
        .distinct()
    )

    # Minimal hop position of every intermediate vertex per seed.
    pos = (
        p2.select(F.col("a").alias("seed"), F.col("b").alias("w"), F.lit(1).alias("p"))
        .unionByName(p3.select(F.col("a").alias("seed"), F.col("b").alias("w"), F.lit(1).alias("p")))
        .unionByName(p3.select(F.col("a").alias("seed"), F.col("c").alias("w"), F.lit(2).alias("p")))
        .groupBy("seed", "w")
        .agg(F.min("p").alias("pos"))
    )

    with_pos = (
        edges.join(
            pos.select(F.col("seed"), F.col("w").alias("u"), F.col("pos").alias("pu")),
            ["seed", "u"],
            "left",
        )
        .join(
            pos.select(F.col("seed"), F.col("w").alias("v"), F.col("pos").alias("pv")),
            ["seed", "v"],
            "left",
        )
        .withColumn("pu", F.when(F.col("u") == F.col("seed"), 0).otherwise(F.col("pu")))
        .withColumn("pv", F.when(F.col("v") == F.col("seed"), 9).otherwise(F.col("pv")))
    )
    return with_pos.where(F.col("pu") < F.col("pv")).select("seed", "u", "v")


def extract_seed_subgraphs(
    interactions: DataFrame,
    *,
    max_interactions: int = 800,
    max_seeds: int | None = None,
) -> DataFrame:
    """Section 6.2 extraction; returns ``(seed, src, dst, ts, qty)``.

    The seed's outgoing copy becomes ``SOURCE`` (-1), its incoming copy
    ``SINK`` (-2). Seeds with more than ``max_interactions`` rows are
    dropped (paper: 10K); ``max_seeds`` keeps the lowest seed ids for a
    deterministic cap. The input is checkpointed first (see
    :func:`repro.spark.network.checkpointed`).
    """
    interactions = checkpointed(interactions)
    edges = seed_edge_sets(interactions)
    sub = (
        edges.join(
            interactions,
            (edges["u"] == interactions["src"]) & (edges["v"] == interactions["dst"]),
        )
        .select(
            "seed",
            F.when(F.col("u") == F.col("seed"), F.lit(SOURCE)).otherwise(F.col("u")).alias("src"),
            F.when(F.col("v") == F.col("seed"), F.lit(SINK)).otherwise(F.col("v")).alias("dst"),
            "ts",
            "qty",
        )
    )
    counts = sub.groupBy("seed").agg(F.count("*").alias("n_i"))
    keep = counts.where(F.col("n_i") <= max_interactions).select("seed")
    if max_seeds is not None:
        keep = keep.orderBy("seed").limit(max_seeds)
    return sub.join(keep, "seed")


def subgraph_stats(subgraphs: DataFrame) -> DataFrame:
    """Table-5 row: #subgraphs and average vertices/edges/interactions.

    Vertex counts include the two seed copies (SOURCE and SINK), i.e. a
    pure 2-hop-cycle subgraph a→b→a has 3 vertices and 2 edges.
    """
    per_seed = subgraphs.groupBy("seed").agg(
        (
            F.size(F.array_distinct(F.flatten(F.collect_list(F.array("src", "dst")))))
        ).alias("n_vertices"),
        F.countDistinct("src", "dst").alias("n_edges"),
        F.count("*").alias("n_interactions"),
    )
    return per_seed.agg(
        F.count("*").alias("n_subgraphs"),
        F.avg("n_vertices").alias("avg_vertices"),
        F.avg("n_edges").alias("avg_edges"),
        F.avg("n_interactions").alias("avg_interactions"),
    )
