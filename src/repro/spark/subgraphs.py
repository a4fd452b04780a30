"""Distributed subgraph extraction (Section 6.2).

The paper's flow-computation experiments extract, for each *seed*
vertex, the union of all ≤3-hop paths that leave the seed and return to
it, split the seed into a source copy and a sink copy, and compute the
flow of the resulting DAG. Here the whole extraction is Catalyst
DataFrame work on the checkpointed network
(`repro.spark.network.checkpointed`), so its scans of the input plan
as RDD scans:

1. enumerate the 2-hop (``a→b→a``) and 3-hop (``a→b→c→a``) cycles as
   instances of patterns P2 and P3 with the one GB enumerator
   (`repro.spark.pattern_search.gb_instances`);
2. explode the union of both cycle families into hop rows
   ``(seed, i, u, v)``, which give the edges per seed and each
   intermediate vertex's minimal hop position over all of its paths;
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
from ..core.patterns import P2, P3
from .network import checkpointed
from .pattern_search import gb_instances

_CYCLES = {2: P2, 3: P3}


def cycle_paths(interactions: DataFrame, hops: int) -> DataFrame:
    """All ``hops``-hop cycles as one row per path: the instances of P2
    (``(a, b)`` for ``a→b→a``) or P3 (``(a, b, c)`` for ``a→b→c→a``),
    with pairwise distinct vertices."""
    if hops not in _CYCLES:
        raise ValueError("hops must be 2 or 3")
    return gb_instances(interactions, _CYCLES[hops])


def seed_edge_sets(interactions: DataFrame) -> DataFrame:
    """Per-seed DAG edge set: ``(seed, u, v)`` after the pos-filter.

    ``u`` / ``v`` are original vertex ids; the seed itself appears as an
    endpoint and is relabeled later. Also applies the ``pos(u) <
    pos(v)`` DAG filter to intermediate edges.
    """
    # Every cycle as its vertex sequence, exploded into hop rows
    # (seed, i, u, v): hop i runs from path[i] to path[i + 1].
    paths = (
        cycle_paths(interactions, 2)
        .select("a", F.array("a", "b", "a").alias("path"))
        .unionByName(
            cycle_paths(interactions, 3)
            .select("a", F.array("a", "b", "c", "a").alias("path"))
        )
    )
    hops = paths.select(
        F.col("a").alias("seed"),
        F.inline(
            F.transform(
                F.slice("path", 1, F.size("path") - 1),
                lambda u, i: F.struct(
                    i.alias("i"), u.alias("u"), F.col("path")[i + 1].alias("v")
                ),
            )
        ),
    )
    edges = hops.select("seed", "u", "v").distinct()
    # Minimal hop position of every vertex per seed: the seed's outgoing
    # copy is 0 and its incoming copy "infinity", encoded as 9.
    pos = hops.groupBy("seed", "u").agg(F.min("i").alias("pos"))
    with_pos = (
        edges.join(pos.withColumnRenamed("pos", "pu"), ["seed", "u"])
        .join(
            pos.select("seed", F.col("u").alias("v"), F.col("pos").alias("pv")),
            ["seed", "v"],
        )
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
