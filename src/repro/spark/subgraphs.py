"""Distributed subgraph extraction (Section 6.2).

The paper's flow-computation experiments extract, for each *seed*
vertex, the union of all ≤3-hop paths that leave the seed and return to
it, split the seed into a source copy and a sink copy, and compute the
flow of the resulting DAG. Here the whole extraction is Catalyst
DataFrame work on the checkpointed network
(`repro.spark.network.checkpointed`), so its scans of the input plan
as RDD scans:

1. enumerate the 2-hop (``a→b→a``) and 3-hop (``a→b→c→a``) cycles,
   self-loops excluded, with two windows and no join
   (:func:`_closed_wedges`): the first gives each edge ``c→a`` the
   in-neighbours of ``c``, the second the out-neighbours of ``a``, and
   their intersection is every ``b`` that closes a cycle through
   ``c→a``. The rows come out partitioned by the seed ``a``;
2. explode each cycle into its hops, keeping a hop ``(u, v)`` only when
   ``pos(u) < pos(v)`` — the deterministic DAG guarantee of DESIGN.md
   §1(4) (Algorithm 1 requires a DAG; unioning raw cycle paths may
   create intermediate cycles). Only a 3-cycle's middle hop ``b→c`` can
   fail it, exactly when the seed also has the edge ``a→c``;
3. ``distinct`` gives the edge set, without a shuffle, as the rows are
   already partitioned by seed;
4. attach the edges' interaction sequences and relabel the seed's
   outgoing copy as ``SOURCE`` (-1) and incoming copy as ``SINK`` (-2);
5. drop seeds whose subgraph exceeds ``max_interactions`` rows, counted
   by a window over each seed's rows (the paper dropped
   >10K-interaction subgraphs for the same reason: the direct LP
   baseline explodes).

The plan is kept small for Spark's codegen cache: 100 compiled classes
in four LRU segments of 25. A class's segment is a hash that includes
its class loader's identity hash, so the split differs from JVM to JVM,
and a segment that gets more than 25 of the classes a pass uses
recompiles them on every pass. A Tables 6–8 pass (extraction, flow
pass, ``runtime_table``) generates 63 classes with this plan, against
106 with P2/P3 self-joins and 82 with a wedge join closed by a left join.

Returns one row per (seed, interaction): ``seed, src, dst, ts, qty``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE
from .network import checkpointed


def _closed_wedges(interactions: DataFrame) -> DataFrame:
    """Every 2- and 3-hop cycle ``a→b→c→a`` as one row ``(a, b, c, chord)``.

    ``c == a`` marks a 2-cycle ``a→b→a``. For a 3-cycle, ``chord`` says
    whether the seed also has the edge ``a→c``. Without self-loops the
    vertices of a row are pairwise distinct exactly when ``c != a``.
    """
    none = F.lit(None).cast("long")
    # Per vertex c, its in-neighbours, on the rows of its out-edges c→a.
    # Each interaction is an out-row of its src and an in-row of its dst;
    # shuffled by c, the distinct rows are the edges without a second
    # shuffle (a ``distinct`` edge table first would need its own).
    by_tail = F.array(
        F.struct(F.col("src").alias("c"), F.col("dst").alias("a"), none.alias("w")),
        F.struct(F.col("dst").alias("c"), none.alias("a"), F.col("src").alias("w")),
    )
    ins = F.collect_set("w").over(Window.partitionBy("c"))
    edges = (
        interactions.where(F.col("src") != F.col("dst"))
        .select(F.inline(by_tail))
        .repartition("c")
        .distinct()
        .select("c", "a", ins.alias("ins"))
        .where(F.col("a").isNotNull())
    )
    # Per vertex a, its out-neighbours, on the rows of its in-edges c→a.
    by_head = F.array(
        F.struct("a", "c", "ins", none.alias("b")),
        F.struct(
            F.col("c").alias("a"),
            none.alias("c"),
            F.lit(None).cast("array<long>").alias("ins"),
            F.col("a").alias("b"),
        ),
    )
    outs = F.collect_set("b").over(Window.partitionBy("a"))
    edges = (
        edges.select(F.inline(by_head))
        .select("a", "c", "ins", outs.alias("outs"))
        .where(F.col("c").isNotNull())
    )
    # An out-neighbour b of a closes c→a→b into a 2-cycle when b == c
    # and into a 3-cycle when b→c.
    closers = F.array_intersect("outs", F.array_union("ins", F.array("c")))
    b, c = F.col("b"), F.col("c")
    return edges.select(
        "a", "c", F.array_contains("outs", c).alias("chord"), F.explode(closers).alias("b")
    ).select("a", "b", F.when(b == c, F.col("a")).otherwise(c).alias("c"), "chord")


def cycle_paths(interactions: DataFrame, hops: int) -> DataFrame:
    """All ``hops``-hop cycles as one row per path: ``(a, b)`` for
    ``a→b→a`` or ``(a, b, c)`` for ``a→b→c→a``, with pairwise distinct
    vertices — the instances of patterns P2 and P3."""
    cycles = _closed_wedges(interactions)
    if hops == 2:
        return cycles.where(F.col("c") == F.col("a")).select("a", "b")
    if hops == 3:
        return cycles.where(F.col("c") != F.col("a")).select("a", "b", "c")
    raise ValueError("hops must be 2 or 3")


def seed_edge_sets(interactions: DataFrame) -> DataFrame:
    """Per-seed DAG edge set: ``(seed, u, v)`` after the pos-filter.

    ``u`` / ``v`` are original vertex ids; the seed itself appears as an
    endpoint and is relabeled later. Each cycle of seed ``a`` gives its
    first hop ``a→b`` and its hop back into ``a``; a 3-cycle also gives
    its middle hop ``b→c``, unless ``a→c`` exists. That is the
    ``pos(u) < pos(v)`` filter with ``pos`` the least hop index of a
    vertex on the seed's cycles: the seed's out-copy is first and its
    in-copy last, ``pos(b) = 1``, and ``pos(c)`` is 1 when ``c`` also
    starts a cycle of ``a`` and 2 otherwise. Since ``c→a`` exists, the
    edge ``a→c`` is exactly what makes ``a→c→a`` such a cycle.
    """
    a, b, c = F.col("a"), F.col("b"), F.col("c")
    two = c == a

    def hop(u, v):
        return F.struct(u.alias("u"), v.alias("v"))

    hops = F.array(
        hop(a, b),
        hop(F.when(two, b).otherwise(c), a),
        F.when(~two & ~F.col("chord"), hop(b, c)),
    )
    return (
        _closed_wedges(interactions)
        .select(a.alias("seed"), F.explode(hops).alias("h"))
        .where(F.col("h").isNotNull())
        .select("seed", "h.u", "h.v")
        .distinct()
    )


def extract_seed_subgraphs(
    interactions: DataFrame, *, max_interactions: int = 800
) -> DataFrame:
    """Section 6.2 extraction; returns ``(seed, src, dst, ts, qty)``.

    The seed's outgoing copy becomes ``SOURCE`` (-1), its incoming copy
    ``SINK`` (-2). Seeds with more than ``max_interactions`` rows are
    dropped (paper: 10K). The input is checkpointed first (see
    :func:`repro.spark.network.checkpointed`).
    """
    interactions = checkpointed(interactions)
    edges = seed_edge_sets(interactions)
    sub = edges.join(
        interactions,
        (edges["u"] == interactions["src"]) & (edges["v"] == interactions["dst"]),
    ).select(
        "seed",
        F.when(F.col("u") == F.col("seed"), F.lit(SOURCE)).otherwise(F.col("u")).alias("src"),
        F.when(F.col("v") == F.col("seed"), F.lit(SINK)).otherwise(F.col("v")).alias("dst"),
        "ts",
        "qty",
        F.count("*").over(Window.partitionBy("seed")).alias("n_i"),
    )
    return sub.where(F.col("n_i") <= max_interactions).drop("n_i")


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
