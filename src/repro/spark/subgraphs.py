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
   ``c→a``. The rows come out partitioned by the seed ``a``. This is
   the one structure enumerator: pattern search
   (`repro.spark.pattern_search.gb_instances`), whose P2/P3/P1 rows are
   the L2/L3/C2 path tables, derives P2-P6 from these rows and the
   2-hop chains (P1) from the first window alone (:func:`_edges_with_ins`);
2. explode each cycle into its hops, keeping a hop ``(u, v)`` only when
   ``pos(u) < pos(v)`` — the deterministic DAG guarantee of DESIGN.md
   §1(4) (Algorithm 1 requires a DAG; unioning raw cycle paths may
   create intermediate cycles). Only a 3-cycle's middle hop ``b→c`` can
   fail it, exactly when the seed also has the edge ``a→c``;
3. ``distinct`` gives the edge set, without a shuffle, as the rows are
   already partitioned by seed;
4. attach the edges' interaction sequences and relabel the seed's
   outgoing copy as ``SOURCE`` (-1) and incoming copy as ``SINK`` (-2)
   (:func:`seed_split`, the one seed-split rule: pattern search applies
   it to every instance's rows with the instance's source and sink
   labels in place of the seed);
5. hash-partition the rows on the seed into ``defaultParallelism``
   partitions, the flow pass's partitioning, and drop seeds whose
   subgraph exceeds ``max_interactions`` rows, counted by a window over
   each seed's rows (the paper dropped >10K-interaction subgraphs for
   the same reason: the direct LP baseline explodes).

The plan is kept small for Spark's codegen cache: 100 compiled classes
in four LRU segments of 25. A class's segment is a hash that includes
its class loader's identity hash, so the split differs from JVM to JVM,
and a segment that gets more than 25 of the classes a pass uses
recompiles them on every pass. A Tables 6–8 pass (extraction, flow
pass, ``runtime_table``) generates 59 classes with this plan, against
106 with P2/P3 self-joins and 82 with a wedge join closed by a left join.

Every expression is a SQL string passed to a DataFrame method
(``selectExpr``, ``where``, ``F.expr``), so no ``Column`` object is
built: with PySpark's DataFrame debugging on, each ``Column`` method
and ``F.col`` captures the Python call site, about four py4j round
trips each (DESIGN.md, distributed formulation).

Returns one row per (seed, interaction): ``seed, src, dst, ts, qty``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE
from .network import checkpointed

_NULL = "CAST(NULL AS BIGINT)"


def _edges_with_ins(interactions: DataFrame) -> DataFrame:
    """Every edge ``c→a``, self-loops excluded, as one row ``(c, a, ins)``
    with ``ins`` the in-neighbours of ``c``: the first window of
    :func:`_closed_wedges`, and on its own every 2-hop chain ``w→c→a``."""
    # Each interaction is an out-row of its src and an in-row of its dst;
    # shuffled by c, the distinct rows are the edges without a second
    # shuffle (a ``distinct`` edge table first would need its own).
    return (
        interactions.where("src <> dst")
        .selectExpr(
            f"inline(array(named_struct('c', src, 'a', dst, 'w', {_NULL}),"
            f" named_struct('c', dst, 'a', {_NULL}, 'w', src)))"
        )
        .repartition("c")
        .distinct()
        .selectExpr("c", "a", "collect_set(w) OVER (PARTITION BY c) AS ins")
        .where("a IS NOT NULL")
    )


def _closed_wedges(interactions: DataFrame) -> DataFrame:
    """Every 2- and 3-hop cycle ``a→b→c→a`` as one row ``(a, b, c, chord)``.

    ``c == a`` marks a 2-cycle ``a→b→a``. For a 3-cycle, ``chord`` says
    whether the seed also has the edge ``a→c``. Without self-loops the
    vertices of a row are pairwise distinct exactly when ``c != a``.
    """
    # Per vertex a, its out-neighbours, on the rows of its in-edges c→a.
    edges = (
        _edges_with_ins(interactions).selectExpr(
            f"inline(array(named_struct('a', a, 'c', c, 'ins', ins, 'b', {_NULL}),"
            f" named_struct('a', c, 'c', {_NULL}, 'ins', CAST(NULL AS ARRAY<BIGINT>),"
            " 'b', a)))"
        )
        .selectExpr("a", "c", "ins", "collect_set(b) OVER (PARTITION BY a) AS outs")
        .where("c IS NOT NULL")
    )
    # An out-neighbour b of a closes c→a→b into a 2-cycle when b == c
    # and into a 3-cycle when b→c.
    return edges.selectExpr(
        "a",
        "c",
        "array_contains(outs, c) AS chord",
        "explode(array_intersect(outs, array_union(ins, array(c)))) AS b",
    ).selectExpr("a", "b", "CASE WHEN b = c THEN a ELSE c END AS c", "chord")


def _cycles(wedges: DataFrame, hops: int) -> DataFrame:
    """The ``hops``-hop cycles among the :func:`_closed_wedges` rows."""
    if hops == 2:
        return wedges.where("c = a").selectExpr("a", "b")
    if hops == 3:
        return wedges.where("c <> a").selectExpr("a", "b", "c")
    raise ValueError("hops must be 2 or 3")


def cycle_paths(interactions: DataFrame, hops: int) -> DataFrame:
    """All ``hops``-hop cycles as one row per path: ``(a, b)`` for
    ``a→b→a`` or ``(a, b, c)`` for ``a→b→c→a``, with pairwise distinct
    vertices — the instances of patterns P2 and P3."""
    return _cycles(_closed_wedges(interactions), hops)


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
    hops = (
        "array(named_struct('u', a, 'v', b),"
        " named_struct('u', CASE WHEN c = a THEN b ELSE c END, 'v', a),"
        " CASE WHEN c <> a AND NOT chord THEN named_struct('u', b, 'v', c) END)"
    )
    return (
        _closed_wedges(interactions)
        .selectExpr("a AS seed", f"explode({hops}) AS h")
        .where("h IS NOT NULL")
        .selectExpr("seed", "h.u AS u", "h.v AS v")
        .distinct()
    )


def seed_split(source: str, sink: str) -> tuple[str, str]:
    """The seed split as two SQL expressions over ``src``/``dst``: a tail
    equal to column ``source`` becomes ``SOURCE`` (-1) and a head equal
    to column ``sink`` becomes ``SINK`` (-2). Extraction passes the seed
    for both; a pattern instance passes its source and sink labels, which
    occur only as a tail and only as a head."""
    return (
        f"CASE WHEN src = {source} THEN {SOURCE} ELSE src END AS src",
        f"CASE WHEN dst = {sink} THEN {SINK} ELSE dst END AS dst",
    )


def extract_seed_subgraphs(
    interactions: DataFrame, *, max_interactions: int = 800
) -> DataFrame:
    """Section 6.2 extraction; returns ``(seed, src, dst, ts, qty)``.

    The seed's outgoing copy becomes ``SOURCE`` (-1), its incoming copy
    ``SINK`` (-2). Seeds with more than ``max_interactions`` rows are
    dropped (paper: 10K). The input is checkpointed first (see
    :func:`repro.spark.network.checkpointed`). The rows come out
    hash-partitioned on the seed into ``defaultParallelism`` partitions,
    the partitioning :func:`repro.spark.batched.apply_per_key` asks for,
    so the flow pass plans no exchange of its own.
    """
    interactions = checkpointed(interactions)
    n = interactions.sparkSession.sparkContext.defaultParallelism
    return (
        seed_edge_sets(interactions)
        .withColumnsRenamed({"u": "src", "v": "dst"})
        .join(interactions, ["src", "dst"])
        .repartition(n, "seed")
        .selectExpr(
            "seed",
            *seed_split("seed", "seed"),
            "ts",
            "qty",
            "count(*) OVER (PARTITION BY seed) AS n_i",
        )
        .where(f"n_i <= {max_interactions:d}")
        .drop("n_i")
    )


def subgraph_stats(subgraphs: DataFrame) -> DataFrame:
    """Table-5 row: #subgraphs and average vertices/edges/interactions.

    Vertex counts include the two seed copies (SOURCE and SINK), i.e. a
    pure 2-hop-cycle subgraph a→b→a has 3 vertices and 2 edges.
    """
    per_seed = subgraphs.groupBy("seed").agg(
        F.expr(
            "size(array_distinct(flatten(collect_list(array(src, dst))))) AS n_vertices"
        ),
        F.expr("count(DISTINCT src, dst) AS n_edges"),
        F.expr("count(*) AS n_interactions"),
    )
    return per_seed.selectExpr(
        "count(*) AS n_subgraphs",
        "avg(n_vertices) AS avg_vertices",
        "avg(n_edges) AS avg_edges",
        "avg(n_interactions) AS avg_interactions",
    )
