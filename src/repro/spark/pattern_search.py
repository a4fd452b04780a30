"""Flow pattern enumeration (Section 5): GB baseline vs PB precomputed.

**GB (graph browsing, Section 5.1)** — :func:`gb_instances` derives
every pattern's structure from the extraction's cycle enumerator
(`repro.spark.subgraphs`), the distributed analogue of browsing
adjacency lists: two neighbour-set windows and no join give every 2- and
3-cycle (P2, P3), their ``chord`` flag and one join with the 2-cycles
give P4, and joins of the cycles on their shared source give P5 and P6.
The first window alone gives the 2-hop chains (P1). Then
:func:`instance_flows` gathers every instance's raw interactions,
seed-split in the plan by the extraction's rule
(`repro.spark.subgraphs.seed_split`), and computes its maximum flow from
scratch with the full PreSim pipeline in ``mapInPandas``, one Python
call per core that loops over its partition's instances
(`repro.spark.batched`). The network is checkpointed once per search, so
the plan scans one RDD (`repro.spark.network.checkpointed`).

These two functions are the Spark layer's only pattern enumerator and
only per-instance flow, and PreSim is the only per-instance function:
the L2/L3/C2 path tables (`repro.spark.paths`) are GB's own P2/P3/P1
rows.

**PB (preprocessing-based, Section 5.2)** — instances are assembled
from the precomputed L2/L3/C2 path tables (`repro.spark.paths`), and
flows reuse the tables' precomputed chain flows wherever the paths are
independent (P1/P2/P3, and additively for P5/P6 and the relaxed
patterns, per Lemma 3). P5 and P6 are the same joins as GB's, over the
tables. Only P4 — whose chords make the precomputed flows unusable
(Figure 8(b) discussion) — falls back to per-instance flow computation,
which is why the paper sees PB ≈ GB for P4.

Both return one row per instance with the pattern's label columns and a
``flow`` column, so tests can assert GB ≡ PB exactly. Every expression
is a SQL string, as in the Tables 4–8 modules, so no ``Column`` object
is built (`repro.spark.subgraphs`).
"""
from __future__ import annotations

import time
from typing import Optional

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import TemporalGraph
from ..core.patterns import Pattern
from ..core.pipeline import run_presim
from .batched import apply_per_key
from .network import checkpointed, edges_df
from .subgraphs import _closed_wedges, _cycles, _edges_with_ins, seed_split


class PBNotApplicable(ValueError):
    """PB cannot answer a pattern because a path table it needs was not
    precomputed (the paper's "PB not applicable" rows)."""


# --------------------------------------------------------------------------
# GB: structure from the neighbour-set windows
# --------------------------------------------------------------------------
def _p5_join(two: DataFrame, three: DataFrame) -> DataFrame:
    """P5 (Figure 8(a)): a 2-cycle ``a→e→a`` (columns ``a, e``) and a
    3-cycle ``a→b→c→a`` (``a, b, c``) on the shared source, with
    ``e ∉ {b, c}``. Further columns of either side are kept."""
    return two.join(three, "a").where("e NOT IN (b, c)")


def _p6_join(x: DataFrame, y: DataFrame) -> DataFrame:
    """P6: 3-cycles ``a→b→c→a`` (``x``) and ``a→d→e→a`` (``y``) on the
    shared source with ``{b, c} ∩ {d, e} = ∅``; ``b < d`` keeps one row
    per unordered pair. Further columns of either side are kept."""
    return x.join(y, "a").where("b < d AND b <> e AND c NOT IN (d, e)")


def gb_instances(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """All instances of ``pattern`` — one row per mapping, columns =
    pattern labels (distinct labels map to distinct vertices, so a
    self-loop is never part of an instance). A relaxed pattern gets one
    row per parallel path. Raises ``ValueError`` for a pattern GB does
    not know."""
    name = pattern.name
    if name in ("P1", "RP1"):
        # A window row is an edge c→a with the in-neighbours of c; renamed
        # to b→c, each in-neighbour a of b other than c makes a chain.
        return _edges_with_ins(interactions).selectExpr(
            "explode(ins) AS a", "c AS b", "a AS c"
        ).where("a <> c")
    wedges = _closed_wedges(interactions)
    if name in ("P2", "RP2"):
        return _cycles(wedges, 2)
    if name in ("P3", "RP3"):
        return _cycles(wedges, 3)
    if name == "P4":
        # The 3-cycles with the chord a→c whose a→b→a is a 2-cycle, i.e.
        # that also have the chord b→a.
        return (
            wedges.where("c <> a AND chord")
            .selectExpr("a", "b", "c")
            .join(_cycles(wedges, 2), ["a", "b"])
        )
    if name == "P5":
        return _p5_join(
            _cycles(wedges, 2).selectExpr("a", "b AS e"), _cycles(wedges, 3)
        )
    if name == "P6":
        three = _cycles(wedges, 3)
        return _p6_join(three, three.selectExpr("a", "b AS d", "c AS e"))
    raise ValueError(f"unknown pattern {name}")


def _presim_flow(_, cols: dict) -> dict:
    """One instance's maximum flow, PreSim on its seed-split rows."""
    return {"flow": float(run_presim(TemporalGraph.from_columns(cols)).flow)}


def instance_flows(
    interactions: DataFrame, pattern: Pattern, instances: DataFrame
) -> DataFrame:
    """One row per instance: the label columns plus the ``flow`` of its
    DAG, computed from scratch with the full PreSim pipeline.

    Each instance is exploded into one row per pattern edge, joined once
    to the interactions of that graph edge, seed-split in the plan by the
    extraction's rule with the source and sink labels in place of the
    seed (`repro.spark.subgraphs.seed_split`), and grouped per instance
    (`repro.spark.batched.apply_per_key`); the worker builds the DAG with
    :meth:`TemporalGraph.from_columns`. The labels of an instance must be
    distinct vertices, as :func:`gb_instances` guarantees, so each graph
    edge is one pattern edge, the source label occurs only as a tail and
    the sink label only as a head.
    """
    labels = pattern.labels
    hops = ", ".join(
        f"named_struct('src', {lv}, 'dst', {lu})" for lv, lu in pattern.edges
    )
    hop_rows = (
        instances.selectExpr(*labels, f"inline(array({hops}))")
        .join(interactions, ["src", "dst"])
        .selectExpr(*labels, *seed_split(pattern.source, pattern.sink), "ts", "qty")
    )
    key_schema = ", ".join(f"{l} long" for l in labels)
    return apply_per_key(hop_rows, labels, _presim_flow, f"{key_schema}, flow double")


def gb_search(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """Full GB pipeline: enumerate + per-instance flow from raw data.

    For relaxed patterns the constituent paths are enumerated and their
    flows computed from raw interactions, then aggregated per instance
    (source vertex, or (a, c) endpoint pair for RP1)."""
    interactions = checkpointed(interactions)
    inst = gb_instances(interactions, pattern)  # relaxed: one row per path
    flows = instance_flows(interactions, pattern, inst)
    return _aggregate_relaxed(flows, pattern) if pattern.relaxed else flows


# --------------------------------------------------------------------------
# PB: assembly from precomputed path tables
# --------------------------------------------------------------------------
def _select_disjoint(_, cols: dict) -> dict:
    """Greedy vertex-disjoint selection of 3-cycles for one source ``a``
    (flow-descending, deterministic tie-break) — honours the Section 6.3
    requirement that all intermediate vertices of a relaxed instance's
    parallel paths be different."""
    paths = sorted(
        zip(cols["flow"].tolist(), cols["b"].tolist(), cols["c"].tolist()),
        key=lambda p: (-p[0], p[1], p[2]),
    )
    used: set = set()
    total, n = 0.0, 0
    for f, b, c in paths:
        if b in used or c in used:
            continue
        used.update((b, c))
        total += f
        n += 1
    return {"flow": total, "n_paths": n}


def _aggregate_relaxed(per_path: DataFrame, pattern: Pattern) -> DataFrame:
    """Aggregate parallel-path rows into relaxed-pattern instances."""
    if pattern.name in ("RP1", "RP2"):
        keys = ["a", "c"] if pattern.name == "RP1" else ["a"]
        return per_path.groupBy(*keys).agg(
            F.expr("sum(flow) AS flow"), F.expr("count(*) AS n_paths")
        )
    if pattern.name == "RP3":
        return apply_per_key(
            per_path.selectExpr("a", "b", "c", "flow"),
            ["a"],
            _select_disjoint,
            "a long, flow double, n_paths long",
        )
    raise ValueError(f"not a relaxed pattern: {pattern.name}")


#: The precomputed table holding each pattern's instances (P1-P3) or, for
#: the relaxed patterns, their parallel paths (Section 5.2: C2 = P1,
#: L2 = P2, L3 = P3).
_PATH_TABLE = {"P1": "C2", "RP1": "C2", "P2": "L2", "RP2": "L2", "P3": "L3", "RP3": "L3"}


def pb_search(
    interactions: DataFrame,
    pattern: Pattern,
    *,
    l2: Optional[DataFrame] = None,
    l3: Optional[DataFrame] = None,
    c2: Optional[DataFrame] = None,
) -> DataFrame:
    """PB pipeline for ``pattern`` using the precomputed tables.

    Raises :class:`PBNotApplicable` when the needed table is missing —
    the paper's "PB not applicable" case (P1/RP1 on Bitcoin and CTU-13,
    where no chain table was precomputed) — and ``ValueError`` for a
    pattern PB does not know.
    """
    name = pattern.name
    if name in _PATH_TABLE:
        table = {"C2": c2, "L2": l2, "L3": l3}[_PATH_TABLE[name]]
        if table is None:
            raise PBNotApplicable(
                f"PB not applicable for {name}: no {_PATH_TABLE[name]} table"
            )
        per_path = table.selectExpr(*pattern.labels, "flow")
        return _aggregate_relaxed(per_path, pattern) if pattern.relaxed else per_path
    if name == "P5":
        # Figure 8(a): merge-join L2 and L3 on the shared source; the two
        # cycles are independent source-chains, so flows add (Lemma 3).
        if l2 is None or l3 is None:
            raise PBNotApplicable("PB not applicable for P5: needs L2 and L3")
        return _p5_join(
            l2.selectExpr("a", "b AS e", "flow AS flow2"),
            l3.selectExpr("a", "b", "c", "flow AS flow3"),
        ).selectExpr("a", "e", "b", "c", "flow2 + flow3 AS flow")
    if name == "P6":
        if l3 is None:
            raise PBNotApplicable("PB not applicable for P6: needs L3")
        return _p6_join(
            l3.selectExpr("a", "b", "c", "flow AS flow1"),
            l3.selectExpr("a", "b AS d", "c AS e", "flow AS flow2"),
        ).selectExpr("a", "b", "c", "d", "e", "flow1 + flow2 AS flow")
    if name == "P4":
        # Figure 8(b): 3-cycle + chords a->c and b->a. Precomputed flows
        # are unusable (the paths are not independent in the instance):
        # enumerate candidates from L3 + edge probes, then compute each
        # instance's flow from raw interactions with PreSim.
        if l3 is None:
            raise PBNotApplicable("PB not applicable for P4: needs L3")
        interactions = checkpointed(interactions)
        e = edges_df(interactions)
        cand = (
            l3.selectExpr("a", "b", "c")
            .join(e.selectExpr("u AS a", "v AS c"), ["a", "c"])
            .join(e.selectExpr("u AS b", "v AS a"), ["a", "b"])
        )
        return instance_flows(interactions, pattern, cand)
    raise ValueError(f"unknown pattern {name}")


# --------------------------------------------------------------------------
# Table 9-11 harness
# --------------------------------------------------------------------------
#: A search's table columns: instance count and average flow.
_SUMMARY = ("count(*) AS n", "avg(flow) AS avg_flow")


def pattern_table_row(
    interactions: DataFrame,
    pattern: Pattern,
    *,
    l2: Optional[DataFrame] = None,
    l3: Optional[DataFrame] = None,
    c2: Optional[DataFrame] = None,
) -> dict:
    """Run GB and PB for one pattern; return the paper's table row:
    instance count, average flow, and wall-clock seconds per method.

    Timings are end-to-end Spark job times (enumeration + flow
    computation + final count/avg aggregation); the PB time excludes
    building L2/L3/C2, matching the paper's offline-precomputation
    accounting.
    """
    t0 = time.perf_counter()
    gb = gb_search(interactions, pattern).selectExpr(*_SUMMARY).collect()[0]
    gb_s = time.perf_counter() - t0

    try:
        t0 = time.perf_counter()
        pb = pb_search(interactions, pattern, l2=l2, l3=l3, c2=c2).selectExpr(
            *_SUMMARY
        ).collect()[0]
        pb_s: float | None = time.perf_counter() - t0
        pb_n, pb_avg = int(pb["n"]), pb["avg_flow"]
    except PBNotApplicable:
        pb_s, pb_n, pb_avg = None, None, None

    return {
        "pattern": pattern.name,
        "instances": int(gb["n"]),
        "avg_flow": float(gb["avg_flow"]) if gb["avg_flow"] is not None else 0.0,
        "gb_seconds": gb_s,
        "pb_seconds": pb_s,
        "pb_instances": pb_n,
        "pb_avg_flow": float(pb_avg) if pb_avg is not None else None,
    }
