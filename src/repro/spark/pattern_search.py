"""Flow pattern enumeration (Section 5): GB baseline vs PB precomputed.

**GB (graph browsing, Section 5.1)** — the pattern's structure is
matched by Catalyst self-joins over the distinct-edge table (the
distributed analogue of backtracking over adjacency lists), then every
instance's raw interactions are gathered and its maximum flow computed
from scratch with the full PreSim pipeline in ``applyInPandas``, one
Python call per bucket of instances (`repro.spark.batched`). The
network is checkpointed once per search, so the self-joins plan against
one RDD scan (`repro.spark.network.checkpointed`).

**PB (preprocessing-based, Section 5.2)** — instances are assembled
from the precomputed L2/L3/C2 path tables (`repro.spark.paths`), and
flows reuse the tables' precomputed chain flows wherever the paths are
independent (P1/P2/P3, and additively for P5/P6 and the relaxed
patterns, per Lemma 3). Only P4 — whose chords make the precomputed
flows unusable (Figure 8(b) discussion) — falls back to per-instance
flow computation, which is why the paper sees PB ≈ GB for P4.

Both return one row per instance with the pattern's label columns and a
``flow`` column, so tests can assert GB ≡ PB exactly.
"""
from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, Optional

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE, TemporalGraph
from ..core.patterns import Pattern
from ..core.pipeline import run_presim
from .batched import apply_per_key
from .network import checkpointed, edges_df


class PBNotApplicable(ValueError):
    """PB cannot answer a pattern because a path table it needs was not
    precomputed (the paper's "PB not applicable" rows)."""


# --------------------------------------------------------------------------
# GB: structure matching by self-joins
# --------------------------------------------------------------------------
def gb_instances(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """All instances of ``pattern`` — one row per mapping, columns =
    pattern labels (distinct labels map to distinct vertices)."""
    e = edges_df(interactions)
    df = None
    bound: Dict[str, str] = {}
    for i, (lv, lu) in enumerate(pattern.edges):
        ei = e.select(
            F.col("u").alias(f"__u{i}"), F.col("v").alias(f"__v{i}")
        )
        if df is None:
            df = ei
            bound[lv], bound[lu] = f"__u{i}", f"__v{i}"
            continue
        cond = None
        for lbl, col in ((lv, f"__u{i}"), (lu, f"__v{i}")):
            if lbl in bound:
                c = F.col(col) == F.col(bound[lbl])
                cond = c if cond is None else (cond & c)
        if cond is None:  # pattern edge disconnected from what's bound
            raise ValueError(f"pattern {pattern.name}: edge {i} binds no known label")
        df = df.join(ei, cond)
        bound.setdefault(lv, f"__u{i}")
        bound.setdefault(lu, f"__v{i}")
    for l1, l2 in combinations(pattern.labels, 2):
        df = df.where(F.col(bound[l1]) != F.col(bound[l2]))
    if pattern.canonical_lt is not None:
        lo, hi = pattern.canonical_lt
        df = df.where(F.col(bound[lo]) < F.col(bound[hi]))
    return df.select(*[F.col(bound[l]).alias(l) for l in pattern.labels]).distinct()


def _instance_flow_udf(pattern: Pattern):
    """Per-instance max-flow (PreSim) from hop-tagged raw interactions."""
    labels = pattern.labels

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pe, ts, qty in zip(pdf["__pe"], pdf["ts"], pdf["qty"]):
            lv, lu = pattern.edges[int(pe)]
            v = SOURCE if lv == pattern.source else int(pdf[lv].iloc[0])
            u = SINK if lu == pattern.sink else int(pdf[lu].iloc[0])
            rows.append((v, u, ts, qty))
        g = TemporalGraph.from_interactions(rows, source=SOURCE, sink=SINK)
        flow = run_presim(g).flow
        out = {l: int(pdf[l].iloc[0]) for l in labels}
        out["flow"] = float(flow)
        return pd.DataFrame([out])

    return fn


def instances_with_flow_from_raw(
    interactions: DataFrame, pattern: Pattern, instances: DataFrame
) -> DataFrame:
    """Gather each instance's interactions and compute its flow (PreSim)."""
    labels = pattern.labels
    tagged = None
    for i, (lv, lu) in enumerate(pattern.edges):
        part = instances.join(
            interactions,
            (instances[lv] == interactions["src"])
            & (instances[lu] == interactions["dst"]),
        ).select(*labels, F.lit(i).alias("__pe"), "ts", "qty")
        tagged = part if tagged is None else tagged.unionByName(part)
    schema = ", ".join(f"{l} long" for l in labels) + ", flow double"
    return apply_per_key(tagged, labels, _instance_flow_udf(pattern), schema)


def gb_search(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """Full GB pipeline: enumerate + per-instance flow from raw data.

    For relaxed patterns the constituent paths are enumerated and their
    flows computed from raw interactions, then aggregated per instance
    (source vertex, or (a, c) endpoint pair for RP1)."""
    interactions = checkpointed(interactions)
    if not pattern.relaxed:
        inst = gb_instances(interactions, pattern)
        return instances_with_flow_from_raw(interactions, pattern, inst)
    paths = gb_instances(interactions, pattern)  # one row per parallel path
    per_path = instances_with_flow_from_raw(interactions, pattern, paths)
    return _aggregate_relaxed(per_path, pattern)


# --------------------------------------------------------------------------
# PB: assembly from precomputed path tables
# --------------------------------------------------------------------------
def _select_disjoint(pdf: pd.DataFrame) -> pd.DataFrame:
    """Greedy vertex-disjoint selection of 3-cycles for one source ``a``
    (flow-descending, deterministic tie-break) — honours the Section 6.3
    requirement that all intermediate vertices of a relaxed instance's
    parallel paths be different."""
    pdf = pdf.sort_values(["flow", "b", "c"], ascending=[False, True, True])
    used: set = set()
    total, n = 0.0, 0
    for b, c, f in zip(pdf["b"], pdf["c"], pdf["flow"]):
        if b in used or c in used:
            continue
        used.update((int(b), int(c)))
        total += float(f)
        n += 1
    return pd.DataFrame(
        [{"a": int(pdf["a"].iloc[0]), "flow": total, "n_paths": n}]
    )


def _aggregate_relaxed(per_path: DataFrame, pattern: Pattern) -> DataFrame:
    """Aggregate parallel-path rows into relaxed-pattern instances."""
    if pattern.name == "RP1":
        return per_path.groupBy("a", "c").agg(
            F.sum("flow").alias("flow"), F.count("*").alias("n_paths")
        )
    if pattern.name == "RP2":
        return per_path.groupBy("a").agg(
            F.sum("flow").alias("flow"), F.count("*").alias("n_paths")
        )
    if pattern.name == "RP3":
        return apply_per_key(
            per_path.select("a", "b", "c", "flow"),
            ["a"],
            _select_disjoint,
            "a long, flow double, n_paths long",
        )
    raise ValueError(f"not a relaxed pattern: {pattern.name}")


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
    if name in ("P1", "RP1"):
        if c2 is None:
            raise PBNotApplicable(f"PB not applicable for {name}: no C2 table")
        per_path = c2.select("a", "b", "c", "flow")
        if name == "P1":
            return per_path
        return _aggregate_relaxed(per_path, pattern)
    if name in ("P2", "RP2"):
        if l2 is None:
            raise PBNotApplicable(f"PB not applicable for {name}: no L2 table")
        per_path = l2.select("a", "b", "flow")
        if name == "P2":
            return per_path
        return _aggregate_relaxed(per_path, pattern)
    if name in ("P3", "RP3"):
        if l3 is None:
            raise PBNotApplicable(f"PB not applicable for {name}: no L3 table")
        per_path = l3.select("a", "b", "c", "flow")
        if name == "P3":
            return per_path
        return _aggregate_relaxed(per_path, pattern)
    if name == "P5":
        # Figure 8(a): merge-join L2 and L3 on the shared source; the two
        # cycles are independent source-chains, so flows add (Lemma 3).
        if l2 is None or l3 is None:
            raise PBNotApplicable("PB not applicable for P5: needs L2 and L3")
        two = l2.select("a", F.col("b").alias("e"), F.col("flow").alias("flow2"))
        three = l3.select("a", "b", "c", F.col("flow").alias("flow3"))
        return (
            two.join(three, "a")
            .where((F.col("e") != F.col("b")) & (F.col("e") != F.col("c")))
            .select(
                "a",
                "e",
                "b",
                "c",
                (F.col("flow2") + F.col("flow3")).alias("flow"),
            )
        )
    if name == "P6":
        if l3 is None:
            raise PBNotApplicable("PB not applicable for P6: needs L3")
        x = l3.select("a", "b", "c", F.col("flow").alias("flow1"))
        y = l3.select(
            "a", F.col("b").alias("d"), F.col("c").alias("e"), F.col("flow").alias("flow2")
        )
        return (
            x.join(y, "a")
            .where(
                (F.col("b") < F.col("d"))  # unordered pair, also b != d
                & (F.col("b") != F.col("e"))
                & (F.col("c") != F.col("d"))
                & (F.col("c") != F.col("e"))
            )
            .select(
                "a", "b", "c", "d", "e",
                (F.col("flow1") + F.col("flow2")).alias("flow"),
            )
        )
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
            l3.select("a", "b", "c")
            .join(
                e.select(F.col("u").alias("a"), F.col("v").alias("c")),
                ["a", "c"],
            )
            .join(
                e.select(F.col("u").alias("b"), F.col("v").alias("a")),
                ["a", "b"],
            )
        )
        return instances_with_flow_from_raw(interactions, pattern, cand)
    raise ValueError(f"unknown pattern {name}")


# --------------------------------------------------------------------------
# Table 9-11 harness
# --------------------------------------------------------------------------
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
    gb = gb_search(interactions, pattern).agg(
        F.count("*").alias("n"), F.avg("flow").alias("avg_flow")
    ).collect()[0]
    gb_s = time.perf_counter() - t0

    try:
        t0 = time.perf_counter()
        pb = pb_search(interactions, pattern, l2=l2, l3=l3, c2=c2).agg(
            F.count("*").alias("n"), F.avg("flow").alias("avg_flow")
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
