"""Flow pattern enumeration (Section 5): GB baseline vs PB precomputed.

**GB (graph browsing, Section 5.1)** — :func:`gb_instances` matches
the pattern's structure by Catalyst self-joins over the distinct-edge
table (the distributed analogue of backtracking over adjacency lists),
then :func:`instance_flows` gathers every instance's raw interactions
and computes its maximum flow from scratch with the full PreSim
pipeline in ``applyInPandas``, one Python call per bucket of instances
(`repro.spark.batched`). The network is checkpointed once per search,
so the self-joins plan against one RDD scan
(`repro.spark.network.checkpointed`).

These two functions are the Spark layer's only pattern enumerator and
only per-instance flow helper: the L2/L3/C2 path tables
(`repro.spark.paths`) are P2/P3/P1 instances with a greedy ``fn``, and
the extraction's 2- and 3-hop cycles (`repro.spark.subgraphs`) are P2
and P3 instances.

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
from collections import defaultdict
from itertools import combinations
from typing import Callable, Dict, Optional

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import TemporalGraph
from ..core.patterns import Pattern, instance_graph
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
    pattern labels (distinct labels map to distinct vertices, so a
    self-loop is never part of an instance)."""
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
    # Edges are distinct and every edge's endpoints are labels, so the
    # label tuple already identifies the row: no ``distinct()`` needed.
    return df.select(*[F.col(bound[l]).alias(l) for l in pattern.labels])


def instance_flows(
    interactions: DataFrame,
    pattern: Pattern,
    instances: DataFrame,
    fn: Callable[[TemporalGraph], dict],
    schema: str,
) -> DataFrame:
    """One row per instance: the label columns plus ``fn`` of its flow DAG.

    Each instance is exploded into one row per pattern edge, joined once
    to the interactions of that graph edge, and grouped per instance
    (`repro.spark.batched.apply_per_key`); the worker builds the DAG with
    :func:`repro.core.patterns.instance_graph`. ``fn`` returns the value
    columns, which ``schema`` types (e.g. ``"flow double"``). The labels
    of an instance must be distinct vertices, as :func:`gb_instances`
    and the path tables guarantee, so each graph edge is one pattern edge.
    """
    labels = pattern.labels
    hops = F.array(
        *[
            F.struct(F.col(lv).alias("src"), F.col(lu).alias("dst"))
            for lv, lu in pattern.edges
        ]
    )
    hop_rows = instances.select(*labels, F.inline(hops)).join(
        interactions, ["src", "dst"]
    )

    def per_instance(pdf: pd.DataFrame) -> pd.DataFrame:
        mapping = {l: int(pdf[l].iloc[0]) for l in labels}
        seqs = defaultdict(list)
        for s, d, t, q in zip(pdf["src"], pdf["dst"], pdf["ts"], pdf["qty"]):
            seqs[(int(s), int(d))].append((t, q))
        g = instance_graph(pattern, mapping, seqs)
        return pd.DataFrame([{**mapping, **fn(g)}])

    key_schema = ", ".join(f"{l} long" for l in labels)
    return apply_per_key(hop_rows, labels, per_instance, f"{key_schema}, {schema}")


def _presim_flow(g: TemporalGraph) -> dict:
    return {"flow": float(run_presim(g).flow)}


def gb_search(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    """Full GB pipeline: enumerate + per-instance flow from raw data.

    For relaxed patterns the constituent paths are enumerated and their
    flows computed from raw interactions, then aggregated per instance
    (source vertex, or (a, c) endpoint pair for RP1)."""
    interactions = checkpointed(interactions)
    inst = gb_instances(interactions, pattern)  # relaxed: one row per path
    flows = instance_flows(interactions, pattern, inst, _presim_flow, "flow double")
    return _aggregate_relaxed(flows, pattern) if pattern.relaxed else flows


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
    if pattern.name in ("RP1", "RP2"):
        keys = ["a", "c"] if pattern.name == "RP1" else ["a"]
        return per_path.groupBy(*keys).agg(
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
        per_path = table.select(*pattern.labels, "flow")
        return _aggregate_relaxed(per_path, pattern) if pattern.relaxed else per_path
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
        return instance_flows(interactions, pattern, cand, _presim_flow, "flow double")
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
