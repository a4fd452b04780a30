"""Path precomputation (Section 5.2): L2/L3 cycle tables, C2 chains.

For every path instance the paper stores (i) the vertex-id sequence and
(ii) the interaction sequence that enters the buffer of the path's sink
under the greedy algorithm — which, by Lemma 3, determines the path's
maximum flow at any time moment. We store the same: one DataFrame per
path family, with a ``flow`` column (the path's max flow) and a
``deliveries`` column (the greedy delivery sequence, usable for
incremental flow computation when paths are stitched into larger
patterns).

Enumeration is Catalyst self-joins over the checkpointed network; the
per-path greedy run happens in ``applyInPandas`` over the (small)
per-path interaction groups, one Python call per bucket of paths
(`repro.spark.batched`).
"""
from __future__ import annotations

from typing import List

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.graph import SINK, SOURCE, TemporalGraph
from ..core.greedy import greedy_sink_deliveries
from .batched import apply_per_key
from .network import checkpointed, edges_df
from .subgraphs import cycle_paths


def _chain_deliveries(pdf: pd.DataFrame, n_hops: int) -> pd.DataFrame:
    """Greedy delivery sequence for one path (rows tagged with ``hop``).

    Hop ``i`` is the path's ``i``-th edge; vertices are relabeled
    ``SOURCE → m_1 → ... → m_{n_hops-1} → SINK`` so the chain's greedy
    run is independent of the original ids.
    """
    rows = []
    for hop, ts, qty in zip(pdf["hop"], pdf["ts"], pdf["qty"]):
        v = SOURCE if hop == 0 else int(hop)
        u = SINK if hop == n_hops - 1 else int(hop) + 1
        rows.append((v, u, ts, qty))
    g = TemporalGraph.from_interactions(rows, source=SOURCE, sink=SINK)
    deliveries = greedy_sink_deliveries(g)
    key = {c: pdf[c].iloc[0] for c in pdf.columns if c not in ("hop", "ts", "qty")}
    return pd.DataFrame(
        [
            {
                **key,
                "flow": float(sum(q for _, q in deliveries)),
                "deliveries": [
                    {"ts": int(t), "qty": float(q)} for t, q in deliveries
                ],
            }
        ]
    )


def _path_table(
    interactions: DataFrame, paths: DataFrame, hop_edges: List[tuple]
) -> DataFrame:
    """Attach per-hop interactions to ``paths`` and run the chain greedy.

    ``hop_edges[i] = (tail_col, head_col)`` names the path columns that
    form hop ``i``'s edge in the original graph.
    """
    key_cols = paths.columns
    n_hops = len(hop_edges)
    tagged = None
    for hop, (tc, hc) in enumerate(hop_edges):
        part = paths.join(
            interactions,
            (paths[tc] == interactions["src"]) & (paths[hc] == interactions["dst"]),
        ).select(*key_cols, F.lit(hop).alias("hop"), "ts", "qty")
        tagged = part if tagged is None else tagged.unionByName(part)
    schema = (
        ", ".join(f"{c} long" for c in key_cols)
        + ", flow double, deliveries array<struct<ts: long, qty: double>>"
    )
    return apply_per_key(
        tagged, key_cols, lambda pdf: _chain_deliveries(pdf, n_hops), schema
    )


def l2_table(interactions: DataFrame) -> DataFrame:
    """2-hop cycle table: ``(a, b, flow, deliveries)`` for ``a→b→a``."""
    interactions = checkpointed(interactions)
    return _path_table(
        interactions, cycle_paths(interactions, 2), [("a", "b"), ("b", "a")]
    )


def l3_table(interactions: DataFrame) -> DataFrame:
    """3-hop cycle table: ``(a, b, c, flow, deliveries)`` for ``a→b→c→a``."""
    interactions = checkpointed(interactions)
    return _path_table(
        interactions,
        cycle_paths(interactions, 3),
        [("a", "b"), ("b", "c"), ("c", "a")],
    )


def c2_table(interactions: DataFrame) -> DataFrame:
    """2-hop chain table: ``(a, b, c, flow, deliveries)`` for ``a→b→c``
    with ``a, b, c`` pairwise distinct (precomputed for Prosper in the
    paper; chains of arbitrary endpoints were too large for the bigger
    networks)."""
    interactions = checkpointed(interactions)
    e = edges_df(interactions)
    chains = (
        e.alias("e1")
        .join(e.alias("e2"), F.col("e1.v") == F.col("e2.u"))
        .where(F.col("e2.v") != F.col("e1.u"))
        .select(
            F.col("e1.u").alias("a"),
            F.col("e1.v").alias("b"),
            F.col("e2.v").alias("c"),
        )
    )
    return _path_table(interactions, chains, [("a", "b"), ("b", "c")])
