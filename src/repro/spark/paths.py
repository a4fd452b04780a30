"""Path precomputation (Section 5.2): L2/L3 cycle tables, C2 chains.

The tables are pattern instances: L2 is P2 (``a→b→a``), L3 is P3
(``a→b→c→a``) and C2 is P1 (``a→b→c``). For every instance the paper
stores (i) the vertex-id sequence and (ii) the interaction sequence that
enters the buffer of the path's sink under the greedy algorithm — which,
by Lemma 3, determines the path's maximum flow at any time moment. We
store the same: one DataFrame per path family, with a ``flow`` column
(the path's max flow) and a ``deliveries`` column (the greedy delivery
sequence, usable for incremental flow computation when paths are
stitched into larger patterns).

Instances come from the GB enumerator and their greedy runs from the
per-instance helper of `repro.spark.pattern_search`
(``gb_instances`` and ``instance_flows``), on the checkpointed network.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.graph import TemporalGraph
from ..core.greedy import greedy_sink_deliveries
from ..core.patterns import P1, P2, P3, Pattern
from .network import checkpointed
from .pattern_search import gb_instances, instance_flows

_SCHEMA = "flow double, deliveries array<struct<ts: long, qty: double>>"


def _greedy_deliveries(g: TemporalGraph) -> dict:
    """The path's max flow and its greedy delivery sequence."""
    deliveries = greedy_sink_deliveries(g)
    return {
        "flow": float(sum(q for _, q in deliveries)),
        "deliveries": [{"ts": int(t), "qty": float(q)} for t, q in deliveries],
    }


def _table(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    interactions = checkpointed(interactions)
    return instance_flows(
        interactions,
        pattern,
        gb_instances(interactions, pattern),
        _greedy_deliveries,
        _SCHEMA,
    )


def l2_table(interactions: DataFrame) -> DataFrame:
    """2-hop cycle table: ``(a, b, flow, deliveries)`` for ``a→b→a``."""
    return _table(interactions, P2)


def l3_table(interactions: DataFrame) -> DataFrame:
    """3-hop cycle table: ``(a, b, c, flow, deliveries)`` for ``a→b→c→a``."""
    return _table(interactions, P3)


def c2_table(interactions: DataFrame) -> DataFrame:
    """2-hop chain table: ``(a, b, c, flow, deliveries)`` for ``a→b→c``
    with ``a, b, c`` pairwise distinct (precomputed for Prosper in the
    paper; chains of arbitrary endpoints were too large for the bigger
    networks)."""
    return _table(interactions, P1)
