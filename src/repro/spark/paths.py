"""Path precomputation (Section 5.2): L2/L3 cycle tables, C2 chains.

The tables are pattern instances: L2 is P2 (``a→b→a``), L3 is P3
(``a→b→c→a``) and C2 is P1 (``a→b→c``). For every instance the paper
stores the vertex-id sequence and the interaction sequence that enters
the buffer of the path's sink under the greedy algorithm, which by
Lemma 3 determines the path's maximum flow. We store the vertex ids and
that maximum flow, the sum of the sequence (``flow``), and not the
sequence itself: PB reads only ``flow``, because it never extends a
stored path hop by hop (DESIGN.md §3).

Instances come from the GB enumerator and their greedy runs from the
per-instance helper of `repro.spark.pattern_search`
(``gb_instances`` and ``instance_flows``), on the checkpointed network,
so the tables, GB and the seed extraction share one cycle enumerator.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.graph import TemporalGraph
from ..core.greedy import greedy_sink_deliveries
from ..core.patterns import P1, P2, P3, Pattern
from .network import checkpointed
from .pattern_search import gb_instances, instance_flows


def _greedy_flow(g: TemporalGraph) -> dict:
    """The path's max flow: the sum of its greedy sink deliveries."""
    return {"flow": float(sum(q for _, q in greedy_sink_deliveries(g)))}


def _table(interactions: DataFrame, pattern: Pattern) -> DataFrame:
    interactions = checkpointed(interactions)
    return instance_flows(
        interactions,
        pattern,
        gb_instances(interactions, pattern),
        _greedy_flow,
        "flow double",
    )


def l2_table(interactions: DataFrame) -> DataFrame:
    """2-hop cycle table: ``(a, b, flow)`` for ``a→b→a``."""
    return _table(interactions, P2)


def l3_table(interactions: DataFrame) -> DataFrame:
    """3-hop cycle table: ``(a, b, c, flow)`` for ``a→b→c→a``."""
    return _table(interactions, P3)


def c2_table(interactions: DataFrame) -> DataFrame:
    """2-hop chain table: ``(a, b, c, flow)`` for ``a→b→c`` with
    ``a, b, c`` pairwise distinct (precomputed for Prosper in the paper;
    chains of arbitrary endpoints were too large for the bigger
    networks)."""
    return _table(interactions, P1)
