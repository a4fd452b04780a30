"""Path precomputation (Section 5.2): L2/L3 cycle tables, C2 chains.

The tables are pattern instances: L2 is P2 (``a→b→a``), L3 is P3
(``a→b→c→a``) and C2 is P1 (``a→b→c``). For every instance the paper
stores the vertex-id sequence and the interaction sequence that enters
the buffer of the path's sink under the greedy algorithm, which by
Lemma 3 determines the path's maximum flow. We store the vertex ids and
that maximum flow (``flow``), and not the sequence itself: PB reads only
``flow``, because it never extends a stored path hop by hop (DESIGN.md
§3).

Each table is GB's own result for its pattern
(`repro.spark.pattern_search.gb_search`): the same enumerator, the same
seed-split rows and the same PreSim run per instance. A path instance is
a chain, which greedy solves (Lemma 1) and PreSim's solubility test
(Lemma 2) passes, so its stored flow is the greedy flow: the sum of the
sink deliveries the paper stores.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.patterns import P1, P2, P3
from .pattern_search import gb_search


def l2_table(interactions: DataFrame) -> DataFrame:
    """2-hop cycle table: ``(a, b, flow)`` for ``a→b→a``."""
    return gb_search(interactions, P2)


def l3_table(interactions: DataFrame) -> DataFrame:
    """3-hop cycle table: ``(a, b, c, flow)`` for ``a→b→c→a``."""
    return gb_search(interactions, P3)


def c2_table(interactions: DataFrame) -> DataFrame:
    """2-hop chain table: ``(a, b, c, flow)`` for ``a→b→c`` with
    ``a, b, c`` pairwise distinct (precomputed for Prosper in the paper;
    chains of arbitrary endpoints were too large for the bigger
    networks)."""
    return gb_search(interactions, P1)
