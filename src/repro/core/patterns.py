"""Flow patterns (Section 5, reconstructed Figure 12).

A rigid pattern is a small DAG over labels; same-label vertices map to
the same graph vertex (the device that encodes cycles such as
``a -> b -> a``). The flow of an instance is computed on a
:class:`TemporalGraph` whose vertices are the pattern labels, with the
source label's outgoing copy as source and the sink label (``a`` again
for cyclic patterns, split into a sink copy) as sink.

See DESIGN.md §3 for how P1–P6 / RP1–RP3 were reconstructed from the
paper's prose (the figure itself is not in the text).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .graph import SINK, SOURCE, TemporalGraph


@dataclass(frozen=True)
class Pattern:
    """A rigid flow pattern over vertex labels.

    ``edges`` are label pairs; ``source``/``sink`` name the flow
    endpoints. ``cyclic`` means source and sink are the same label
    (instances split it into SOURCE/SINK copies). ``relaxed`` marks the
    non-rigid variants of Section 5.3 (any number of parallel paths).
    """

    name: str
    edges: Tuple[Tuple[str, str], ...]
    source: str = "a"
    sink: str = "a"
    relaxed: bool = False

    @property
    def cyclic(self) -> bool:
        return self.source == self.sink

    @property
    def labels(self) -> List[str]:
        seen: Dict[str, None] = {}
        for v, u in self.edges:
            seen.setdefault(v)
            seen.setdefault(u)
        return list(seen)


P1 = Pattern("P1", (("a", "b"), ("b", "c")), source="a", sink="c")
P2 = Pattern("P2", (("a", "b"), ("b", "a")))
P3 = Pattern("P3", (("a", "b"), ("b", "c"), ("c", "a")))
# Figure 8(b) prose: 3-cycle plus chords a->c and b->a; the chords give
# b two outgoing edges, so instances are (generally) not greedy-soluble
# and per-instance LP is needed even under PB.
P4 = Pattern("P4", (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("b", "a")))
# Figure 8(a): 2-hop cycle (via e) + 3-hop cycle (via b, c) sharing a.
P5 = Pattern("P5", (("a", "e"), ("e", "a"), ("a", "b"), ("b", "c"), ("c", "a")))
P6 = Pattern("P6", (("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")))
RP1 = Pattern("RP1", (("a", "b"), ("b", "c")), source="a", sink="c", relaxed=True)
RP2 = Pattern("RP2", (("a", "b"), ("b", "a")), relaxed=True)
RP3 = Pattern("RP3", (("a", "b"), ("b", "c"), ("c", "a")), relaxed=True)

ALL_PATTERNS: Dict[str, Pattern] = {
    p.name: p for p in (P1, P2, P3, P4, P5, P6, RP1, RP2, RP3)
}


def instance_graph(
    pattern: Pattern,
    mapping: Dict[str, int],
    interactions: Dict[Tuple[int, int], Sequence[Tuple[float, float]]],
) -> TemporalGraph:
    """Build the flow DAG of one pattern instance.

    ``mapping`` maps labels to graph vertex ids; ``interactions`` maps
    *graph* edges to their interaction sequences. For cyclic patterns
    the source label is split into SOURCE (tail occurrences) and SINK
    (head occurrences), mirroring the paper's seed-split DAG.

    This is the local reference for the instance DAGs that
    :func:`repro.spark.pattern_search.instance_flows` builds from rows
    seed-split in Spark (`repro.spark.subgraphs.seed_split`); the tests
    and the Tables 9–11 flow gate compare against it.
    """
    rows = []
    for lv, lu in pattern.edges:
        gv, gu = mapping[lv], mapping[lu]
        seq = interactions.get((gv, gu), ())
        # The source label only occurs as an edge tail and the sink label
        # only as a head (patterns are DAGs over labels), so one rule
        # covers both the chain and the seed-split cyclic case.
        v = SOURCE if lv == pattern.source else gv
        u = SINK if lu == pattern.sink else gu
        for t, q in seq:
            rows.append((v, u, t, q))
    return TemporalGraph.from_interactions(rows, source=SOURCE, sink=SINK)
