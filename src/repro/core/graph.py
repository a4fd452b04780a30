"""In-memory temporal interaction graph (Definition 1).

One ``TemporalGraph`` holds a single (sub)graph on which the paper's
flow algorithms run: a directed graph whose edge ``(v, u)`` carries a
time-ordered sequence of interactions ``(t, q)``. Whole networks live in
Spark DataFrames (``repro.spark.network``); this class is the per-group
representation used inside the ``mapInPandas`` workers and unit tests.

Seed-split convention: cyclic seed subgraphs and cyclic patterns map the
seed vertex to a source copy ``SOURCE`` (-1) and a sink copy ``SINK``
(-2), mirroring the paper's device of treating pattern label ``a`` as
two DAG vertices.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Vertex ids used for the source/sink copies of a split seed vertex.
SOURCE = -1
SINK = -2

Interaction = Tuple[float, float]  # (t, q)
Edge = Tuple[int, int]


@dataclass
class TemporalGraph:
    """A directed graph with per-edge interaction sequences.

    ``edges`` maps ``(v, u)`` to its interaction list, kept sorted by
    timestamp (stable w.r.t. insertion for ties). ``source``/``sink``
    identify the designated flow endpoints (Section 4 assumes one of
    each).
    """

    edges: Dict[Edge, List[Interaction]] = field(default_factory=dict)
    source: int = SOURCE
    sink: int = SINK

    # -- construction -------------------------------------------------
    @classmethod
    def from_interactions(
        cls,
        rows: Iterable[Tuple[int, int, float, float]],
        *,
        source: int = SOURCE,
        sink: int = SINK,
    ) -> "TemporalGraph":
        """Build from ``(src, dst, t, q)`` rows (any order)."""
        edges: Dict[Edge, List[Interaction]] = defaultdict(list)
        for s, d, t, q in rows:
            edges[(int(s), int(d))].append((t, q))
        g = cls(edges=dict(edges), source=source, sink=sink)
        g.sort_interactions()
        return g

    @classmethod
    def from_columns(cls, cols: dict) -> "TemporalGraph":
        """Build from column arrays ``src, dst, ts, qty`` whose rows are
        already seed-split (``SOURCE``/``SINK``), as a Spark flow worker
        gets them (`repro.spark.batched.apply_per_key`)."""
        return cls.from_interactions(
            zip(*(cols[c].tolist() for c in ("src", "dst", "ts", "qty")))
        )

    def sort_interactions(self) -> None:
        """Sort every edge's interactions by timestamp (stable)."""
        for seq in self.edges.values():
            seq.sort(key=lambda tq: tq[0])

    def copy(self) -> "TemporalGraph":
        return TemporalGraph(
            edges={e: list(seq) for e, seq in self.edges.items()},
            source=self.source,
            sink=self.sink,
        )

    # -- basic accessors ----------------------------------------------
    @property
    def vertices(self) -> set:
        vs = {v for e in self.edges for v in e}
        vs.add(self.source)
        vs.add(self.sink)
        return vs

    @property
    def n_interactions(self) -> int:
        return sum(len(seq) for seq in self.edges.values())

    def adjacency(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """(out-neighbours, in-neighbours) adjacency maps."""
        out: Dict[int, List[int]] = defaultdict(list)
        inc: Dict[int, List[int]] = defaultdict(list)
        for v, u in self.edges:
            out[v].append(u)
            inc[u].append(v)
        return out, inc

    def interactions_in_time_order(self) -> List[Tuple[float, int, int, float]]:
        """All interactions as ``(t, src, dst, q)``, deterministically ordered.

        Ties on ``t`` break by ``(src, dst, q, per-edge index)`` so the
        greedy scan is reproducible regardless of edge-dict order.
        """
        rows = [
            (t, v, u, q, k)
            for (v, u), seq in self.edges.items()
            for k, (t, q) in enumerate(seq)
        ]
        rows.sort()
        return [(t, v, u, q) for t, v, u, q, _ in rows]

    # -- structure checks ---------------------------------------------
    def topological_order(self) -> List[int]:
        """Kahn topological order of all vertices; raises on a cycle."""
        out, inc = self.adjacency()
        vertices = self.vertices
        indeg = {v: 0 for v in vertices}
        for u, nbrs in out.items():
            for w in nbrs:
                indeg[w] += 1
        # Deterministic: process lowest vertex id first among ready ones.
        ready = sorted([v for v, d in indeg.items() if d == 0])
        order: List[int] = []
        queue = deque(ready)
        seen = set(ready)
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(out.get(v, [])):
                indeg[w] -= 1
                if indeg[w] == 0 and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(order) != len(vertices):
            raise ValueError("graph has a cycle; topological order undefined")
        return order

    def is_dag(self) -> bool:
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

