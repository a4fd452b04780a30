"""In-memory temporal interaction graph (Definition 1).

One ``TemporalGraph`` holds a single (sub)graph on which the paper's
flow algorithms run. It *is* its interactions in time order: an
immutable tuple of ``(t, src, dst, q)`` rows, the order the greedy scan
(Sec. 4.1), the LP (Sec. 4.2.1) and the time-expanded reduction all
read. The per-edge view — edge ``(v, u)`` carrying its time-ordered
sequence of ``(t, q)`` — and the adjacency are derived from the rows
once, on first use. Algorithms 1 and 2 return new graphs; none is ever
changed in place. Whole networks live in Spark DataFrames
(``repro.spark.network``); this class is the per-group representation
used inside the ``mapInPandas`` workers and unit tests.

Seed-split convention: cyclic seed subgraphs and cyclic patterns map the
seed vertex to a source copy ``SOURCE`` (-1) and a sink copy ``SINK``
(-2), mirroring the paper's device of treating pattern label ``a`` as
two DAG vertices.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Tuple

#: Vertex ids used for the source/sink copies of a split seed vertex.
SOURCE = -1
SINK = -2

Row = Tuple[float, int, int, float]  # (t, src, dst, q)
Interaction = Tuple[float, float]  # (t, q)
Edge = Tuple[int, int]


@dataclass(frozen=True)
class TemporalGraph:
    """A directed graph given by its interactions in time order.

    ``rows`` holds every interaction as ``(t, src, dst, q)``, sorted as
    tuples: ties on ``t`` break by ``(src, dst, q)``, and identical
    interactions are interchangeable. ``source``/``sink`` identify the
    designated flow endpoints (Section 4 assumes one of each). The
    constructor takes ``rows`` as given; :meth:`from_interactions` sorts.
    """

    rows: Tuple[Row, ...]
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
        return cls(
            tuple(sorted((t, int(s), int(d), q) for s, d, t, q in rows)),
            source,
            sink,
        )

    @classmethod
    def from_columns(cls, cols: dict) -> "TemporalGraph":
        """Build from column arrays ``src, dst, ts, qty`` whose rows are
        already seed-split (``SOURCE``/``SINK``), as a Spark flow worker
        gets them (`repro.spark.batched.apply_per_key`)."""
        return cls.from_interactions(
            zip(*(cols[c].tolist() for c in ("src", "dst", "ts", "qty")))
        )

    # -- derived views ------------------------------------------------
    @cached_property
    def edges(self) -> Dict[Edge, List[Interaction]]:
        """Edge ``(v, u)`` → its interactions ``(t, q)`` in time order."""
        edges: Dict[Edge, List[Interaction]] = {}
        for t, v, u, q in self.rows:
            edges.setdefault((v, u), []).append((t, q))
        return edges

    @cached_property
    def adjacency(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """(out-neighbours, in-neighbours) adjacency maps."""
        out: Dict[int, List[int]] = {}
        inc: Dict[int, List[int]] = {}
        for v, u in dict.fromkeys((v, u) for _, v, u, _ in self.rows):
            out.setdefault(v, []).append(u)
            inc.setdefault(u, []).append(v)
        return out, inc

    @cached_property
    def vertices(self) -> FrozenSet[int]:
        out, inc = self.adjacency
        return frozenset((*out, *inc, self.source, self.sink))

    @property
    def n_interactions(self) -> int:
        return len(self.rows)

    # -- structure checks ---------------------------------------------
    def topological_order(self) -> List[int]:
        """Kahn topological order of all vertices; raises on a cycle."""
        out, _ = self.adjacency
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
