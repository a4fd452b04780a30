"""Hypothesis strategies shared by the bit-identity tests."""
from hypothesis import strategies as st

from repro.core.graph import TemporalGraph

#: Vertex 0 is the source and 1 the sink; few vertices and timestamps make
#: parallel interactions, self-loops and timestamp ties common.
interaction = st.tuples(
    st.integers(0, 4),
    st.integers(0, 4),
    st.one_of(st.integers(0, 3), st.sampled_from([0.5, 2.5])),
    st.one_of(
        st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False),
        st.integers(1, 9),
    ),
)

interactions = st.lists(interaction, max_size=16)


def graph(rows) -> TemporalGraph:
    return TemporalGraph.from_interactions(rows, source=0, sink=1)


def _rank(v: int) -> int:
    return {0: -1, 1: 5}.get(v, v)


def as_dag(rows):
    """``rows`` with every interaction pointed from the lower-ranked vertex
    to the higher (the source first, the sink last) and self-loops left
    out: a DAG, on which chains off the source are common."""
    return [
        (s, d, t, q) if _rank(s) < _rank(d) else (d, s, t, q)
        for s, d, t, q in rows
        if s != d
    ]
