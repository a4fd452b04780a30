"""Pattern search: GB ≡ PB on instances and flows (Tables 9-11 machinery)."""
import math
from collections import defaultdict

import duckdb
import numpy as np
import pytest

from repro.core.patterns import ALL_PATTERNS, instance_graph
from repro.maxflow_static.time_expanded import max_flow_time_expanded
from repro.spark.pattern_search import (
    PBNotApplicable,
    gb_instances,
    gb_search,
    pattern_table_row,
    pb_search,
)

EDGES_SQL = "(select distinct src as u, dst as v from i)"

GB_ORACLE_SQL = {
    "P1": f"""
        select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
        join {EDGES_SQL} e2 on e1.v=e2.u
        where e1.u not in (e1.v, e2.v) and e1.v != e2.v
    """,
    "P2": f"""
        select e1.u a, e1.v b from {EDGES_SQL} e1
        join {EDGES_SQL} e2 on e1.v=e2.u and e2.v=e1.u
    """,
    "P3": f"""
        select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
        join {EDGES_SQL} e2 on e1.v=e2.u
        join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
        where e1.u not in (e1.v, e2.v) and e1.v != e2.v
    """,
    "P4": f"""
        select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
        join {EDGES_SQL} e2 on e1.v=e2.u
        join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
        join {EDGES_SQL} e4 on e4.u=e1.u and e4.v=e2.v
        join {EDGES_SQL} e5 on e5.u=e1.v and e5.v=e1.u
        where e1.u not in (e1.v, e2.v) and e1.v != e2.v
    """,
    "P5": f"""
        select x.a, y.e, x.b, x.c from
        (select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
         join {EDGES_SQL} e2 on e1.v=e2.u
         join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
         where e1.u not in (e1.v, e2.v) and e1.v != e2.v) x
        join
        (select e1.u a, e1.v e from {EDGES_SQL} e1
         join {EDGES_SQL} e2 on e1.v=e2.u and e2.v=e1.u
         where e1.u != e1.v) y
        on x.a = y.a
        where y.e not in (x.b, x.c)
    """,
    "P6": f"""
        select x.a, x.b, x.c, y.b d, y.c e from
        (select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
         join {EDGES_SQL} e2 on e1.v=e2.u
         join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
         where e1.u not in (e1.v, e2.v) and e1.v != e2.v) x
        join
        (select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
         join {EDGES_SQL} e2 on e1.v=e2.u
         join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
         where e1.u not in (e1.v, e2.v) and e1.v != e2.v) y
        on x.a = y.a
        where x.b < y.b and x.b != y.c and x.c != y.b and x.c != y.c
    """,
}


def _sorted(pdf, keys):
    return pdf.sort_values(keys).reset_index(drop=True)


class TestGbEnumeration:
    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "P5", "P6"])
    def test_instances_match_oracle(self, name, interactions, interactions_pdf):
        pattern = ALL_PATTERNS[name]
        got = gb_instances(interactions, pattern).toPandas()
        con = duckdb.connect()
        con.register("i", interactions_pdf)
        exp = con.execute(GB_ORACLE_SQL[name]).fetchdf()
        con.close()
        cols = [c for c in got.columns]
        exp = exp[cols] if name != "P6" else exp
        assert set(map(tuple, got[exp.columns].values)) == set(
            map(tuple, exp.values)
        )

    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "P5", "P6"])
    def test_no_duplicate_rows(self, name, interactions):
        inst = gb_instances(interactions, ALL_PATTERNS[name])
        assert inst.count() == inst.distinct().count()

    def test_p5_instance_count(self, interactions, l2, l3):
        # P5 = L2 x L3 on the shared source, minus overlapping vertices.
        got = gb_instances(interactions, ALL_PATTERNS["P5"]).count()
        l2p = l2.toPandas()
        l3p = l3.toPandas()
        merged = l2p.merge(l3p, on="a", suffixes=("_2", "_3"))
        expect = (
            (merged["b_2"] != merged["b_3"]) & (merged["b_2"] != merged["c"])
        ).sum()
        assert got == expect

    def test_p6_canonicalized_no_duplicates(self, interactions):
        pdf = gb_instances(interactions, ALL_PATTERNS["P6"]).toPandas()
        assert (pdf["b"] < pdf["d"]).all()
        keys = set(
            (a, frozenset([(b, c), (d, e)]))
            for a, b, c, d, e in pdf[["a", "b", "c", "d", "e"]].values
        )
        assert len(keys) == len(pdf)

    def test_distinct_labels_distinct_vertices(self, interactions):
        pdf = gb_instances(interactions, ALL_PATTERNS["P3"]).toPandas()
        for cols in (("a", "b"), ("b", "c"), ("a", "c")):
            assert (pdf[cols[0]] != pdf[cols[1]]).all()


class TestGbEqualsPb:
    @pytest.mark.parametrize(
        "name", ["P1", "P2", "P3", "P4", "P5", "P6", "RP1", "RP2", "RP3"]
    )
    def test_same_instances_and_flows(self, name, interactions, l2, l3, c2):
        pattern = ALL_PATTERNS[name]
        gb = gb_search(interactions, pattern).toPandas()
        pb = pb_search(interactions, pattern, l2=l2, l3=l3, c2=c2).toPandas()
        keys = [c for c in gb.columns if c not in ("flow", "n_paths")]
        gbs, pbs = _sorted(gb, keys), _sorted(pb[gb.columns], keys)
        assert len(gbs) == len(pbs), f"{name}: instance count differs"
        assert (gbs[keys].values == pbs[keys].values).all()
        assert np.allclose(gbs["flow"], pbs["flow"], atol=1e-6)

    def test_pb_without_tables_not_applicable(self, interactions):
        with pytest.raises(PBNotApplicable, match="not applicable"):
            pb_search(interactions, ALL_PATTERNS["P1"])  # no C2 table

    def test_unknown_pattern_raises(self, interactions):
        from repro.core.patterns import Pattern

        weird = Pattern("PX", (("a", "b"),), source="a", sink="b")
        with pytest.raises(ValueError):
            pb_search(interactions, weird)


class TestExactFlows:
    """Every P1-P6 instance's flow, from GB and from PB-P4's per-instance
    pass, is the exact time-expanded max flow of the instance's DAG as
    :func:`instance_graph` builds it locally: an independent check of the
    seed split done in the Spark plan. GB = PB for P1-P3, RP1 and RP2
    holds by construction, since the path tables are GB's rows, so the
    relaxed patterns are checked against their paths' exact flows."""

    @pytest.fixture(scope="class")
    def seqs(self, interactions_pdf):
        seqs = defaultdict(list)
        cols = (interactions_pdf[c].tolist() for c in ("src", "dst", "ts", "qty"))
        for s, d, t, q in zip(*cols):
            seqs[(s, d)].append((t, q))
        return seqs

    @pytest.mark.parametrize(
        "name, search",
        [(n, "gb") for n in ("P1", "P2", "P3", "P4", "P5", "P6")] + [("P4", "pb")],
    )
    def test_flow_is_exact(self, name, search, interactions, l3, seqs):
        pattern = ALL_PATTERNS[name]
        if search == "gb":
            pdf = gb_search(interactions, pattern).toPandas()
        else:
            pdf = pb_search(interactions, pattern, l3=l3).toPandas()
        assert (pdf["flow"] > 0).any(), name
        for key, flow in zip(pdf[pattern.labels].itertuples(index=False), pdf["flow"]):
            mapping = dict(zip(pattern.labels, map(int, key)))
            exact = max_flow_time_expanded(instance_graph(pattern, mapping, seqs))
            assert math.isclose(flow, exact, rel_tol=1e-6, abs_tol=1e-9), (
                name, mapping, flow, exact)

    @pytest.mark.parametrize("name", ["RP1", "RP2", "RP3"])
    def test_relaxed_flow_against_its_paths(self, name, interactions, seqs):
        """RP1 and RP2 add up their parallel paths' flows; RP3 adds a
        vertex-disjoint subset of them, so it can only be smaller. Here
        the paths are enumerated from the raw interactions and each one's
        flow is the time-expanded max flow of its P1, P2 or P3 instance
        graph, independent of the path tables both GB and PB read."""
        path = ALL_PATTERNS[name[1:]]  # RP1 -> P1, ...
        keys = ["a", "c"] if name == "RP1" else ["a"]
        total, n_paths = defaultdict(float), defaultdict(int)
        for mapping in _local_paths(name[1:], seqs):
            key = tuple(mapping[k] for k in keys)
            total[key] += max_flow_time_expanded(instance_graph(path, mapping, seqs))
            n_paths[key] += 1
        pdf = gb_search(interactions, ALL_PATTERNS[name]).toPandas()
        got = {
            tuple(map(int, key)): (flow, n)
            for key, flow, n in zip(
                pdf[keys].itertuples(index=False), pdf["flow"], pdf["n_paths"]
            )
        }
        assert len(got) == len(pdf) and set(got) == set(total), name
        for key, (flow, n) in got.items():
            if name == "RP3":
                assert 1 <= n <= n_paths[key]
                assert flow <= total[key] * (1 + 1e-6) + 1e-9, (key, flow, total[key])
            else:
                assert n == n_paths[key]
                assert math.isclose(flow, total[key], rel_tol=1e-6, abs_tol=1e-9), (
                    name, key, flow, total[key])


def _local_paths(name, seqs):
    """Every P1 (``a→b→c``), P2 (``a→b→a``) or P3 (``a→b→c→a``) path over
    the edges of ``seqs``, with distinct vertices, as a label mapping."""
    edges = {e for e in seqs if e[0] != e[1]}
    succ = defaultdict(set)
    for a, b in edges:
        succ[a].add(b)
    for a, b in edges:
        if name == "P2":
            if (b, a) in edges:
                yield {"a": a, "b": b}
            continue
        for c in succ[b] - {a, b}:
            if name == "P1" or (c, a) in edges:
                yield {"a": a, "b": b, "c": c}


class TestRelaxedAggregation:
    def test_rp2_counts_match_p2_grouping(self, interactions, l2, l3, c2):
        p2 = pb_search(interactions, ALL_PATTERNS["P2"], l2=l2).toPandas()
        rp2 = pb_search(interactions, ALL_PATTERNS["RP2"], l2=l2).toPandas()
        expect = p2.groupby("a")["flow"].agg(["sum", "size"]).reset_index()
        merged = rp2.merge(expect, on="a")
        assert len(merged) == len(rp2) == len(expect)
        assert np.allclose(merged["flow"], merged["sum"])
        assert (merged["n_paths"] == merged["size"]).all()

    def test_rp3_paths_vertex_disjoint(self, interactions, l3):
        rp3 = pb_search(interactions, ALL_PATTERNS["RP3"], l3=l3).toPandas()
        l3p = l3.toPandas()
        # The selected disjoint subset can never beat the unconstrained sum.
        total = l3p.groupby("a")["flow"].sum().reset_index(name="total")
        merged = rp3.merge(total, on="a")
        assert (merged["flow"] <= merged["total"] + 1e-9).all()
        assert (merged["n_paths"] >= 1).all()


class TestHarness:
    def test_pattern_table_row_p2(self, interactions, l2, l3, c2):
        row = pattern_table_row(
            interactions, ALL_PATTERNS["P2"], l2=l2, l3=l3, c2=c2
        )
        assert row["pattern"] == "P2"
        assert row["instances"] == row["pb_instances"]
        assert row["avg_flow"] == pytest.approx(row["pb_avg_flow"], abs=1e-6)
        assert row["gb_seconds"] > 0 and row["pb_seconds"] > 0

    def test_pattern_table_row_pb_not_applicable(self, interactions, l2, l3):
        row = pattern_table_row(interactions, ALL_PATTERNS["P1"], l2=l2, l3=l3)
        assert row["pb_seconds"] is None
        assert row["instances"] > 0

    def test_pattern_table_row_other_value_error_propagates(
        self, monkeypatch, interactions, l2, l3, c2
    ):
        # Only PBNotApplicable means "PB not applicable"; any other
        # ValueError from PB is a fault and must not turn into a None row.
        # GB rejects a pattern it does not know before PB runs, so PB's
        # fault is injected on a pattern both know.
        from repro.spark import pattern_search

        def faulty_pb(*args, **kwargs):
            raise ValueError("PB fault")

        monkeypatch.setattr(pattern_search, "pb_search", faulty_pb)
        with pytest.raises(ValueError, match="PB fault") as err:
            pattern_table_row(interactions, ALL_PATTERNS["P2"], l2=l2, l3=l3, c2=c2)
        assert not isinstance(err.value, PBNotApplicable)


def test_gb_rejects_unknown_pattern(interactions):
    from repro.core.patterns import Pattern

    weird = Pattern("PX", (("a", "b"),), source="a", sink="b")
    with pytest.raises(ValueError, match="unknown pattern"):
        gb_instances(interactions, weird)
