"""Tables 4-11 of the paper, one benchmark case per table.

Each case times what ``jobs/tables.py`` computes for its table at the
driver's fixed scale, prints the paper-style table and asserts the
paper's qualitative shape. Tables 6-11 then check, untimed, every flow
against an exact solver.
"""
import math
from collections import defaultdict

import pytest

from jobs import tables
from repro.core.graph import TemporalGraph
from repro.core.patterns import ALL_PATTERNS, instance_graph
from repro.maxflow_static.time_expanded import max_flow_time_expanded
from repro.spark.paths import c2_table, l2_table, l3_table
from repro.spark.pattern_search import gb_search, pb_search
from repro.spark.subgraphs import extract_seed_subgraphs
from repro.synth_data import interaction_network, interaction_network_pdf


@pytest.mark.parametrize("table", list(tables.PAPER), ids=lambda t: f"table{t}")
def test_table(spark, benchmark, table):
    if table in (6, 7, 8):
        run_flow_table(spark, benchmark, table)
        return
    rows = benchmark.pedantic(lambda: tables.run(spark, table), rounds=1, iterations=1)
    tables.print_table(table, rows)
    if table == 4:
        assert len(rows) == 3
        for r in rows:
            # The quantity distribution is tuned to the paper's avg-flow column.
            paper = tables.PAPER[4][r["dataset"]]
            assert abs(r["avg_flow"] - paper[3]) / paper[3] < 0.1
    elif table == 5:
        for r in rows:
            assert r["n_subgraphs"] > 0
            # Same qualitative ordering as the paper: subgraphs are small in
            # vertices/edges but carry many interactions.
            assert r["avg_interactions"] > r["avg_edges"]
    else:
        check_pattern_table(spark, table, rows)


def run_flow_table(spark, benchmark, table: int) -> None:
    """Time the Tables 6-8 pass, print the table, and check the paper's
    qualitative shape and, untimed, every flow."""
    profile = tables.PROFILE[table]
    sf = tables.SF[profile]

    def job():
        results, runtimes = tables.flow_pass(spark, profile, sf)
        return results, runtimes.toPandas()

    results, pdf = benchmark.pedantic(job, rounds=1, iterations=1)
    tables.print_table(table, pdf.to_dict("records"))

    rows = pdf.set_index("cls")
    assert {"All", "A"} <= set(rows.index)
    allr = rows.loc["All"]
    # Paper shape: Greedy is fastest; PreSim beats the LP baseline by a
    # wide margin; Pre also beats LP.
    assert allr["greedy_ms"] < allr["lp_ms"]
    assert allr["presim_ms"] < allr["lp_ms"] / 2
    assert allr["pre_ms"] < allr["lp_ms"]
    # Class A costs collapse to ~greedy cost (solubility short-circuit).
    a = rows.loc["A"]
    assert a["presim_ms"] < allr["lp_ms"]
    assert_flows_exact(spark, profile, sf, results.toPandas())


def check_pattern_table(spark, table: int, rows: list[dict]) -> None:
    """The paper's qualitative result for Tables 9-11: PB ≥ an order of
    magnitude faster than GB for precomputable patterns, near parity only
    for P4 (whose per-instance flows need LP either way)."""
    by_name = {r["pattern"]: r for r in rows}
    for name, r in by_name.items():
        assert r["instances"] > 0, f"{name}: no instances at bench scale"
        if r["pb_seconds"] is not None:
            assert r["pb_instances"] == r["instances"], f"{name}: GB/PB disagree"
    # Precomputation pays off on the pure-precomputed patterns...
    for name in ("P2", "P3", "P5", "P6"):
        r = by_name[name]
        assert r["pb_seconds"] < r["gb_seconds"], f"{name}: PB not faster"
    # ...but not (much) on P4, where flows must be computed per instance.
    p4 = by_name["P4"]
    assert p4["pb_seconds"] > by_name["P3"]["pb_seconds"]
    if table == 11:
        # Prosper is the only dataset with a precomputed C2 chain table.
        names = [r["pattern"] for r in rows]
        assert "P1" in names and "RP1" in names
    assert_pattern_flows_exact(spark, table)


def assert_flows_exact(spark, profile: str, sf: float, flows_pdf) -> None:
    """Bench-scale correctness gate: on every extracted subgraph, LP, Pre
    and PreSim equal the exact time-expanded max flow (1e-6 relative) and
    Greedy does not exceed it. Extracts the subgraphs again, untimed."""
    sub = extract_seed_subgraphs(
        interaction_network(spark, profile=profile, sf=sf),
        max_interactions=tables.CAP,
    ).toPandas()
    flows = flows_pdf.set_index("seed")
    assert len(flows) == sub["seed"].nunique()
    for seed, g in sub.groupby("seed"):
        exact = max_flow_time_expanded(TemporalGraph.from_columns(g))
        row = flows.loc[seed]
        for col in ("flow_lp", "flow_pre", "flow_presim"):
            assert math.isclose(row[col], exact, rel_tol=1e-6, abs_tol=1e-9), (
                seed, col, row[col], exact)
        assert row["flow_greedy"] <= exact * (1 + 1e-6) + 1e-9, (
            seed, row["flow_greedy"], exact)


def assert_pattern_flows_exact(spark, table: int) -> None:
    """Bench-scale correctness gate, per instance of every pattern the
    table runs: GB and PB find the same instances with the same flow, and
    a P1-P6 instance's flow is the exact time-expanded max flow of its
    DAG (1e-6 relative). Relaxed flows are sums whose last bit depends on
    Spark's row partitioning, so GB and PB agree within 1e-9 relative
    everywhere. Builds the network and the path tables again, untimed."""
    profile = tables.PROFILE[table]
    sf = tables.SF[profile]
    net = interaction_network(spark, profile=profile, sf=sf)
    pdf = interaction_network_pdf(profile=profile, sf=sf)
    seqs = defaultdict(list)
    for s, d, t, q in zip(*(pdf[c].tolist() for c in ("src", "dst", "ts", "qty"))):
        seqs[(s, d)].append((t, q))
    l2, l3 = l2_table(net).cache(), l3_table(net).cache()
    c2 = c2_table(net).cache() if "P1" in tables.PAPER[table] else None
    try:
        for name in tables.PAPER[table]:
            pattern = ALL_PATTERNS[name]
            gb = gb_search(net, pattern).toPandas()
            pb = pb_search(net, pattern, l2=l2, l3=l3, c2=c2).toPandas()
            keys = [c for c in gb.columns if c not in ("flow", "n_paths")]
            both = gb.merge(pb, on=keys, suffixes=("_gb", "_pb"))
            assert len(both) == len(gb) == len(pb), (name, len(gb), len(pb))
            rows = zip(both[keys].itertuples(index=False), both["flow_gb"], both["flow_pb"])
            for key, f_gb, f_pb in rows:
                assert math.isclose(f_gb, f_pb, rel_tol=1e-9, abs_tol=1e-9), (
                    name, key, f_gb, f_pb)
                if pattern.relaxed:
                    continue
                exact = max_flow_time_expanded(
                    instance_graph(pattern, dict(zip(keys, key)), seqs)
                )
                assert math.isclose(f_gb, exact, rel_tol=1e-6, abs_tol=1e-9), (
                    name, key, f_gb, exact)
    finally:
        for df in (l2, l3, c2):
            if df is not None:
                df.unpersist()
