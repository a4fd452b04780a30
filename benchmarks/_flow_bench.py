"""Shared body for the Table 6/7/8 flow-computation benchmarks."""
import math

from jobs import flow_tables
from repro.core.graph import TemporalGraph
from repro.maxflow_static.time_expanded import max_flow_time_expanded
from repro.spark.subgraphs import extract_seed_subgraphs
from repro.synth_data import interaction_network

from .common import BENCH_CAP, report, report_printed, sf_for


def run_flow_table(spark, benchmark, profile: str):
    """Run the full Table 6/7/8 pipeline for ``profile``, print the
    paper-style table, and sanity-check the paper's qualitative shape."""
    sf = sf_for(profile)

    def job():
        results, table = flow_tables.run(
            spark, profile, sf=sf, max_interactions=BENCH_CAP, lp_cap=BENCH_CAP
        )
        return results, table.toPandas()

    results, pdf = benchmark.pedantic(job, rounds=1, iterations=1)
    report(f"\n[SF={sf}, cap={BENCH_CAP}]")
    report_printed(lambda: flow_tables.print_table(profile, pdf))

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
    return pdf


def assert_flows_exact(spark, profile: str, sf: float, flows_pdf) -> None:
    """Bench-scale correctness gate: on every extracted subgraph, LP, Pre
    and PreSim equal the exact time-expanded max flow (1e-6 relative) and
    Greedy does not exceed it. Extracts the subgraphs again, untimed."""
    sub = extract_seed_subgraphs(
        interaction_network(spark, profile=profile, sf=sf),
        max_interactions=BENCH_CAP,
    ).toPandas()
    flows = flows_pdf.set_index("seed")
    assert len(flows) == sub["seed"].nunique()
    for seed, g in sub.groupby("seed"):
        exact = max_flow_time_expanded(
            TemporalGraph.from_interactions(zip(g["src"], g["dst"], g["ts"], g["qty"]))
        )
        row = flows.loc[seed]
        for col in ("flow_lp", "flow_pre", "flow_presim"):
            assert math.isclose(row[col], exact, rel_tol=1e-6, abs_tol=1e-9), (
                seed, col, row[col], exact)
        assert row["flow_greedy"] <= exact * (1 + 1e-6) + 1e-9, (
            seed, row["flow_greedy"], exact)
