"""Shared body for the Table 6/7/8 flow-computation benchmarks."""
from jobs import flow_tables

from .common import BENCH_CAP, report, report_printed, sf_for


def run_flow_table(spark, benchmark, profile: str):
    """Run the full Table 6/7/8 pipeline for ``profile``, print the
    paper-style table, and sanity-check the paper's qualitative shape."""
    sf = sf_for(profile)

    def job():
        results, table = flow_tables.run(
            spark, profile, sf=sf, max_interactions=BENCH_CAP, lp_cap=BENCH_CAP
        )
        return table.toPandas()

    pdf = benchmark.pedantic(job, rounds=1, iterations=1)
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
    return pdf
