"""Shared body for the Table 9/10/11 pattern-search benchmarks."""
from jobs import pattern_tables

from .common import report, report_printed, sf_for


def run_pattern_table(spark, benchmark, profile: str):
    """Run the full Table 9/10/11 pipeline for ``profile`` and check the
    paper's qualitative result: PB ≥ an order of magnitude faster than
    GB for precomputable patterns, near parity only for P4 (whose
    per-instance flows need LP either way)."""
    sf = sf_for(profile)
    rows = benchmark.pedantic(
        lambda: pattern_tables.run(spark, profile, sf=sf), rounds=1, iterations=1
    )
    report(f"\n[SF={sf}]")
    report_printed(lambda: pattern_tables.print_table(profile, rows))

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
    return rows
