"""Table 11 — pattern search (GB vs PB) on the prosper-profile network,
including the chain patterns P1/RP1 (Prosper is the only dataset with a
precomputed C2 chain table, per the paper)."""
from ._pattern_bench import run_pattern_table


def test_table11_patterns_prosper(spark, benchmark):
    rows = run_pattern_table(spark, benchmark, "prosper")
    names = [r["pattern"] for r in rows]
    assert "P1" in names and "RP1" in names
