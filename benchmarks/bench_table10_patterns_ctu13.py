"""Table 10 — pattern search (GB vs PB) on the ctu13-profile network."""
from ._pattern_bench import run_pattern_table


def test_table10_patterns_ctu13(spark, benchmark):
    run_pattern_table(spark, benchmark, "ctu13")
