"""Table 9 — pattern search (GB vs PB) on the bitcoin-profile network."""
from ._pattern_bench import run_pattern_table


def test_table9_patterns_bitcoin(spark, benchmark):
    run_pattern_table(spark, benchmark, "bitcoin")
