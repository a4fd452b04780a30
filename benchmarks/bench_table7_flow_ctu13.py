"""Table 7 — flow-computation runtimes on the ctu13-profile network."""
from ._flow_bench import run_flow_table


def test_table7_flow_ctu13(spark, benchmark):
    run_flow_table(spark, benchmark, "ctu13")
