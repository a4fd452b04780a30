"""Table 8 — flow-computation runtimes on the prosper-profile network."""
from ._flow_bench import run_flow_table


def test_table8_flow_prosper(spark, benchmark):
    run_flow_table(spark, benchmark, "prosper")
