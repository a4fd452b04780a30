"""Table 6 — flow-computation runtimes on the bitcoin-profile network."""
from ._flow_bench import run_flow_table


def test_table6_flow_bitcoin(spark, benchmark):
    run_flow_table(spark, benchmark, "bitcoin")
