"""Table 4 — dataset characteristics of the three synthetic stand-ins."""
from jobs import table4_datasets

from .common import BENCH_SF, report


def test_table4_dataset_stats(spark, benchmark):
    rows = benchmark.pedantic(
        lambda: table4_datasets.run(spark, sf=BENCH_SF), rounds=1, iterations=1
    )
    report(f"\nTable 4 (synthetic stand-ins at SF={BENCH_SF}; paper in parens)")
    for r in rows:
        pn, pe, pi, pf = r["paper"]
        report(
            f"  {r['dataset']:10s} nodes={r['n_nodes']:>7d} edges={r['n_edges']:>7d} "
            f"inter={r['n_interactions']:>7d} avg_flow={r['avg_flow']:>8.2f}"
            f"   (paper: {pn}, {pe}, {pi}, {pf})"
        )
    assert len(rows) == 3
    for r in rows:
        # The quantity distribution is tuned to the paper's avg-flow column.
        assert abs(r["avg_flow"] - r["paper"][3]) / r["paper"][3] < 0.1
