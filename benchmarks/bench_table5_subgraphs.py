"""Table 5 — statistics of the extracted seed subgraphs."""
from jobs import table5_subgraphs

from .common import BENCH_CAP, BENCH_SF, report


def test_table5_subgraph_stats(spark, benchmark):
    rows = benchmark.pedantic(
        lambda: table5_subgraphs.run(spark, sf=BENCH_SF, max_interactions=BENCH_CAP),
        rounds=1,
        iterations=1,
    )
    report(f"\nTable 5 (SF={BENCH_SF}, cap={BENCH_CAP}; paper in parens)")
    for r in rows:
        ps, pv, pe, pi = r["paper"]
        report(
            f"  {r['dataset']:10s} subgraphs={r['n_subgraphs']:>5d} "
            f"avg_vtx={r['avg_vertices']:>6.2f} avg_edges={r['avg_edges']:>6.2f} "
            f"avg_inter={r['avg_interactions']:>7.1f}"
            f"   (paper: {ps}, {pv}, {pe}, {pi})"
        )
    for r in rows:
        assert r["n_subgraphs"] > 0
        # Same qualitative ordering as the paper: subgraphs are small in
        # vertices/edges but carry many interactions.
        assert r["avg_interactions"] > r["avg_edges"]
