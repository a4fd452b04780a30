"""Shared body for the Table 9/10/11 pattern-search benchmarks."""
import math
from collections import defaultdict

from jobs import pattern_tables
from repro.core.patterns import ALL_PATTERNS, instance_graph
from repro.maxflow_static.time_expanded import max_flow_time_expanded
from repro.spark.paths import c2_table, l2_table, l3_table
from repro.spark.pattern_search import gb_search, pb_search
from repro.synth_data import interaction_network, interaction_network_pdf

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
    assert_pattern_flows_exact(spark, profile, sf)
    return rows


def assert_pattern_flows_exact(spark, profile: str, sf: float) -> None:
    """Bench-scale correctness gate, per instance of every pattern the
    table runs: GB and PB find the same instances with the same flow, and
    a P1-P6 instance's flow is the exact time-expanded max flow of its
    DAG (1e-6 relative). Relaxed flows are sums whose last bit depends on
    Spark's row partitioning, so GB and PB agree within 1e-9 relative
    everywhere. Builds the network and the path tables again, untimed."""
    net = interaction_network(spark, profile=profile, sf=sf)
    pdf = interaction_network_pdf(profile=profile, sf=sf)
    seqs = defaultdict(list)
    for s, d, t, q in zip(*(pdf[c].tolist() for c in ("src", "dst", "ts", "qty"))):
        seqs[(s, d)].append((t, q))
    l2, l3 = l2_table(net).cache(), l3_table(net).cache()
    c2 = c2_table(net).cache() if profile == "prosper" else None
    try:
        for name in pattern_tables.PATTERNS_BY_DATASET[profile]:
            pattern = ALL_PATTERNS[name]
            gb = gb_search(net, pattern).toPandas()
            pb = pb_search(net, pattern, l2=l2, l3=l3, c2=c2).toPandas()
            keys = [c for c in gb.columns if c not in ("flow", "n_paths")]
            both = gb.merge(pb, on=keys, suffixes=("_gb", "_pb"))
            assert len(both) == len(gb) == len(pb), (name, len(gb), len(pb))
            rows = zip(both[keys].itertuples(index=False), both["flow_gb"], both["flow_pb"])
            for key, f_gb, f_pb in rows:
                assert math.isclose(f_gb, f_pb, rel_tol=1e-9, abs_tol=1e-9), (
                    name, key, f_gb, f_pb)
                if pattern.relaxed:
                    continue
                exact = max_flow_time_expanded(
                    instance_graph(pattern, dict(zip(keys, key)), seqs)
                )
                assert math.isclose(f_gb, exact, rel_tol=1e-6, abs_tol=1e-9), (
                    name, key, f_gb, exact)
    finally:
        for table in (l2, l3, c2):
            if table is not None:
                table.unpersist()
