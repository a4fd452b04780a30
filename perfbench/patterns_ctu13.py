"""patterns-ctu13: a subset of Table 10 on Spark.

Body: ``l2_table`` and ``l3_table`` built and materialised, as
``jobs/pattern_tables.py`` does, then ``gb_search`` and ``pb_search``
for P3, P4 and RP3, each aggregated to (instances, average flow) and
collected. This covers GB's self-joins, the L2/L3 path tables and PB-P4's
per-instance PreSim, with no seed extraction. P5 and P6 are left out:
their GB joins alone take minutes on four cores.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from pyspark.sql import functions as F

import harness as H
from repro.core.patterns import ALL_PATTERNS
from repro.spark.paths import l2_table, l3_table
from repro.spark.pattern_search import gb_search, pb_search

PROFILE, SF = "ctu13", 0.1
PATTERNS = ("P3", "P4", "RP3")
INPUTS = {"profile": PROFILE, "sf": SF, "patterns": list(PATTERNS)}
#: As flow-bitcoin: cheap set-ups, and a warm-up pass for the fresh JVM.
SETUP_REPS, WARMUP = 7, 1


def setup(spark, seed: int, network_seed: int) -> dict:
    return {"net": spark.createDataFrame(H.network_pdf(PROFILE, SF, network_seed, seed))}


def _summary(df) -> tuple[int, float]:
    row = df.agg(F.count("*").alias("n"), F.avg("flow").alias("f")).collect()[0]
    return int(row["n"]), float(row["f"] or 0.0)


def _search(net, l2, l3, clock) -> dict:
    """GB then PB per pattern; ``clock(kind, name)`` wraps each call."""
    rows = {}
    for name in PATTERNS:
        pat = ALL_PATTERNS[name]
        with clock("gb", name) as gb:
            gb["out"] = _summary(gb_search(net, pat))
        with clock("pb", name) as pb:
            pb["out"] = _summary(pb_search(net, pat, l2=l2, l3=l3))
        rows[name] = {"gb": gb["out"], "pb": pb["out"], "gb_s": gb["s"], "pb_s": pb["s"]}
    return rows


@contextmanager
def _stopwatch(kind: str, name: str):
    rec = {}
    t0 = time.perf_counter()
    yield rec
    rec["s"] = time.perf_counter() - t0


def body(spark, st: dict) -> dict:
    net = st["net"]
    t0 = time.perf_counter()
    l2 = l2_table(net).cache()
    l3 = l3_table(net).cache()
    l2.count(), l3.count()
    precompute_s = time.perf_counter() - t0
    try:
        rows = _search(net, l2, l3, _stopwatch)
    finally:
        l2.unpersist()
        l3.unpersist()
    return {"precompute_s": precompute_s, "patterns": rows}


def collect(out):
    return out


def ops_on_crash(st: dict) -> int:
    return len(PATTERNS)


def check(st: dict, res: dict) -> tuple[int, int]:
    """GB and PB agree on each pattern, every pattern has instances, and
    the paper shape of ``benchmarks/_pattern_bench.py`` holds: PB beats GB
    on P3, and PB-P4 (per-instance flows) costs more than PB-P3."""
    rows = res["patterns"]
    failed = 0
    for r in rows.values():
        (gn, gf), (pn, pf) = r["gb"], r["pb"]
        failed += not (gn > 0 and gn == pn and H.same(gf, pf))
    failed += not rows["P3"]["pb_s"] < rows["P3"]["gb_s"]
    failed += not rows["P4"]["pb_s"] > rows["P3"]["pb_s"]
    return len(rows) + 2, failed


def report(res: dict) -> dict:
    """Table 10's timing columns summed over the patterns, and the
    instance counts."""
    rows = res["patterns"].values()
    out = {
        "precompute_s": (res["precompute_s"], "s"),
        "gb_s": (sum(r["gb_s"] for r in rows), "s"),
        "pb_s": (sum(r["pb_s"] for r in rows), "s"),
    }
    for name, r in res["patterns"].items():
        out[f"instances.{name}"] = (r["gb"][0], "count")
    return out


def traced(spark, st: dict, tr: H.Tracer, ref) -> dict:
    """One pass with each Spark layer materialised in its own span; the
    cycle tables are cached first, so ``paths.*`` time only the per-path
    joins and greedy runs."""
    net = st["traced_net"]

    @contextmanager
    def clock(kind: str, name: str):
        with tr.span(f"pattern_search.{kind}.{name}") as rec:
            yield rec
        rec["s"] = rec["end"] - rec["start"]

    with H.Cache() as mat, tr.span("pass") as p:
        layer = H.trace_network_layers(tr, net, mat)
        with tr.span("paths.l2"):
            l2, n_l2 = mat(l2_table(net))
        with tr.span("paths.l3"):
            l3, n_l3 = mat(l3_table(net))
        rows = _search(net, l2, l3, clock)

    layer.update({
        "paths.l2_s": tr.seconds("paths.l2"),
        "paths.l3_s": tr.seconds("paths.l3"),
        "paths.n_l2": n_l2,
        "paths.n_l3": n_l3,
        "paths.stages": tr.stages("paths")[0],
    })
    for kind in ("gb", "pb"):
        layer[f"pattern_search.stages.{kind}"] = tr.stages(f"pattern_search.{kind}")[0]
        for name in PATTERNS:
            layer[f"pattern_search.{kind}_s.{name}"] = rows[name][f"{kind}_s"]
    for name in PATTERNS:
        layer[f"pattern_search.instances.{name}"] = rows[name]["gb"][0]
    res = {"precompute_s": tr.seconds("paths"), "patterns": rows}
    return {"wall_s": p["end"] - p["start"], "layer": layer, "gate": check(st, res)}


def traced_on_own_network(spark, st: dict, tr: H.Tracer) -> dict:
    """:func:`traced` on a freshly generated ctu13 network, for a traced
    run of another workload (see README.md, "Workloads")."""
    with tr.span("patterns-ctu13.generate"):
        net = spark.createDataFrame(
            H.network_pdf(PROFILE, SF, st["network_seed"], st["seed"])
        ).cache()
        net.count()
    try:
        return traced(spark, {"traced_net": net}, tr, None)
    finally:
        net.unpersist()
