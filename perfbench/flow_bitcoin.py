"""flow-bitcoin: the Tables 5-6 job end to end on Spark.

Body: ``extract_seed_subgraphs`` on the bitcoin network (SF 0.1, cap 800
interactions), then ``compute_flows(lp_cap=800)`` with its results cached
as ``jobs/flow_tables.py`` does, then ``runtime_table`` collected. Spark
extraction and the ``applyInPandas`` flow pass do almost all the work.
"""
from __future__ import annotations

import numpy as np

import harness as H
from repro.spark.flow_jobs import compute_flows, runtime_table
from repro.spark.subgraphs import extract_seed_subgraphs, seed_edge_sets

PROFILE, SF, CAP = "bitcoin", 0.1, 800
INPUTS = {"profile": PROFILE, "sf": SF, "max_interactions": CAP, "lp_cap": CAP}
#: A set-up is a session restart and a network (~0.3 s once the JVM runs),
#: so many are cheap; the first pass in a fresh JVM ran ~35% slower and
#: varies more (JIT, Python worker start), so it is a warm-up.
SETUP_REPS, WARMUP = 7, 1


def setup(spark, seed: int, network_seed: int) -> dict:
    return {"net": spark.createDataFrame(H.network_pdf(PROFILE, SF, network_seed, seed))}


def body(spark, st: dict):
    sub = extract_seed_subgraphs(st["net"], max_interactions=CAP)
    results = compute_flows(sub, lp_cap=CAP).cache()
    return results, runtime_table(results).collect()


def collect(out) -> dict:
    """Untimed: bring the cached per-subgraph rows to the driver."""
    results, table = out
    pdf = results.toPandas()
    results.unpersist()
    return {"rows": pdf, "table": table}


def ops_on_crash(st: dict) -> int:
    return 1  # the subgraph count is unknown when the job dies


def check(st: dict, res: dict) -> tuple[int, int]:
    """Each subgraph row, the table's row count and the paper shape."""
    pdf, table = res["rows"], res["table"]
    failed = sum(
        not H.check_flows(g, lp, pre, ps)
        for g, lp, pre, ps in zip(
            pdf["flow_greedy"], pdf["flow_lp"], pdf["flow_pre"], pdf["flow_presim"]
        )
    )
    by_cls = {r["cls"]: r for r in table}
    allr = by_cls.get("All")
    failed += allr is None or allr["n_subgraphs"] != len(pdf)
    if allr is not None:
        ms_mean = {m: allr[f"{m}_ms"] for m in H.METHODS}
        a = by_cls.get("A")
        failed += not H.check_shape(ms_mean, a["presim_ms"] if a else None)
    else:
        failed += 1
    return len(pdf) + 2, int(failed)


def report(res: dict) -> dict:
    """The paper's Table 6 "All" row, in ms per subgraph."""
    pdf = res["rows"]
    return {
        "subgraphs": (len(pdf), "count"),
        **{f"{m}_ms_mean": (float(np.nanmean(pdf[f"ms_{m}"])), "ms") for m in H.METHODS},
    }


def traced(spark, st: dict, tr: H.Tracer, ref) -> dict:
    """One pass with every Spark layer materialised in its own span."""
    net = st["traced_net"]
    with H.Cache() as mat:
        with tr.span("pass") as p:
            layer = H.trace_network_layers(tr, net, mat)
            with tr.span("subgraphs.edge_sets"):
                edge_sets, _ = mat(seed_edge_sets(net))
            with tr.span("subgraphs.extract"):
                sub, n_rows = mat(extract_seed_subgraphs(net, max_interactions=CAP))
            with tr.span("flow_jobs.compute"):
                results, _ = mat(compute_flows(sub, lp_cap=CAP))
            with tr.span("flow_jobs.table"):
                table = runtime_table(results).collect()
        n_seeds = sub.select("seed").distinct().count()
        n_candidates = edge_sets.select("seed").distinct().count()
        pdf = results.toPandas()

    compute_s = tr.seconds("flow_jobs.compute")
    worker = {m: float(np.nansum(pdf[f"ms_{m}"])) for m in H.METHODS}
    sub_stages, sub_tasks = tr.stages("subgraphs")
    flow_stages, flow_tasks = tr.stages("flow_jobs")
    layer.update({
        "subgraphs.edge_sets_s": tr.seconds("subgraphs.edge_sets"),
        "subgraphs.extract_s": tr.seconds("subgraphs.extract"),
        "subgraphs.n_rows": n_rows,
        "subgraphs.n_seeds": n_seeds,
        "subgraphs.seeds_kept_ratio": n_seeds / n_candidates if n_candidates else 0.0,
        "subgraphs.stages": sub_stages,
        "subgraphs.tasks": sub_tasks,
        "flow_jobs.compute_s": compute_s,
        "flow_jobs.table_s": tr.seconds("flow_jobs.table"),
        "flow_jobs.stages": flow_stages,
        "flow_jobs.tasks": flow_tasks,
        **{f"flow_jobs.worker_ms.{m}": v for m, v in worker.items()},
        "flow_jobs.busy_frac": sum(worker.values()) / (compute_s * 1e3 * H.CORES),
        **{f"flow_jobs.n_class.{c}": int((pdf["cls"] == c).sum()) for c in "ABC"},
        **H.pipeline_metrics(pdf["cls"], {m: pdf[f"ms_{m}"] for m in H.METHODS}),
    })
    res = {"rows": pdf, "table": table}
    return {"wall_s": p["end"] - p["start"], "layer": layer, "gate": check(st, res)}
