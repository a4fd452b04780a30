"""Benchmark for the flow tables, the solver and pattern search.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flow-bitcoin --seed 7 --seconds 5 --trace 0

Workloads: ``flow-bitcoin``, ``solve-prosper``, ``patterns-ctu13`` (see
README.md). One run starts one Python process and one Spark JVM at
``local[4]``. It sets up the workload's ``SETUP_REPS`` times, runs its
``WARMUP`` untimed passes, then repeats the timed body until ``--seconds``
have passed, at least once. It checks every output and prints one JSON
object as its last line: the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics from one more pass with spans. Each run
also writes a record with the environment and inputs under
``.perfbench/runs/``, and a traced run its spans under
``.perfbench/traces/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import time
import traceback

import harness as H

WORKLOADS = {
    "flow-bitcoin": "flow_bitcoin",
    "solve-prosper": "solve_prosper",
    "patterns-ctu13": "patterns_ctu13",
}
#: The network each workload's inputs are derived from (``--seed``
#: relabels it; see ``harness.network_pdf``).
NETWORK_SEED = 7


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--network-seed", type=int, default=NETWORK_SEED,
        help="generate another topology (its figures are not comparable "
        "with the baseline; use it to check correctness on a second network)",
    )
    return ap.parse_args(argv)


def timed_passes(wl, spark, st, seconds):
    """``wl.WARMUP`` untimed passes, then the body until ``seconds`` have
    passed (at least once); stop at a crash."""
    walls, results, stages, crashed = [], [], [], False
    n, deadline = 0, None
    while True:
        group = f"body-{n}"
        spark.sparkContext.setJobGroup(group, "untraced pass")
        t0 = time.perf_counter()
        try:
            out = wl.body(spark, st)
        except Exception:  # a crashed job still yields a report
            traceback.print_exc()
            walls.append(time.perf_counter() - t0)
            crashed = True
            break
        wall = time.perf_counter() - t0
        spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
        res = wl.collect(out)
        n += 1
        if n <= wl.WARMUP:
            continue
        if deadline is None:
            deadline = t0 + seconds
        walls.append(wall)
        stages.append(H.stage_counts(spark.sparkContext, group))
        results.append(res)
        if time.perf_counter() >= deadline:
            break
    return walls, results, stages, crashed


def main(argv=None) -> int:
    args = parse(argv)
    if not (H.SRC / "repro").is_dir() or not (H.ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program to measure under {H.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((H.ROOT / "BENCHMARK.json").read_text())
    H.prepare_process()
    wl = importlib.import_module(WORKLOADS[args.workload])
    try:
        return measure(args, wl, spec)
    finally:
        H.stop_jvm()
        shutil.rmtree(H.TMP, ignore_errors=True)


def measure(args, wl, spec) -> int:
    setups, spark = [], None
    # A traced run reports no set-up time, so it sets up once.
    for _ in range(1 if args.trace else wl.SETUP_REPS):
        if spark is not None:
            spark.stop()
        t0 = time.perf_counter()
        spark = H.start_spark()
        st = wl.setup(spark, args.seed, args.network_seed)
        st.update(seed=args.seed, network_seed=args.network_seed)
        setups.append(time.perf_counter() - t0)

    H.reset_peak_rss()
    walls, results, stages, crashed = timed_passes(wl, spark, st, args.seconds)
    rss = H.peak_rss_mb()

    attempted = failed = 0
    for res in results:
        a, f = wl.check(st, res)
        attempted, failed = attempted + a, failed + f
    if crashed:
        n = wl.ops_on_crash(st)
        attempted, failed = attempted + n, failed + n

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "network_seed": args.network_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.INPUTS,
        "environment": H.environment(),
        "warm_up_passes": wl.WARMUP,
        "setup_s": setups,
        "wall_s": walls,
        "stages_tasks": stages,
        "end_to_end": e2e,
        "workload_metrics": wl.report(results[-1]) if results else {},
    }

    if args.trace:
        layer, a, f = trace(args, wl, spark, st, results[-1], e2e) if results else ({}, 0, 0)
        attempted, failed = attempted + a, failed + f
        record["per_layer"] = layer
        metrics = _pick(spec["per_layer"], layer)
    else:
        metrics = _pick(spec["end_to_end"], e2e)
    record["attempted"], record["failed"] = attempted, failed

    _print_record(record, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    runs = H.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def trace(args, wl, spark, st, ref, e2e):
    """The traced pass; layers a workload does not run report 0."""
    tr = H.Tracer(spark, f"{args.workload}-{args.seed}")
    with tr.span("synth_data.generate"):
        pdf = H.network_pdf(wl.PROFILE, wl.SF, args.network_seed, args.seed)
        net = spark.createDataFrame(pdf).cache()
        rows = net.count()
    st["traced_net"] = net
    try:
        out = wl.traced(spark, st, tr, ref)
    finally:
        net.unpersist()
    tr.write(H.OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    layer = {
        "synth_data.generate_s": tr.seconds("synth_data.generate"),
        "synth_data.rows": rows,
        **out["layer"],
        "tracing_overhead_s": out["wall_s"] - e2e["wall_s"],
    }
    a, f = out["gate"]
    return layer, a, f


def _pick(spec_metrics, values):
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec_metrics
    }


def _print_record(rec, units) -> None:
    env = rec["environment"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  network seed "
          f"{rec['network_seed']}  inputs {json.dumps(rec['inputs'])}")
    print("environment " + json.dumps(env))
    print(f"set-ups (s) {[round(x, 3) for x in rec['setup_s']]}  "
          f"passes (s) {[round(x, 3) for x in rec['wall_s']]}  "
          f"stages/tasks per pass {rec['stages_tasks']}")
    for k, v in rec["end_to_end"].items():
        print(f"  {k:<24s} {v:12.4f} {units[k]}")
    for k, (v, unit) in rec["workload_metrics"].items():
        print(f"  {k:<24s} {v:12.4f} {unit}")
    fail_rate = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'fail_rate':<24s} {fail_rate:12.4f} ({rec['failed']}/{rec['attempted']})")
    for k, v in rec.get("per_layer", {}).items():
        print(f"  {k:<40s} {v:14.4f} {units[k]}")


if __name__ == "__main__":
    sys.exit(main())
