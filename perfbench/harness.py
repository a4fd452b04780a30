"""Shared machinery for the benchmark: environment, Spark session, inputs,
spans, the correctness tolerance and the run record.

Everything here is measurement-side code. It calls the program's public
functions and never patches them; spans are recorded around those calls
only (no tracing inside ``src/repro``).
"""
from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (Spark scratch, temp files, run records) lives
#: here, inside the checkout, and is listed in the root ``.gitignore``.
OUT = ROOT / ".perfbench"
TMP = OUT / "tmp"

CORES = 4
SHUFFLE_PARTITIONS = 64
DRIVER_MEMORY = "4g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
    # The status tracker reads the same store as the UI; its default
    # retention (1,000 jobs and stages) would cut off the counts of a
    # flow-bitcoin pass.
    "spark.ui.retainedJobs": "1000000",
    "spark.ui.retainedStages": "1000000",
    "spark.sql.ui.retainedExecutions": "1000000",
}

#: Correctness tolerance: relative 1e-6, with an absolute floor for zero
#: flows (a relative test alone cannot accept 0 against 1e-12).
REL_TOL = 1e-6
ABS_TOL = 1e-9

def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def at_most(a: float, b: float) -> bool:
    """``a <= b`` up to the correctness tolerance."""
    return a <= b or same(a, b)


def prepare_process() -> None:
    """Point Python workers, the JVM and temp files at the checkout.

    Must run before pyspark is imported: the driver JVM reads its options
    at launch, and the Python workers inherit ``PYTHONPATH`` from it, which
    is how they import ``repro`` without an installed package.
    """
    TMP.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(TMP)
    os.environ["SPARK_LOCAL_DIRS"] = str(TMP)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_*.
        f"--conf 'spark.driver.extraJavaOptions=-Djava.io.tmpdir={TMP} -XX:-UsePerfData' "
        "pyspark-shell"
    )


def start_spark():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the SparkContext, then the JVM the gateway launched, and wait
    for it; the Python workers are the JVM's children and stop with it."""
    from pyspark import SparkContext

    sc = SparkContext._active_spark_context
    if sc is not None:
        sc.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits when stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def network_pdf(profile: str, sf: float, network_seed: int, seed: int):
    """The workload's input: the program's synthetic network for
    ``network_seed``, with vertex ids permuted by ``seed``.

    The permutation keeps the graph's shape, hence the cost of every
    subgraph, while changing every id the program sees (and so its hash
    partitioning). A new topology per seed would not do: one large
    class-C subgraph's direct LP can take a third of a pass, so passes on
    different topologies differ by up to 5x (BASELINE.md).
    """
    import numpy as np

    from repro.synth_data import interaction_network_pdf

    pdf = interaction_network_pdf(profile=profile, sf=sf, seed=network_seed)
    ids = np.unique(np.concatenate([pdf["src"].to_numpy(), pdf["dst"].to_numpy()]))
    image = ids[np.random.default_rng(seed).permutation(len(ids))]
    pdf["src"] = image[np.searchsorted(ids, pdf["src"].to_numpy())]
    pdf["dst"] = image[np.searchsorted(ids, pdf["dst"].to_numpy())]
    return pdf


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark of this process (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    Each span gets its own Spark job group, so the status tracker can say
    which stages and tasks ran inside it. Spans are written out once, by
    :meth:`write`, when the run finishes.
    """

    def __init__(self, spark, trace_id: str):
        self.sc = spark.sparkContext if spark is not None else None
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, *, jobs: bool = True):
        """Record one span; ``jobs=False`` skips the Spark job group, for
        spans around pure-Python calls that start no Spark job."""
        sc = self.sc if jobs else None
        rec = {
            "trace_id": self.trace_id,
            "span_id": len(self.spans) + 1,
            "parent": self._stack[-1]["span_id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "stages": 0,
            "tasks": 0,
        }
        self.spans.append(rec)
        group = f"perfbench-{self.trace_id}-{rec['span_id']}"
        if sc is not None:
            sc.setJobGroup(group, name)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if sc is not None:
                rec["stages"], rec["tasks"] = stage_counts(sc, group)
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    sc.setJobGroup(
                        f"perfbench-{self.trace_id}-{parent['span_id']}", parent["name"]
                    )
                else:
                    sc.setLocalProperty("spark.jobGroup.id", None)

    def _named(self, prefix: str) -> list[dict]:
        """The spans named ``prefix`` or ``prefix.<anything>``."""
        return [
            s for s in self.spans
            if s["name"] == prefix or s["name"].startswith(prefix + ".")
        ]

    def seconds(self, prefix: str) -> float:
        return sum(s["end"] - s["start"] for s in self._named(prefix))

    def stages(self, prefix: str) -> tuple[int, int]:
        """(stages run, tasks completed), summed over the spans."""
        picked = self._named(prefix)
        return sum(s["stages"] for s in picked), sum(s["tasks"] for s in picked)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": self.spans}, indent=1))


class Cache:
    """``mat(df)`` caches and counts ``df`` for a traced pass, so that the
    next layer reads it from cache and each span holds only its own
    layer's work; leaving the ``with`` block unpersists them all."""

    def __init__(self):
        self.dfs = []

    def __call__(self, df):
        df = df.cache()
        self.dfs.append(df)
        return df, df.count()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for df in self.dfs:
            df.unpersist()
        return False


def trace_network_layers(tr: Tracer, net, mat: Cache) -> dict:
    """The edge table and the 2- and 3-hop cycle tables, each materialised
    in its own span, with their metrics."""
    from repro.spark.network import edges_df
    from repro.spark.subgraphs import cycle_paths

    with tr.span("network.edges"):
        _, n_edges = mat(edges_df(net))
    with tr.span("subgraphs.cycles2"):
        _, n_c2 = mat(cycle_paths(net, 2))
    with tr.span("subgraphs.cycles3"):
        _, n_c3 = mat(cycle_paths(net, 3))
    return {
        "network.edges_s": tr.seconds("network.edges"),
        "network.n_edges": n_edges,
        "subgraphs.cycles2_s": tr.seconds("subgraphs.cycles2"),
        "subgraphs.cycles3_s": tr.seconds("subgraphs.cycles3"),
        "subgraphs.n_cycles2": n_c2,
        "subgraphs.n_cycles3": n_c3,
    }


def stage_counts(sc, group: str) -> tuple[int, int]:
    """Stages run and tasks completed by the jobs of one job group.

    Stages a job skipped (their shuffle output already existed) are not
    counted: they ran no task.
    """
    st = sc.statusTracker()
    stage_ids = set()
    for jid in st.getJobIdsForGroup(group):
        info = st.getJobInfo(jid)
        if info is not None:
            stage_ids.update(info.stageIds)
    stages = tasks = 0
    for sid in stage_ids:
        info = st.getStageInfo(sid)
        if info is not None and info.numCompletedTasks > 0:
            stages += 1
            tasks += info.numCompletedTasks
    return stages, tasks


def environment() -> dict:
    """Machine, versions and Spark settings, recorded with every result."""
    import numpy
    import pandas
    import pyarrow
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "mem_gb": round(mem_kb / 2**20, 1),
        "commit": commit,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "spark": {
            "master": f"local[{CORES}]",
            "driver_memory": DRIVER_MEMORY,
            "shuffle_partitions": SHUFFLE_PARTITIONS,
            "broadcast_threshold": -1,
            "arrow": True,
        },
    }


METHODS = ("greedy", "lp", "pre", "presim")


def check_flows(greedy: float, lp: float, pre: float, presim: float) -> bool:
    """Per-subgraph gate: Greedy <= LP and LP = Pre = PreSim.

    A NaN LP (the direct LP skipped above ``lp_cap``) leaves the gate to
    Greedy <= Pre = PreSim.
    """
    ref = pre if math.isnan(lp) else lp
    return at_most(greedy, ref) and same(ref, pre) and same(ref, presim)


def check_shape(ms_mean: dict, ms_mean_a: float | None) -> bool:
    """The paper-shape asserts of ``benchmarks/_flow_bench.py``: Greedy is
    fastest, Pre beats LP, PreSim beats LP at least twofold, and class-A
    PreSim costs less than the average LP."""
    ok = (
        ms_mean["greedy"] < ms_mean["lp"]
        and ms_mean["pre"] < ms_mean["lp"]
        and ms_mean["presim"] < ms_mean["lp"] / 2
    )
    return ok and (ms_mean_a is None or ms_mean_a < ms_mean["lp"])


def pipeline_metrics(cls, ms: dict) -> dict:
    """``pipeline.*`` metrics from per-subgraph classes and milliseconds.

    ``ms[method]`` is an array aligned with ``cls``. A class with no
    subgraphs reports 0.
    """
    import numpy as np

    cls = np.asarray(cls)
    out = {}
    for m in METHODS:
        v = np.asarray(ms[m], dtype=float)
        v = v[~np.isnan(v)]
        out[f"pipeline.{m}_ms_mean"] = float(v.mean()) if v.size else 0.0
        out[f"pipeline.{m}_ms_p50"] = float(np.percentile(v, 50)) if v.size else 0.0
    for m in ("lp", "presim"):
        v = np.asarray(ms[m], dtype=float)
        out[f"pipeline.{m}_ms_p90"] = float(np.nanpercentile(v, 90)) if v.size else 0.0
        for c in "ABC":
            sel = v[(cls == c) & ~np.isnan(v)]
            out[f"pipeline.{m}_ms_mean.{c}"] = float(sel.mean()) if sel.size else 0.0
    return out
