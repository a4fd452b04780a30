"""solve-prosper: the four flow methods alone, in this Python process.

Set-up extracts the prosper subgraphs on Spark (SF 0.05, cap 800) and
builds a ``TemporalGraph`` per subgraph; the timed body calls
``run_greedy``, ``run_lp``, ``run_pre`` and ``run_presim`` on every graph
and starts no Spark job. LP, Algorithm 1 and Algorithm 2 do the work;
prosper's dense class-C graphs give the LP a steady tail.
"""
from __future__ import annotations

import numpy as np

import harness as H
import patterns_ctu13
from repro.core.graph import TemporalGraph
from repro.core.greedy import greedy_flow
from repro.core.pipeline import run_greedy, run_lp, run_pre, run_presim
from repro.core.preprocess import preprocess
from repro.core.simplify import simplify
from repro.core.solubility import soluble_by_greedy
from repro.lp.model import build_lp
from repro.lp.simplex import solve_lp_maximize
from repro.maxflow_static.time_expanded import max_flow_time_expanded
from repro.spark.subgraphs import extract_seed_subgraphs

PROFILE, SF, CAP = "prosper", 0.05, 800
INPUTS = {
    "profile": PROFILE,
    "sf": SF,
    "max_interactions": CAP,
    "traced_patterns": patterns_ctu13.INPUTS,
}
#: A set-up includes a Spark extraction (~5 s), so three. The timed body is
#: plain Python with no JIT or worker start: over five two-pass runs its
#: first pass was no slower than its second, so it needs no warm-up.
SETUP_REPS, WARMUP = 3, 0
RUNNERS = {"greedy": run_greedy, "lp": run_lp, "pre": run_pre, "presim": run_presim}


def setup(spark, seed: int, network_seed: int) -> dict:
    net = spark.createDataFrame(H.network_pdf(PROFILE, SF, network_seed, seed))
    pdf = extract_seed_subgraphs(net, max_interactions=CAP).toPandas()
    graphs = [
        TemporalGraph.from_interactions(zip(g["src"], g["dst"], g["ts"], g["qty"]))
        for _, g in pdf.groupby("seed", sort=True)
    ]
    return {"graphs": graphs}


def body(spark, st: dict) -> list[dict]:
    return [{m: run(g) for m, run in RUNNERS.items()} for g in st["graphs"]]


def collect(out):
    return out


def ops_on_crash(st: dict) -> int:
    return len(st["graphs"])


def _oracle(st: dict) -> list[float]:
    """Exact flows from the time-expanded reduction (outside the timed
    body; computed once per run)."""
    if "oracle" not in st:
        st["oracle"] = [max_flow_time_expanded(g) for g in st["graphs"]]
    return st["oracle"]


def check(st: dict, res: list[dict]) -> tuple[int, int]:
    """Each graph against the other methods and the exact solver, then the
    paper shape of the means."""
    failed = 0
    for r, exact in zip(res, _oracle(st)):
        f = {m: r[m].flow for m in H.METHODS}
        failed += not (H.check_flows(*f.values()) and H.same(f["lp"], exact))
    mean = _means(res)
    a = [r["presim"].millis for r in res if r["pre"].cls == "A"]
    failed += not H.check_shape(mean, float(np.mean(a)) if a else None)
    return len(res) + 1, failed


def _means(res: list[dict]) -> dict:
    return {m: float(np.mean([r[m].millis for r in res])) for m in H.METHODS}


def report(res: list[dict]) -> dict:
    """The paper's Table 8 "All" row and the tail, in ms per subgraph."""
    lp = [r["lp"].millis for r in res]
    presim = [r["presim"].millis for r in res]
    return {
        "subgraphs": (len(res), "count"),
        "class_C": (sum(r["pre"].cls == "C" for r in res), "count"),
        **{f"{m}_ms_mean": (v, "ms") for m, v in _means(res).items()},
        "lp_ms_p90": (float(np.percentile(lp, 90)), "ms"),
        "presim_ms_p90": (float(np.percentile(presim, 90)), "ms"),
    }


class _Replay:
    """Pre, PreSim and the direct LP rebuilt from the public stage
    functions, with a span around each stage call."""

    def __init__(self, tr: H.Tracer):
        self.tr = tr
        self.counts: dict[str, float] = {}

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str):
        return self.tr.span(name, jobs=False)

    def lp(self, g: TemporalGraph, kind: str) -> float:
        with self.span(f"lp_model.build.{kind}"):
            c, A, b, constant, var_rows = build_lp(g)
        self.add(f"lp_model.vars.{kind}", len(var_rows))
        self.add(f"lp_model.rows.{kind}", A.shape[0])
        if not var_rows:
            return constant
        with self.span(f"simplex.solve.{kind}"):
            res = solve_lp_maximize(c, A, b)
        self.add(f"simplex.iterations.{kind}", res.iterations)
        return res.value + constant

    def greedy(self, g: TemporalGraph) -> float:
        with self.span("greedy"):
            return greedy_flow(g)

    def soluble(self, g: TemporalGraph) -> bool:
        with self.span("solubility"):
            return soluble_by_greedy(g)

    def pre(self, g: TemporalGraph, *, simplify_first: bool) -> tuple[float, str]:
        kind = "presim" if simplify_first else "pre"
        if self.soluble(g):
            return self.greedy(g), "A"
        with self.span("preprocess"):
            res = preprocess(g)
        if simplify_first:  # count Algorithm 1's removals once per graph
            self.add("preprocess.interactions_removed", res.interactions_removed)
            self.add("preprocess.edges_removed", res.edges_removed)
            self.add("preprocess.vertices_removed", res.vertices_removed)
        if res.zero_flow:
            return 0.0, "B"
        h = res.graph
        if self.soluble(h):
            return self.greedy(h), "B"
        if simplify_first:
            with self.span("simplify"):
                sres = simplify(h)
            self.add("simplify.chains_reduced", sres.chains_reduced)
            h = sres.graph
            if self.soluble(h):
                return self.greedy(h), "C"
        return self.lp(h, kind), "C"


def traced(spark, st: dict, tr: H.Tracer, ref: list[dict]) -> dict:
    """The body replayed stage by stage, then the exact solver (outside
    the traced pass). Each replay must give the flow (and for Pre the
    class) that ``run_*`` gave in ``ref``, the last untraced pass."""
    rp = _Replay(tr)
    graphs = st["graphs"]
    out = []
    with tr.span("pass", jobs=False) as p:
        for g in graphs:
            r = {}
            with tr.span("pipeline.greedy", jobs=False) as s:
                r["greedy"] = (rp.greedy(g), s)
            with tr.span("pipeline.lp", jobs=False) as s:
                r["lp"] = (rp.lp(g, "direct"), s)
            with tr.span("pipeline.pre", jobs=False) as s:
                r["pre"] = (rp.pre(g, simplify_first=False), s)
            with tr.span("pipeline.presim", jobs=False) as s:
                r["presim"] = (rp.pre(g, simplify_first=True), s)
            out.append(r)
    for g in graphs:
        with tr.span("time_expanded", jobs=False):
            max_flow_time_expanded(g)

    failed = 0
    for r, want in zip(out, ref):
        failed += not (
            H.same(r["greedy"][0], want["greedy"].flow)
            and H.same(r["lp"][0], want["lp"].flow)
            and H.same(r["pre"][0][0], want["pre"].flow)
            and r["pre"][0][1] == want["pre"].cls
            and H.same(r["presim"][0][0], want["presim"].flow)
        )

    def ms(name: str) -> float:
        return tr.seconds(name) * 1e3

    def dur(s: dict) -> float:
        return (s["end"] - s["start"]) * 1e3

    c = rp.counts
    layer = {
        **H.pipeline_metrics(
            [r["pre"][0][1] for r in out],
            {m: [dur(r[m][1]) for r in out] for m in H.METHODS},
        ),
        "solubility.ms": ms("solubility"),
        "greedy.ms": ms("greedy"),
        "preprocess.ms": ms("preprocess"),
        "simplify.ms": ms("simplify"),
        "time_expanded.ms": ms("time_expanded"),
    }
    for key in (
        "preprocess.interactions_removed",
        "preprocess.edges_removed",
        "preprocess.vertices_removed",
        "simplify.chains_reduced",
    ):
        layer[key] = c.get(key, 0)
    for kind in ("direct", "presim"):
        layer[f"lp_model.build_ms.{kind}"] = ms(f"lp_model.build.{kind}")
        layer[f"simplex.solve_ms.{kind}"] = ms(f"simplex.solve.{kind}")
        for key in ("lp_model.vars", "lp_model.rows", "simplex.iterations"):
            layer[f"{key}.{kind}"] = c.get(f"{key}.{kind}", 0)
    # Pattern search has no workload of its own in BENCHMARK.json (its
    # runs did not fit the time budget); its layers are traced here.
    with tr.span("patterns-ctu13"):
        pat = patterns_ctu13.traced_on_own_network(spark, st, tr)
    layer.update(
        (k, v) for k, v in pat["layer"].items() if k.startswith(("paths.", "pattern_search."))
    )
    return {
        "wall_s": p["end"] - p["start"],
        "layer": layer,
        "gate": (len(out) + pat["gate"][0], failed + pat["gate"][1]),
    }
