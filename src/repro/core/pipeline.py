"""The paper's four flow-computation methods and the A/B/C taxonomy.

* **Greedy** — Section 4.1 scan (may under-estimate the max flow).
* **LP** — direct LP solve (Section 4.2.1 baseline).
* **Pre** — solubility test → greedy; else Algorithm 1 preprocessing,
  re-test, greedy or LP (Section 6.2 "Pre").
* **PreSim** — Pre, but a graph that still needs LP is first simplified
  with Algorithm 2 (Section 6.2 "PreSim"; the complete solution).

Classes (Section 6.2): A = soluble by greedy as-is; B = soluble after
preprocessing (including graphs preprocessing proves have zero flow);
C = still needs LP.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from ..lp.model import max_flow_lp
from .graph import TemporalGraph
from .greedy import greedy_flow
from .preprocess import preprocess
from .simplify import simplify
from .solubility import soluble_by_greedy


@dataclass(slots=True)
class MethodResult:
    flow: float
    millis: float
    cls: str = ""  # "A" / "B" / "C" where the method classifies


def run_greedy(g: TemporalGraph) -> MethodResult:
    t0 = time.perf_counter()
    f = greedy_flow(g)
    return MethodResult(f, (time.perf_counter() - t0) * 1e3)


def run_lp(g: TemporalGraph) -> MethodResult:
    t0 = time.perf_counter()
    f = max_flow_lp(g)
    return MethodResult(f, (time.perf_counter() - t0) * 1e3)


def _pre_core(g: TemporalGraph, *, simplify_before_lp: bool) -> MethodResult:
    t0 = time.perf_counter()
    if soluble_by_greedy(g):
        f = greedy_flow(g)
        return MethodResult(f, (time.perf_counter() - t0) * 1e3, "A")
    res = preprocess(g)
    if res.zero_flow:
        return MethodResult(0.0, (time.perf_counter() - t0) * 1e3, "B")
    h = res.graph
    if soluble_by_greedy(h):
        f = greedy_flow(h)
        return MethodResult(f, (time.perf_counter() - t0) * 1e3, "B")
    if simplify_before_lp:
        h = simplify(h).graph
        if soluble_by_greedy(h):  # simplification may collapse everything
            f = greedy_flow(h)
            return MethodResult(f, (time.perf_counter() - t0) * 1e3, "C")
    f = max_flow_lp(h)
    return MethodResult(f, (time.perf_counter() - t0) * 1e3, "C")


def run_pre(g: TemporalGraph) -> MethodResult:
    """Solubility test + Algorithm 1, LP only if still insoluble."""
    return _pre_core(g, simplify_before_lp=False)


def run_presim(g: TemporalGraph) -> MethodResult:
    """Pre + Algorithm 2 simplification before any LP call."""
    return _pre_core(g, simplify_before_lp=True)


def run_all_methods(g: TemporalGraph, *, lp_cap: int | None = None) -> dict:
    """Run all four methods; returns a flat dict (one result row).

    ``lp_cap``: skip the *direct* LP baseline for graphs with more
    interactions than the cap (mirrors the paper discarding >10K-
    interaction subgraphs because plain LP was too slow); Pre/PreSim
    still run, with LP applied to the reduced graph.
    """
    gr = run_greedy(g)
    pre = run_pre(g)
    presim = run_presim(g)
    if lp_cap is not None and g.n_interactions > lp_cap:
        lp_flow, lp_ms = float("nan"), float("nan")
    else:
        lp = run_lp(g)
        lp_flow, lp_ms = lp.flow, lp.millis
    return {
        "cls": pre.cls,
        "flow_greedy": gr.flow,
        "flow_lp": lp_flow,
        "flow_pre": pre.flow,
        "flow_presim": presim.flow,
        "ms_greedy": gr.millis,
        "ms_lp": lp_ms,
        "ms_pre": pre.millis,
        "ms_presim": presim.millis,
    }
