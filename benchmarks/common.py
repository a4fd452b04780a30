"""Shared knobs for the table-reproduction benchmarks.

Scale factors are chosen so the whole bench suite finishes in minutes
on a 16-core laptop-class machine (DESIGN.md §1 substitution 2-3):
SF=0.1 for the bitcoin/ctu13 profiles and SF=0.05 for prosper, whose
profile is much denser (its path/pattern counts explode faster than
the sparser networks'). SF and cap are fixed so that every run
measures the same data.
"""
import contextlib
import io
from pathlib import Path

BENCH_SF = 0.1
#: prosper's generator is dense; run it at half the default SF.
BENCH_SF_PROSPER = 0.05
#: per-subgraph interaction cap (the paper used 10K; see DESIGN.md).
BENCH_CAP = 800


def sf_for(profile: str) -> float:
    return BENCH_SF_PROSPER if profile == "prosper" else BENCH_SF


#: Reproduced tables are appended here on every bench run, because
#: ``pytest benchmarks/ --benchmark-only`` captures stdout — the file is
#: the durable copy of the paper-style tables (EXPERIMENTS.md quotes it).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "bench_results.md"


def report(text: str) -> None:
    """Print ``text`` and append it to ``bench_results.md``."""
    print(text)
    with RESULTS_PATH.open("a") as f:
        f.write(text + "\n")


def report_printed(fn) -> None:
    """Run ``fn`` capturing its prints, then route them through report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    report(buf.getvalue().rstrip("\n"))
