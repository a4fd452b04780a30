"""Tables 4-11 of the paper: run them, print ours next to the paper's rows.

Usage: ``python jobs/tables.py {4..11 | all} ...`` (or ``spark-submit``).
The scale is fixed here (``SF``, ``CAP``), so every run measures the
same data.
"""
import sys

from pyspark.sql import SparkSession

from repro.core.patterns import ALL_PATTERNS
from repro.spark.flow_jobs import compute_flows, runtime_table
from repro.spark.network import dataset_stats
from repro.spark.paths import c2_table, l2_table, l3_table
from repro.spark.pattern_search import pattern_table_row
from repro.spark.subgraphs import extract_seed_subgraphs, subgraph_stats
from repro.synth_data import interaction_network

#: Scale factor per profile, chosen so all eight tables finish in minutes
#: on a laptop-class machine (DESIGN.md §1). prosper's generator is dense:
#: its path and pattern counts explode faster than the sparser networks',
#: so it runs at half the SF.
SF = {"bitcoin": 0.1, "ctu13": 0.1, "prosper": 0.05}
#: Per-subgraph interaction cap (the paper used 10K; DESIGN.md §1.3).
CAP = 800
#: The one profile each of Tables 6-11 runs on; Tables 4-5 run on all three.
PROFILE = {6: "bitcoin", 7: "ctu13", 8: "prosper", 9: "bitcoin", 10: "ctu13", 11: "prosper"}

#: The paper's rows, per table and row label (dataset, class or pattern).
PAPER = {
    # dataset -> (#nodes, #edges, #interactions, avg flow)
    4: {
        "bitcoin": ("12M", "27.7M", "45.5M", 34.4),
        "ctu13": ("607K", "697K", "2.8M", 19.2),
        "prosper": ("88K", "3M", "3.04M", 76.0),
    },
    # dataset -> (#subgraphs, avg vertices, avg edges, avg interactions)
    5: {
        "bitcoin": (48_700, 5.16, 6.42, 448.4),
        "ctu13": (9_235, 3.24, 2.49, 15.9),
        "prosper": (137, 6.1, 8.0, 611.5),
    },
    # class -> (n, Greedy, LP, Pre, PreSim), msec per subgraph
    6: {
        "All": (48_700, 0.0491, 5775, 838.8, 524.5),
        "A": (35_400, 0.0074, 2667.18, 0.0078, 0.0078),
        "B": (7_891, 0.295, 7179.39, 0.575, 0.575),
        "C": (5_366, 0.353, 24_248, 7_615.8, 4_762.43),
    },
    7: {
        "All": (9_235, 0.0035, 10.313, 6.314, 0.7902),
        "A": (9_199, 0.0032, 3.835, 0.0033, 0.0033),
        "B": (3, 0.0037, 71.07, 0.0074, 0.0074),
        "C": (33, 0.0757, 1_810.38, 1_767.5, 220.2),
    },
    8: {
        "All": (137, 0.0027, 0.5105, 0.0352, 0.0157),
        "A": (94, 0.0015, 0.5072, 0.0016, 0.0016),
        "B": (25, 0.004, 0.5646, 0.008, 0.008),
        "C": (18, 0.0067, 0.4527, 0.2373, 0.0889),
    },
    # pattern -> (instances, avg flow, GB, PB); * = search truncated in the
    # paper. The keys are the patterns each table runs, in the paper's
    # order: only Prosper precomputes the C2 chain table (paper §6.3), so
    # only Table 11 has the chain patterns P1/RP1 ("PB not applicable"
    # elsewhere).
    9: {
        "P2": ("22.3G", 56.15, "23.2 hours", "30.59 sec"),
        "P3": ("2.8M", 4786.18, "3155.96 sec", "179.70 sec"),
        "P4": ("3000*", 697.04, "446.73 sec", "421.85 sec"),
        "P5": ("577.5M", 8069.2, "15 days (est.)", "179.74 sec"),
        "P6": ("2.04T*", 2.81, "1445 sec", "1059 sec"),
        "RP2": ("655K", 39.86, "422.79 sec", "53.273 msec"),
        "RP3": ("1.2M", 1.86, "306 min", "13.53 msec"),
    },
    10: {
        "P2": ("709M", 2888.90, "1952.61 sec", "762.65 msec"),
        "P3": ("182", 528_500, "55.71 sec", "8.61 msec"),
        "P4": ("91", 1_560_000, "58.564 sec", "2.518 sec"),
        "P5": ("208K", 13_116.5, "443.97 sec", "4.73 msec"),
        "P6": ("586", 52_892, "410.4 sec", "14.87 msec"),
        "RP2": ("51266", 11_942.65, "24.15 sec", "0.63 msec"),
        "RP3": ("91", 61_485.58, "375.39 sec", "0.035 msec"),
    },
    11: {
        "P1": ("5.12M", 45.89, "119.08 sec", "2.80 sec"),
        "P2": ("201", 223.23, "88.66 msec", "0.004 msec"),
        "P3": ("268", 100.44, "3.57 sec", "1.3 msec"),
        "P4": ("98", 299.55, "3.54 sec", "0.723 msec"),
        "P5": ("1833", 121.47, "605.67 msec", "0.021 msec"),
        "P6": ("1296", 43.55, "474.61 msec", "11.13 msec"),
        "RP1": ("25.5M", 25.12, "133.37 sec", "3.01 sec"),
        "RP2": ("260", 58.061, "0.016 msec", "0.004 msec"),
        "RP3": ("532", 10.94, "503.89 msec", "0.040 msec"),
    },
}

USAGE = "usage: python jobs/tables.py {4..11 | all} ..."


def flow_pass(spark: SparkSession, profile: str, sf: float):
    """Tables 6-8: extract the seed subgraphs, run the four methods on
    each (results cached), and return the (results, runtime table) frames."""
    interactions = interaction_network(spark, profile=profile, sf=sf)
    sub = extract_seed_subgraphs(interactions, max_interactions=CAP)
    results = compute_flows(sub).cache()
    return results, runtime_table(results)


def run(spark: SparkSession, table: int, *, sf: float | None = None) -> list[dict]:
    """One dict per row of ``table``, its label first. ``sf`` replaces
    the SF of every profile the table runs on."""
    if table in (4, 5):
        rows = []
        for profile in SF:
            net = interaction_network(spark, profile=profile, sf=sf or SF[profile])
            if table == 4:
                stats = dataset_stats(net)
            else:
                stats = subgraph_stats(extract_seed_subgraphs(net, max_interactions=CAP))
            rows.append({"dataset": profile, **stats.collect()[0].asDict()})
        return rows

    profile = PROFILE[table]
    sf = sf or SF[profile]
    if table <= 8:
        results, runtimes = flow_pass(spark, profile, sf)
        rows = [r.asDict() for r in runtimes.collect()]
        results.unpersist()
        return rows

    # Not cached: every entry point below checkpoints its input itself.
    interactions = interaction_network(spark, profile=profile, sf=sf)
    paths = {"l2": l2_table(interactions), "l3": l3_table(interactions)}
    if "P1" in PAPER[table]:
        paths["c2"] = c2_table(interactions)
    for df in paths.values():
        df.cache().count()
    rows = [
        pattern_table_row(interactions, ALL_PATTERNS[name], **paths)
        for name in PAPER[table]
    ]
    for df in paths.values():
        df.unpersist()
    return rows


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_table(table: int, rows: list[dict]) -> None:
    """Print ``rows``, each next to the paper's row with the same label."""
    on = PROFILE.get(table, "all profiles")
    print(f"\nTable {table} — {on} (ours | paper in parens)")
    widths = {c: max(len(c), 10) for c in rows[0]}
    print(" ".join(f"{c:>{w}s}" for c, w in widths.items()))
    for r in rows:
        line = " ".join(f"{_fmt(r[c]):>{w}s}" for c, w in widths.items())
        paper = PAPER[table].get(next(iter(r.values())))
        print(f"{line}   (paper: {', '.join(map(str, paper))})" if paper else line)


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    choices = {str(t): [t] for t in PAPER} | {"all": list(PAPER)}
    if not args or any(a not in choices for a in args):
        raise SystemExit(USAGE)
    spark = SparkSession.builder.appName("tables").getOrCreate()
    print(f"SF {SF}; cap {CAP} interactions per subgraph")
    for table in (t for a in args for t in choices[a]):
        print_table(table, run(spark, table))
    spark.stop()


if __name__ == "__main__":
    main()
