"""Tables 9-11 — pattern search: instances, average flow, GB vs PB time.

Usage: ``spark-submit jobs/pattern_tables.py <bitcoin|ctu13|prosper> [sf]``.

Per the paper: Bitcoin and CTU-13 precompute only the L2/L3 cycle
tables (so P1/RP1 are "PB not applicable" and are skipped there);
Prosper additionally precomputes the 2-hop chain table C2 and runs
P1/RP1 too.
"""
import sys

from pyspark.sql import SparkSession

from repro.core.patterns import ALL_PATTERNS
from repro.spark.paths import c2_table, l2_table, l3_table
from repro.spark.pattern_search import pattern_table_row
from repro.synth_data import interaction_network

# pattern -> (instances, avg flow, GB, PB) as printed in the paper.
PAPER_TABLES = {
    "bitcoin": {  # Table 9 (* = search truncated in the paper)
        "P2": ("22.3G", 56.15, "23.2 hours", "30.59 sec"),
        "P3": ("2.8M", 4786.18, "3155.96 sec", "179.70 sec"),
        "P4": ("3000*", 697.04, "446.73 sec", "421.85 sec"),
        "P5": ("577.5M", 8069.2, "15 days (est.)", "179.74 sec"),
        "P6": ("2.04T*", 2.81, "1445 sec", "1059 sec"),
        "RP2": ("655K", 39.86, "422.79 sec", "53.273 msec"),
        "RP3": ("1.2M", 1.86, "306 min", "13.53 msec"),
    },
    "ctu13": {  # Table 10
        "P2": ("709M", 2888.90, "1952.61 sec", "762.65 msec"),
        "P3": ("182", 528_500, "55.71 sec", "8.61 msec"),
        "P4": ("91", 1_560_000, "58.564 sec", "2.518 sec"),
        "P5": ("208K", 13_116.5, "443.97 sec", "4.73 msec"),
        "P6": ("586", 52_892, "410.4 sec", "14.87 msec"),
        "RP2": ("51266", 11_942.65, "24.15 sec", "0.63 msec"),
        "RP3": ("91", 61_485.58, "375.39 sec", "0.035 msec"),
    },
    "prosper": {  # Table 11
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
PAPER_TABLE_NO = {"bitcoin": 9, "ctu13": 10, "prosper": 11}

PATTERNS_BY_DATASET = {
    "bitcoin": ["P2", "P3", "P4", "P5", "P6", "RP2", "RP3"],
    "ctu13": ["P2", "P3", "P4", "P5", "P6", "RP2", "RP3"],
    "prosper": ["P1", "P2", "P3", "P4", "P5", "P6", "RP1", "RP2", "RP3"],
}


def run(spark: SparkSession, profile: str, sf: float = 0.1) -> list[dict]:
    # Not cached: every entry point below checkpoints its input itself.
    interactions = interaction_network(spark, profile=profile, sf=sf)
    l2 = l2_table(interactions).cache()
    l3 = l3_table(interactions).cache()
    l2.count(), l3.count()
    c2 = None
    if profile == "prosper":  # only Prosper precomputes chains (paper §6.3)
        c2 = c2_table(interactions).cache()
        c2.count()
    rows = []
    for name in PATTERNS_BY_DATASET[profile]:
        rows.append(
            pattern_table_row(
                interactions, ALL_PATTERNS[name], l2=l2, l3=l3, c2=c2
            )
        )
    return rows


def print_table(profile: str, rows: list[dict]) -> None:
    print(f"\nTable {PAPER_TABLE_NO[profile]} — pattern search on {profile} "
          "(ours | paper in parens)")
    print(f"{'pattern':8s} {'instances':>10s} {'avg flow':>12s} {'GB':>10s} {'PB':>10s}")
    for r in rows:
        paper = PAPER_TABLES[profile].get(r["pattern"])
        pb = f"{r['pb_seconds']:.3f}s" if r["pb_seconds"] is not None else "n/a"
        line = (
            f"{r['pattern']:8s} {r['instances']:>10d} {r['avg_flow']:>12.2f} "
            f"{r['gb_seconds']:>9.2f}s {pb:>10s}"
        )
        if paper:
            line += f"   (paper: n={paper[0]}, flow={paper[1]}, GB={paper[2]}, PB={paper[3]})"
        print(line)


def main() -> None:
    profile = sys.argv[1] if len(sys.argv) > 1 else "ctu13"
    sf = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1
    spark = SparkSession.builder.appName(f"pattern-tables-{profile}").getOrCreate()
    print_table(profile, run(spark, profile, sf))
    spark.stop()


if __name__ == "__main__":
    main()
