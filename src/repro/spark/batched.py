"""Per-key pandas passes, run once per bucket of keys.

``df.groupBy(key).applyInPandas(fn)`` calls the Python worker once per
key, and every call carries a fixed cost. On the 481 bitcoin seed
subgraphs at SF 0.1 a trivial ``fn`` took 4.6-7.9 s that way, against
1.2-2.0 s when the same 481 groups were split into 16 buckets and
0.06 s as a local loop.
:func:`apply_per_key` therefore groups on a hash bucket of the key and
loops over the bucket's keys in pandas: the per-key function and its
output are unchanged, only the number of Python calls drops.
"""
from __future__ import annotations

from typing import Callable, Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Buckets per unit of the session's default parallelism. Measured with
#: ``perfbench/run.py --workload flow-bitcoin`` at ``local[4]`` on a
#: 4-vCPU VM, seeds 3/4/5, end-to-end seconds: x2 12.3/12.6/10.4,
#: x4 10.7/9.3/9.5, x16 11.7/12.3/12.2. Too few buckets leave cores idle
#: behind the bucket holding the heaviest seed (its LP alone takes ~2.3 s);
#: too many bring back the per-call cost.
BUCKETS_PER_CORE = 4

_BUCKET = "__bucket"


def apply_per_key(
    df: DataFrame,
    keys: Sequence[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    schema: str,
    *,
    n_buckets: int | None = None,
) -> DataFrame:
    """Same rows as ``df.groupBy(*keys).applyInPandas(fn, schema)``.

    ``fn`` still sees exactly the rows of one key (all of ``df``'s
    columns), but the Python worker is called once per bucket
    ``pmod(hash(keys), n_buckets)``. ``n_buckets`` defaults to
    :data:`BUCKETS_PER_CORE` times ``sparkContext.defaultParallelism``.
    """
    if n_buckets is None:
        n_buckets = BUCKETS_PER_CORE * df.sparkSession.sparkContext.defaultParallelism
    keys = list(keys)

    def per_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop(columns=_BUCKET)
        groups = pdf.groupby(keys, sort=False, dropna=False)
        return pd.concat([fn(g) for _, g in groups], ignore_index=True)

    return (
        df.withColumn(_BUCKET, F.pmod(F.hash(*keys), F.lit(n_buckets)))
        .groupBy(_BUCKET)
        .applyInPandas(per_bucket, schema=schema)
    )
