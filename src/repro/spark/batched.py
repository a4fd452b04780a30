"""Per-key passes: one Python call per core, one record per key.

``df.groupBy(key).applyInPandas(fn)`` calls the Python worker once per
key, and every call carries a fixed cost. On the 481 bitcoin seed
subgraphs at SF 0.1 a trivial ``fn`` took 4.6-7.9 s that way, against
0.06 s as a local loop.

:func:`apply_per_key` therefore hash-partitions the rows on the key into
exactly ``defaultParallelism`` partitions, sorts each partition by the
key and makes one ``mapInPandas`` call per partition. The call splits
its rows at the key boundaries and calls ``fn`` once per key; ``fn``
returns a record (a ``dict``) and the partition's records become one
frame.

The exchange is ``REPARTITION_BY_NUM``, which adaptive query execution
never coalesces. A ``groupBy`` on a hash bucket of the key plans an
``ENSURE_REQUIREMENTS`` exchange instead, and AQE merges such a small
shuffle (the 481 seed subgraphs are ~0.5 MB, under its 1 MB
``minPartitionSize``) into a single task, so the whole pass ran on one
core. One partition per core, not more: every extra Python task costs
more than the imbalance it evens out. At ``local[4]`` on a 4-vCPU VM the
bitcoin flow pass took 0.8-1.0 s with one partition per core, 1.1-1.5 s
with two and 1.6-2.0 s with four.

Each Python task pays a fixed start-up cost before it reads a row. The
worker's ``setup_spark_files`` calls ``importlib.invalidate_caches()``,
and Python 3.11's zipimporter then re-reads the archives on the worker's
``sys.path``: ``pyspark.zip``, the py4j zip and the ``spark-core`` jar.
That call alone took 166 ms in a worker; a one-partition ``rdd.map``
took a median 219 ms, against 87 ms for a one-partition JVM-only
``spark.range(...).count()`` (same VM, ``local[4]``).
"""
from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

#: ``fn(key, columns)``: the key's values and its rows' column arrays.
PerKeyFn = Callable[[Tuple, Dict[str, np.ndarray]], dict]


def apply_per_key(
    df: DataFrame, keys: Sequence[str], fn: PerKeyFn, schema: str
) -> DataFrame:
    """One row per distinct ``keys`` value of ``df``, typed by ``schema``.

    ``fn(key, columns)`` gets the key as a tuple of Python values and that
    key's rows as a ``dict`` of numpy arrays, one per column of ``df``, and
    returns the record's value columns. The key columns are added to the
    record, so ``schema`` names them too.
    """
    keys = list(keys)
    names = StructType.fromDDL(schema).names
    n = df.sparkSession.sparkContext.defaultParallelism

    def per_partition(batches):
        frames = [b for b in batches if len(b)]
        if not frames:
            return
        pdf = pd.concat(frames, ignore_index=True)
        columns = {c: pdf[c].to_numpy() for c in pdf.columns}
        new_key = np.zeros(len(pdf), dtype=bool)
        new_key[0] = True
        for k in keys:
            a = columns[k]
            new_key[1:] |= a[1:] != a[:-1]
        starts = np.flatnonzero(new_key)
        ends = np.append(starts[1:], len(pdf))
        key_values = zip(*(columns[k][starts].tolist() for k in keys))
        records = []
        for key, s, e in zip(key_values, starts.tolist(), ends.tolist()):
            rec = dict(zip(keys, key))
            rec.update(fn(key, {c: a[s:e] for c, a in columns.items()}))
            records.append(rec)
        yield pd.DataFrame.from_records(records, columns=names)

    return (
        df.repartition(n, *keys)
        # F.expr, not the names, which the sort would turn into F.col
        # calls, each capturing its Python call site.
        .sortWithinPartitions(*(F.expr(k) for k in keys))
        .mapInPandas(per_partition, schema)
    )
