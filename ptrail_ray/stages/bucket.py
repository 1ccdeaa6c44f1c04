"""Conv-contiguity shuffle: the engine's ONE wide exchange.

The reference re-sorts the whole frame on every operator return
(``ptrail/core/TrajectoryDF.py:86-87`` via each constructor — SURVEY.md
§4.3). This engine instead establishes the ordering invariant exactly once:

    every bucket contains *whole* conversations, and within the bucket rows
    are sorted by (conv_id, turn_idx, ts)

and all downstream ordered kernels are vectorized batch transforms that
preserve it. The exchange is expressed as

    map_batches(add _bucket = stable_hash(conv_id) % B)   # narrow
    groupby(_bucket).map_groups(kernel)                   # ONE shuffle

so Ray Data's sort-based shuffle moves each row once, keyed on a small
int key. B (``num_buckets``) is the scale knob: choose
``B ≈ total_bytes / target_bucket_bytes`` so one bucket (the unit a
single task sorts in memory) stays ~100-500 MB. A conversation is never
split across buckets (hash on conv_id), which is what the window kernels
need; skew is bounded because no conversation outgrows a bucket — for
truly giant conversations the escape hatch is sub-range splitting with
K-row boundary overlap (K = max NaN width, 3), documented in SURVEY.md
§7.4-2.

Stable hashing: ``pandas.util.hash_array`` (SipHash-1-3 with a fixed
key) — deterministic across processes and nodes, vectorized, and
dictionary-aware via ``categorize=True``. NEVER Python's ``hash()``
(per-process salted).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ptrail_ray.schema import CONV_ID, TS, TURN_IDX

BUCKET_COL = "_bucket"
DEFAULT_NUM_BUCKETS = 32
# Narrow pre-shuffle stages fuse with the parquet read, whose iterator
# yields ~10k-row chunks; an explicit large batch_size coalesces them so
# vectorized kernels run on ~256k-row batches, not thousands of slivers.
BUCKET_ASSIGN_BATCH = 262144


def stable_hash(values: np.ndarray | pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic uint64 hash of a string column (vectorized)."""
    if isinstance(values, (pa.ChunkedArray, pa.Array)):
        values = values.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np.asarray(values), categorize=True)


def assign_bucket(
    conv_ids, num_buckets: int, hot_convs: "list[str] | tuple" = ()
) -> np.ndarray:
    """Bucket id per row (int32): ``stable_hash(conv_ids) % num_buckets``.

    The engine's one bucket hash. ``conv_ids`` may also be a list of key
    columns; their hashes are then mixed (Fibonacci, uint64 wraparound,
    order-sensitive) so every composite key still lands whole in one
    bucket. Each conversation in ``hot_convs`` (salting, stages/salt.py)
    instead gets its own dedicated bucket ``num_buckets + i``, ``i`` its
    rank in sorted order, so no two hot conversations share a bucket and
    no cold bucket inherits a whale.
    """
    cols = conv_ids if isinstance(conv_ids, list) else [conv_ids]
    h = stable_hash(cols[0])
    for c in cols[1:]:
        h = h * np.uint64(0x9E3779B97F4A7C15) + stable_hash(c)
    bucket = (h % np.uint64(num_buckets)).astype(np.int32)
    if len(hot_convs):
        hot = pa.array(sorted(hot_convs), type=pa.string())
        hot_idx = pc.fill_null(pc.index_in(cols[0], value_set=hot), -1)
        hot_np = hot_idx.to_numpy(zero_copy_only=False)
        bucket = np.where(hot_np >= 0, num_buckets + hot_np, bucket).astype(np.int32)
    return bucket


DEFAULT_SORT_KEYS = (CONV_ID, TURN_IDX, TS)


def sort_bucket(table: pa.Table, sort_keys: tuple = DEFAULT_SORT_KEYS) -> pa.Table:
    """Sort one bucket by the stable total order (default: conv_id,
    turn_idx, ts)."""
    idx = pc.sort_indices(table, sort_keys=[(k, "ascending") for k in sort_keys])
    return table.take(idx)


def conv_runs(conv: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Run-length structure of a sorted conv_id column.

    Returns ``(starts, lengths)``: ``starts[k]`` is the row index of the
    first turn of conversation k within this bucket. Computed with Arrow
    kernels (no Python-object string conversion).
    """
    n = len(conv)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    neq = pc.not_equal(conv.slice(1), conv.slice(0, n - 1))
    change = np.flatnonzero(neq.to_numpy(zero_copy_only=False)) + 1
    starts = np.concatenate(([0], change)).astype(np.int64)
    lengths = np.diff(np.concatenate((starts, [n]))).astype(np.int64)
    return starts, lengths


def map_conv_buckets(
    ds,
    fn: Callable[[pa.Table], pa.Table],
    *,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    hot_convs: "list[str] | tuple" = (),
    key_col: str = CONV_ID,
    sort_keys: tuple = DEFAULT_SORT_KEYS,
    **map_groups_kwargs,
):
    """Apply ``fn`` to whole sorted entity-contiguous buckets.

    ``fn`` receives one bucket as a ``pyarrow.Table`` already sorted by
    ``sort_keys`` (default (conv_id, turn_idx, ts)) and must return a
    ``pyarrow.Table``. This is the engine's single wide shuffle;
    everything downstream is narrow and order-preserving. ``hot_convs``
    salts the exchange: each gets a dedicated bucket (`assign_bucket`).
    """

    def _wrapped(table: pa.Table) -> pa.Table:
        if BUCKET_COL in table.column_names:
            table = table.drop_columns([BUCKET_COL])
        return fn(sort_bucket(table, sort_keys))

    def _add_bucket(batch: pa.Table) -> pa.Table:
        bucket = assign_bucket(batch[key_col], num_buckets, hot_convs)
        return batch.append_column(BUCKET_COL, pa.array(bucket, type=pa.int32()))

    return (
        ds.map_batches(_add_bucket, batch_format="pyarrow", batch_size=BUCKET_ASSIGN_BATCH)
        .groupby(BUCKET_COL)
        .map_groups(_wrapped, batch_format="pyarrow", **map_groups_kwargs)
    )


def _drop_schema_metadata(block: pa.Table) -> pa.Table:
    # pyarrow 16 cannot hash pandas' b'pandas' schema metadata: Ray's concat
    # of blocks carrying it logs "Failed to hash the schemas"
    return block.replace_schema_metadata(None)


def grouped_agg_by_bucket(
    ds,
    key_col: "str | list[str]",
    agg_fn: Callable,
    *,
    num_buckets: int = 64,
    partial_batch: int = 1 << 20,
    group_format: str = "pandas",
):
    """Many-small-groups aggregation without per-group Python overhead.

    Ray's ``groupby(key).aggregate(...)`` / ``map_groups`` pay a Python
    call PER GROUP (~ms each — measured 30+s for 10k groups), which is
    pathological for high-cardinality keys. This helper hash-buckets the
    key into ``num_buckets`` coarse partitions and runs ONE vectorized
    ``agg_fn`` (pandas/Arrow groupby inside) per bucket:

        shuffle keyed on a small int; #Python calls == num_buckets.

    ``key_col`` may be a list of columns — the bucket key is then a
    mixed hash of all of them (every composite group still lands whole
    in one bucket), which avoids packing multi-part identities into one
    overflow-prone integer column.

    ``agg_fn: DataFrame -> DataFrame`` receives all rows of a bucket
    (every group fully contained) and aggregates internally. With
    ``group_format="pyarrow"`` it receives/returns at Arrow level
    instead — use when the kernel must see exact Arrow types (pandas
    blocks widen null-padded int/bool columns to float64).
    """
    key_cols = [key_col] if isinstance(key_col, str) else list(key_col)

    def add_key_bucket(batch: pa.Table) -> pa.Table:
        b = assign_bucket([batch[c] for c in key_cols], num_buckets)
        return batch.append_column(BUCKET_COL, pa.array(b, pa.int32()))

    if group_format == "pyarrow":
        def per_bucket(t):
            return agg_fn(t.drop_columns([BUCKET_COL]))
    else:
        def per_bucket(df):
            df = df.drop(columns=[BUCKET_COL])
            return agg_fn(df)

    return (
        ds.map_batches(_drop_schema_metadata, batch_format="pyarrow", batch_size=None)
        .map_batches(add_key_bucket, batch_format="pyarrow", batch_size=partial_batch)
        .groupby(BUCKET_COL)
        .map_groups(per_bucket, batch_format=group_format)
    )
