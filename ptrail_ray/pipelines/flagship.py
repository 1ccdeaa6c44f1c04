"""Flagship end-to-end pipeline (the reference's "real workload",
SURVEY.md §3.3: clean → gap-detect → featurize → side-join → stats) and
the one Dataset-level way to featurize, :func:`flagship`:

    project (m1/m2, drop text) → [conv-bucket exchange, elided on a
    declared conv-partitioned layout] → sort → fused window kernels →
    tail (temporal extractors, as-of probe against the side table)

Each plan sorts a bucket once: the exchange sorts what it forms and runs
:func:`featurize_sorted`; the per-file plan runs :func:`featurize_bucket`,
which sorts. Giant conversations take the sub-range arm
(stages/split.py), which ends in the same tail: one schema. Projecting
BEFORE the all-to-all keeps the ~5x wider text out of the shuffle.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.parquet as pq

from ptrail_ray.schema import TEXT, TRANSCRIPT_COLUMNS
from ptrail_ray.sources.transcripts import read_transcripts
from ptrail_ray.stages.asof import put_side_table
from ptrail_ray.stages.bucket import map_conv_buckets, sort_bucket
from ptrail_ray.stages.kernels import (
    DEFAULT_GAP_SECONDS,
    DEFAULT_SEGMENT_SECONDS,
    compute_features,
    feature_tail,
    project_measures,
)
from ptrail_ray.stages.project import semi_join_keys
from ptrail_ray.stages.salt import detect_hot_convs
from ptrail_ray.stages.split import featurize_split, split_subrange_rows
from ptrail_ray.state.manifest import conv_partitioned_files


def featurize_sorted(
    table: pa.Table,
    *,
    side_ref=None,
    gap_seconds: float = DEFAULT_GAP_SECONDS,
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
    features: list[str] | None = None,
) -> pa.Table:
    """Fused kernels, then the tail, over one projected bucket of whole
    conversations already sorted by (conv_id, turn_idx, ts): the
    exchange plans' bucket kernel. ``side_ref`` is the joiner that
    :func:`stages.asof.put_side_table` built once in the driver; the task
    fetches and probes it."""
    table = compute_features(
        table, features, gap_seconds=gap_seconds, segment_seconds=segment_seconds
    )
    return feature_tail(table, side_ref)


def featurize_bucket(table: pa.Table, **kwargs) -> pa.Table:
    """The per-file plan's bucket kernel: project → sort →
    :func:`featurize_sorted` (same keywords) over whole conversations."""
    if TEXT in table.column_names:
        table = project_measures(table)  # row-wise: the sort skips text
    return featurize_sorted(sort_bucket(table), **kwargs)


def choose_plan(
    path: str,
    *,
    hot_threshold: int | None = None,
    split_threshold: int | None = None,
    partition_only: bool = False,
) -> "list[str] | None":
    """Input files of the exchange-free plan (one task per file), or
    ``None`` for the exchange plan. A declared complete conv-partitioned
    raw layout (`state.manifest.conv_partitioned_files`) elides the
    exchange unless salting, splitting or a partition-only re-bucket is
    requested: their bucket math is the hash exchange's."""
    if hot_threshold or split_threshold or partition_only:
        return None
    return conv_partitioned_files(path)


def flagship(
    ds,
    side: "pa.Table | None" = None,
    *,
    features: list[str] | None = None,
    num_buckets: int = 32,
    gap_seconds: float = DEFAULT_GAP_SECONDS,
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
    hot_threshold: int | None = None,
    split_threshold: int | None = None,
):
    """Featurize a canonical transcript Dataset through the conv-bucket
    exchange: ``features`` (default ``stages.kernels.ALL_FEATURES``),
    the temporal columns and, given a ``side`` table, its as-of
    attributes. The output carries no text column.

    ``hot_threshold``: when set, a cheap partial-count pre-pass detects
    conversations above the threshold and salts the exchange so each
    gets a dedicated partition (stages/salt.py); ``None`` skips the
    pre-pass (inputs known to be skew-bounded).

    ``split_threshold``: when set, conversations above it go through
    the sub-range arm (stages/split.py) and are unioned with the rest."""
    # detect on the RAW input so conv_id column pruning pushes down
    # into the parquet read (before any UDF blocks pushdown)
    hot_convs = () if hot_threshold is None else detect_hot_convs(ds, hot_threshold)
    # floor=1: giant detection gates the split arm's memory contract, so
    # it must be exhaustive — the salting floor heuristic could miss a
    # giant spread thinly over many blocks
    giants = (
        [] if split_threshold is None
        else detect_hot_convs(ds, split_threshold, floor=1)
    )
    kw = dict(features=features, gap_seconds=gap_seconds, segment_seconds=segment_seconds)
    if giants:
        split = featurize_split(
            semi_join_keys(ds, giants),
            side,
            subrange_rows=split_subrange_rows(split_threshold),
            num_buckets=num_buckets,
            **kw,
        )
        ds = semi_join_keys(ds, giants, anti=True)
    ds = ds.map_batches(project_measures, batch_format="pyarrow", batch_size=262144)
    side_ref = None if side is None else put_side_table(side)
    kern = partial(featurize_sorted, side_ref=side_ref, **kw)
    out = map_conv_buckets(ds, kern, num_buckets=num_buckets, hot_convs=hot_convs)
    return out.union(split) if giants else out


def flagship_auto(
    path: str,
    side: "pa.Table | None" = None,
    *,
    num_buckets: int = 32,
    gap_seconds: float = 120.0,
    features: list[str] | None = None,
    hot_threshold: int | None = None,
    read_blocks: int | None = None,
):
    """Flagship over a parquet dir, the plan picked from the STORAGE
    layout (:func:`choose_plan`): on a declared conv-partitioned layout
    (the bucketed-table contract) one task per file runs
    :func:`featurize_bucket` and the exchange never happens; otherwise
    :func:`flagship` runs. Both plans are value-identical
    (tests/test_flagship_auto.py)."""
    import ray.data as rd

    files = choose_plan(path, hot_threshold=hot_threshold)
    if files is None:
        ds = read_transcripts(
            path,
            **({"override_num_blocks": read_blocks} if read_blocks else {}),
        )
        return flagship(
            ds,
            side,
            num_buckets=num_buckets,
            gap_seconds=gap_seconds,
            features=features,
            hot_threshold=hot_threshold,
        )

    side_ref = None if side is None else put_side_table(side)

    def process_file(batch) -> pa.Table:
        return pa.concat_tables(
            featurize_bucket(
                pq.read_table(f, columns=TRANSCRIPT_COLUMNS),
                side_ref=side_ref,
                gap_seconds=gap_seconds,
                features=features,
            )
            for f in batch["item"]
        )

    return rd.from_items(files).map_batches(process_file, batch_size=1)
