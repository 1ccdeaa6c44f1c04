"""Flagship end-to-end pipeline (the reference's "real workload",
SURVEY.md §3.3: clean → gap-detect → featurize → side-join → stats).

    read transcripts → [conv-bucket exchange, elided on a declared
    conv-partitioned layout] → one bucket task (:func:`featurize_bucket`):
    project (m1/m2, drop text) → sort → fused window kernels → temporal
    extractors → as-of probe against the broadcast side table

Every plan runs the same bucket kernel, and :func:`choose_plan` decides
whether the exchange runs. On the exchange plan the projection happens
BEFORE the all-to-all ("prune at the read"): the kernels consume only
the scalar measure channels, and the text column dominates row width
~5x; the feature table is keyed by (conv_id, turn_idx) and joins back
to the source text lazily.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ptrail_ray.schema import TEXT, TRANSCRIPT_COLUMNS, M1, M2
from ptrail_ray.sources.transcripts import read_transcripts
from ptrail_ray.stages.asof import AsofJoiner, put_side_table
from ptrail_ray.stages.bucket import map_conv_buckets, sort_bucket
from ptrail_ray.stages.kernels import ALL_FEATURES, compute_features
from ptrail_ray.stages.temporal import add_temporal_columns
from ptrail_ray.state.manifest import conv_partitioned_files


def project_measures(batch: pa.Table) -> pa.Table:
    """Stateless pre-shuffle projection: text → (m1, m2), drop text."""
    m1 = pc.coalesce(
        pc.cast(pc.utf8_length(batch[TEXT]), pa.int64()), pa.scalar(0, pa.int64())
    )
    m2 = pc.coalesce(
        pc.cast(pc.binary_length(batch[TEXT]), pa.int64()), pa.scalar(0, pa.int64())
    )
    out = batch.drop_columns([TEXT])
    return out.append_column(M1, m1).append_column(M2, m2)


def featurize_bucket(
    table: pa.Table,
    *,
    side_ref=None,
    gap_seconds: float = 120.0,
    features: list[str] | None = None,
) -> pa.Table:
    """The flagship's one bucket kernel: project → sort → fused kernels
    → temporal → as-of probe, over a table of whole conversations.

    ``table`` may still carry text (a file of a conv-partitioned layout)
    or arrive projected (the exchange plan projects before the shuffle).
    ``side_ref`` (:func:`stages.asof.put_side_table`) backfills the side
    attributes inline; building the joiner once per bucket is cheap next
    to the kernels, and keeps the probe inside the bucket task."""
    if TEXT in table.column_names:
        # row-wise, so it commutes with the sort, which then no longer
        # copies the text
        table = project_measures(table)
    table = sort_bucket(table)
    table = compute_features(table, features or ALL_FEATURES, gap_seconds=gap_seconds)
    table = add_temporal_columns(table)
    if side_ref is not None:
        table = AsofJoiner(side_ref)(table)
    return table


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
    num_buckets: int = 32,
    gap_seconds: float = 120.0,
    features: list[str] | None = None,
    hot_threshold: int | None = None,
):
    """Full featurization pipeline over a canonical transcript Dataset,
    through the conv-bucket exchange.

    ``hot_threshold``: when set, a cheap partial-count pre-pass detects
    conversations above the threshold and salts the exchange so each
    gets a dedicated partition (stages/salt.py); ``None`` skips the
    pre-pass (inputs known to be skew-bounded)."""
    hot_convs = ()
    if hot_threshold is not None:
        # detect on the RAW input so conv_id column pruning pushes down
        # into the parquet read (before any UDF blocks pushdown)
        from ptrail_ray.stages.salt import detect_hot_convs

        hot_convs = detect_hot_convs(ds, hot_threshold)

    ds = ds.map_batches(project_measures, batch_format="pyarrow", batch_size=262144)
    kern = partial(
        featurize_bucket,
        side_ref=None if side is None else put_side_table(side),
        gap_seconds=gap_seconds,
        features=features,
    )
    return map_conv_buckets(ds, kern, num_buckets=num_buckets, hot_convs=hot_convs)


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
