"""Resumable partitioned Parquet sink with per-partition lineage manifests.

The reference has NO writer at all (SURVEY.md §2.1 — GUI dumps CSV); the
north_rule requires "resumable from checkpoint with per-partition lineage
+ metrics". Design (SURVEY.md §4.2):

    out_dir/
      bucket=00017/part.parquet          ← data, written to *.tmp then renamed
      _manifest/bucket=00017.json        ← {rows, bytes, n_convs, lineage, wall_s, version}

``bytes`` is the data file's size on disk and ``n_convs`` the number of
distinct conversations in the bucket.

Protocol: data first, manifest last, both via atomic rename — a bucket
counts as done IFF its manifest exists, so a crash mid-write leaves at
worst an orphan tmp/data file that is overwritten on retry (idempotent).
On resume, completed bucket ids are read from ``_manifest/`` and skipped
*before* the shuffle — a resumed job moves only the remaining buckets.

Each bucket is written INSIDE the bucket task (the terminal stage of the
engine's single shuffle), so output partitioning == shuffle partitioning
and no second exchange is paid. Partition metrics (row counts, wall
time) land in the manifests; ``load_metrics`` aggregates them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ptrail_ray.schema import CONV_ID, TS, TURN_IDX
from ptrail_ray.stages.bucket import BUCKET_ASSIGN_BATCH, assign_bucket, map_conv_buckets

MANIFEST_DIR = "_manifest"
KERNEL_VERSION = 1


def _manifest_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"{name}.json")


def _save_json(path: str, obj: dict) -> None:
    """Atomic JSON write: tmp file, then rename into place."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(obj, fh)
    os.replace(path + ".tmp", path)


def _load_json(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def load_job_manifest(out_dir: str) -> dict | None:
    return _load_json(_manifest_path(out_dir, "job"))


def save_job_manifest(out_dir: str, config: dict) -> None:
    """Persist the partition-defining job config (num_buckets, hot-conv
    list, split config) so a resumed run reuses the EXACT same bucket
    mapping. Re-deriving the hot set on resume is unsafe: the detection
    heuristic depends on block boundaries (ncpu / override_num_blocks),
    so a resume with different --num-cpus could shift salted bucket ids
    and silently skip rows that were never written (ADVICE r01)."""
    _save_json(_manifest_path(out_dir, "job"), config)


def save_layout_manifest(
    out_dir: str,
    files: list[str],
    *,
    payload: str = "transcripts",
    conv_partitioned: bool = True,
    producer: str = "",
) -> None:
    """Declare the STORAGE layout of a parquet dir: which files it
    consists of and whether every conversation lives whole inside one
    file ("conv_partitioned" — the bucketed-table contract). Written by
    the engine's own producers (the resumable sink's partition-only
    mode, the synthetic-corpus writer) once the layout is complete;
    readers (`pipelines.flagship.choose_plan`) use it to elide the
    conv exchange automatically. ``files`` are paths RELATIVE to
    ``out_dir``; ``payload`` distinguishes raw transcript layouts
    (re-featurizable) from featurized outputs (not an input)."""
    _save_json(
        _manifest_path(out_dir, "layout"),
        {
            "payload": payload,
            "conv_partitioned": bool(conv_partitioned),
            "files": list(files),
            "producer": producer,
            "kernel_version": KERNEL_VERSION,
        },
    )


def load_layout_manifest(out_dir: str) -> dict | None:
    return _load_json(_manifest_path(out_dir, "layout"))


def conv_partitioned_files(path: str) -> "list[str] | None":
    """Absolute file list IFF ``path`` declares a complete
    conversation-partitioned RAW-transcript layout; ``None`` otherwise
    (reader falls back to the general exchange path). Trust boundary:
    only the layout manifest counts — a directory of parquet files
    without one gets the exchange, however the files happen to be laid
    out, because a split conversation would silently produce per-file
    windows. Missing files (manifest newer than the data, partial
    copy) also disqualify — loud fallback beats wrong windows."""
    m = load_layout_manifest(path)
    if not m or not m.get("conv_partitioned") or m.get("payload") != "transcripts":
        return None
    files = [os.path.join(path, f) for f in m.get("files", [])]
    if not files or not all(os.path.exists(f) for f in files):
        return None
    return files


def completed_buckets(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for f in os.listdir(mdir):
        if f.startswith("bucket=") and f.endswith(".json"):
            out.add(int(f[len("bucket=") : -len(".json")]))
    return out


def load_metrics(out_dir: str) -> list[dict]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return []
    rows = []
    for f in sorted(os.listdir(mdir)):
        if f.startswith("bucket=") and f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                rows.append(json.load(fh))
    return rows


def _dictionary_columns(table: pa.Table) -> list[str]:
    """Columns the parquet writer dictionary-encodes: all but the
    null-free floating, timestamp and time columns, whose values seldom
    repeat, so a dictionary only costs write time. A column with nulls
    keeps its dictionary: its null slots then read back byte-for-byte
    as under the writer's default."""
    return [
        f.name
        for f, col in zip(table.schema, table.columns)
        if col.null_count
        or not (
            pa.types.is_floating(f.type)
            or pa.types.is_timestamp(f.type)
            or pa.types.is_time(f.type)
        )
    ]


def write_bucket(
    table: pa.Table, bucket: int, out_dir: str, *, lineage: str = "",
    data_format: str = "parquet",
) -> None:
    """Atomically write one bucket + its manifest (data first, manifest
    last; both renamed into place). ``data_format``: "parquet"
    (analytics) or "jsonl" (the training-export interchange format —
    one JSON object per row, ISO timestamps, NaN→null)."""
    if data_format not in ("parquet", "jsonl"):
        raise ValueError(f"unknown data_format {data_format!r}")
    t0 = time.perf_counter()
    bdir = os.path.join(out_dir, f"bucket={bucket:05d}")
    os.makedirs(bdir, exist_ok=True)

    data_tmp = os.path.join(bdir, f"part.{data_format}.tmp")
    data_final = os.path.join(bdir, f"part.{data_format}")
    if data_format == "parquet":
        # statistics only on the key columns, the only ones readers filter on
        pq.write_table(table, data_tmp, use_dictionary=_dictionary_columns(table),
                       write_statistics=[CONV_ID, TURN_IDX, TS])
    else:
        table.to_pandas().to_json(
            data_tmp, orient="records", lines=True, date_format="iso"
        )
    os.replace(data_tmp, data_final)

    manifest = {
        "bucket": bucket,
        "rows": table.num_rows,
        "bytes": os.path.getsize(data_final),
        "n_convs": pc.count_distinct(table["conv_id"]).as_py()
        if "conv_id" in table.column_names
        else 0,
        "lineage": lineage,
        "kernel_version": KERNEL_VERSION,
        "wall_s": round(time.perf_counter() - t0, 4),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    _save_json(_manifest_path(out_dir, f"bucket={bucket:05d}"), manifest)


def write_resumable(
    ds,
    out_dir: str,
    kernel_fn,
    *,
    num_buckets: int = 32,
    lineage: str = "",
    resume: bool = True,
    hot_convs: "list[str] | tuple" = (),
    data_format: str = "parquet",
):
    """Run ``kernel_fn`` on the sorted conv-contiguous buckets of
    ``stages.bucket.map_conv_buckets`` and write each result bucket
    atomically with a manifest. Returns the per-bucket metrics.

    On resume, buckets with existing manifests are filtered out BEFORE
    the shuffle (a narrow stage masking rows by their bucket id, added
    only when some bucket is done), so retried jobs move only unfinished
    data. The writer recomputes a bucket's id from its first conv_id.
    """
    os.makedirs(out_dir, exist_ok=True)
    done = completed_buckets(out_dir) if resume else set()

    if done:
        def pending(batch: pa.Table) -> pa.Table:
            b = assign_bucket(batch[CONV_ID], num_buckets, hot_convs)
            return batch.filter(pa.array(~np.isin(b, list(done))))

        ds = ds.map_batches(pending, batch_format="pyarrow", batch_size=BUCKET_ASSIGN_BATCH)

    def write_group(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int32()), "rows": pa.array([], pa.int64())})
        bucket = int(assign_bucket(table[CONV_ID].slice(0, 1), num_buckets, hot_convs)[0])
        result = kernel_fn(table)
        write_bucket(result, bucket, out_dir, lineage=lineage, data_format=data_format)
        return pa.table(
            {"bucket": pa.array([bucket], pa.int32()), "rows": pa.array([result.num_rows], pa.int64())}
        )

    return map_conv_buckets(
        ds, write_group, num_buckets=num_buckets, hot_convs=hot_convs
    ).to_pandas()
