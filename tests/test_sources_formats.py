"""CSV / JSON-lines ingest round-trip (VERDICT r01 item 8): the same
corpus written to csv/jsonl and read back through
read_transcripts_csv/json must featurize identically to the Arrow
path (reference core/Datasets.py:28-207 loads the same formats)."""

import os

import pandas as pd
import pytest
import ray.data as rd


def _featurize_sorted(ds):
    from ptrail_ray.pipelines.flagship import flagship

    out = flagship(ds, num_buckets=4).to_pandas()
    return (
        out.sort_values(["conv_id", "turn_idx"], kind="stable")
        .reset_index(drop=True)
        .sort_index(axis=1)
    )


@pytest.fixture(scope="module")
def format_dirs(tmp_path_factory, synth_table):
    pdf = synth_table.to_pandas()
    base = tmp_path_factory.mktemp("fmt")
    csv_dir = base / "csv"
    json_dir = base / "json"
    csv_dir.mkdir()
    json_dir.mkdir()
    pdf.to_csv(csv_dir / "part.csv", index=False)
    pdf.to_json(
        json_dir / "part.json",
        orient="records",
        lines=True,
        date_format="iso",
        date_unit="us",
    )
    return str(csv_dir), str(json_dir)


def _null_empty_strings(ds):
    """CSV represents '' and NULL identically; canonicalize the Arrow
    reference the same way the CSV loader does (empty → NULL) so the
    round-trip comparison tests the FORMAT, not that ambiguity."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fix(t: pa.Table) -> pa.Table:
        for i, f in enumerate(t.schema):
            if pa.types.is_string(f.type) or pa.types.is_large_string(f.type):
                col = t[i]
                m = pc.fill_null(pc.equal(col, pa.scalar("", f.type)), False)
                t = t.set_column(i, f, pc.if_else(m, pa.scalar(None, f.type), col))
        return t

    return ds.map_batches(fix, batch_format="pyarrow", batch_size=None)


def test_csv_roundtrip_featurizes_identically(synth_ds, format_dirs):
    from ptrail_ray.sources.transcripts import read_transcripts_csv

    csv_dir, _ = format_dirs
    expected = _featurize_sorted(_null_empty_strings(synth_ds))
    got = _featurize_sorted(read_transcripts_csv(csv_dir))
    pd.testing.assert_frame_equal(got, expected)


def test_json_roundtrip_featurizes_identically(synth_ds, format_dirs):
    from ptrail_ray.sources.transcripts import read_transcripts_json

    _, json_dir = format_dirs
    expected = _featurize_sorted(synth_ds)
    got = _featurize_sorted(read_transcripts_json(json_dir))
    pd.testing.assert_frame_equal(got, expected)


def _schema_hash_warnings() -> int:
    """Lines of Ray's "Failed to hash the schemas" warning in this
    session's worker logs so far."""
    import glob

    import ray

    logs = ray._private.worker.global_worker.node.get_logs_dir_path()
    n = 0
    for f in glob.glob(os.path.join(logs, "worker-*.err")):
        with open(f, errors="replace") as fh:
            n += sum("Failed to hash the schemas" in line for line in fh)
    return n


def test_pandas_schema_metadata_stays_out_of_block_concat(tmp_path):
    """Parquet written by pandas carries b'pandas' schema metadata, which
    pyarrow 16 cannot hash: Ray's concat of such blocks logs "Failed to
    hash the schemas". The events-derived transcripts and
    grouped_agg_by_bucket drop it before any stage coalesces blocks."""
    import numpy as np
    import pyarrow as pa

    from ptrail_ray.sources.transcripts import derive_from_events
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket
    from ptrail_ray.stages.salt import detect_hot_convs

    n = 4000
    rng = np.random.default_rng(13)
    pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 86400, n), unit="s"),
            "user_id": rng.integers(0, 40, n),
            "event_type": rng.choice(["click", "view", "purchase", "error"], n),
            "props": rng.choice(["a", "bb", "ccc"], n),
            "value": rng.random(n),
        }
    ).to_parquet(tmp_path / "events.parquet", row_group_size=250)

    before = _schema_hash_warnings()
    ds = derive_from_events(str(tmp_path), num_buckets=4)
    assert ds.count() == n
    assert len(detect_hot_convs(ds, 50)) > 0
    # blocks as pandas-format stages emit them: with b'pandas' metadata
    events = pd.read_parquet(tmp_path / "events.parquet", columns=["user_id", "value"])
    blocks = [pa.Table.from_pandas(events.iloc[i::4], preserve_index=False) for i in range(4)]
    sums = grouped_agg_by_bucket(
        rd.from_arrow(blocks),
        "user_id",
        lambda df: df.groupby("user_id", as_index=False)["value"].sum(),
        num_buckets=4,
    ).to_pandas()
    assert len(sums) == 40
    assert _schema_hash_warnings() == before
