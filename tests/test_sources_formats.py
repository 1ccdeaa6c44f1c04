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
