"""Resumable-sink tests (SURVEY.md §5-4): partial write → resume skips
completed buckets → final output identical."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ptrail_ray.pipelines.flagship import featurize_bucket
from ptrail_ray.stages.kernels import compute_features
from ptrail_ray.state.manifest import (
    completed_buckets,
    load_metrics,
    write_bucket,
    write_resumable,
)


def _read_all(out_dir):
    tables = []
    for d in sorted(os.listdir(out_dir)):
        if d.startswith("bucket="):
            tables.append(pq.read_table(os.path.join(out_dir, d, "part.parquet")))
    return pa.concat_tables(tables)


def _make_kern():
    # defined as a closure so cloudpickle serializes it by value (a
    # module-level function in a test file isn't importable on workers)
    def kern(t):
        return compute_features(t, ["m1", "delta_t", "len_rate"])

    return kern


kern = _make_kern()


def test_write_and_resume(tmp_path, synth_ds, synth_pdf):
    out_dir = str(tmp_path / "out")
    summary = write_resumable(synth_ds, out_dir, kern, num_buckets=8)
    assert summary["rows"].sum() == len(synth_pdf)
    done = completed_buckets(out_dir)
    assert len(done) > 0
    full = _read_all(out_dir).to_pandas().sort_values(["conv_id", "turn_idx", "ts"])

    # simulate a crash: delete some manifests + their data
    victims = sorted(done)[: len(done) // 2]
    for b in victims:
        os.remove(os.path.join(out_dir, "_manifest", f"bucket={b:05d}.json"))
        os.remove(os.path.join(out_dir, f"bucket={b:05d}", "part.parquet"))

    # resume: only the missing buckets are rewritten
    summary2 = write_resumable(synth_ds, out_dir, kern, num_buckets=8)
    assert set(summary2["bucket"]) == set(victims)
    assert completed_buckets(out_dir) == done

    resumed = _read_all(out_dir).to_pandas().sort_values(["conv_id", "turn_idx", "ts"])
    assert len(resumed) == len(full)
    assert (resumed["text"].to_numpy() == full["text"].to_numpy()).all()


def test_manifest_metrics(tmp_path, synth_ds):
    out_dir = str(tmp_path / "m")
    write_resumable(synth_ds, out_dir, kern, num_buckets=4, lineage="synth@seed11")
    metrics = load_metrics(out_dir)
    assert metrics, "no manifests written"
    for m in metrics:
        assert m["rows"] > 0
        assert m["lineage"] == "synth@seed11"
        assert "wall_s" in m and "kernel_version" in m and m["n_convs"] > 0


def test_write_resumable_jsonl(ray_session, tmp_path):
    import json as _json

    import pandas as pd
    import ray.data as rd

    from ptrail_ray.state.manifest import completed_buckets, write_resumable

    df = pd.DataFrame(
        {
            "conv_id": [f"conv-{i % 5}" for i in range(40)],
            "turn_idx": list(range(40)),
            "ts": pd.Timestamp("2024-01-01"),
            "text": [f"t{i}" for i in range(40)],
        }
    )
    out = str(tmp_path / "jsonl_out")
    write_resumable(
        rd.from_pandas(df), out, lambda t: t, num_buckets=4, data_format="jsonl"
    )
    assert completed_buckets(out) == {0, 1, 2, 3} - {
        b for b in range(4) if not (tmp_path / "jsonl_out" / f"bucket={b:05d}").exists()
    }
    rows = []
    for b in sorted(completed_buckets(out)):
        p = tmp_path / "jsonl_out" / f"bucket={b:05d}" / "part.jsonl"
        with open(p) as fh:
            rows += [_json.loads(line) for line in fh]
    assert len(rows) == 40
    assert {r["conv_id"] for r in rows} == {f"conv-{i}" for i in range(5)}
    # resume: a second run writes nothing new (all buckets complete)
    summary = write_resumable(
        rd.from_pandas(df), out, lambda t: t, num_buckets=4, data_format="jsonl"
    )
    assert summary.empty or summary["rows"].sum() == 0


def _featurized_bucket(synth_table):
    """A featurized bucket with nulls (tool, lag1_ts, attr_num) and NaNs
    (delta_t), as the job's sink receives it."""
    t = featurize_bucket(synth_table)
    n = t.num_rows
    vals = np.arange(n, dtype=np.float64) / 7
    vals[::5] = np.nan
    return t.append_column("attr_num", pa.array(vals, mask=np.arange(n) % 3 == 0))


@pytest.mark.parametrize("n_rows", [None, 0])
def test_write_bucket_round_trip(tmp_path, synth_table, n_rows):
    table = _featurized_bucket(synth_table)
    if n_rows is None:
        for name in ("tool", "lag1_ts", "attr_num"):
            assert table[name].null_count > 0, name
        assert pc.any(pc.is_nan(table["delta_t"])).as_py()
    else:
        table = table.slice(0, n_rows)
    out_dir = str(tmp_path / "out")
    write_bucket(table, 3, out_dir)
    path = os.path.join(out_dir, "bucket=00003", "part.parquet")
    back = pq.read_table(path)

    # same schema (no dictionary-typed columns), values, validity and NaNs
    assert back.schema.equals(table.schema)
    for name in table.column_names:
        a, b = table[name].combine_chunks(), back[name].combine_chunks()
        assert a.is_valid().equals(b.is_valid()), name
        if pa.types.is_floating(a.type):
            assert pc.is_nan(a).equals(pc.is_nan(b)), name
            np.testing.assert_array_equal(
                a.to_numpy(zero_copy_only=False), b.to_numpy(zero_copy_only=False)
            )
        else:
            assert a.equals(b), name

    # every column reads back with the same buffers, null slots included,
    # as from the writer's default encoding
    default_path = str(tmp_path / "default.parquet")
    pq.write_table(table, default_path)
    ref = pq.read_table(default_path)
    for name in table.column_names:
        got = [x and x.to_pybytes() for x in back[name].combine_chunks().buffers()]
        exp = [x and x.to_pybytes() for x in ref[name].combine_chunks().buffers()]
        assert got == exp, name

    (m,) = load_metrics(out_dir)
    assert m["rows"] == table.num_rows
    assert m["bytes"] == os.path.getsize(path)
    assert m["n_convs"] == len(set(table["conv_id"].to_pylist()))
    if n_rows == 0:
        assert m["n_convs"] == 0
