"""Output checks, run outside every timed region.

Each check returns a list of error strings; empty means the output is
correct.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

# features the pandas oracle (ptrail_ray/oracle.py) computes
ORACLE_NUMERIC = [
    "m1", "m2", "delta_t", "delta_len", "elapsed_s", "cum_len", "len_rate",
    "len_accel", "len_jerk", "tok_delta", "tok_rate", "tok_accel",
    "session_id", "seg_id",
]
ORACLE_OBJECT = ["lag1_role", "lead1_role", "lag1_tool", "lead1_tool"]
ORACLE_TS = ["lag1_ts", "lead1_ts"]
SORT = ["conv_id", "turn_idx", "ts"]


def bucket_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "bucket=*", "part.parquet")))


def meta_rows(files: list[str]) -> int:
    return sum(pq.read_metadata(f).num_rows for f in files)


def out_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(f) for f in bucket_files(out_dir))


def row_conservation(input_files: list[str], out_dir: str) -> list[str]:
    from ptrail_ray.state.manifest import load_metrics

    n_in = meta_rows(input_files)
    n_manifest = sum(m["rows"] for m in load_metrics(out_dir))
    n_out = meta_rows(bucket_files(out_dir))
    if n_in == n_manifest == n_out:
        return []
    return [f"rows: input {n_in}, manifests {n_manifest}, files {n_out}"]


def value_digest(out_dir: str) -> str:
    """md5 over every output column's values, bucket by bucket."""
    h = hashlib.md5()
    for f in bucket_files(out_dir):
        t = pq.read_table(f)
        h.update(os.path.basename(os.path.dirname(f)).encode())
        for name in t.column_names:
            h.update(name.encode())
            col = t[name].combine_chunks()
            for buf in col.buffers():
                if buf is not None:
                    h.update(buf)
    return h.hexdigest()


def sample_convs(conv_ids, modulus: int) -> list[str]:
    """md5-keyed deterministic sample: about 1/modulus of the ids."""
    return sorted(
        c for c in conv_ids
        if int(hashlib.md5(c.encode()).hexdigest()[:8], 16) % modulus == 0
    )


def _read_convs(paths, convs: list[str]) -> pd.DataFrame:
    flt = pads.field("conv_id").isin(pa.array(convs, pa.string()))
    return pads.dataset(paths, format="parquet").to_table(filter=flt).to_pandas()


def featurize_oracle(input_files: list[str], out_dir: str, side: pd.DataFrame,
                     modulus: int = 256, gap_seconds: float = 120.0) -> list[str]:
    """Recompute an md5-sampled set of conversations with the pandas
    oracle and compare: features allclose with identical NaN positions
    (so NaN widths match), lag/lead values equal, and the as-of columns
    equal to the brute-force point-in-time join (no version later than
    the turn's ts is ever attached)."""
    from ptrail_ray.oracle import oracle_asof, oracle_features

    ids = pq.read_table(input_files, columns=["conv_id"])["conv_id"].unique()
    convs = sample_convs(ids.to_pylist(), modulus)
    if not convs:
        return ["oracle sample is empty"]
    inp = _read_convs(input_files, convs)
    got = _read_convs(bucket_files(out_dir), convs)
    got = got.sort_values(SORT, kind="stable").reset_index(drop=True)
    exp = oracle_features(inp, gap_seconds=gap_seconds)
    exp = oracle_asof(exp, side[side["key"].isin(convs)])
    errs = []
    if len(got) != len(exp):
        return [f"oracle sample rows {len(got)} != {len(exp)}"]
    for c in ORACLE_NUMERIC + ["attr_num"]:
        a = got[c].to_numpy(dtype=float)
        b = exp[c].to_numpy(dtype=float)
        if not (np.array_equal(np.isnan(a), np.isnan(b))
                and np.allclose(a, b, equal_nan=True)):
            errs.append(f"oracle mismatch in {c}")
    for c in ORACLE_OBJECT + ["attr_cat"]:
        a = got[c].where(got[c].notna(), None).tolist()
        b = exp[c].where(exp[c].notna(), None).tolist()
        if a != b:
            errs.append(f"oracle mismatch in {c}")
    for c in ORACLE_TS:
        a = pd.to_datetime(got[c]).astype("datetime64[us]")
        b = pd.to_datetime(exp[c]).astype("datetime64[us]")
        if not a.equals(b):
            errs.append(f"oracle mismatch in {c}")
    return errs


def _conv_text_bytes(files: list[str]) -> pa.Table:
    """Per-conversation (turns, text bytes) over parquet files."""
    parts = []
    for f in files:
        t = pq.read_table(f, columns=["conv_id", "text"])
        t = t.append_column(
            "nbytes", pc.fill_null(pc.binary_length(t["text"]), 0).cast(pa.int64())
        )
        parts.append(
            t.group_by("conv_id").aggregate([("nbytes", "sum"), ("nbytes", "count")])
        )
    return (
        pa.concat_tables(parts)
        .group_by("conv_id")
        .aggregate([("nbytes_sum", "sum"), ("nbytes_count", "sum")])
        .sort_by("conv_id")
    )


def text_bytes_equal(input_files: list[str], out_dir: str) -> list[str]:
    """Every conversation keeps its turn count and its text bytes."""
    a = _conv_text_bytes(input_files)
    b = _conv_text_bytes(bucket_files(out_dir))
    return [] if a.equals(b) else ["per-conversation text bytes differ from input"]


class QueryOracle:
    """DuckDB over the generated tables, running ``oracle_sql()``."""

    def __init__(self, sf_dir: str):
        import duckdb

        from check_oracle import TABLES

        self.con = duckdb.connect()
        for t in TABLES:
            self.con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{os.path.join(sf_dir, t + '.parquet')}')"
            )
        import __ray_entry__

        self.sql = __ray_entry__.oracle_sql()
        self.expected: dict[str, pd.DataFrame] = {}

    def check(self, name: str, got: pd.DataFrame) -> list[str]:
        from check_oracle import compare

        if name not in self.expected:
            self.expected[name] = self.con.execute(self.sql[name]).df()
        exp = self.expected[name].copy()
        return [f"{name}: {e}" for e in compare(name, got, exp, exact=True)]
