"""Local stand-in for the driver's correctness gate.

Runs each ``__ray_entry__.queries()[name](sf_dir)`` and compares it with
``oracle_sql()[name]`` executed by DuckDB over the same parquet dir:
row count, column-name set, and values (rows sorted by all columns;
numeric columns compared allclose with NaN/NULL equivalence; everything
else exact). Usage:

    python tools/check_oracle.py [query ...] [--sf DIR]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]

# Queries allowed to return 0 rows at sf0.01 (explicit opt-out from the
# vacuous-pass guard below). Anything else returning 0 rows on BOTH the
# engine and the oracle side is a FAIL: an empty-vs-empty compare proves
# nothing (q_drift_welch passed 3 rounds without executing its math once
# because its cohort split was degenerate — never again).
EXPECTED_EMPTY: set[str] = set()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj.reset_index(drop=True)
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].where(pd.notna(df[c]), None)
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    sort_cols = [c for c in df.columns if df[c].dtype != object or True]
    key = df.fillna({c: "" for c in df.columns if df[c].dtype == object})
    order = key.sort_values(by=list(df.columns), kind="stable").index
    return df.loc[order].reset_index(drop=True)


def compare(
    name: str, got: pd.DataFrame, exp: pd.DataFrame, exact: bool = False
) -> list[str]:
    errs = []
    if len(got) != len(exp):
        errs.append(f"rowcount {len(got)} != {len(exp)}")
    if len(got) == 0 and len(exp) == 0:
        # empty == empty (an empty Ray Dataset loses its schema) — but
        # only queries explicitly whitelisted may pass vacuously.
        if name in EXPECTED_EMPTY:
            return []
        return ["vacuous: 0 rows on both engine and oracle side (add to EXPECTED_EMPTY only if 0 rows is the designed output at this sf)"]
    if sorted(got.columns) != sorted(exp.columns):
        errs.append(f"columns {sorted(got.columns)} != {sorted(exp.columns)}")
    if errs:
        return errs
    g, e = canon(got), canon(exp)
    for c in g.columns:
        gv, ev = g[c], e[c]
        if pd.api.types.is_float_dtype(gv) or pd.api.types.is_float_dtype(ev):
            a = gv.to_numpy(dtype=float)
            b = ev.to_numpy(dtype=float)
            if exact:
                # driver-style: exact value equality (post round/normalize)
                if not np.array_equal(a, b, equal_nan=True):
                    bad = np.flatnonzero(
                        ~((np.isnan(a) & np.isnan(b)) | (a == b))
                    )
                    errs.append(
                        f"col {c}: EXACT {len(bad)} mismatches, first@{bad[:3]}: {a[bad[:3]]!r} vs {b[bad[:3]]!r}"
                    )
                continue
            if not (np.array_equal(np.isnan(a), np.isnan(b)) and np.allclose(a, b, equal_nan=True)):
                bad = np.flatnonzero(
                    ~((np.isnan(a) & np.isnan(b)) | np.isclose(a, b, equal_nan=True))
                )
                errs.append(f"col {c}: {len(bad)} mismatches, first@{bad[:3]}: {a[bad[:3]]} vs {b[bad[:3]]}")
        else:
            av = gv.where(pd.notna(gv), None).to_numpy(dtype=object)
            bv = ev.where(pd.notna(ev), None).to_numpy(dtype=object)
            neq = np.array([x != y for x, y in zip(av, bv)])
            if neq.any():
                bad = np.flatnonzero(neq)
                errs.append(f"col {c}: {neq.sum()} mismatches, first@{bad[0]}: {av[bad[0]]!r} vs {bv[bad[0]]!r}")
    return errs


def main():
    argv = sys.argv[1:]
    sf = "/root/testdata/sf0.01"
    if "--sf" in argv:
        i = argv.index("--sf")
        sf = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    # exact value equality is the DEFAULT — it is what the driver's
    # hash gate checks; pass --approx for allclose-level debugging
    exact = "--approx" not in argv
    args = [a for a in argv if not a.startswith("--")]

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    names = args or list(qs)

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")

    n_pass = n_fail = 0
    for name in names:
        t0 = time.perf_counter()
        try:
            got = to_pandas(qs[name](sf))
        except Exception as ex:
            print(f"FAIL {name}: ray error: {type(ex).__name__}: {str(ex)[:300]}")
            n_fail += 1
            continue
        if name not in oracles:
            print(f"SKIP {name}: no oracle (rows={len(got)}) [{time.perf_counter()-t0:.1f}s]")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: sql error: {str(ex)[:300]}")
            n_fail += 1
            continue
        errs = compare(name, got, exp, exact=exact)
        if errs:
            n_fail += 1
            print(f"FAIL {name} [{time.perf_counter()-t0:.1f}s]")
            for e in errs[:4]:
                print(f"   - {e}")
        else:
            n_pass += 1
            print(f"PASS {name} rows={len(got)} [{time.perf_counter()-t0:.1f}s]")
    print(f"\n{n_pass} pass, {n_fail} fail")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
