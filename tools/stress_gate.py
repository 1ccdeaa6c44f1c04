"""Nondeterminism stress harness for the driver's correctness gate.

The driver's r02 gate flagged ``q_filter_max_both`` with a value-hash
mismatch at equal row counts exactly once, unreproducible in single
attempts. This tool runs one-or-more queries repeatedly inside a fresh
Ray session (the outer loop in tools/stress_gate.sh gives fresh
*processes*), comparing every repetition EXACTLY against

  * the DuckDB oracle at max threads (driver conditions),
  * the DuckDB oracle at 1 thread (parallelism-free reference),

and on any mismatch dumps both frames plus the offending rows to
``/tmp/stress_dump/<query>-<pid>-<iter>/`` so the diff survives the run.

    python tools/stress_gate.py q_filter_max_both --reps 5 --num-cpus 32
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tools.check_oracle import TABLES, canon, compare, to_pandas  # noqa: E402

DUMP_ROOT = "/tmp/stress_dump"


def dump_mismatch(name: str, tag: str, got: pd.DataFrame, exp: pd.DataFrame) -> str:
    d = os.path.join(DUMP_ROOT, f"{name}-{os.getpid()}-{tag}")
    os.makedirs(d, exist_ok=True)
    g, e = canon(got), canon(exp)
    g.to_parquet(os.path.join(d, "ray.parquet"))
    e.to_parquet(os.path.join(d, "oracle.parquet"))
    # row-level diff (frames are canon-sorted; equal rowcounts expected)
    if len(g) == len(e) and list(g.columns) == list(e.columns):
        neq = np.zeros(len(g), dtype=bool)
        for c in g.columns:
            a, b = g[c].to_numpy(), e[c].to_numpy()
            if pd.api.types.is_float_dtype(g[c]):
                a = a.astype(float)
                b = b.astype(float)
                neq |= ~((np.isnan(a) & np.isnan(b)) | (a == b))
            else:
                neq |= np.array([x != y for x, y in zip(a, b)])
        bad = np.flatnonzero(neq)
        with open(os.path.join(d, "diff.txt"), "w") as f:
            f.write(f"{len(bad)} mismatching rows\n")
            for i in bad[:50]:
                f.write(f"row {i}\n  ray:    {g.iloc[i].to_dict()!r}\n"
                        f"  oracle: {e.iloc[i].to_dict()!r}\n")
                # bit-level detail for float cols
                for c in g.columns:
                    if pd.api.types.is_float_dtype(g[c]):
                        av, bv = float(g[c].iloc[i]), float(e[c].iloc[i])
                        if not (av == bv or (np.isnan(av) and np.isnan(bv))):
                            f.write(
                                f"  col {c}: ray={av!r} ({np.float64(av).tobytes().hex()})"
                                f" oracle={bv!r} ({np.float64(bv).tobytes().hex()})\n"
                            )
    return d


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("queries", nargs="+")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--num-cpus", type=int, default=32)
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    args = ap.parse_args()

    import ray

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{args.sf}/{t}.parquet'")
    con1 = duckdb.connect()
    con1.sql("SET threads TO 1")
    for t in TABLES:
        con1.sql(f"CREATE VIEW {t} AS SELECT * FROM '{args.sf}/{t}.parquet'")

    failures = 0
    for name in args.queries:
        sql = oracles[name]
        exp_mt = con.sql(sql).df()
        exp_1t = con1.sql(sql).df()
        # DuckDB self-check: max-thread vs single-thread plans
        errs = compare(name, exp_mt, exp_1t, exact=True)
        if errs:
            failures += 1
            d = dump_mismatch(name, "duckdb-mt-vs-1t", exp_mt, exp_1t)
            print(f"DUCKDB-NONDET {name}: {errs[:2]} -> {d}", flush=True)
        for it in range(args.reps):
            t0 = time.perf_counter()
            got = to_pandas(qs[name](args.sf))
            errs = compare(name, got, exp_1t, exact=True)
            if errs:
                failures += 1
                d = dump_mismatch(name, f"it{it}", got, exp_1t)
                print(f"FAIL {name} it={it}: {errs[:2]} -> {d}", flush=True)
            else:
                print(
                    f"pass {name} it={it} rows={len(got)}"
                    f" [{time.perf_counter() - t0:.1f}s]",
                    flush=True,
                )
    ray.shutdown()
    print(f"stress done: {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
