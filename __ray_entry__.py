"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init(...)`` BEFORE importing this module; nothing
here (or in ptrail_ray) calls ``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship pipeline on /root/testdata/sf0.001: derive the
  canonical transcript table from ``events``, run the fused window-kernel
  featurization (derivative chains, sessionization, lag/lead), temporal
  extractors, and the point-in-time backfill join against the SCD side
  table. Returns the resulting Dataset.
* ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 + the training-data ops); each takes ``sf_dir``.
* ``oracle_sql()`` — DuckDB-runnable ANSI SQL producing identical
  results for every SQL-expressible query (identical column names;
  floats NaN→NULL-normalized and, for aggregates/interpolants, rounded
  to 6 dp on both sides).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# robust to being imported by file path: the repo root must be on
# sys.path for `import ptrail_ray`
_ROOT = os.path.dirname(os.path.abspath(__file__))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


# NOTE: Ray worker processes resolve `import ptrail_ray` through the
# directory the RAY SESSION was started from; the driver contract runs
# ray.init from the repo root, which is what the pipelines assume.


def entry() -> Any:
    from ptrail_ray.pipelines.flagship import flagship
    from ptrail_ray.sources.transcripts import (
        derive_from_events,
        side_scd_from_events,
    )

    sf_dir = "/root/testdata/sf0.001"
    ds = derive_from_events(sf_dir, num_buckets=8)
    side = side_scd_from_events(sf_dir)
    return flagship(ds, side, num_buckets=8, gap_seconds=3600.0)


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry ordered for driver-gate rotation (VERDICT r04 #4): the
    driver samples a subset per round, so queries that have never had a
    driver-green row (not present in any committed CORRECTNESS_r*.json)
    come FIRST — every round's sample then lands on maximally-new
    verification surface. The full registry is swept locally per round
    (tools/check_oracle.py, log committed as SWEEP_r*.log)."""
    import glob
    import json

    from ptrail_ray.entry_queries import QUERIES

    seen: set[str] = set()
    for p in glob.glob(os.path.join(_ROOT, "CORRECTNESS_r*.json")):
        try:
            with open(p) as fh:
                rows = json.load(fh)
        except (OSError, ValueError):
            continue
        for name, rec in rows.items():
            # a 0-rows-on-both-sides row proved nothing (the
            # q_drift_welch lesson) — treat as never sampled
            if not (
                isinstance(rec, dict)
                and rec.get("spark_rows") == 0
                and rec.get("oracle_rows") == 0
            ):
                seen.add(name)
    fresh = [k for k in QUERIES if k not in seen]
    prior = [k for k in QUERIES if k in seen]
    return {k: QUERIES[k] for k in fresh + prior}


def oracle_sql() -> dict[str, str]:
    from ptrail_ray.entry_queries import ORACLE_SQL

    return dict(ORACLE_SQL)
