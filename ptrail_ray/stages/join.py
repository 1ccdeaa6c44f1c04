"""Distributed hash equi-join.

Ray Data 2.49 has no general join; this engine's joins so far are
broadcast-shaped (membership/semi/anti in stages/project.py, the as-of
probe in stages/asof.py) because the reference's side tables are
small. For two LARGE sides the standard shuffle-join applies, built on
the same single-exchange machinery as everything else:

    pad both sides to one common schema (missing columns → typed nulls,
    plus a _side marker) → union → ONE hash-bucket exchange on the key
    → per bucket: split by _side, one vectorized pandas merge.

Each row moves exactly once; the per-bucket merge is C-speed. Key skew
is bounded by ``num_buckets`` exactly like the conv exchange — a hot
key's rows all land in one bucket. The escape hatch (mirroring
stages/salt.py) is ``hot_keys``: rows carrying a declared hot key skip
the exchange entirely — the hot keys' SMALL side is broadcast once
(``ray.put``) and the big side streams through a narrow vectorized
merge, so no bucket ever holds a hot key's full row set.

Contract: a single key column with the same name on both sides, and
otherwise disjoint column names (TPC-H-style prefixed schemas satisfy
this; pack composite keys into one column first).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ptrail_ray.stages.bucket import grouped_agg_by_bucket

SIDE_COL = "_side"


def _common_schema(left_schema: pa.Schema, right_schema: pa.Schema, on: str) -> pa.Schema:
    fields = []
    seen = set()
    for sch in (left_schema, right_schema):
        for f in sch:
            if f.name in seen:
                if f.name != on:
                    raise ValueError(
                        f"hash_join requires disjoint non-key columns; "
                        f"duplicate: {f.name!r}"
                    )
                continue
            seen.add(f.name)
            fields.append(f)
    fields.append(pa.field(SIDE_COL, pa.int8()))
    return pa.schema(fields)


def hash_join(
    left,
    right,
    on: str,
    *,
    how: str = "inner",
    num_buckets: int = 64,
    hot_keys=None,
):
    """Shuffle join of two Datasets on ``on``. ``how``: 'inner',
    'left' or 'full'. Returns key + all columns of both sides.

    ``how='full'`` is exact under the bucket plan with no extra pass:
    a key's rows from BOTH sides land in the same bucket, so each
    per-bucket outer merge sees the key's complete row set and emits
    its unmatched-left and unmatched-right rows exactly once.

    ``hot_keys``: optional iterable of key values whose row volume
    would overwhelm a single shuffle bucket. Those keys take the
    broadcast path — the RIGHT side's hot rows (small by contract,
    as in any skew-broadcast join) are collected once and shipped via
    ``ray.put``; the left side's hot rows merge against them in a
    narrow streaming stage. Output is identical to the pure-shuffle
    plan; only the partitioning differs. Not offered for ``full``:
    broadcasting the right side to every left task would emit an
    unmatched-right row once PER TASK, not once."""
    if how not in ("inner", "left", "full"):
        raise ValueError(f"unsupported join type: {how!r}")
    if how == "full" and hot_keys:
        raise ValueError("hot_keys broadcast path is not valid for how='full'")
    def _arrow_schema(ds) -> pa.Schema:
        s = ds.schema()
        base = getattr(s, "base_schema", None)
        if isinstance(base, pa.Schema):
            return base
        # pandas-backed datasets report python/numpy types; pull one
        # pyarrow batch for the real arrow schema (only non-arrow
        # sources pay this, and only one block executes)
        batch = next(iter(ds.iter_batches(batch_size=1, batch_format="pyarrow")))
        return batch.schema

    lsch = _arrow_schema(left)
    rsch = _arrow_schema(right)
    schema = _common_schema(lsch, rsch, on)
    lcols = [f.name for f in lsch]
    rcols = [f.name for f in rsch if f.name != on]

    if hot_keys:
        import ray
        import pyarrow.compute as pc

        key_type = lsch.field(on).type
        hot_set = pa.array(sorted(set(hot_keys)), type=key_type)

        def _is_hot(t: pa.Table) -> pa.Array:
            return pc.fill_null(pc.is_in(t[on], value_set=hot_set), False)

        def _take(hot: bool):
            def fn(t: pa.Table) -> pa.Table:
                m = _is_hot(t)
                return t.filter(m if hot else pc.invert(m))

            return fn

        # hot keys' small side, collected once and broadcast by ref
        hot_right = (
            right.map_batches(_take(True), batch_format="pyarrow", batch_size=None)
            .to_pandas()
        )
        ref = ray.put(hot_right)

        def hot_merge(t: pa.Table) -> pd.DataFrame:
            l = t.select(lcols).to_pandas()
            return l.merge(ray.get(ref), on=on, how=how)

        hot_out = left.map_batches(
            _take(True), batch_format="pyarrow", batch_size=None
        ).map_batches(hot_merge, batch_format="pyarrow", batch_size=65536)

        cold_out = hash_join(
            left.map_batches(_take(False), batch_format="pyarrow", batch_size=None),
            right.map_batches(_take(False), batch_format="pyarrow", batch_size=None),
            on,
            how=how,
            num_buckets=num_buckets,
        )
        return cold_out.union(hot_out)

    def pad(side_flag: int, own_cols: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            arrays = []
            for f in schema:
                if f.name == SIDE_COL:
                    arrays.append(pa.array(np.full(n, side_flag, np.int8), pa.int8()))
                elif f.name in t.column_names:
                    col = t[f.name]
                    arrays.append(col.cast(f.type) if col.type != f.type else col)
                else:
                    arrays.append(pa.nulls(n, f.type))
            return pa.Table.from_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in arrays],
                schema=schema,
            )

        return fn

    both = left.map_batches(pad(0, lcols), batch_format="pyarrow", batch_size=None).union(
        right.map_batches(pad(1, rcols), batch_format="pyarrow", batch_size=None)
    )

    def merge(t: pa.Table) -> pd.DataFrame:
        # split sides while still in Arrow, THEN convert each side to
        # pandas separately: each side's own columns keep their exact
        # Arrow types (no union-null-padding float64 widening, which
        # silently corrupts int64 > 2^53 and raises on a side whose
        # own int column genuinely holds nulls). A left join's
        # unmatched right columns still surface as NaN-float —
        # pandas merge semantics, same as a SQL engine's .df().
        import pyarrow.compute as pc

        side = t[SIDE_COL]
        l = t.filter(pc.equal(side, 0)).select(lcols).to_pandas()
        r = t.filter(pc.equal(side, 1)).select([on] + rcols).to_pandas()
        return l.merge(r, on=on, how="outer" if how == "full" else how)

    return grouped_agg_by_bucket(
        both, on, merge, num_buckets=num_buckets, group_format="pyarrow"
    )
