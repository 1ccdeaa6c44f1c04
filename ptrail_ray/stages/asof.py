"""Point-in-time (as-of) backfill join against a slowly-changing dimension.

The north_rule's extension of the reference's contextual joins
(``ptrail/features/contextual_features.py:33-184`` broadcast a small side
table and scan it per point): for each turn, attach the side-table row
with the greatest ``effective_ts <= ts`` for the turn's join key —
inclusive boundary, never a future version (zero temporal leakage,
SURVEY.md §2.5).

Ray design: the side table is small (a dimension), so the driver builds
ONE :class:`AsofJoiner` from it (a sorted composite index that holds only
numpy and Arrow buffers) and ``ray.put``s the built joiner
(:func:`put_side_table`). Every bucket or batch ``ray.get``s it, a
zero-copy fetch, and probes with ONE vectorized ``np.searchsorted`` — no
shuffle, no per-batch sort, no pandas merge, and no index rebuilt per
task. Payload columns (text, features) stay zero-copy Arrow. The flagship
probes it inside each bucket task (``stages.kernels.feature_tail``);
:func:`asof_join` / :func:`nearest_asof_join` are plain task stages that
fuse with their upstream. There is no actor pool: a pool reserves CPUs
the upstream tasks then cannot get, which hangs a 1-CPU cluster.

Composite index: side rows sorted by (key, effective_ts) are encoded as
``key_id << TS_BITS | (ts - ts_min)`` in uint64; a probe row's
``searchsorted(side, key_id<<TS_BITS | rel_ts, 'right') - 1`` lands on
its as-of match iff the hit shares the key_id. Ranges are asserted at
build time (key cardinality × time span must fit 64 bits — true for any
realistic dimension; a >2^20-key side table should be a shuffle join
instead, see ray_guide joins).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ptrail_ray.schema import TS


def put_side_table(side: "pa.Table | pd.DataFrame"):
    """Build the dimension's :class:`AsofJoiner` once, in the caller, and
    broadcast it; returns the object ref that
    ``stages.kernels.feature_tail`` fetches and probes."""
    return ray.put(AsofJoiner(side))


class AsofJoiner:
    """Vectorized point-in-time join over a side table (pandas or Arrow).
    The index is built once, then the joiner is called on each table; it
    holds only numpy and Arrow buffers, so a ``ray.put`` of it is fetched
    zero-copy."""

    def __init__(self, side, key_col: str = "conv_id", ts_col: str = TS):
        if isinstance(side, pa.Table):
            side = side.to_pandas()
        side = side.sort_values(["key", "effective_ts"], kind="stable").reset_index(
            drop=True
        )
        self.key_col = key_col
        self.ts_col = ts_col
        self.attr_cols = [c for c in side.columns if c not in ("key", "effective_ts")]
        self.attrs = {c: pa.Array.from_pandas(side[c]) for c in self.attr_cols}

        keys = pd.Index(pd.unique(side["key"]))
        self.keys_arr = pa.array(keys, type=pa.string())
        key_id = keys.get_indexer(side["key"]).astype(np.uint64)
        ts = side["effective_ts"].astype("datetime64[us]").to_numpy().view("int64")
        self.ts_min = int(ts.min()) if len(ts) else 0
        rel = (ts - self.ts_min).astype(np.int64)
        assert (rel >= 0).all()
        span_bits = max(int(rel.max()).bit_length() + 1, 1) if len(rel) else 1
        key_bits = max(int(len(keys)).bit_length() + 1, 1)
        assert span_bits + key_bits <= 64, "side table too large for composite asof"
        self.ts_bits = np.uint64(span_bits)
        self.side_comp = (key_id << self.ts_bits) | rel.astype(np.uint64)
        self.side_key_id = key_id.astype(np.int64)
        self.ts_max_rel = np.uint64((1 << span_bits) - 1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(self.side_comp) == 0:  # empty dimension → all-null backfill
            for c in self.attr_cols:
                batch = batch.append_column(
                    c, pa.nulls(batch.num_rows, self.attrs[c].type)
                )
            return batch

        ts_col = batch[self.ts_col]
        if pa.types.is_timestamp(ts_col.type) and ts_col.type.unit != "us":
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = ts_col.to_numpy(zero_copy_only=False).view("int64")
        # Arrow-native key lookup — no Python-object string conversion
        kid_arr = pc.index_in(batch[self.key_col], value_set=self.keys_arr)
        kid = pc.fill_null(kid_arr, -1).to_numpy(zero_copy_only=False).astype(np.int64)

        rel = ts - self.ts_min
        # clamp: probes before ts_min can't match; after span end clamp to max
        neg = rel < 0
        rel_u = np.clip(rel, 0, int(self.ts_max_rel)).astype(np.uint64)
        comp = (np.maximum(kid, 0).astype(np.uint64) << self.ts_bits) | rel_u
        idx = np.searchsorted(self.side_comp, comp, side="right") - 1
        valid = (
            (idx >= 0)
            & (kid >= 0)
            & ~neg
            & (self.side_key_id[np.maximum(idx, 0)] == kid)
        )
        idx_arr = pa.array(np.where(valid, idx, 0), mask=~valid)
        for c in self.attr_cols:
            batch = batch.append_column(c, pc.take(self.attrs[c], idx_arr))
        return batch


def _probe_stage(ds, joiner: AsofJoiner, batch_size):
    joiner_ref = ray.put(joiner)

    def probe(batch: pa.Table) -> pa.Table:
        return ray.get(joiner_ref)(batch)

    return ds.map_batches(probe, batch_format="pyarrow", batch_size=batch_size)


def asof_join(
    ds,
    side: "pa.Table | pd.DataFrame",
    *,
    key_col: str = "conv_id",
    batch_size: "int | None" = 65536,
):
    """Dataset-level as-of backfill: broadcast ``side`` and probe it in
    a task stage. Appends ``attr_num`` (float64) and ``attr_cat``
    (string); turns with no version at or before ``ts`` get nulls."""
    return _probe_stage(ds, AsofJoiner(side, key_col=key_col), batch_size)


class NearestAsofJoiner(AsofJoiner):
    """NEAREST-neighbor temporal join: instead of the
    backward-only point-in-time match, each probe takes whichever of
    its key's (last version ≤ ts, first version > ts) is closer in
    absolute time, ties going to the EARLIER version. Same broadcast
    composite-key index as AsofJoiner; the forward candidate is just
    idx_back + 1 under the (key, ts) sort, so the probe stays one
    searchsorted per batch. Appends the side attrs plus
    ``asof_dist_s`` (integer seconds to the matched version).
    Extends the reference's as-of lookup family
    (ptrail/features/contextual_features.py:304-379 analog)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(self.side_comp) == 0:
            for c in self.attr_cols:
                batch = batch.append_column(
                    c, pa.nulls(batch.num_rows, self.attrs[c].type)
                )
            return batch.append_column(
                "asof_dist_s", pa.nulls(batch.num_rows, pa.int64())
            )

        ts_col = batch[self.ts_col]
        if pa.types.is_timestamp(ts_col.type) and ts_col.type.unit != "us":
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = ts_col.to_numpy(zero_copy_only=False).view("int64")
        kid_arr = pc.index_in(batch[self.key_col], value_set=self.keys_arr)
        kid = (
            pc.fill_null(kid_arr, -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        rel = ts - self.ts_min
        rel_u = np.clip(rel, 0, int(self.ts_max_rel)).astype(np.uint64)
        comp = (np.maximum(kid, 0).astype(np.uint64) << self.ts_bits) | rel_u
        back = np.searchsorted(self.side_comp, comp, side="right") - 1
        fwd = back + 1
        n_side = len(self.side_comp)
        side_ts = (
            self.side_comp & self.ts_max_rel
        ).astype(np.int64) + self.ts_min
        bvalid = (
            (back >= 0)
            & (kid >= 0)
            & (self.side_key_id[np.maximum(back, 0)] == kid)
        )
        fvalid = (
            (fwd < n_side)
            & (kid >= 0)
            & (self.side_key_id[np.minimum(fwd, n_side - 1)] == kid)
        )
        bdist = np.where(
            bvalid, np.abs(ts - side_ts[np.maximum(back, 0)]), np.int64(2**62)
        )
        fdist = np.where(
            fvalid,
            np.abs(side_ts[np.minimum(fwd, n_side - 1)] - ts),
            np.int64(2**62),
        )
        # nearer wins; exact ties go to the earlier (backward) version
        use_fwd = fdist < bdist
        idx = np.where(use_fwd, fwd, back)
        valid = bvalid | fvalid
        dist = np.where(use_fwd, fdist, bdist) // 1_000_000
        idx_arr = pa.array(
            np.where(valid, idx, 0).astype(np.int64), mask=~valid
        )
        for c in self.attr_cols:
            batch = batch.append_column(c, pc.take(self.attrs[c], idx_arr))
        return batch.append_column(
            "asof_dist_s",
            pa.array(np.where(valid, dist, 0), pa.int64(), mask=~valid),
        )


def nearest_asof_join(
    ds,
    side: "pa.Table | pd.DataFrame",
    *,
    key_col: str = "conv_id",
    batch_size: "int | None" = 65536,
):
    """Dataset-level nearest-version temporal join (see
    NearestAsofJoiner). Same broadcast task-stage plan as asof_join."""
    return _probe_stage(ds, NearestAsofJoiner(side, key_col=key_col), batch_size)
