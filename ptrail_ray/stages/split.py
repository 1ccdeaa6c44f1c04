"""Sub-conversation splitting: window kernels for conversations larger
than one worker's memory.

The conv-bucket exchange (stages/bucket.py) requires a whole conversation
in one task; salting (stages/salt.py) isolates hot conversations but
cannot shrink them. This module implements the escape hatch designed in
SURVEY.md §7.4-2 for *giant* conversations:

1. **Sub-range partitioning.** Each row goes to sub-range
   ``sub = turn_idx // S`` (turn_idx is dense per conversation — a
   canonical-schema invariant). Sub-ranges of one conversation hash to
   DIFFERENT partitions, so a 100M-turn conversation spreads over the
   cluster.
2. **K-row boundary overlap.** The last ``K = 3`` rows of sub k are
   duplicated into sub k+1 (lag context — 3 is the derivative chain's
   maximum lookback: jerk ← accel ← rate ← delta), and the first row of
   sub k+1 is duplicated into sub k (lead context). The per-sub kernel
   computes the full fused feature chain over carry+own rows and drops
   the carries — own-row derivative/lag/lead values are exactly those of
   an unsplit run.
3. **Injected prefix state.** Three features need conversation-level
   state that overlap cannot carry: ``session_id`` (cumulative gap count
   since the conversation start), and ``elapsed_s``/``cum_len``/``seg_id``
   (the conversation's first ts / first m1). The per-sub kernel emits a
   within-sub session partial (boundary gap included); a driver-side
   prefix sum over the per-sub partials (tiny: one row per sub-range)
   plus the turn-0 firsts are broadcast into a final narrow pass that
   adds the bases. Zero leakage is preserved: all injected state derives
   from PAST turns only.

The final pass ends in the whole-conversation arm's row-wise tail
(``stages.kernels.feature_tail``: temporal columns, then the as-of
probe), so both arms have one schema. Cost: one extra narrow pass + a
driver-side table of #sub-ranges rows. Use only for conversations above
``split_threshold`` — ``pipelines.flagship.flagship`` routes those here,
the rest through the conv-bucket exchange, and unions the results.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ptrail_ray.schema import CONV_ID, TS, TURN_IDX
from ptrail_ray.stages.asof import put_side_table
from ptrail_ray.stages.bucket import conv_runs, map_conv_buckets
from ptrail_ray.stages.kernels import (
    DEFAULT_GAP_SECONDS,
    DEFAULT_SEGMENT_SECONDS,
    compute_features,
    feature_tail,
    project_measures,
)

K_OVERLAP = 3
SUB_COL = "_sub"
CARRY_COL = "_carry"
SKEY_COL = "_skey"

# features whose values need conversation-level prefix state (recomputed
# in the final pass); everything else is exact from the overlap alone
STATEFUL = ("session_id", "elapsed_s", "cum_len", "seg_id")


def split_subrange_rows(split_threshold: int) -> int:
    """Sub-range size for conversations above ``split_threshold`` turns."""
    return max(split_threshold // 4, 10_000)


def _emit_with_carries(batch: pa.Table, S: int) -> pa.Table:
    """Duplicate boundary rows into neighbouring sub-ranges and key every
    copy by (conv_id, target sub). Text is projected to (m1, m2) first,
    so the carries and the shuffle never move it."""
    batch = project_measures(batch)
    turn = batch[TURN_IDX].to_numpy(zero_copy_only=False).astype(np.int64)
    sub = turn // S
    pos = turn - sub * S

    own_idx = np.arange(len(turn))
    lag_carry = own_idx[pos >= S - K_OVERLAP]  # → sub + 1
    lead_carry = own_idx[(pos < 1) & (sub > 0)]  # → sub - 1

    idx = np.concatenate([own_idx, lag_carry, lead_carry])
    tgt = np.concatenate([sub, sub[lag_carry] + 1, sub[lead_carry] - 1])
    carry = np.concatenate(
        [
            np.zeros(len(own_idx), dtype=bool),
            np.ones(len(lag_carry) + len(lead_carry), dtype=bool),
        ]
    )
    out = batch.take(pa.array(idx))
    out = out.append_column(SUB_COL, pa.array(tgt, pa.int64()))
    out = out.append_column(CARRY_COL, pa.array(carry))
    conv = out[CONV_ID]
    skey = pc.binary_join_element_wise(
        conv,
        pc.utf8_lpad(pc.cast(out[SUB_COL], pa.string()), 12, "0"),
        pa.scalar("#"),
    )
    return out.append_column(SKEY_COL, skey)


def _sub_kernel(table: pa.Table, features: "list[str] | None", gap_seconds: float,
                segment_seconds: float) -> pa.Table:
    """Per-bucket kernel: buckets contain whole (conv, sub) groups keyed
    by SKEY; each group = carry + own rows of one sub-range."""
    starts, lengths = conv_runs(table[SKEY_COL])
    pieces = []
    for start, length in zip(starts, lengths):
        # the bucket arrives sorted by (SKEY, turn_idx, ts), so the slice
        # is one ordered run (SKEY is constant → one conv run)
        feats = compute_features(
            table.slice(start, length),
            features,
            gap_seconds=gap_seconds,
            segment_seconds=segment_seconds,
        )
        own = ~feats[CARRY_COL].to_numpy(zero_copy_only=False)
        # session partial: cumsum within slice minus the count accrued on
        # carry rows (gaps among the carries themselves don't belong to
        # this sub; the boundary gap carry[-1]→own[0] does)
        sess = feats["session_id"].to_numpy(zero_copy_only=False)
        own_first = int(np.argmax(own))
        if own.any() and own_first > 0:
            sess = sess - sess[own_first - 1]
        feats = feats.set_column(
            feats.column_names.index("session_id"),
            "session_id",
            pa.array(sess, pa.int64()),
        )
        pieces.append(feats.filter(pa.array(own)))
    return pa.concat_tables(pieces) if pieces else table.slice(0, 0)


def featurize_split(
    ds,
    side: "pa.Table | None" = None,
    *,
    features: list[str] | None = None,
    subrange_rows: int = 100_000,
    num_buckets: int = 32,
    gap_seconds: float = DEFAULT_GAP_SECONDS,
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
):
    """Fused featurization for GIANT conversations via sub-range splitting.

    Output (text dropped, temporal columns and ``side``'s as-of
    attributes added) is value-identical to ``pipelines.flagship``'s
    whole-conversation arm (proven in tests/test_split.py) but no task
    ever holds more than ``subrange_rows + K + 1`` rows of one
    conversation.
    """
    S = subrange_rows

    ds_k = ds.map_batches(
        _emit_with_carries, batch_format="pyarrow", batch_size=262144,
        fn_kwargs={"S": S},
    )
    passa = map_conv_buckets(
        ds_k,
        lambda t: _sub_kernel(t, features, gap_seconds, segment_seconds),
        num_buckets=num_buckets,
        key_col=SKEY_COL,
        sort_keys=(SKEY_COL, TURN_IDX, TS),
    ).materialize()

    # driver-side prefix state (one row per sub-range; conversations this
    # path serves are few)
    def sub_summary(t: pa.Table) -> pa.Table:
        df = t.select([CONV_ID, SUB_COL, "session_id", TURN_IDX]).to_pandas()
        g = df.sort_values(TURN_IDX).groupby([CONV_ID, SUB_COL], sort=False)
        out = g.agg(last_sess=("session_id", "last")).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    summaries = (
        passa.map_batches(sub_summary, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .groupby([CONV_ID, SUB_COL], sort=False)["last_sess"]
        .max()  # session partial is nondecreasing in turn — max is the
        # true last even if Ray split a bucket's output block
        .reset_index()
        .sort_values([CONV_ID, SUB_COL])
    )
    summaries["base"] = (
        summaries.groupby(CONV_ID, sort=False)["last_sess"].cumsum()
        - summaries["last_sess"]
    )
    base_map = {
        (c, int(s)): int(b)
        for c, s, b in zip(summaries[CONV_ID], summaries[SUB_COL], summaries["base"])
    }

    firsts_df = (
        passa.map_batches(
            lambda t: t.filter(pc.equal(t[TURN_IDX], pa.scalar(0, pa.int32()))).select(
                [CONV_ID, TS, "m1"]
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .to_pandas()
    )
    first_ts = dict(
        zip(firsts_df[CONV_ID], firsts_df[TS].astype("datetime64[us]").astype("int64"))
    )
    first_m1 = dict(zip(firsts_df[CONV_ID], firsts_df["m1"].astype("int64")))

    import ray

    state_ref = ray.put((base_map, first_ts, first_m1))
    side_ref = None if side is None else put_side_table(side)

    def pass_b(t: pa.Table) -> pa.Table:
        base_map_, first_ts_, first_m1_ = ray.get(state_ref)
        conv = t[CONV_ID].to_numpy(zero_copy_only=False)
        sub = t[SUB_COL].to_numpy(zero_copy_only=False)
        ts_col = t[TS]
        if pa.types.is_timestamp(ts_col.type) and ts_col.type.unit != "us":
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = ts_col.to_numpy(zero_copy_only=False).view("int64")
        m1 = t["m1"].to_numpy(zero_copy_only=False).astype(np.float64)

        # vectorized dict lookups over the (few) unique convs/subs in batch
        uconv, conv_inv = np.unique(conv, return_inverse=True)
        row_fts = np.array([first_ts_[c] for c in uconv], dtype=np.int64)[conv_inv]
        row_fm1 = np.array([first_m1_[c] for c in uconv], dtype=np.float64)[conv_inv]
        base = np.array(
            [base_map_[(c, int(s))] for c, s in zip(conv, sub)], dtype=np.int64
        )

        # sub-0 rows already carry EXACT values from the kernel (its slice
        # start IS the conversation start, so NaN-seeding and dup-row tie
        # semantics match the whole-conversation path bit for bit); only
        # rows of later sub-ranges need the conversation-level state
        # injected. base is 0 for sub 0 by construction. Stateful features
        # that were not requested are not in the table and stay absent.
        fix = sub > 0
        rel = (ts - row_fts) / 1e6
        fixed = {
            "session_id": lambda old: pa.array(old + base, pa.int64()),
            "elapsed_s": lambda old: pa.array(np.where(fix, rel, old)),
            "cum_len": lambda old: pa.array(np.where(fix, m1 - row_fm1, old)),
            "seg_id": lambda old: pa.array(
                np.where(fix, np.floor_divide(rel, segment_seconds).astype(np.int64), old),
                pa.int64(),
            ),
        }
        for name, fix_col in fixed.items():
            if name in t.column_names:
                old = t[name].to_numpy(zero_copy_only=False)
                t = t.set_column(t.column_names.index(name), name, fix_col(old))
        return feature_tail(t.drop_columns([SUB_COL, CARRY_COL, SKEY_COL]), side_ref)

    return passa.map_batches(pass_b, batch_format="pyarrow", batch_size=262144)

