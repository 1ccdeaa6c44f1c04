"""Skew handling: salted bucket assignment for hot conversations.

The reference's partitioner chunks by *ID count*, not row count, and its
ascending ``value_counts`` ordering clusters the biggest trajectories
into the same chunk (``ptrail/features/helper_functions.py:536-605``,
SURVEY.md §4.1) — one hot entity ⇒ one straggler worker. This engine
handles skew explicitly (north_rule):

1. **Detect** — a cheap pre-pass: per-block partial conversation counts
   (vectorized ``value_counts``) → a tiny ``groupby(conv_id).sum``
   over the partials (rows ≈ #distinct convs per block, not #turns) →
   conversations above ``hot_threshold`` rows.
2. **Salt** — bucket assignment (``stages.bucket.assign_bucket``)
   becomes ``hash(conv_id) % B`` for cold conversations and a
   **dedicated partition** ``B + hot_index`` per hot conversation, so no
   two hot conversations share a bucket and no cold bucket inherits a
   whale.
   Whole-conversation contiguity (what the window kernels need) is
   preserved — a conversation is never split.

A conversation larger than one worker's memory goes through sub-range
splitting with K-row boundary overlap plus injected per-range prefix
state — implemented in stages/split.py. ``pipelines.flagship.flagship``
runs both: ``hot_threshold`` salts, ``split_threshold`` routes giant
conversations to the split arm.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ptrail_ray.schema import CONV_ID

DEFAULT_HOT_THRESHOLD = 100_000


def detect_hot_convs(
    ds, threshold: int = DEFAULT_HOT_THRESHOLD, *, floor: int | None = None
) -> list[str]:
    """Conversations with more than ``threshold`` turns.

    Partial-aggregate pattern: combine inside map_batches (one row per
    conv per block), then a small groupby over the partials — the wide
    input is never shuffled for this.

    ``floor`` prunes per-block partials below that row count. The
    default (threshold/256) assumes a hot conversation's rows span at
    most ~256 batches — fine for SALTING, where a miss only costs skew
    headroom. Pass ``floor=1`` (exhaustive, still bounded by distinct
    convs per block) when the result gates a CORRECTNESS-adjacent path
    such as giant-conversation splitting, where a thinly-spread giant
    slipping through would defeat the split path's memory contract
    (ADVICE r01)."""
    if floor is None:
        floor = max(1, threshold // 256)

    def partial_counts(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t[CONV_ID])
        out = pa.table(
            {CONV_ID: vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )
        return out.filter(pc.greater_equal(out["n"], pa.scalar(floor)))

    from ptrail_ray.stages.bucket import grouped_agg_by_bucket

    def merge(df):
        tot = df.groupby(CONV_ID, sort=False)["n"].sum()
        tot = tot[tot > threshold]
        return tot.reset_index()

    parts = ds.select_columns([CONV_ID]).map_batches(
        partial_counts, batch_format="pyarrow", batch_size=1 << 20
    )
    hot = grouped_agg_by_bucket(parts, CONV_ID, merge, num_buckets=16)
    return sorted(r[CONV_ID] for r in hot.take_all())

