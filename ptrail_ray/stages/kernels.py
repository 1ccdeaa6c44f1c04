"""Fused per-conversation window/derivative kernels (the engine core).

Reference semantics being reproduced (SURVEY.md §1.3, citations into
/root/reference):

* per-entity first-row NaN padding — ``ptrail/features/helper_functions.py:175-189``
* derivative chain ``x.diff() / delta_t`` with NaN widths 1/2/3 —
  ``ptrail/features/kinematic_features.py:451-455`` (Speed), ``:511-514``
  (Acceleration), ``:567-570`` (Jerk), ``:681-684`` (Bearing_Rate),
  ``:736-739`` (Rate_of_bearing_rate)
* every division is followed by ``±inf → NaN`` —
  ``kinematic_features.py:456,515,571,685,740``
* time deltas are signed fractional ``total_seconds()`` —
  ``kinematic_features.py:449-450``
* gap-threshold predicate ``delta_t > rate`` —
  ``ptrail/preprocessing/helpers.py:89-95`` (drives sessionization)

Recast dictionary (SURVEY.md §7.0): measure channel m1 = text length in
characters (lat analog), m2 = text length in bytes (lon analog);
Distance→delta_len, Speed→len_rate, Acceleration→len_accel, Jerk→len_jerk;
Bearing→tok_delta, Bearing_Rate→tok_rate, Rate_of_bearing_rate→tok_accel;
Distance_from_start→(elapsed_s, cum_len).

Execution model: the whole chain is ONE fused vectorized kernel over a
sorted conv-contiguous bucket (see stages/bucket.py). Unlike the
reference — which runs one multiprocessing fan-out *per feature call*,
re-pickling the frame each time (``kinematic_features.py:101,158,215-218``)
— every feature here is a numpy expression over the bucket's Arrow
arrays with NaN re-seeding at conversation boundaries, so adding a
feature costs one vector op, not a shuffle.

Features form an explicit dependency DAG (the reference auto-computes
dependencies implicitly via KeyError fallbacks,
``kinematic_features.py:462-481``; we resolve them topologically, once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ptrail_ray.schema import CONV_ID, M1, M2, ROLE, TEXT, TOOL, TS
from ptrail_ray.stages.bucket import conv_runs
from ptrail_ray.stages.temporal import add_temporal_columns

DEFAULT_GAP_SECONDS = 120.0
DEFAULT_SEGMENT_SECONDS = 3600.0


# ---------------------------------------------------------------------------
# numpy primitives over the run structure
# ---------------------------------------------------------------------------


def group_diff(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Lag-1 difference, NaN at each conversation's first row.

    Matches the reference's global ``.diff()`` masked at entity
    boundaries (numerically identical per SURVEY.md §1.3-2).
    """
    out = np.empty(len(x), dtype=np.float64)
    if len(x) == 0:
        return out
    out[0] = np.nan
    np.subtract(x[1:], x[:-1], out=out[1:])
    out[starts] = np.nan
    return out


def safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Division with the reference's ±inf→NaN postcondition."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out[~np.isfinite(out)] = np.nan
    return out


def broadcast_first(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-run first value broadcast to every row of the run."""
    return np.repeat(x[starts], lengths)


def group_cumsum(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-run cumulative sum (x must contain no NaN)."""
    s = np.cumsum(x)
    base = s[starts] - x[starts]
    return s - np.repeat(base, lengths)


def shifted_indices(
    n: int, starts: np.ndarray, lengths: np.ndarray, k: int
) -> pa.Array:
    """Take-indices implementing a per-run shift by k (lag k>0 / lead k<0).

    Out-of-run positions get a null index → null output under
    ``pa.Table.take`` / ``pc.take``.
    """
    idx = np.arange(n, dtype=np.int64) - k
    run_id = np.repeat(np.arange(len(starts), dtype=np.int64), lengths)
    run_start = np.repeat(starts, lengths)
    run_end = run_start + np.repeat(lengths, lengths)
    invalid = (idx < run_start) | (idx >= run_end)
    return pa.array(idx, type=pa.int64(), mask=invalid)


# ---------------------------------------------------------------------------
# feature registry (dependency DAG)
# ---------------------------------------------------------------------------


@dataclass
class KernelContext:
    """Lazily-evaluated feature store for one sorted bucket."""

    table: pa.Table
    gap_seconds: float = DEFAULT_GAP_SECONDS
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS
    _cache: dict = field(default_factory=dict)

    def __post_init__(self):
        self.starts, self.lengths = conv_runs(self.table[CONV_ID])
        self.n = self.table.num_rows

    def col_np(self, name: str) -> np.ndarray:
        key = ("_np", name)
        if key not in self._cache:
            self._cache[key] = self.table[name].to_numpy(zero_copy_only=False)
        return self._cache[key]

    def ts_us(self) -> np.ndarray:
        """Timestamps as int64 microseconds."""
        key = ("_np", "_ts_us")
        if key not in self._cache:
            col = self.table[TS]
            if pa.types.is_timestamp(col.type) and col.type.unit != "us":
                col = pc.cast(col, pa.timestamp("us"))
            self._cache[key] = col.to_numpy(zero_copy_only=False).view("int64")
        return self._cache[key]

    def get(self, name: str):
        if name not in self._cache:
            # a feature already present as an input column (e.g. m1/m2
            # projected before the shuffle) is reused, not recomputed
            if name in self.table.column_names and name in FEATURES:
                self._cache[name] = self.table[name]
                return self._cache[name]
            spec = FEATURES[name]
            for dep in spec.deps:
                self.get(dep)
            self._cache[name] = spec.fn(self)
        return self._cache[name]


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    deps: tuple
    fn: Callable[[KernelContext], "np.ndarray | pa.Array"]
    dtype: pa.DataType


FEATURES: dict[str, FeatureSpec] = {}


def register(name: str, deps: tuple = (), dtype: pa.DataType = pa.float64()):
    def deco(fn):
        FEATURES[name] = FeatureSpec(name, deps, fn, dtype)
        return fn

    return deco


# --- measure channels -------------------------------------------------------


def _text_len(text, length) -> pa.Array:
    return pc.coalesce(pc.cast(length(text), pa.int64()), pa.scalar(0, pa.int64()))


@register(M1, dtype=pa.int64())
def _m1(ctx: KernelContext):
    """Characters in text (lat-channel analog). Null text → 0."""
    return _text_len(ctx.table[TEXT], pc.utf8_length)


@register(M2, dtype=pa.int64())
def _m2(ctx: KernelContext):
    """Bytes in text (lon-channel analog). Null text → 0."""
    return _text_len(ctx.table[TEXT], pc.binary_length)


def project_measures(batch: pa.Table) -> pa.Table:
    """Stateless projection: text → (m1, m2), drop text. Row-wise, so it
    runs before the sort and the shuffle, which then no longer move the
    text (it dominates row width ~5x)."""
    text = batch[TEXT]
    return (
        batch.drop_columns([TEXT])
        .append_column(M1, _text_len(text, pc.utf8_length))
        .append_column(M2, _text_len(text, pc.binary_length))
    )


def _np_of(ctx: KernelContext, name: str) -> np.ndarray:
    v = ctx.get(name)
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        v = v.to_numpy(zero_copy_only=False)
    return np.asarray(v, dtype=np.float64)


# --- first channel: delta_t and length-derivative chain ---------------------


@register("delta_t")
def _delta_t(ctx: KernelContext):
    """Inter-turn seconds (Distance analog; NaN width 1)."""
    return group_diff(ctx.ts_us().astype(np.float64), ctx.starts) / 1e6


@register("delta_len", deps=(M1,))
def _delta_len(ctx: KernelContext):
    """Lag-1 Δ of m1 (Distance analog; NaN width 1)."""
    return group_diff(_np_of(ctx, M1), ctx.starts)


@register("elapsed_s")
def _elapsed_s(ctx: KernelContext):
    """Seconds since the conversation's first turn; first row NaN
    (Distance_from_start analog — helper_functions.py:228-240)."""
    ts = ctx.ts_us().astype(np.float64)
    out = (ts - broadcast_first(ts, ctx.starts, ctx.lengths)) / 1e6
    out[ctx.starts] = np.nan
    return out


@register("cum_len", deps=(M1,))
def _cum_len(ctx: KernelContext):
    """m1 growth since the first turn; first row NaN (Distance_from_start)."""
    m1 = _np_of(ctx, M1)
    out = m1 - broadcast_first(m1, ctx.starts, ctx.lengths)
    out[ctx.starts] = np.nan
    return out


@register("len_rate", deps=("delta_len", "delta_t"))
def _len_rate(ctx: KernelContext):
    """delta_len / delta_t (Speed analog; NaN width 1) —
    kinematic_features.py:451-456."""
    return safe_div(ctx.get("delta_len"), ctx.get("delta_t"))


@register("len_accel", deps=("len_rate", "delta_t"))
def _len_accel(ctx: KernelContext):
    """Δlen_rate / delta_t (Acceleration analog; NaN width 2) —
    kinematic_features.py:511-515."""
    return safe_div(group_diff(ctx.get("len_rate"), ctx.starts), ctx.get("delta_t"))


@register("len_jerk", deps=("len_accel", "delta_t"))
def _len_jerk(ctx: KernelContext):
    """Δlen_accel / delta_t (Jerk analog; NaN width 3) —
    kinematic_features.py:567-571."""
    return safe_div(group_diff(ctx.get("len_accel"), ctx.starts), ctx.get("delta_t"))


# --- second channel (Bearing chain analog) on m2 ----------------------------


@register("tok_delta", deps=(M2,))
def _tok_delta(ctx: KernelContext):
    """Lag-1 Δ of m2 (Bearing analog; NaN width 1) —
    helper_functions.py:343-356."""
    return group_diff(_np_of(ctx, M2), ctx.starts)


@register("tok_rate", deps=("tok_delta", "delta_t"))
def _tok_rate(ctx: KernelContext):
    """tok_delta.diff() / delta_t (Bearing_Rate analog; NaN width 2) —
    kinematic_features.py:681-685."""
    return safe_div(group_diff(ctx.get("tok_delta"), ctx.starts), ctx.get("delta_t"))


@register("tok_accel", deps=("tok_rate", "delta_t"))
def _tok_accel(ctx: KernelContext):
    """Δtok_rate / delta_t (Rate_of_bearing_rate analog; NaN width 3) —
    kinematic_features.py:736-740 (the normal, non-buggy path)."""
    return safe_div(group_diff(ctx.get("tok_rate"), ctx.starts), ctx.get("delta_t"))


# --- rolling (sliding) past-only window aggregate ---------------------------

ROLL_W = 5


@register("roll5_mean_m1", deps=(M1,))
def _roll5_mean_m1(ctx: KernelContext):
    """Rolling mean of m1 over the last ROLL_W turns (current inclusive,
    truncated at the conversation start) — a leakage-safe sliding-window
    aggregate (custom windowed operator; no future turns read)."""
    m1 = _np_of(ctx, M1)
    c = group_cumsum(m1, ctx.starts, ctx.lengths)
    pos = np.arange(ctx.n, dtype=np.int64) - np.repeat(ctx.starts, ctx.lengths)
    prev = np.where(pos >= ROLL_W, c[np.maximum(np.arange(ctx.n) - ROLL_W, 0)], 0.0)
    denom = np.minimum(pos + 1, ROLL_W).astype(np.float64)
    return (c - prev) / denom


# --- rolling median (robust smoother) ----------------------------------------


@register("roll5_med_m1", deps=(M1,))
def _roll5_med_m1(ctx: KernelContext):
    """Rolling median of m1 over the last ROLL_W turns — the robust
    sibling of roll5_mean_m1 (the reference's Hampel filter uses the
    same window-median core, preprocessing/filters.py:196-230 analog).
    NULL until the window is complete (pos < W-1), so windows never
    cross a conversation boundary. Vectorized: one
    sliding_window_view + np.median along the window axis."""
    m1 = _np_of(ctx, M1)
    out = np.full(ctx.n, np.nan)
    if ctx.n >= ROLL_W:
        med = np.median(
            np.lib.stride_tricks.sliding_window_view(m1, ROLL_W), axis=1
        )
        pos = np.arange(ctx.n, dtype=np.int64) - np.repeat(ctx.starts, ctx.lengths)
        full = pos >= ROLL_W - 1
        out[full] = med[np.flatnonzero(full) - (ROLL_W - 1)]
    return out


@register("roll5_max_m1", deps=(M1,))
def _roll5_max_m1(ctx: KernelContext):
    """Rolling max of m1 over the last ROLL_W turns — the envelope
    sibling of roll5_med_m1 (same NULL-until-complete window contract,
    so windows never cross a conversation boundary). Vectorized: one
    sliding_window_view + max along the window axis."""
    m1 = _np_of(ctx, M1)
    out = np.full(ctx.n, np.nan)
    if ctx.n >= ROLL_W:
        mx = np.max(
            np.lib.stride_tricks.sliding_window_view(m1, ROLL_W), axis=1
        )
        pos = np.arange(ctx.n, dtype=np.int64) - np.repeat(ctx.starts, ctx.lengths)
        full = pos >= ROLL_W - 1
        out[full] = mx[np.flatnonzero(full) - (ROLL_W - 1)]
    return out


@register("ntile4_m1", deps=(M1,))
def _ntile4_m1(ctx: KernelContext):
    """SQL ``ntile(4)`` over (m1, arrival order) within the
    conversation — the per-entity quartile label used for curriculum
    tiering at conversation granularity. The ORDER BY is made
    deterministic by the stable lexsort (ties keep turn order, exactly
    the SQL's ``ORDER BY m1, turn_idx, ts``). DuckDB tile sizing: the
    first n % 4 tiles get ⌈n/4⌉ rows, the rest ⌊n/4⌋."""
    m1 = _np_of(ctx, M1)
    run = np.repeat(np.arange(len(ctx.starts), dtype=np.int64), ctx.lengths)
    order = np.lexsort((m1, run))
    run_start = np.repeat(ctx.starts, ctx.lengths)
    pos = np.arange(ctx.n, dtype=np.int64) - run_start + 1  # 1-based in run
    n_run = np.repeat(ctx.lengths, ctx.lengths).astype(np.int64)
    big = n_run % 4
    size_big = n_run // 4 + 1
    size_small = np.maximum(n_run // 4, 1)  # avoid /0; small branch unused then
    cutoff = big * size_big
    in_big = pos <= cutoff
    tile = np.where(
        in_big,
        (pos - 1) // size_big + 1,
        big + (pos - cutoff - 1) // size_small + 1,
    )
    out = np.empty(ctx.n)
    out[order] = tile.astype(np.float64)
    return out


@register("cume_m1", deps=(M1,))
def _cume_m1(ctx: KernelContext):
    """SQL ``cume_dist()`` of m1 within the conversation: the fraction
    of the conversation's turns with m1 ≤ this turn's (ties share the
    tie group's END position). One lexsort, tie-group ends by change
    detection, ONE division per row — same IEEE op as DuckDB's."""
    m1 = _np_of(ctx, M1)
    run = np.repeat(np.arange(len(ctx.starts), dtype=np.int64), ctx.lengths)
    order = np.lexsort((m1, run))
    run_s, m1_s = run[order], m1[order]
    new = np.ones(ctx.n, bool)
    if ctx.n > 1:
        new[1:] = (run_s[1:] != run_s[:-1]) | (m1_s[1:] != m1_s[:-1])
    gstart = np.flatnonzero(new)
    gend = np.r_[gstart[1:], ctx.n] - 1  # last index of each tie group
    gid = np.cumsum(new) - 1
    run_start = np.repeat(ctx.starts, ctx.lengths)
    n_run = np.repeat(ctx.lengths, ctx.lengths).astype(np.float64)
    cume_s = (gend[gid] - run_start + 1).astype(np.float64) / n_run
    out = np.empty(ctx.n)
    out[order] = cume_s
    return out


@register("rank_m1", deps=(M1,))
def _rank_m1(ctx: KernelContext):
    """SQL ``rank()`` of m1 within the conversation (ties share the
    min rank, gaps after ties) — the rank-transform feature
    normalization. Vectorized across every conversation in the bucket:
    one lexsort by (run, m1), tie-group starts found by change
    detection, min-rank forward-filled with ``np.maximum.accumulate``
    (positions reset per run, so run boundaries restart the fill)."""
    m1 = _np_of(ctx, M1)
    run = np.repeat(np.arange(len(ctx.starts), dtype=np.int64), ctx.lengths)
    order = np.lexsort((m1, run))
    run_s, m1_s = run[order], m1[order]
    new = np.ones(ctx.n, bool)
    if ctx.n > 1:
        new[1:] = (run_s[1:] != run_s[:-1]) | (m1_s[1:] != m1_s[:-1])
    # ffill tie-group start as a GLOBAL index (monotone across run
    # boundaries, and every run start opens a group, so the fill can't
    # bleed between runs), then rebase to the run start for the rank.
    idx = np.arange(ctx.n, dtype=np.int64)
    first_global = np.maximum.accumulate(np.where(new, idx, 0))
    run_start = np.repeat(ctx.starts, ctx.lengths)
    rank_s = first_global - run_start + 1
    out = np.empty(ctx.n)
    out[order] = rank_s.astype(np.float64)
    return out


# --- trailing time-range window aggregates ------------------------------------

WIN_RANGE_US = np.int64(3_600_000_000)  # 1 hour
# composite (run, ts) key: run_id in the top 13 bits, ts_us (< 2^51,
# good through 2041) below — globally monotone when each run's segment
# is ts-sorted, so BOTH range-window bounds come from ONE global
# searchsorted instead of a per-conversation loop
_TS_BITS = np.int64(51)


def _run_ts_index(ctx: KernelContext):
    """Returns the cached 4-tuple (run_id, ts, order, comp_sorted):
    per-row run ids, ts_us, the stable argsort of the composite key
    (used by win1h_sum_m1's value gather), and the sorted composite
    keys that both range-window bounds binary-search against."""
    key = ("_idx", "run_ts")
    if key not in ctx._cache:
        ts = ctx.ts_us()
        run_id = np.repeat(
            np.arange(len(ctx.starts), dtype=np.int64), ctx.lengths
        )
        if len(ctx.starts) >= (1 << 12):  # 13-bit headroom check
            raise ValueError(
                f"too many conversations in one bucket for the composite "
                f"range-window key ({len(ctx.starts)} >= 4096); raise "
                f"num_buckets"
            )
        if len(ts) and (ts.min() < 0 or ts.max() >= (1 << _TS_BITS)):
            raise ValueError(
                f"ts_us outside the composite range-window key domain "
                f"[0, 2^{int(_TS_BITS)}) — min={ts.min()} max={ts.max()}; "
                f"pre-1970 or post-2041 timestamps would silently corrupt "
                f"win1h results, refusing"
            )
        comp = (run_id << _TS_BITS) | ts
        order = np.argsort(comp, kind="stable")  # per-run ts-sorted
        ctx._cache[key] = (run_id, ts, order, comp[order])
    return ctx._cache[key]


@register("win1h_count", deps=(), dtype=pa.int64())
def _win1h_count(ctx: KernelContext):
    """Turns in the trailing hour: count of this conversation's turns
    with ts in [ts_i − 1 h, ts_i] (inclusive, ties included — SQL RANGE
    frame semantics). The time-radius neighborhood analog of the
    reference's point-within-range feature
    (kinematic_features.py:329-371), on the time axis. Exact ints;
    robust to ts non-monotone in turn order. NOTE: like any SQL RANGE
    frame this includes ts-peers, so a simultaneous LATER turn is
    counted — time-causal, but not strictly turn-prefix-safe at ties
    (excluded from the prefix-truncation leakage tests for that reason).
    """
    run_id, ts, order, comp_sorted = _run_ts_index(ctx)
    base = run_id << _TS_BITS
    hi = np.searchsorted(comp_sorted, base | ts, side="right")
    lo = np.searchsorted(comp_sorted, base | np.maximum(ts - WIN_RANGE_US, 0), side="left")
    return hi - lo


@register("win1h_sum_m1", deps=(M1,), dtype=pa.int64())
def _win1h_sum_m1(ctx: KernelContext):
    """Σ m1 over the same trailing-hour range window — exact int64
    prefix sums over the per-run ts-sorted order."""
    run_id, ts, order, comp_sorted = _run_ts_index(ctx)
    v = ctx.get(M1)
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        v = v.to_numpy(zero_copy_only=False)
    m1_sorted = np.asarray(v, dtype=np.int64)[order]
    pre = np.concatenate(([0], np.cumsum(m1_sorted)))
    base = run_id << _TS_BITS
    hi = np.searchsorted(comp_sorted, base | ts, side="right")
    lo = np.searchsorted(comp_sorted, base | np.maximum(ts - WIN_RANGE_US, 0), side="left")
    return pre[hi] - pre[lo]


# --- expanding diversity counters (novelty signals) --------------------------


@register("ntools_seen", deps=(), dtype=pa.int64())
def _ntools_seen(ctx: KernelContext):
    """Distinct tools seen so far in the conversation (current turn
    inclusive) — an expanding novelty counter (null tool counts as one
    category, coalesced to '' to pin SQL semantics). Vectorized: one
    factorize + np.unique(first-index) over packed (run, tool) keys,
    then a per-run cumsum of the first-occurrence flags. Exact ints;
    leakage-safe (past-only)."""
    import pandas as pd

    tool = pc.fill_null(ctx.table[TOOL], "")
    codes, _ = pd.factorize(tool.to_numpy(zero_copy_only=False), sort=False)
    run_id = np.repeat(np.arange(len(ctx.starts), dtype=np.int64), ctx.lengths)
    key = run_id * (np.int64(codes.max()) + 2 if len(codes) else 1) + codes
    flag = np.zeros(ctx.n, dtype=np.int64)
    _, first_idx = np.unique(key, return_index=True)
    flag[first_idx] = 1
    return group_cumsum(flag, ctx.starts, ctx.lengths)


@register("nswitches", deps=(), dtype=pa.int64())
def _nswitches(ctx: KernelContext):
    """Speaker switches so far: expanding count of turns whose role
    differs from the previous turn's (first turn is not a switch).
    Exact ints; leakage-safe."""
    role = pc.fill_null(ctx.table[ROLE], "")
    if isinstance(role, pa.ChunkedArray):
        role = role.combine_chunks()
    neq = np.zeros(ctx.n, dtype=np.int64)
    if ctx.n > 1:
        neq[1:] = pc.not_equal(role.slice(1), role.slice(0, ctx.n - 1)).to_numpy(
            zero_copy_only=False
        )
    neq[ctx.starts] = 0
    return group_cumsum(neq, ctx.starts, ctx.lengths)


# --- rolling cross-channel correlation ---------------------------------------

CORR_W = 8


@register("corr8_m1_m2", deps=(M1, M2))
def _corr8_m1_m2(ctx: KernelContext):
    """Rolling Pearson correlation of the two measure channels over the
    last CORR_W turns (current inclusive, truncated at the conversation
    start) — the cross-channel interplay feature the reference's
    two-channel design (Distance chain × Bearing chain) gestures at but
    never computes. Past-only (leakage-safe).

    All five windowed sums (Σx, Σy, Σx², Σy², Σxy) are exact int64
    prefix-sum differences, so the float expression
    ``(Sxy - SxSy/n) / sqrt((Sxx - Sx²/n)(Syy - Sy²/n))`` is evaluated
    from identical exact integers on engine and oracle sides
    (bit-equal); degenerate windows (either variance ≤ 0) → NaN/NULL.
    """

    def ints(name):
        v = ctx.get(name)
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            v = v.to_numpy(zero_copy_only=False)
        return np.asarray(v, dtype=np.int64)

    x, y = ints(M1), ints(M2)
    pos = np.arange(ctx.n, dtype=np.int64) - np.repeat(ctx.starts, ctx.lengths)
    idx_prev = np.maximum(np.arange(ctx.n, dtype=np.int64) - CORR_W, 0)

    def wsum(v: np.ndarray) -> np.ndarray:
        c = group_cumsum(v, ctx.starts, ctx.lengths)
        prev = np.where(pos >= CORR_W, c[idx_prev], np.int64(0))
        return (c - prev).astype(np.float64)

    sx, sy = wsum(x), wsum(y)
    sxx, syy, sxy = wsum(x * x), wsum(y * y), wsum(x * y)
    nn = np.minimum(pos + 1, CORR_W).astype(np.float64)
    vx = sxx - sx * sx / nn
    vy = syy - sy * sy / nn
    cov = sxy - sx * sy / nn
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.sqrt(vx * vy)
    corr[~((vx > 0) & (vy > 0))] = np.nan
    return corr


# --- exponential smoothing / expanding normalization ------------------------

# dyadic α: (1-α) and α are exact binary fractions and (1-α)+α == 1.0
# exactly, so the adjust=False recursion y_t = (1-α)·y_{t-1} + α·x_t is
# reproducible bit-for-bit by the DuckDB recursive-CTE oracle.
EWMA_ALPHA = 0.25


@register("ewma_m1", deps=(M1,))
def _ewma_m1(ctx: KernelContext):
    """Per-conv exponential smoothing of m1 (past-only recursion
    ``y_t = (1-α)·y_{t-1} + α·m1_t``, ``y_0 = m1_0``) — the streaming
    smoother analog of the reference's rolling-neighborhood cleaners
    (``ptrail/preprocessing/filters.py`` Hampel window family), leakage-
    safe by construction. Computed by pandas' Cython grouped EWM
    (adjust=False); m1 is never null so no NaN-weight handling applies.
    """
    import pandas as pd

    m1 = _np_of(ctx, M1)
    run_id = np.repeat(np.arange(len(ctx.starts), dtype=np.int64), ctx.lengths)
    out = (
        pd.Series(m1)
        .groupby(run_id, sort=False)
        .ewm(alpha=EWMA_ALPHA, adjust=False)
        .mean()
        .to_numpy()
    )
    return out


@register("zexp_m1", deps=(M1,))
def _zexp_m1(ctx: KernelContext):
    """Expanding (prefix) z-score of m1: ``(x - mean_{1..t}) / std_{1..t}``
    with population variance over the turns seen SO FAR — a leakage-safe
    per-entity normalizer (no future turn read; SURVEY.md §1.3-2 zero-
    leakage policy). Partials are exact int64 prefix sums of m1 and m1²,
    so the float expression ``(ss - s·s/k)/k`` is evaluated from identical
    exact integers on both engine and oracle sides (bit-equal); var ≤ 0
    (k = 1, or all-equal prefix) → NaN/NULL.
    """
    v = ctx.get(M1)
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        v = v.to_numpy(zero_copy_only=False)
    m1_i = np.asarray(v, dtype=np.int64)
    s = group_cumsum(m1_i, ctx.starts, ctx.lengths).astype(np.float64)
    ss = group_cumsum(m1_i * m1_i, ctx.starts, ctx.lengths).astype(np.float64)
    pos = np.arange(ctx.n, dtype=np.int64) - np.repeat(ctx.starts, ctx.lengths)
    k = (pos + 1).astype(np.float64)
    var = (ss - s * s / k) / k
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (m1_i.astype(np.float64) - s / k) / np.sqrt(var)
    z[~(var > 0)] = np.nan
    return z


# --- sessionization / segmentation ------------------------------------------


@register("session_id", deps=("delta_t",), dtype=pa.int64())
def _session_id(ctx: KernelContext):
    """Gap-threshold sessionization: ``session_id = cumsum(delta_t > gap)``
    per conversation. Same boundary predicate as the reference's gap test
    (``preprocessing/helpers.py:89-95``: strict ``>``); the first turn's
    NaN delta_t is not a gap, so sessions start at 0."""
    dt = ctx.get("delta_t")
    g = (dt > ctx.gap_seconds) & np.isfinite(dt)
    return group_cumsum(g.astype(np.int64), ctx.starts, ctx.lengths)


@register("seg_id", dtype=pa.int64())
def _seg_id(ctx: KernelContext):
    """Fixed-window segment id: floor(elapsed-from-first / window).

    Implements the *documented intent* of the reference's
    ``segment_traj_by_days`` (disjoint windows) — the reference's own
    helper produces shrinking suffix segments due to a quirk
    (``preprocessing/helpers.py:437-459``, see SURVEY.md §2.3); we follow
    the intent, as documented there."""
    ts = ctx.ts_us().astype(np.float64)
    rel = (ts - broadcast_first(ts, ctx.starts, ctx.lengths)) / 1e6
    return np.floor_divide(rel, ctx.segment_seconds).astype(np.int64)


# --- lag / lead passthrough columns -----------------------------------------

LAG_LEAD_SOURCES = {ROLE: pa.string(), TOOL: pa.string(), TS: pa.timestamp("us")}


def _make_lag(col: str, k: int):
    def fn(ctx: KernelContext):
        idx = shifted_indices(ctx.n, ctx.starts, ctx.lengths, k)
        src = ctx.table[col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        return pc.take(src, idx)

    return fn


for _col, _t in LAG_LEAD_SOURCES.items():
    for _k in (1, 2, 3):
        register(f"lag{_k}_{_col}", dtype=_t)(_make_lag(_col, _k))
    # leads are explicitly named lead_* and excluded from the leakage
    # check (SURVEY.md §2.3 — no *feature* reads a future turn).
    register(f"lead1_{_col}", dtype=_t)(_make_lag(_col, -1))

DERIVATIVE_FEATURES = [
    "delta_t",
    "delta_len",
    "elapsed_s",
    "cum_len",
    "len_rate",
    "len_accel",
    "len_jerk",
    "tok_delta",
    "tok_rate",
    "tok_accel",
]

ALL_FEATURES = (
    [M1, M2]
    + DERIVATIVE_FEATURES
    + ["roll5_mean_m1", "session_id", "seg_id"]
    + [f"lag1_{c}" for c in LAG_LEAD_SOURCES]
    + [f"lead1_{c}" for c in LAG_LEAD_SOURCES]
)


# ---------------------------------------------------------------------------
# bucket kernel
# ---------------------------------------------------------------------------


def compute_features(
    table: pa.Table,
    features: list[str] | None = None,
    *,
    gap_seconds: float = DEFAULT_GAP_SECONDS,
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
) -> pa.Table:
    """Append the requested feature columns (default
    :data:`ALL_FEATURES`) to one sorted bucket: the windowed part of the
    bucket kernel, followed by :func:`feature_tail`.

    ``table`` must be conv-contiguous and sorted by (conv_id, turn_idx,
    ts) — the exchange's bucket (``stages.bucket.map_conv_buckets``) or
    the per-file plan's sort (``pipelines.flagship.featurize_bucket``).
    Features already present as columns (m1/m2 from
    :func:`project_measures`) are kept, not recomputed.
    """
    features = list(features) if features is not None else list(ALL_FEATURES)
    ctx = KernelContext(table, gap_seconds=gap_seconds, segment_seconds=segment_seconds)
    for name in features:
        if name in ctx.table.column_names:
            continue  # projected upstream (e.g. m1/m2 computed pre-shuffle)
        v = ctx.get(name)
        spec = FEATURES[name]
        if isinstance(v, np.ndarray):
            arr = pa.array(v, type=spec.dtype)
        elif isinstance(v, (pa.Array, pa.ChunkedArray)):
            arr = v if v.type == spec.dtype else pc.cast(v, spec.dtype)
        else:  # pragma: no cover
            arr = pa.array(v, type=spec.dtype)
        table = table.append_column(name, arr)
    return table


def feature_tail(table: pa.Table, side_ref=None) -> pa.Table:
    """The row-wise tail every featurization ends in: the temporal
    columns, then the as-of probe against the broadcast side table
    (``side_ref`` from :func:`stages.asof.put_side_table`: the joiner is
    fetched, never rebuilt). Row-wise, so the whole-conversation and the
    sub-range arms share it and have one schema by construction."""
    table = add_temporal_columns(table)
    if side_ref is not None:
        table = ray.get(side_ref)(table)
    return table
