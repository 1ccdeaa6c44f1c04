"""Distributed cardinality sketch: HyperLogLog distinct counting.

At 10^12 rows an exact `count(DISTINCT x)` is a full all-to-all
exchange on x; an HLL sketch is one narrow streaming pass — each task
emits a 2^p-register partial (16 KB at p=14), partials merge by
element-wise max (commutative/associative/idempotent, so block order,
retries and splits cannot change the answer), and the driver folds a
bounded `num_tasks × 2^p` table. Standard estimator (Flajolet et al.
2007): alpha_m · m² / Σ 2^{-M_j}, with the small-range linear-counting
correction; typical error 1.04/√m ≈ 0.8% at p=14.

Hashing is `pandas.util.hash_array` (SipHash-1-3, fixed key) — the
engine's stable cross-process hash (stages/bucket.py) — so sketches are
reproducible across runs, block layouts, and cluster sizes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

HLL_P = 14


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_partial(values: np.ndarray | pa.Array | pa.ChunkedArray, p: int = HLL_P) -> np.ndarray:
    """Registers (uint8[2^p]) for one batch of values."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(values), categorize=True)  # uint64
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    # left-align the remaining 64-p bits, padding freed low bits with 1s
    # so rest > 0 always and the all-zero tail yields rank (64-p)+1
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
    # vectorized clz via the float64 exponent: frexp(x)[1] = floor(log2 x)+1
    # for exact x, so rank = clz+1 = 65-exp. uint64→float64 rounds past 53
    # bits and can bump exp by +1 at a 2^k boundary (prob ~2^-53/value) —
    # clamp keeps rank in [1, 64-p+1]; sub-ULP bias is far below HLL error.
    exp = np.frexp(rest.astype(np.float64))[1]
    rank = np.clip(65 - exp, 1, 64 - p + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Cardinality estimate from merged registers."""
    m = len(regs)
    inv = np.ldexp(1.0, -regs.astype(np.int64))  # 2^-M_j exactly
    raw = _alpha(m) * m * m / inv.sum()
    zeros = int((regs == 0).sum())
    if raw <= 2.5 * m and zeros > 0:
        return m * np.log(m / zeros)  # linear counting
    return raw


def hll_distinct(ds, col: str, *, p: int = HLL_P, batch_size: int = 1 << 18) -> float:
    """Approximate distinct count of ``ds[col]`` in ONE streaming pass."""

    def partial(t: pa.Table) -> pa.Table:
        regs = hll_partial(t[col], p=p)
        return pa.table({"regs": pa.array([regs], pa.list_(pa.uint8()))})

    parts = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
        .take_all()
    )
    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in parts:
        np.maximum(merged, np.asarray(row["regs"], dtype=np.uint8), out=merged)
    return hll_estimate(merged)


# ---------------------------------------------------------------------------
# Count-Min Sketch: mergeable frequency estimates (Cormode-Muthukrishnan '05)
# ---------------------------------------------------------------------------
# The frequency-sketch companion to the HLL above: at 10^12 tokens an
# exact per-term count table is vocabulary-sized state behind an
# all-to-all exchange; a CMS is ONE narrow streaming pass — each task
# emits a d×w int64 counter-grid partial, partials merge by elementwise
# SUM (commutative/associative, so block order, retries and splits
# cannot change the answer), and any term's count is estimated as
# min_i grid[i][cell_i(term)] — always ≥ the true count, ≤ true +
# ε·N with ε = e/w at probability 1 − e^−d.
#
# Hashing is chosen for the engine's exact-oracle discipline, not
# speed: the base hash is the 60-bit md5 prefix the dedup family uses
# (SQL replica `('0x' || substr(md5(t),1,15))::UBIGINT`), and the d
# row hashes are multiply-shift (Dietzfelbinger et al. '97)
# `(aᵢ·h mod 2^64) >> (64 − lg w)` with fixed odd constants — both
# exactly replayable in DuckDB HUGEINT arithmetic, so the sketch
# contents (not just its error bound) are hash-checkable.

CMS_D = 4
# public mixing constants (splitmix64 / xxhash / wyhash finalizers) —
# any fixed odd 64-bit values work for multiply-shift
CMS_MULTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0xD6E8FEB86659FD93,
    0xA0761D6478BD642F,
)


def _cms_cells(h: np.ndarray, *, d: int, lg_w: int) -> np.ndarray:
    """(d, n) int64 cell indices for uint64 base hashes ``h``."""
    shift = np.uint64(64 - lg_w)
    return np.stack(
        [((np.uint64(a) * h) >> shift).astype(np.int64) for a in CMS_MULTS[:d]]
    )


def _term_hashes(terms) -> np.ndarray:
    """md5-u60 base hash per term (uint64). Python-loop per UNIQUE term
    only — callers pass batch-deduplicated vocab (Zipf-bounded), the
    same cost model as the MinHash/decontam token hashing."""
    from ptrail_ray.functions.dedup import _md5_u60

    return np.array([_md5_u60(t) for t in terms], dtype=np.uint64)


def cms_sketch(
    ds,
    text_col: str = "text",
    *,
    d: int = CMS_D,
    lg_w: int = 16,
    batch_size: int | None = 1 << 18,
) -> np.ndarray:
    """Build the merged (d, w) int64 token-frequency sketch in ONE
    streaming pass over ``ds[text_col]``.

    Per-batch partial: tokenize → dictionary-encode (md5 once per
    batch-UNIQUE token) → weighted bincount per row — tokens never
    leave the task, only the d×w grid does. Driver fold is a bounded
    ``num_batches × d·w·8 bytes`` sum (2 MB per partial at lg_w=16;
    size lg_w to the fold budget — queries that only need coarse
    counts use lg_w ≤ 8 = 2 KB partials)."""
    if d > len(CMS_MULTS):
        raise ValueError(f"d={d} exceeds the {len(CMS_MULTS)} fixed row hashes")
    from ptrail_ray.functions.tokenize import encoded_tokens

    w = 1 << lg_w

    def partial(t: pa.Table) -> pa.Table:
        codes, vocab, _ = encoded_tokens(t[text_col])
        grid = np.zeros((d, w), dtype=np.int64)
        if len(codes):
            cnt = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
            cells = _cms_cells(_term_hashes(vocab.to_pylist()), d=d, lg_w=lg_w)
            for i in range(d):
                grid[i] = np.bincount(cells[i], weights=cnt, minlength=w).astype(
                    np.int64
                )
        return pa.table({"grid": pa.array([grid.ravel()], pa.list_(pa.int64()))})

    parts = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
        .take_all()
    )
    merged = np.zeros(d * w, dtype=np.int64)
    for row in parts:
        merged += np.asarray(row["grid"], dtype=np.int64)
    return merged.reshape(d, w)


def cms_estimate(sketch: np.ndarray, terms, *, lg_w: int) -> np.ndarray:
    """Point-query estimates (int64, one per term): min over the d rows
    of the term's cell — the standard CMS upper-bound estimator."""
    d = sketch.shape[0]
    cells = _cms_cells(_term_hashes(terms), d=d, lg_w=lg_w)
    ests = np.stack([sketch[i, cells[i]] for i in range(d)])
    return ests.min(axis=0).astype(np.int64)


# ---------------------------------------------------------------------------
# KLL/MRL-style quantile sketch (mergeable, bounded memory)
# ---------------------------------------------------------------------------
#
# The third sketch the family needs (HLL = distinct, CMS = frequency,
# this = quantiles): ε-approximate quantiles from a FIXED-size summary.
# Structure: levels of capacity ``k``; level i items carry weight 2^i.
# A full level is sorted and every other item promoted (compaction),
# the classic Manku–Rajagopalan–Lindsay / KLL shape. The compaction
# offset is a deterministic coin derived from (level, generation) via
# the stable SipHash, so a given insertion order reproduces exactly;
# the engine's exact-quantile path (stages/quantiles.py) remains the
# bit-exact tool — this sketch is the ONE-PASS BOUNDED-MEMORY option
# for 100 TB profiling, self-checked against true ranks rather than
# hash-gated.


class KLLSketch:
    """Mergeable quantile sketch: ≤ k items per level, ~k·log₂(n/k)
    floats total. ``merge`` is level-wise concat + compaction, so
    per-batch partials combine associatively (the combiner pattern)."""

    def __init__(self, k: int = 256):
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self._gen = 0

    def _coin(self, level: int) -> int:
        self._gen += 1
        h = pd.util.hash_array(np.array([f"kll:{level}:{self._gen}"], dtype=object))
        return int(h[0] & np.uint64(1))

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.k:
                v = np.sort(self.levels[i], kind="stable")
                off = self._coin(i)
                promoted = v[off::2]
                self.levels[i] = np.empty(0, np.float64)
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                self.levels[i + 1] = np.concatenate([self.levels[i + 1], promoted])
            i += 1

    def update_many(self, values: np.ndarray) -> None:
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        # feed in k-sized gulps so level 0 never balloons past 2k
        for lo in range(0, len(v), self.k):
            self.levels[0] = np.concatenate([self.levels[0], v[lo : lo + self.k]])
            self._compress()

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        for i, lv in enumerate(other.levels):
            while i >= len(self.levels):
                self.levels.append(np.empty(0, np.float64))
            self.levels[i] = np.concatenate([self.levels[i], lv])
        self._compress()
        return self

    def to_table(self) -> pa.Table:
        lvls = np.concatenate(
            [np.full(len(v), i, np.int64) for i, v in enumerate(self.levels)]
        ) if any(len(v) for v in self.levels) else np.empty(0, np.int64)
        vals = np.concatenate(self.levels) if any(len(v) for v in self.levels) else np.empty(0, np.float64)
        return pa.table(
            {"level": pa.array(lvls, pa.int64()), "value": pa.array(vals, pa.float64())}
        )

    @classmethod
    def from_table(cls, t: pa.Table, k: int = 256) -> "KLLSketch":
        s = cls(k)
        if t.num_rows:
            lv = t["level"].to_numpy(zero_copy_only=False)
            va = t["value"].to_numpy(zero_copy_only=False)
            for i in range(int(lv.max()) + 1):
                while i >= len(s.levels):
                    s.levels.append(np.empty(0, np.float64))
                s.levels[i] = va[lv == i].astype(np.float64)
        return s

    def quantile(self, q: float) -> float:
        vals = np.concatenate(self.levels)
        wts = np.concatenate(
            [np.full(len(v), 1 << i, np.float64) for i, v in enumerate(self.levels)]
        )
        if len(vals) == 0:
            return float("nan")
        order = np.argsort(vals, kind="stable")
        vs, ws = vals[order], wts[order]
        cum = np.cumsum(ws)
        target = q * cum[-1]
        return float(vs[np.searchsorted(cum, target, side="left").clip(max=len(vs) - 1)])


def kll_quantiles(
    ds, col: str, quantiles: list[float], *, k: int = 256, batch_size: int = 1 << 18
) -> dict[float, float]:
    """One-pass distributed quantile estimates: per-batch KLL partials
    (≤ k·log₂(batch/k) rows each — bounded regardless of batch size),
    level-wise driver merge, estimates from the merged summary. The
    streaming profile tool for data too big for the exact two-pass
    path; accuracy self-checked in `entry_queries.q_kll_quantiles`."""

    def partial(t: pa.Table) -> pa.Table:
        s = KLLSketch(k)
        s.update_many(t[col].to_numpy(zero_copy_only=False).astype(np.float64))
        return s.to_table()

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    acc = KLLSketch(k)
    for t in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        acc.merge(KLLSketch.from_table(t, k))
    return {q: acc.quantile(q) for q in quantiles}
