"""Gap-fill: insert synthetic turns where inter-turn time exceeds a rate.

Analog of the reference's interpolation suite
(``ptrail/preprocessing/interpolation.py:31-375`` + kernels in
``preprocessing/helpers.py:44-348``): where ``delta_t > sampling_rate``,
insert ONE synthetic point per gap at ``ts_prev + sampling_rate`` whose
measures are interpolated from the surrounding turns — the same gap
predicate (strict ``>``, ``helpers.py:89-95``) and insertion time
(``helpers.py:74-95``: ``new_time[j-1] = t[j-1] + rate``) as the
reference's linear kernel.

Kernels (choose with ``method=``):

* ``linear`` — np.interp semantics, reference ``linear_help``
  (``helpers.py:44-102``);
* ``cubic`` — natural cubic spline (own numpy implementation; the
  reference uses scipy.interpolate.CubicSpline, ``helpers.py:105-168``);
* ``kinematic`` — position+velocity-consistent quadratic using the local
  rate, analog of the 2×2 kinematic solve (``helpers.py:277-348``);
* ``random_walk`` — draw from N(μ,σ) of the conversation's deltas
  (``helpers.py:171-274``); seeded per conversation for determinism
  (reference parity is structural only — row count/schema — matching the
  reference's own test, ``interpolation_tests.py:31-37``).

linear/kinematic/cubic are BATCHED across all conversations in the
bucket — no per-conversation Python loop. The cubic tridiagonal solve
runs in CSR-lockstep: one flat coefficient array over all runs'
intervals, the Thomas forward/backward sweeps iterate the interval
index once for ALL runs simultaneously (the same lockstep shape as the
DuckDB oracle's recursive CTEs), so the per-element float operations —
and therefore the results — are bit-identical to the per-run solve.
Only random_walk loops per conversation (per-conv RNG seeding is
inherent to its determinism contract).

Output contract mirrors ``interpolation.py:43-48`` (only the mandatory
columns survive): synthetic rows carry ``role='gap'``, ``text=''``,
``tool=null``, ``turn_idx=-1``, plus interpolated ``m1_ip`` (the measure
channel) and ``is_synthetic`` marker; real rows pass through byte-equal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ptrail_ray.schema import CONV_ID, ROLE, TEXT, TOOL, TS, TURN_IDX
from ptrail_ray.stages.bucket import conv_runs, map_conv_buckets, sort_bucket, stable_hash


def _multi_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated [starts[i], starts[i]+lens[i]) ranges, vectorized."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    cl = np.cumsum(lens)[:-1]
    out[cl] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


def _cubic_eval_batched(
    t: np.ndarray,
    y: np.ndarray,
    run_starts: np.ndarray,
    run_lengths: np.ndarray,
    q_run: np.ndarray,
    q_gap: np.ndarray,
    q_t: np.ndarray,
) -> np.ndarray:
    """Natural cubic spline values at the gap points of MANY runs at
    once (runs indexed by ``q_run`` into run_starts/lengths; ``q_gap``
    is the global index of the turn before each gap).

    Bit-equal to a per-run Thomas solve: identical expressions, just
    evaluated across all runs per sweep step."""
    n_s = run_lengths
    m_s = n_s - 1  # intervals per run
    k_s = np.maximum(n_s - 2, 0)  # unknown second derivatives per run

    # flat interval arrays (CSR by run)
    idx = _multi_arange(run_starts, m_s)
    h = t[idx + 1] - t[idx]
    h = np.where(h == 0, 1e-12, h)
    slope = (y[idx + 1] - y[idx]) / h

    ioff = np.concatenate(([0], np.cumsum(m_s)))[:-1]
    coff = np.concatenate(([0], np.cumsum(k_s)))[:-1]
    K = int(k_s.sum())
    # coefficient rows: per run positions 0..k-1 map to intervals c, c+1
    i2 = _multi_arange(ioff, k_s)
    rhs = 6 * (slope[i2 + 1] - slope[i2])
    diag = 2 * (h[i2] + h[i2 + 1])
    h_lo = h[i2]
    h_hi = h[i2 + 1]

    cp = np.zeros(K)
    dp = np.zeros(K)
    with np.errstate(invalid="ignore", divide="ignore"):
        has = np.flatnonzero(k_s > 0)
        p0 = coff[has]
        cp[p0] = np.where(k_s[has] > 1, h_hi[p0] / diag[p0], 0.0)
        dp[p0] = rhs[p0] / diag[p0]
        max_k = int(k_s.max()) if len(k_s) else 0
        for i in range(1, max_k):
            act = np.flatnonzero(k_s > i)
            p = coff[act] + i
            denom = diag[p] - h_lo[p] * cp[p - 1]
            cp[p] = np.where(i < k_s[act] - 1, h_hi[p] / denom, 0.0)
            dp[p] = (rhs[p] - h_lo[p] * dp[p - 1]) / denom
        sol = np.zeros(K)
        plast = coff[has] + k_s[has] - 1
        sol[plast] = dp[plast]
        for i in range(max_k - 2, -1, -1):
            act = np.flatnonzero(k_s >= i + 2)
            p = coff[act] + i
            sol[p] = dp[p] - cp[p] * sol[p + 1]

    # evaluate at the gap points (interval j = local gap index)
    j = q_gap - run_starts[q_run]
    pj = ioff[q_run] + j
    hj = h[pj]
    m0 = np.where(j > 0, sol[np.minimum(coff[q_run] + j - 1, max(K - 1, 0))], 0.0)
    m1v = np.where(j < k_s[q_run], sol[np.minimum(coff[q_run] + j, max(K - 1, 0))], 0.0)
    d = q_t - t[q_gap]
    a = (m1v - m0) / (6 * hj)
    b = m0 / 2
    c = (y[q_gap + 1] - y[q_gap]) / hj - hj * (2 * m0 + m1v) / 6
    return y[q_gap] + d * (c + d * (b + d * a))


def gapfill_kernel(
    table: pa.Table, *, sampling_rate: float, method: str = "linear"
) -> pa.Table:
    """Bucket kernel: emit original rows + one synthetic row per gap."""
    starts, lengths = conv_runs(table[CONV_ID])
    ts_us = table[TS]
    if pa.types.is_timestamp(ts_us.type) and ts_us.type.unit != "us":
        import pyarrow.compute as pc

        ts_us = pc.cast(ts_us, pa.timestamp("us"))
    us = ts_us.to_numpy(zero_copy_only=False).view("int64")
    t = us / 1e6
    import pyarrow.compute as pc

    m1 = (
        pc.coalesce(pc.cast(pc.utf8_length(table[TEXT]), pa.int64()), pa.scalar(0, pa.int64()))
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )

    dt = np.empty(len(t))
    dt[0] = np.nan
    dt[1:] = t[1:] - t[:-1]
    dt[starts] = np.nan
    gap_prev = np.flatnonzero(dt > sampling_rate) - 1  # index of the turn BEFORE the gap

    orig = table.append_column("is_synthetic", pa.array(np.zeros(table.num_rows, bool)))
    orig = orig.append_column("m1_ip", pa.array(m1, pa.float64()))
    if len(gap_prev) == 0:
        return orig

    run_of = np.repeat(np.arange(len(starts)), lengths)
    conv_np = table[CONV_ID].to_numpy(zero_copy_only=False)
    new_t = t[gap_prev] + sampling_rate
    q_run = run_of[gap_prev]
    new_vals = np.empty(len(gap_prev))

    if method == "linear":
        # the oracle's formula, m1 + dm * (rate / dt) with dt from the
        # integer microseconds, applied to every gap at once
        g = gap_prev
        dt_s = (us[g + 1] - us[g]) / 1e6
        new_vals = m1[g] + (m1[g + 1] - m1[g]) * (sampling_rate / dt_s)
    elif method == "kinematic":
        g = gap_prev
        jloc = g - starts[q_run]
        with np.errstate(divide="ignore", invalid="ignore"):
            v0 = np.where(
                jloc > 0,
                (m1[g] - m1[np.maximum(g - 1, 0)])
                / np.maximum(t[g] - t[np.maximum(g - 1, 0)], 1e-12),
                0.0,
            )
            T = np.maximum(t[g + 1] - t[g], 1e-12)
            a = 2 * (m1[g + 1] - m1[g] - v0 * T) / (T * T)
            d = new_t - t[g]
        new_vals = m1[g] + v0 * d + 0.5 * a * d * d
    elif method == "cubic":
        big = lengths[q_run] >= 3
        if big.any():
            # solve only the runs that actually contain gaps
            runs_used = np.unique(q_run[big])
            new_vals[big] = _cubic_eval_batched(
                t,
                m1,
                starts[runs_used],
                lengths[runs_used],
                np.searchsorted(runs_used, q_run[big]),
                gap_prev[big],
                new_t[big],
            )
        if (~big).any():
            # n < 3 falls back to np.interp (same interior formula)
            g = gap_prev[~big]
            slope = (m1[g + 1] - m1[g]) / (t[g + 1] - t[g])
            new_vals[~big] = slope * (new_t[~big] - t[g]) + m1[g]
    elif method == "random_walk":
        # per-conv RNG seeding is the determinism contract — loop stays
        for r in np.unique(q_run):
            sel = q_run == r
            lo, ln = starts[r], lengths[r]
            seed = int(stable_hash(np.array([conv_np[lo]]))[0] % (2**32))
            rng = np.random.default_rng(seed)
            y_run, t_run = m1[lo : lo + ln], t[lo : lo + ln]
            j = np.clip(
                np.searchsorted(t_run, new_t[sel], side="right") - 1, 0, ln - 2
            )
            deltas = np.diff(y_run)
            mu = float(np.mean(deltas)) if len(deltas) else 0.0
            sd = float(np.std(deltas)) if len(deltas) else 0.0
            new_vals[sel] = y_run[j] + rng.normal(
                mu, sd if sd > 0 else 1e-9, size=int(sel.sum())
            )
    else:
        raise ValueError(f"unknown gap-fill method: {method}")

    k = len(gap_prev)
    synth_cols = {
        CONV_ID: pa.array(conv_np[gap_prev], pa.string()),
        TURN_IDX: pa.array(np.full(k, -1, np.int32)),
        ROLE: pa.array(np.repeat("gap", k), pa.string()),
        TEXT: pa.array(np.repeat("", k), pa.string()),
        TOOL: pa.array([None] * k, pa.string()),
        TS: pa.array((new_t * 1e6).astype("int64").view("datetime64[us]")),
        "is_synthetic": pa.array(np.ones(k, bool)),
        "m1_ip": pa.array(new_vals, pa.float64()),
    }
    # match the original schema exactly (passthrough columns → null)
    arrays = []
    for f in orig.schema:
        if f.name in synth_cols and not pa.types.is_null(f.type):
            a = synth_cols[f.name]
            arrays.append(a if a.type == f.type else a.cast(f.type))
        else:
            arrays.append(pa.nulls(k, f.type))
    synth = pa.Table.from_arrays(arrays, schema=orig.schema)
    out = pa.concat_tables([orig, synth])
    return sort_bucket(out, (CONV_ID, TS, TURN_IDX))


def gapfill(ds, sampling_rate: float, method: str = "linear", *, num_buckets: int = 32):
    """Dataset-level gap-fill: per-conversation synthetic-turn insertion."""
    return map_conv_buckets(
        ds,
        lambda tbl: gapfill_kernel(tbl, sampling_rate=sampling_rate, method=method),
        num_buckets=num_buckets,
    )
