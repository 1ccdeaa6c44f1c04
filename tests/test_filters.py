"""Filter semantics tests (filters_test.py patterns: monotone row-subsets,
NaN-sentinel behavior, IQR bounds, min-points, dedup)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ptrail_ray.stages.filters import (
    filter_by_conv_id,
    filter_by_max,
    filter_by_min,
    filter_by_range,
    filter_outliers_by_iqr,
    hampel_filter,
    remove_convs_with_less_turns,
    remove_duplicates,
)
from ptrail_ray.pipelines.flagship import flagship


@pytest.fixture(scope="module")
def feat_ds(synth_ds):
    return flagship(
        synth_ds, features=["m1", "m2", "delta_t", "delta_len", "len_rate"], num_buckets=8
    ).materialize()


@pytest.fixture(scope="module")
def feat_pdf(feat_ds):
    return feat_ds.to_pandas()


def test_max_filter_nan_sentinel(feat_ds, feat_pdf):
    out = filter_by_max(feat_ds, "len_rate", 5.0).to_pandas()
    # NaN rows (conv heads) are DROPPED (filters.py:340-341)
    assert not out["len_rate"].isna().any()
    assert (out["len_rate"] <= 5.0).all()
    expected = feat_pdf[feat_pdf["len_rate"].fillna(6.0) <= 5.0]
    assert len(out) == len(expected)


def test_min_filter_nan_sentinel(feat_ds, feat_pdf):
    out = filter_by_min(feat_ds, "delta_t", 5.0).to_pandas()
    assert not out["delta_t"].isna().any()
    assert (out["delta_t"] >= 5.0).all()
    assert len(out) == (feat_pdf["delta_t"] >= 5.0).sum()


def test_range_filter_and_negative(feat_ds):
    lo = pd.Timestamp("2024-01-10")
    hi = pd.Timestamp("2024-02-01")
    out = filter_by_range(feat_ds, "ts", lo, hi).to_pandas()
    assert ((out["ts"] >= lo) & (out["ts"] <= hi)).all()
    with pytest.raises(ValueError):
        filter_by_range(feat_ds, "ts", hi, lo)


def test_filter_by_conv_id(feat_ds, feat_pdf):
    cid = feat_pdf["conv_id"].iloc[0]
    out = filter_by_conv_id(feat_ds, cid).to_pandas()
    assert (out["conv_id"] == cid).all()
    assert len(out) == (feat_pdf["conv_id"] == cid).sum()


def test_iqr_filter_matches_pandas(feat_ds, feat_pdf):
    """Global exact-quantile IQR with STRICT interior
    (filters.py:581-600)."""
    out = filter_outliers_by_iqr(feat_ds, "delta_len").to_pandas()
    s = feat_pdf["delta_len"]
    q1, q3 = s.quantile(0.25), s.quantile(0.75)
    cut = (q3 - q1) * 1.5
    expected = feat_pdf[(s > q1 - cut) & (s < q3 + cut)]
    assert len(out) == len(expected)
    assert len(out) <= len(feat_pdf)  # monotone (filters_test.py:30)


def test_remove_convs_with_less_turns(synth_ds, synth_pdf):
    out = remove_convs_with_less_turns(synth_ds, min_turns=3).to_pandas()
    counts = synth_pdf.groupby("conv_id").size()
    keep = counts[counts >= 3].index
    assert set(out["conv_id"].unique()) == set(keep)
    assert len(out) == counts[counts >= 3].sum()


def test_remove_duplicates(synth_ds, synth_pdf):
    out = remove_duplicates(synth_ds).to_pandas()
    expected = synth_pdf.drop_duplicates(
        subset=["conv_id", "turn_idx", "ts", "text"]
    )
    assert len(out) == len(expected)
    assert len(out) < len(synth_pdf)  # fixture injects dups


def test_hampel_drops_injected_outlier(ray_session):
    """A large spike in an otherwise-flat series must be removed; the
    flat rows must survive (filters.py:672-759 behavior)."""
    n = 60
    ts = pd.date_range("2024-01-01", periods=n, freq="10s")
    v = np.full(n, 100.0)
    v[30] = 10_000.0
    pdf = pd.DataFrame(
        {
            "conv_id": "c0",
            "turn_idx": np.arange(n, dtype=np.int32),
            "role": "user",
            "text": "x",
            "tool": None,
            "ts": ts,
            "metric": v,
        }
    )
    out = hampel_filter(rd.from_pandas(pdf), "metric", window=5).to_pandas()
    assert 10_000.0 not in out["metric"].to_numpy()
    assert len(out) == n - 1
