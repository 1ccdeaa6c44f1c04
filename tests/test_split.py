"""Sub-conversation splitting: the split path must be value-identical to
the whole-conversation path on every feature (including the stateful
ones: session_id, elapsed_s, cum_len, seg_id)."""

import numpy as np
import pandas as pd
import ray.data as rd

from ptrail_ray.pipelines.flagship import flagship
from ptrail_ray.stages.kernels import DERIVATIVE_FEATURES
from ptrail_ray.stages.split import featurize_split

CHECK = DERIVATIVE_FEATURES + ["m1", "m2"]
EXACT = ["session_id", "seg_id"]
LAGS = ["lag1_role", "lead1_role", "lag1_tool", "lead1_tool"]


def _cmp(base: pd.DataFrame, split: pd.DataFrame):
    # exact-duplicate rows tie on (conv_id, turn_idx, ts) but carry
    # different feature values (first occurrence vs zero-delta dup);
    # feature columns as secondary sort keys make row alignment
    # deterministic in both frames
    assert list(base.columns) == list(split.columns)  # one schema
    key = ["conv_id", "turn_idx", "ts"] + CHECK
    base = base.sort_values(key, na_position="last").reset_index(drop=True)
    split = split.sort_values(key, na_position="last").reset_index(drop=True)
    assert len(base) == len(split)
    for col in CHECK + ["elapsed_s", "cum_len"]:
        a = base[col].to_numpy(dtype=float)
        b = split[col].to_numpy(dtype=float)
        assert np.array_equal(np.isnan(a), np.isnan(b)), col
        assert np.allclose(a, b, equal_nan=True), col
    for col in EXACT:
        assert (base[col].to_numpy() == split[col].to_numpy()).all(), col
    for col in LAGS:
        assert (base[col].fillna("∅") == split[col].fillna("∅")).all(), col


def test_split_equals_whole(synth_ds, ray_session):
    base = flagship(synth_ds, num_buckets=4).to_pandas()
    split = featurize_split(synth_ds, subrange_rows=50, num_buckets=4).to_pandas()
    _cmp(base, split)


def test_split_tiny_subranges(synth_ds, ray_session):
    """S smaller than the overlap window still must be exact (every row
    is near a boundary)."""
    base = flagship(synth_ds, num_buckets=4).to_pandas()
    split = featurize_split(synth_ds, subrange_rows=7, num_buckets=4).to_pandas()
    _cmp(base, split)


def test_flagship_split_routing(synth_ds, synth_pdf, ray_session):
    """Giant convs (>200 turns in the fixture) go through the split arm;
    union output equals the naive whole-conversation run."""
    base = flagship(synth_ds, num_buckets=4).to_pandas()
    routed = flagship(synth_ds, num_buckets=4, split_threshold=200).to_pandas()
    _cmp(base, routed)
