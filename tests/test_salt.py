"""Skew-handling tests: hot-conv detection + salted bucket parity."""

import numpy as np
import pandas as pd

from ptrail_ray.pipelines.flagship import flagship
from ptrail_ray.stages.kernels import DERIVATIVE_FEATURES
from ptrail_ray.stages.salt import detect_hot_convs


def test_detect_hot_convs(synth_ds, synth_pdf):
    counts = synth_pdf.groupby("conv_id").size()
    thr = 100
    hot = detect_hot_convs(synth_ds, thr)
    assert hot == sorted(counts[counts > thr].index)
    assert len(hot) >= 1  # fixture plants a 600-turn conversation


def test_salted_equals_unsalted(synth_ds):
    base = (
        flagship(synth_ds, num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    salted = (
        flagship(synth_ds, num_buckets=4, hot_threshold=100)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    assert len(base) == len(salted)
    for col in DERIVATIVE_FEATURES + ["session_id", "seg_id"]:
        a = base[col].to_numpy(dtype=float)
        b = salted[col].to_numpy(dtype=float)
        assert np.allclose(a, b, equal_nan=True), col
    key = ["conv_id", "turn_idx", "ts", "m1", "m2"]
    pd.testing.assert_frame_equal(base[key], salted[key])
