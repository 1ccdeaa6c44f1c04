"""Window-kernel parity + invariants (recast of the reference's
kinematic_features_test.py structural assertions — SURVEY.md §5)."""

import numpy as np
import pandas as pd
import pytest

from ptrail_ray.oracle import oracle_features
from ptrail_ray.pipelines.flagship import flagship
from ptrail_ray.stages.kernels import DERIVATIVE_FEATURES

NAN_WIDTHS = {
    "delta_t": 1,
    "delta_len": 1,
    "elapsed_s": 1,
    "cum_len": 1,
    "len_rate": 1,
    "len_accel": 2,
    "len_jerk": 3,
    "tok_delta": 1,
    "tok_rate": 2,
    "tok_accel": 3,
}


@pytest.fixture(scope="module")
def engine_out(synth_ds):
    out = flagship(synth_ds, num_buckets=8).to_pandas()
    return out.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_out(synth_pdf):
    return oracle_features(synth_pdf.copy())


def test_row_conservation(engine_out, synth_pdf):
    assert len(engine_out) == len(synth_pdf)


def test_allclose_parity(engine_out, oracle_out):
    """np.allclose at each (conv_id, turn_idx) with positional NaN
    equality — the BASELINE correctness contract."""
    for col in DERIVATIVE_FEATURES + ["m1", "m2"]:
        a = engine_out[col].to_numpy(dtype=float)
        b = oracle_out[col].to_numpy(dtype=float)
        assert np.array_equal(np.isnan(a), np.isnan(b)), f"NaN mismatch in {col}"
        assert np.allclose(a, b, equal_nan=True), f"value mismatch in {col}"


def test_session_and_seg_parity(engine_out, oracle_out):
    assert (engine_out["session_id"].to_numpy() == oracle_out["session_id"].to_numpy()).all()
    assert (engine_out["seg_id"].to_numpy() == oracle_out["seg_id"].to_numpy()).all()


def test_lag_lead_parity(engine_out, oracle_out):
    for col in ["lag1_role", "lead1_role", "lag1_tool", "lead1_tool"]:
        a = engine_out[col].fillna("∅")
        b = oracle_out[col].fillna("∅")
        assert (a.to_numpy() == b.to_numpy()).all(), col


def test_row_alignment_with_oracle(engine_out, oracle_out):
    """Under the stable (conv_id, turn_idx, ts) order every engine row is
    the oracle's row: same keys and same measure channels (m1/m2 are the
    text's character and byte lengths; the output carries no text)."""
    key = ["conv_id", "turn_idx", "ts", "m1", "m2"]
    pd.testing.assert_frame_equal(
        engine_out[key], oracle_out[key], check_dtype=False
    )


def test_nan_widths_per_conversation(engine_out):
    """NaN-padding widths 1/2/3 (reference tests
    kinematic_features_test.py:59,107,117-132,142,153-167)."""
    for _, g in engine_out.groupby("conv_id"):
        for col, w in NAN_WIDTHS.items():
            head = g[col].to_numpy()[: min(w, len(g))]
            assert np.isnan(head).all(), (col, g["conv_id"].iloc[0])


def test_no_inf_anywhere(engine_out):
    """±inf → NaN after every division (kinematic_features.py:456 etc.)."""
    v = engine_out[DERIVATIVE_FEATURES].to_numpy(dtype=float)
    assert not np.isinf(v).any()


def test_single_turn_conv_all_nan(engine_out):
    g = engine_out[engine_out["conv_id"] == "conv-000000"]
    assert len(g) == 1
    assert g[DERIVATIVE_FEATURES].isna().all().all()


def test_leakage_prefix_truncation(synth_pdf, ray_session):
    """Zero temporal leakage: features on a truncated prefix of each
    conversation are identical to the full-table run (SURVEY.md §5-3)."""
    import ray.data as rd

    full = (
        flagship(rd.from_pandas(synth_pdf), num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    # truncate each conversation at turn_idx <= k (deterministic k per conv)
    rng = np.random.default_rng(3)
    kmap = {
        cid: int(rng.integers(0, g["turn_idx"].max() + 1))
        for cid, g in synth_pdf.groupby("conv_id")
    }
    keep = synth_pdf["turn_idx"] <= synth_pdf["conv_id"].map(kmap)
    prefix_in = synth_pdf[keep]
    prefix = (
        flagship(rd.from_pandas(prefix_in), num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    full_keep = (
        full[full["turn_idx"] <= full["conv_id"].map(kmap)]
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    assert len(prefix) == len(full_keep)
    for col in DERIVATIVE_FEATURES + ["session_id"]:
        a = prefix[col].to_numpy(dtype=float)
        b = full_keep[col].to_numpy(dtype=float)
        assert np.allclose(a, b, equal_nan=True), f"leakage in {col}"
