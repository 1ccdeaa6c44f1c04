"""Temporal extractor tests (recast of temporal_features_test.py,
including its one golden oracle: Weekend == independently computed
Sat/Sun — temporal_features_test.py:36-46)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from ptrail_ray.stages.temporal import add_temporal, add_temporal_columns


def test_temporal_columns(synth_ds, synth_pdf):
    out = (
        add_temporal(synth_ds)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    ref = synth_pdf.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    ts = pd.to_datetime(ref["ts"])

    assert (out["Date"].to_numpy() == ts.dt.date.to_numpy()).all()
    assert (out["Day_Of_Week"].to_numpy() == ts.dt.day_name().to_numpy()).all()
    # golden Weekend oracle
    expected_weekend = ts.dt.dayofweek.isin([5, 6]).to_numpy()
    assert (out["Weekend"].to_numpy() == expected_weekend).all()

    # Time_Of_Day bucket boundaries (temporal_features.py:188-196)
    h = ts.dt.hour.to_numpy()
    exp = np.select(
        [
            (h >= 0) & (h <= 4),
            (h > 4) & (h <= 8),
            (h > 8) & (h <= 12),
            (h > 12) & (h <= 16),
            (h > 16) & (h <= 20),
            (h > 20) & (h <= 24),
        ],
        ["Late Night", "Early Morning", "Morning", "Noon", "Evening", "Night"],
    )
    assert (out["Time_Of_Day"].to_numpy() == exp).all()


def test_weekend_crossing_exists(synth_pdf):
    """The fixture must actually exercise both weekend and weekday rows."""
    dow = pd.to_datetime(synth_pdf["ts"]).dt.dayofweek
    assert (dow >= 5).any() and (dow < 5).any()


def test_time_of_day_null_ts_stays_null():
    """A null ts gets a null Time_Of_Day, not a label."""
    ts = pd.to_datetime(["2024-01-01 03:00", None, "2024-01-01 23:59"])
    t = pa.table({"ts": pa.array(ts, pa.timestamp("us"))})
    got = add_temporal_columns(t)["Time_Of_Day"].to_pylist()
    assert got == ["Late Night", None, "Night"]
