"""As-of/backfill join tests: inclusive boundary, null backfill, parity
with a brute-force oracle (SURVEY.md §2.5 / FIXTURES.md §2)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ptrail_ray.oracle import oracle_asof
from ptrail_ray.stages.asof import AsofJoiner, asof_join, put_side_table


def _mk_turns():
    return pd.DataFrame(
        {
            "conv_id": ["a", "a", "a", "b", "b", "c"],
            "turn_idx": np.array([0, 1, 2, 0, 1, 0], dtype=np.int32),
            "role": "user",
            "text": "t",
            "tool": None,
            "ts": pd.to_datetime(
                [
                    "2024-01-01 00:00:00",  # == version ts (inclusive boundary)
                    "2024-01-01 00:05:00",
                    "2024-01-01 01:00:00",
                    "2024-01-01 00:30:00",
                    "2024-01-02 00:00:00",
                    "2023-12-31 23:59:59",  # before any version → null
                ]
            ),
        }
    )


def _mk_side():
    return pd.DataFrame(
        {
            "key": ["a", "a", "b", "c"],
            "effective_ts": pd.to_datetime(
                [
                    "2024-01-01 00:00:00",
                    "2024-01-01 00:10:00",
                    "2024-01-01 00:00:00",
                    "2024-01-01 00:00:00",
                ]
            ),
            "attr_num": [1.0, 2.0, 3.0, 4.0],
            "attr_cat": ["v1", "v2", "w1", "x1"],
        }
    )


def test_asof_inclusive_and_null_backfill(ray_session):
    turns, side = _mk_turns(), _mk_side()
    out = (
        asof_join(rd.from_pandas(turns), side)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    # inclusive <=: turn at exactly version ts gets that version
    assert out.loc[0, "attr_num"] == 1.0 and out.loc[0, "attr_cat"] == "v1"
    # between versions → earlier version (no future read)
    assert out.loc[1, "attr_num"] == 1.0
    # after second version → latest
    assert out.loc[2, "attr_num"] == 2.0
    # key with no version before first turn → null
    assert np.isnan(out.loc[5, "attr_num"]) or pd.isna(out.loc[5, "attr_num"])


def test_asof_matches_bruteforce_oracle(synth_pdf, ray_session):
    rng = np.random.default_rng(5)
    convs = synth_pdf["conv_id"].unique()[:20]
    turns = synth_pdf[synth_pdf["conv_id"].isin(convs)].copy()
    tmin, tmax = turns["ts"].min(), turns["ts"].max()
    side = pd.DataFrame(
        {
            "key": rng.choice(convs, 60),
            "effective_ts": pd.to_datetime(
                rng.integers(tmin.value // 1000, tmax.value // 1000, 60) * 1000
            ),
            "attr_num": rng.normal(size=60),
            "attr_cat": rng.choice(["p", "q", "r"], 60),
        }
    ).drop_duplicates(subset=["key", "effective_ts"])
    got = (
        asof_join(rd.from_pandas(turns), side)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    exp = (
        oracle_asof(turns, side)
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    assert np.allclose(
        got["attr_num"].to_numpy(dtype=float),
        exp["attr_num"].to_numpy(dtype=float),
        equal_nan=True,
    )
    assert (got["attr_cat"].fillna("∅") == exp["attr_cat"].fillna("∅")).all()


def test_feature_tail_probes_the_broadcast_joiner(ray_session, monkeypatch):
    """put_side_table broadcasts a built joiner of numpy and Arrow
    buffers; feature_tail fetches it and never builds one."""
    from ptrail_ray.stages.kernels import feature_tail

    turns = pa.Table.from_pandas(_mk_turns(), preserve_index=False)
    ref = put_side_table(_mk_side())
    joiner = ray.get(ref)
    assert isinstance(joiner, AsofJoiner)
    for name, val in vars(joiner).items():
        assert not isinstance(val, (pd.DataFrame, pd.Series, pd.Index)), name

    def no_build(*args, **kwargs):
        raise AssertionError("feature_tail built an AsofJoiner")

    monkeypatch.setattr(AsofJoiner, "__init__", no_build)
    out = feature_tail(turns, ref).to_pandas()
    assert out["attr_num"].tolist()[:5] == [1.0, 1.0, 2.0, 3.0, 3.0]
    assert pd.isna(out["attr_num"].iloc[5])
