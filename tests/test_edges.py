"""Robustness edge cases: empty inputs, empty side tables, single rows."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ptrail_ray.schema import TRANSCRIPT_SCHEMA
from ptrail_ray.stages.asof import asof_join
from ptrail_ray.stages.filters import filter_by_max, remove_duplicates
from ptrail_ray.pipelines.flagship import flagship
from ptrail_ray.stages.kernels import compute_features
from ptrail_ray.stages.bucket import sort_bucket
from ptrail_ray.stages.stats import conv_stats


def _empty_ds():
    return rd.from_arrow(TRANSCRIPT_SCHEMA.empty_table())


def test_empty_through_everything(ray_session):
    e = _empty_ds()
    assert flagship(e, num_buckets=2).count() == 0
    assert remove_duplicates(e, num_buckets=2).count() == 0
    assert conv_stats(flagship(e, num_buckets=2)).count() == 0


def test_empty_side_table(synth_ds, ray_session):
    side = pd.DataFrame(
        {
            "key": pd.Series([], dtype=str),
            "effective_ts": pd.Series([], dtype="datetime64[us]"),
            "attr_num": pd.Series([], dtype=float),
            "attr_cat": pd.Series([], dtype=str),
        }
    )
    out = asof_join(synth_ds, side).to_pandas()
    assert out["attr_num"].isna().all()
    assert out["attr_cat"].isna().all()


def test_single_row_table(ray_session):
    t = pa.table(
        {
            "conv_id": ["only"],
            "turn_idx": pa.array([0], pa.int32()),
            "role": ["user"],
            "text": ["hi"],
            "tool": [None],
            "ts": pa.array([pd.Timestamp("2024-01-01")], pa.timestamp("us")),
        }
    )
    out = compute_features(sort_bucket(t)).to_pandas()
    assert len(out) == 1
    assert np.isnan(out["delta_t"].iloc[0])
    assert out["session_id"].iloc[0] == 0


def test_lag_k_features(synth_ds, synth_pdf):
    out = (
        flagship(synth_ds, features=["lag2_role", "lag3_role"], num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    ref = synth_pdf.sort_values(["conv_id", "turn_idx", "ts"], kind="stable").reset_index(drop=True)
    for k in (2, 3):
        exp = ref.groupby("conv_id", sort=False)["role"].shift(k)
        assert (out[f"lag{k}_role"].fillna("∅") == exp.fillna("∅")).all()


def test_winnow_empty_and_short_docs(ray_session):
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.functions.dedup import winnow_fingerprints

    docs = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3], "text": ["", None, "one", "a b c d"]}
    )
    out = winnow_fingerprints(rd.from_pandas(docs), k=3, w=4).to_pandas()
    # empty/None docs contribute nothing; short docs one fingerprint
    assert set(out["doc_id"]) == {2, 3}
    assert (out.groupby("doc_id").size() == 1).all()


def test_conv_intersect_empty_region(ray_session):
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.stages.project import conv_intersect_in_region

    pdf = pd.DataFrame(
        {
            "conv_id": ["a", "a", "b", "b"],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02"] * 2),
            "m1": [1, 2, 1, 3],
            "m2": [5, 6, 5, 7],
        }
    )
    ds = rd.from_pandas(pdf)
    # region excludes everything -> empty result, no crash
    out = conv_intersect_in_region(ds, "a", "b", (-10.0, -5.0, -10.0, -5.0)).to_pandas()
    assert len(out) == 0
    # full region -> the shared (1, 5) point matches once
    out2 = conv_intersect_in_region(ds, "a", "b", (0.0, 10.0, 0.0, 10.0)).to_pandas()
    assert len(out2) == 1
    assert out2.iloc[0]["m1"] == 1 and out2.iloc[0]["m2"] == 5


def test_conv_intersect_float_measures_mixed_empty_blocks(ray_session):
    """ADVICE r02: the empty-batch schema must derive from the input's
    column types — float measure columns with some blocks producing
    empty clips used to emit a conflicting int64 schema and break
    Dataset schema unification."""
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.stages.project import conv_intersect_in_region

    pdf = pd.DataFrame(
        {
            "conv_id": ["a", "a", "b", "b", "c", "c"],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02"] * 3),
            "x": [1.5, 2.5, 1.5, 3.5, 9.0, 9.5],
            "y": [5.25, 6.0, 5.25, 7.0, 9.0, 9.5],
        }
    )
    # 3 blocks: at least one contains no conv 'a' rows → empty clip path
    ds = rd.from_pandas(pdf, override_num_blocks=3)
    out = conv_intersect_in_region(
        ds, "a", "b", (0.0, 8.0, 0.0, 8.0), cols=("x", "y")
    ).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["x"] == 1.5 and out.iloc[0]["y"] == 5.25
    assert out["x"].dtype == np.float64


def test_ivf_tiny_dataset(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.functions.ann import ivf_topk

    rng = np.random.default_rng(3)
    emb = rng.normal(size=(7, 8))
    pdf = pd.DataFrame(
        {"vec_id": np.arange(7), "embedding": [e.tolist() for e in emb]}
    )
    out = ivf_topk(
        rd.from_pandas(pdf), emb[:2], k=3, n_lists=4, nprobe=4, train_size=16
    )
    # nprobe == n_lists -> exhaustive -> exact top-3 incl. self
    for qi in range(2):
        g = out[out["query_id"] == qi].sort_values("rank")
        assert g.iloc[0]["vec_id"] == qi


def test_path_sum_missing_conv(synth_ds):
    from ptrail_ray.stages.stats import path_sum_by_date_and_conv

    import pytest

    # a conversation absent from the data: date inference has nothing to
    # aggregate -> the reference raises KeyError; we surface a clear error
    with pytest.raises(Exception):
        path_sum_by_date_and_conv(synth_ds, "no-such-conv").to_pandas()
