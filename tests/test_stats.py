"""Per-conversation stats / facts tests (generate_kinematic_stats +
pivot_stats_df analog, statistics.py:65-202)."""

import numpy as np
import pandas as pd

from ptrail_ray.schema import stats_ordered_cols
from ptrail_ray.pipelines.flagship import flagship
from ptrail_ray.stages.kernels import DERIVATIVE_FEATURES
from ptrail_ray.stages.stats import conv_facts, conv_stats, dataset_facts


def test_conv_stats_wide_and_parity(synth_ds, synth_pdf):
    feat = flagship(synth_ds, num_buckets=8).materialize()
    out = conv_stats(feat).to_pandas().set_index("conv_id").sort_index()

    # fixed wide column order (ORDERED_COLS pattern, constants.py:34-43)
    assert list(out.columns) == stats_ordered_cols()
    assert len(out) == synth_pdf["conv_id"].nunique()

    # spot parity vs pandas describe on a few conversations
    ref_feat = feat.to_pandas().sort_values(["conv_id", "turn_idx", "ts"])
    for cid in list(out.index[:5]):
        g = ref_feat[ref_feat["conv_id"] == cid]
        for f in ["delta_t", "len_rate"]:
            s = g[f].dropna()
            if len(s) == 0:
                assert np.isnan(out.loc[cid, f"mean_{f}"])
                continue
            assert np.isclose(out.loc[cid, f"mean_{f}"], s.mean(), equal_nan=True)
            assert np.isclose(out.loc[cid, f"p50_{f}"], s.quantile(0.5), equal_nan=True)
            if len(s) > 1:
                assert np.isclose(out.loc[cid, f"std_{f}"], s.std(ddof=1))


def test_conv_facts(synth_ds, synth_pdf):
    out = conv_facts(synth_ds).to_pandas().set_index("conv_id").sort_index()
    ref = synth_pdf.sort_values(["conv_id", "turn_idx", "ts"]).groupby("conv_id")
    assert (out["n_turns"] == ref.size()).all()
    assert (out["start_ts"] == ref["ts"].min()).all()
    assert (out["end_ts"] == ref["ts"].max()).all()
    exp_dur = (ref["ts"].max() - ref["ts"].min()).dt.total_seconds()
    assert np.allclose(out["duration_s"], exp_dur)
    exp_tools = synth_pdf.groupby("conv_id")["tool"].nunique()
    assert (out["n_distinct_tools"] == exp_tools).all()


def test_dataset_facts(synth_ds, synth_pdf):
    facts = dataset_facts(synth_ds)
    assert facts["n_turns"] == len(synth_pdf)
    assert facts["n_convs"] == synth_pdf["conv_id"].nunique()
    assert pd.Timestamp(facts["min_ts"]) == synth_pdf["ts"].min()
    assert pd.Timestamp(facts["max_ts"]) == synth_pdf["ts"].max()
