"""Projection / broadcast-join / grouped-sum / near-dup operator tests."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ptrail_ray.stages.project import (
    ExtractNumeric,
    add_turn_flags,
    membership_flag,
    semi_join_keys,
)
from ptrail_ray.stages.stats import conv_sums


def test_turn_flags(synth_ds, synth_pdf):
    out = add_turn_flags(synth_ds).to_pandas()
    assert (out["is_tool_turn"] == (out["role"] == "tool")).all()
    for r in ("user", "assistant", "tool", "system"):
        assert (out[f"role_{r}"] == (out["role"] == r).astype("int64")).all()


def test_extract_numeric(ray_session):
    pdf = pd.DataFrame(
        {
            "conv_id": ["a"] * 4,
            "turn_idx": np.arange(4, dtype=np.int32),
            "role": "user",
            "text": ['{"k": 12}', "no match", "", '{"k": 0}'],
            "tool": None,
            "ts": pd.date_range("2024-01-01", periods=4, freq="1min"),
        }
    )
    out = ExtractNumeric.stage(rd.from_pandas(pdf)).to_pandas()
    out = out.sort_values("turn_idx")
    vals = out["k_value"].tolist()
    assert vals[0] == 12 and vals[3] == 0
    assert pd.isna(vals[1]) and pd.isna(vals[2])


def test_membership_flag(synth_ds, synth_pdf):
    out = membership_flag(synth_ds, ["search", "python"]).to_pandas()
    exp = synth_pdf["tool"].isin(["search", "python"]).astype("int64")
    got = out.sort_values(["conv_id", "turn_idx", "ts", "text"]).reset_index(drop=True)
    ref = synth_pdf.assign(flagged=exp).sort_values(
        ["conv_id", "turn_idx", "ts", "text"]
    ).reset_index(drop=True)
    assert (got["flagged"].to_numpy() == ref["flagged"].to_numpy()).all()


def test_semi_anti_join(synth_ds, synth_pdf):
    keys = list(synth_pdf["conv_id"].unique()[:10])
    semi = semi_join_keys(synth_ds, keys).to_pandas()
    anti = semi_join_keys(synth_ds, keys, anti=True).to_pandas()
    assert set(semi["conv_id"]) == set(keys)
    assert set(anti["conv_id"]).isdisjoint(keys)
    assert len(semi) + len(anti) == len(synth_pdf)


def test_conv_sums(synth_ds, synth_pdf):
    out = conv_sums(synth_ds).to_pandas().set_index("conv_id").sort_index()
    ref = synth_pdf.sort_values(["conv_id", "turn_idx", "ts"])
    m1 = ref["text"].fillna("").str.len()
    g = ref.assign(m1=m1).groupby("conv_id", sort=True)
    exp_path = g["m1"].apply(lambda s: np.abs(np.diff(s.to_numpy())).sum())
    exp_chars = g["m1"].sum()
    assert np.allclose(out["path_len"], exp_path)
    assert (out["total_chars"] == exp_chars).all()


def test_cosine_pairs_exact(ray_session):
    from ptrail_ray.functions.ann import cosine_pairs, _normalize

    rng = np.random.default_rng(9)
    emb = rng.normal(size=(300, 16))
    emb[7] = emb[3] + rng.normal(scale=0.05, size=16)  # planted near-dup
    pdf = pd.DataFrame(
        {"vec_id": np.arange(300, dtype=np.int64), "embedding": [e.tolist() for e in emb]}
    )
    out = cosine_pairs(rd.from_pandas(pdf), threshold=0.9)
    pairs = set(zip(out["a"], out["b"]))
    assert (3, 7) in pairs
    # oracle: brute numpy
    en = _normalize(emb)
    sims = en @ en.T
    iu = np.triu_indices(300, 1)
    exp = {(int(a), int(b)) for a, b in zip(iu[0], iu[1]) if sims[a, b] >= 0.9}
    assert pairs == exp


def test_bbox_by_radius():
    from ptrail_ray.stages.project import bbox_by_radius

    assert bbox_by_radius((10.0, 20.0), 5.0) == (5.0, 15.0, 15.0, 25.0)
    import pytest

    with pytest.raises(ValueError):
        bbox_by_radius((0, 0), -1)


def test_hash_join_inner_and_left(ray_session):
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.stages.join import hash_join

    l = pd.DataFrame({"k": [1, 2, 3, 3], "lv": ["a", "b", "c", "d"]})
    r = pd.DataFrame({"k": [2, 3, 4], "rv": [20.0, 30.0, 40.0]})
    inner = (
        hash_join(rd.from_pandas(l), rd.from_pandas(r), "k")
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    exp = l.merge(r, on="k").sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(inner[["k", "lv", "rv"]], exp)

    left = (
        hash_join(rd.from_pandas(l), rd.from_pandas(r), "k", how="left")
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    assert len(left) == 4
    assert left[left["k"] == 1]["rv"].isna().all()

    import pytest

    with pytest.raises(ValueError):
        hash_join(
            rd.from_pandas(l), rd.from_pandas(l), "k"
        )  # duplicate non-key column 'lv'


def test_hash_join_hot_key_broadcast_identical_output(ray_session):
    """VERDICT r02 item 8: a planted hot key (90% of left rows) through
    the broadcast escape hatch must produce output identical to the
    pure-shuffle plan, for both inner and left joins."""
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.stages.join import hash_join

    rng = np.random.default_rng(5)
    n = 4000
    lk = np.where(rng.random(n) < 0.9, 777, rng.integers(0, 50, size=n))
    l = pd.DataFrame({"k": lk.astype(np.int64), "lv": np.arange(n, dtype=np.int64)})
    # right side: unique keys incl. the hot one (small side per key)
    r = pd.DataFrame(
        {"k": np.arange(0, 60, dtype=np.int64).tolist() + [777],
         "rv": np.arange(0, 61, dtype=np.int64) * 10}
    )
    for how in ("inner", "left"):
        base = (
            hash_join(rd.from_pandas(l), rd.from_pandas(r), "k", how=how)
            .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
        )
        hot = (
            hash_join(rd.from_pandas(l), rd.from_pandas(r), "k", how=how,
                      hot_keys=[777])
            .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(hot[base.columns], base)
        exp = l.merge(r, on="k", how=how).sort_values(["k", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(base[exp.columns], exp, check_dtype=False)


def test_hash_join_preserves_big_int64_and_nullable_ints(ray_session):
    """ADVICE r02: the old pandas-block path widened null-padded int64
    columns to float64 and astype'd back — int64 > 2^53 corrupted
    silently, and a side whose OWN int column holds nulls raised.
    The Arrow-split path must do neither."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ptrail_ray.stages.join import hash_join

    big = 2**60 + 12345  # not representable in float64
    l = pd.DataFrame({"k": [1, 2], "lv": np.array([big, big + 1], np.int64)})
    r_tbl = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "rv": pa.array([7, None], pa.int64()),  # genuinely-null int
        }
    )
    out = (
        hash_join(rd.from_pandas(l), rd.from_arrow(r_tbl), "k")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["lv"].tolist() == [big, big + 1]  # exact, no float roundtrip
    assert out["rv"].iloc[0] == 7 and pd.isna(out["rv"].iloc[1])


def test_cosine_pairs_block_order_invariance(ray_session):
    """Regression: cross-block pairs must survive arbitrary object-store
    block ordering (a smaller id in a LATER block was silently dropped
    by an a<b filter before the swap fix)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ptrail_ray.functions.ann import cosine_pairs

    rng = np.random.default_rng(17)
    emb = rng.normal(size=(120, 16))
    pdf = pd.DataFrame(
        {"vec_id": np.arange(120), "embedding": [e.tolist() for e in emb]}
    )
    plain = cosine_pairs(rd.from_pandas(pdf), threshold=0.5)
    scrambled = cosine_pairs(
        rd.from_pandas(pdf).random_shuffle(seed=3), threshold=0.5
    )
    key = lambda df: set(zip(df["a"].astype(int), df["b"].astype(int)))
    assert len(plain) > 0
    assert key(plain) == key(scrambled)
