"""Round-3 operators: EWMA / expanding z-score kernels, grid resample,
greedy sequence packing, char entropy."""

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ptrail_ray.pipelines.flagship import flagship
from ptrail_ray.stages.kernels import EWMA_ALPHA


@pytest.fixture(scope="module")
def smooth_out(synth_ds):
    out = flagship(synth_ds, features=["ewma_m1", "zexp_m1", "m1"], num_buckets=8).to_pandas()
    return out.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)


def test_ewma_matches_recursion(smooth_out):
    """Engine EWMA == the scalar recursion y_t = (1-α)y_{t-1} + αx_t,
    bit-for-bit (dyadic α)."""
    for _, g in smooth_out.groupby("conv_id", sort=False):
        x = g["m1"].to_numpy(np.float64)
        y = np.empty_like(x)
        y[0] = x[0]
        for i in range(1, len(x)):
            y[i] = (1.0 - EWMA_ALPHA) * y[i - 1] + EWMA_ALPHA * x[i]
        assert (g["ewma_m1"].to_numpy() == y).all()


def test_zexp_matches_expanding_stats(smooth_out):
    """Expanding z-score == pandas expanding mean/population-std; first
    row (and any all-equal prefix) is NaN."""
    for _, g in smooth_out.groupby("conv_id", sort=False):
        x = pd.Series(g["m1"].to_numpy(np.float64))
        mean = x.expanding().mean()
        std = x.expanding().std(ddof=0)
        exp = ((x - mean) / std).where(std > 0, np.nan).to_numpy()
        got = g["zexp_m1"].to_numpy()
        assert np.isnan(got[0])
        m = ~np.isnan(exp)
        assert (np.isnan(got) == ~m).all()
        assert np.allclose(got[m], exp[m], rtol=1e-9, atol=1e-12)


def test_ewma_leakage_free(smooth_out, synth_pdf, ray_session):
    """Truncating each conversation leaves every surviving EWMA/z-score
    value unchanged (past-only recursion)."""
    import ray.data as rd

    kmap = {
        cid: max(int(g["turn_idx"].max() // 2), 0)
        for cid, g in synth_pdf.groupby("conv_id")
    }
    keep = synth_pdf["turn_idx"] <= synth_pdf["conv_id"].map(kmap)
    prefix = (
        flagship(rd.from_pandas(synth_pdf[keep]), features=["ewma_m1", "zexp_m1"], num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    full_keep = (
        smooth_out[smooth_out["turn_idx"] <= smooth_out["conv_id"].map(kmap)]
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    for c in ("ewma_m1", "zexp_m1"):
        a, b = prefix[c].to_numpy(), full_keep[c].to_numpy()
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()


def test_resample_last_per_window(synth_ds, synth_pdf):
    from ptrail_ray.stages.resample import resample_last

    out = resample_last(synth_ds, width_s=60.0, num_buckets=4).to_pandas()
    pdf = synth_pdf.copy()
    pdf["window_ts"] = pdf["ts"].dt.floor("60s")
    exp = (
        pdf.sort_values(["conv_id", "window_ts", "turn_idx", "ts"])
        .groupby(["conv_id", "window_ts"], sort=False)
        .tail(1)
    )
    assert len(out) == len(exp)
    got = out.sort_values(["conv_id", "window_ts"]).reset_index(drop=True)
    exp = exp.sort_values(["conv_id", "window_ts"]).reset_index(drop=True)
    assert (got["turn_idx"].to_numpy() == exp["turn_idx"].to_numpy()).all()
    assert (got["text"].to_numpy() == exp["text"].to_numpy()).all()  # byte-equal


def test_resample_non_monotone_ts():
    """A window revisited out of turn order still yields one row (the
    max-turn_idx one)."""
    from ptrail_ray.stages.resample import resample_last_kernel

    t = pa.table(
        {
            "conv_id": ["c"] * 4,
            "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
            "ts": pa.array(
                [0, 120_000_000, 30_000_000, 125_000_000], pa.timestamp("us")
            ),
        }
    )
    out = resample_last_kernel(t).to_pandas()
    assert sorted(out["turn_idx"].tolist()) == [2, 3]  # win0 -> turn2, win2 -> turn3


def test_pack_greedy_recursion_equivalence():
    from ptrail_ray.functions.pack import pack_runs_kernel

    rng = np.random.default_rng(7)
    tok = rng.integers(0, 1500, 400)  # includes zero-token and oversize docs
    tbl = pa.table(
        {
            "source": pa.array(["a"] * 250 + ["b"] * 150),
            "doc_id": pa.array(range(400), pa.int64()),
            "n_tokens": pa.array(tok, pa.int64()),
        }
    )
    got = pack_runs_kernel(tbl, budget=1024, key_col="source")["bin_id"].to_numpy()
    exp = np.empty(400, np.int64)
    for lo, hi in ((0, 250), (250, 400)):
        fill, b = 0, 0
        for i in range(lo, hi):
            tk = int(tok[i])
            if fill > 0 and fill + tk > 1024:
                b += 1
                fill = tk
            else:
                fill += tk
            exp[i] = b
    assert (got == exp).all()
    # every bin except possibly oversize singletons fits the budget
    df = pd.DataFrame({"src": tbl["source"].to_pylist(), "b": got, "tok": tok})
    sums = df.groupby(["src", "b"]).agg(total=("tok", "sum"), n=("tok", "size"))
    assert ((sums["total"] <= 1024) | (sums["n"] == 1)).all()


def test_char_entropy_values():
    from ptrail_ray.functions.textstats import char_entropy_batch

    texts = ["hello world", "", None, "aaa", "ab", "日本語テキスト x", "a"]
    t = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )
    got = char_entropy_batch(t)["char_entropy"].to_pylist()
    for s, e in zip(texts, got):
        s = s or ""
        c = Counter(s)
        ref = (
            -sum((v / len(s)) * math.log2(v / len(s)) for v in c.values()) if s else 0.0
        )
        assert abs(e - ref) < 1e-12
        assert not (e == 0.0 and math.copysign(1.0, e) < 0)  # no -0.0


def test_corr8_matches_pandas_rolling(synth_ds):
    out = flagship(synth_ds, features=["m1", "m2", "corr8_m1_m2"], num_buckets=8).to_pandas()
    out = out.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    for _, g in out.groupby("conv_id", sort=False):
        x = pd.Series(g["m1"].to_numpy(np.float64))
        y = pd.Series(g["m2"].to_numpy(np.float64))
        exp = x.rolling(8, min_periods=1).corr(y).to_numpy()
        exp[~np.isfinite(exp)] = np.nan
        got = g["corr8_m1_m2"].to_numpy()
        m = ~np.isnan(exp)
        assert (np.isnan(got) == ~m).all()
        assert np.allclose(got[m], exp[m], rtol=1e-8, atol=1e-10)


def test_corr8_leakage_free(synth_ds, synth_pdf, ray_session):
    import ray.data as rd

    full = (
        flagship(synth_ds, features=["corr8_m1_m2"], num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    kmap = {
        cid: max(int(g["turn_idx"].max() // 2), 0)
        for cid, g in synth_pdf.groupby("conv_id")
    }
    keep = synth_pdf["turn_idx"] <= synth_pdf["conv_id"].map(kmap)
    prefix = (
        flagship(rd.from_pandas(synth_pdf[keep]), features=["corr8_m1_m2"], num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    full_keep = (
        full[full["turn_idx"] <= full["conv_id"].map(kmap)]
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )
    a, b = prefix["corr8_m1_m2"].to_numpy(), full_keep["corr8_m1_m2"].to_numpy()
    assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()


def test_topk_per_conv(synth_ds, synth_pdf):
    from ptrail_ray.stages.stats import topk_per_conv

    ds = flagship(synth_ds, features=["m1"], num_buckets=4)
    out = topk_per_conv(ds, col="m1", k=3, num_buckets=4).to_pandas()
    pdf = synth_pdf.copy()
    pdf["m1"] = pdf["text"].fillna("").str.len().astype("int64")
    exp = (
        pdf.sort_values(["conv_id", "m1", "turn_idx"], ascending=[True, False, True])
        .groupby("conv_id", sort=False)
        .head(3)
    )
    assert len(out) == len(exp)
    got = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    exp = exp.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert (got["turn_idx"].to_numpy() == exp["turn_idx"].to_numpy()).all()
    assert out.groupby("conv_id")["rank"].max().le(3).all()


def test_top_bigrams_counts(ray_session):
    import ray.data as rd

    from ptrail_ray.functions.textstats import top_bigrams

    texts = ["a b a b c", "b c b c", "x", "", None, "a b"]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(6), pa.int64()), "text": pa.array(texts)})
    )
    out = top_bigrams(ds, k=10, num_buckets=2)
    got = dict(zip(out["bigram"], out["n"]))
    assert got == {"a b": 3, "b c": 3, "b a": 1, "c b": 1}
    # deterministic tie order: count desc then bigram asc
    assert out["bigram"].tolist()[:2] == ["a b", "b c"]


def test_hll_accuracy_and_merge_independence():
    from ptrail_ray.functions.sketch import hll_estimate, hll_partial

    rng = np.random.default_rng(0)
    for true_n in (100, 5000, 200_000):
        vals = np.unique(rng.integers(0, 10**15, true_n * 3))[:true_n]
        regs = np.zeros(1 << 14, np.uint8)
        for part in np.array_split(vals, 7):  # merged partials ...
            np.maximum(regs, hll_partial(part), out=regs)
        single = hll_partial(vals)  # ... == one pass (order/split-free)
        assert (single == regs).all()
        est = hll_estimate(regs)
        assert abs(est - true_n) / true_n < 0.03


def test_diversity_counters(synth_ds, synth_pdf):
    out = flagship(synth_ds, features=["ntools_seen", "nswitches"], num_buckets=4).to_pandas()
    out = out.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    pdf = synth_pdf.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    for cid, g in out.groupby("conv_id", sort=False):
        src = pdf[pdf["conv_id"] == cid]
        tools = src["tool"].fillna("").tolist()
        roles = src["role"].fillna("").tolist()
        seen, exp_seen, exp_sw, sw = set(), [], [], 0
        for i, (t, r) in enumerate(zip(tools, roles)):
            seen.add(t)
            exp_seen.append(len(seen))
            if i > 0 and r != roles[i - 1]:
                sw += 1
            exp_sw.append(sw)
        assert g["ntools_seen"].tolist() == exp_seen
        assert g["nswitches"].tolist() == exp_sw


def test_time_range_window(synth_ds, synth_pdf):
    """win1h_count/sum == brute-force per-conv time-radius counts
    (inclusive bounds, ties included), incl. the dup-ts edge convs."""
    out = flagship(synth_ds, features=["win1h_count", "win1h_sum_m1", "m1"], num_buckets=4)
    out = out.to_pandas().sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    for cid, g in out.groupby("conv_id", sort=False):
        ts = g["ts"].astype("int64").to_numpy()  # us
        m1 = g["m1"].to_numpy(np.int64)
        w = np.int64(3600) * 1_000_000  # ts is datetime64[us]
        for i in range(len(g)):
            m = (ts >= ts[i] - w) & (ts <= ts[i])
            assert g["win1h_count"].iloc[i] == m.sum()
            assert g["win1h_sum_m1"].iloc[i] == m1[m].sum()


def test_tool_transitions(synth_ds, synth_pdf, ray_session):
    """Transition-matrix counts == the pandas per-conv lag/groupby."""
    import ray.data as rd

    from ptrail_ray.entry_queries import QUERIES  # noqa: F401  (pattern check only)
    from ptrail_ray.schema import CONV_ID, TOOL
    from ptrail_ray.stages.bucket import conv_runs, map_conv_buckets

    pdf = synth_pdf.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    t = pdf.assign(tool_c=pdf["tool"].fillna(""))
    t["from_tool"] = t.groupby("conv_id", sort=False)["tool_c"].shift(1)
    exp = (
        t.dropna(subset=["from_tool"])
        .groupby(["from_tool", "tool_c"], as_index=False)
        .size()
        .rename(columns={"tool_c": "to_tool", "size": "n"})
    )

    def kern(tab):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import pyarrow.compute as pc

        n = tab.num_rows
        starts, _ = conv_runs(tab[CONV_ID])
        tool = pc.fill_null(tab[TOOL], "")
        if isinstance(tool, pa.ChunkedArray):
            tool = tool.combine_chunks()
        keep = np.ones(n, dtype=bool)
        keep[starts] = False
        df = pd.DataFrame(
            {
                "from_tool": tool.slice(0, n - 1).to_pandas(),
                "to_tool": tool.slice(1).to_pandas(),
            }
        )[keep[1:]]
        g = df.groupby(["from_tool", "to_tool"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = map_conv_buckets(synth_ds, kern, num_buckets=4).to_pandas()
    got = parts.groupby(["from_tool", "to_tool"], as_index=False)["n"].sum()
    merged = got.merge(exp, on=["from_tool", "to_tool"], how="outer", suffixes=("_g", "_e"))
    assert merged["n_g"].fillna(-1).equals(merged["n_e"].fillna(-1).astype(merged["n_g"].dtype))


def test_grouped_exact_quantiles(ray_session):
    import ray.data as rd

    from ptrail_ray.stages.quantiles import grouped_exact_quantiles

    rng = np.random.default_rng(5)
    n = 5000
    keys = rng.choice([f"g{i}" for i in range(7)], n)
    vals = rng.normal(100, 25, n)
    vals[rng.random(n) < 0.05] = np.nan  # per-group NaN exclusion
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals, pa.float64())})
    out = (
        grouped_exact_quantiles(rd.from_arrow(t), "k", "v", [0.25, 0.5, 0.9], num_buckets=4)
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    pdf = pd.DataFrame({"k": keys, "v": vals})
    for g, grp in pdf.groupby("k"):
        for q, nm in ((0.25, "q25"), (0.5, "q50"), (0.9, "q90")):
            exp = grp["v"].quantile(q)  # pandas linear interp, NaN-skipped
            assert abs(out.loc[g, nm] - exp) < 1e-9, (g, nm)


def test_roll_median_matches_pandas(synth_ds):
    out = flagship(synth_ds, features=["m1", "roll5_med_m1"], num_buckets=4).to_pandas()
    out = out.sort_values(["conv_id", "turn_idx", "ts"]).reset_index(drop=True)
    for _, g in out.groupby("conv_id", sort=False):
        exp = pd.Series(g["m1"].to_numpy(np.float64)).rolling(5).median().to_numpy()
        got = g["roll5_med_m1"].to_numpy()
        assert ((got == exp) | (np.isnan(got) & np.isnan(exp))).all()


def test_event_funnel_strict_ordering(ray_session):
    """Strictly-after semantics: a click BEFORE signup doesn't count;
    ties don't count (strict >)."""
    import ray.data as rd

    from ptrail_ray.entry_queries import q_event_funnel  # noqa: F401
    from ptrail_ray.entry_queries import FUNNEL_STEPS
    import ptrail_ray.entry_queries as eq

    rows = [
        # user 1: click before signup, another click after -> stage 2 (no purchase)
        (1, "click", 100), (1, "signup", 200), (1, "click", 300),
        # user 2: purchase exactly AT click time -> tie excluded -> stage 2
        (2, "signup", 100), (2, "click", 200), (2, "purchase", 200),
        # user 3: full funnel
        (3, "signup", 10), (3, "click", 20), (3, "purchase", 30),
        # user 4: never signed up -> stage 0
        (4, "click", 5), (4, "purchase", 6),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows]),
            "ts": pa.array([r[2] * 1_000_000 for r in rows], pa.timestamp("us")),
        }
    )
    import tempfile, os
    d = tempfile.mkdtemp()
    import pyarrow.parquet as pq
    pq.write_table(t, os.path.join(d, "events.parquet"))
    out = q_event_funnel(d).to_pandas().set_index("user_id").sort_index()
    assert out.loc[1, "stage"] == 2 and out.loc[1, "t_click"].value == 300_000_000 * 1000
    assert out.loc[2, "stage"] == 2 and pd.isna(out.loc[2, "t_purchase"])
    assert out.loc[3, "stage"] == 3
    assert out.loc[4, "stage"] == 0
