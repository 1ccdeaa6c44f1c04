"""Round-4 continuation ops: full-outer join, rolling distinct users,
grouped heavy hitters, broadcast linear scoring, snapshot CDC diff,
PMI pair association, first-touch attribution."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd


def test_full_outer_join_matches_pandas(ray_session):
    from ptrail_ray.stages.join import hash_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 50, 200),
            "lv": rng.normal(size=200),
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(25, 75, 150),  # overlap [25,50); right-only [50,75)
            "rv": rng.normal(size=150),
        }
    )
    out = (
        hash_join(
            rd.from_pandas(left, override_num_blocks=4),
            rd.from_pandas(right, override_num_blocks=3),
            "k",
            how="full",
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    exp = (
        left.merge(right, on="k", how="outer")
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    assert len(out) == len(exp)
    assert np.array_equal(
        out["k"].to_numpy(dtype=float), exp["k"].to_numpy(dtype=float)
    )
    for c in ("lv", "rv"):
        a = out[c].to_numpy(dtype=float)
        b = exp[c].to_numpy(dtype=float)
        assert np.array_equal(a, b, equal_nan=True)


def test_full_outer_join_rejects_hot_keys(ray_session):
    import pytest

    from ptrail_ray.stages.join import hash_join

    df = pd.DataFrame({"k": [1], "v": [1.0]})
    with pytest.raises(ValueError):
        hash_join(
            rd.from_pandas(df), rd.from_pandas(df.rename(columns={"v": "w"})),
            "k", how="full", hot_keys=[1],
        )


def test_rolling_active_users_window_semantics(ray_session):
    from ptrail_ray.stages.stats import rolling_active_users

    day = 86_400_000_000  # us
    rows = []
    # user 1 active on days 0, 1, 2 (multiple events day 0)
    for d in (0, 0, 1, 2):
        rows.append((1, d * day + 5))
    # user 2 active only day 0
    rows.append((2, 3))
    # user 3 active day 10 (gap: days 3-9 have no activity → no rows)
    rows.append((3, 10 * day))
    df = pd.DataFrame(
        {
            "user_id": [r[0] for r in rows],
            "ts": pd.to_datetime([r[1] for r in rows], unit="us"),
        }
    )
    out = rolling_active_users(
        rd.from_pandas(df, override_num_blocks=3),
        ts_col="ts",
        user_col="user_id",
        window_days=3,
        num_buckets=4,
    )
    got = dict(zip(out["day"], out["n_active"]))
    # day 0: users {1,2}; day 1: {1,2}; day 2: {1,2} (user2 day0 within
    # 3-day window ending day2); day 10: {3}. Days 3-9 absent.
    assert got == {
        "1970-01-01": 2,
        "1970-01-02": 2,
        "1970-01-03": 2,
        "1970-01-11": 1,
    }


def test_rolling_active_users_matches_bruteforce(ray_session):
    from ptrail_ray.stages.stats import rolling_active_users

    rng = np.random.default_rng(11)
    n = 3000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 80, n),
            "ts": pd.to_datetime(
                rng.integers(0, 40 * 86_400_000_000, n), unit="us"
            ),
        }
    )
    W = 7
    out = rolling_active_users(
        rd.from_pandas(df, override_num_blocks=5),
        ts_col="ts",
        user_col="user_id",
        window_days=W,
        num_buckets=8,
    )
    du = df.assign(day=df["ts"].values.astype("datetime64[D]").astype(np.int64))
    days = np.unique(du["day"])
    exp = {
        d: du.loc[(du["day"] >= d - W + 1) & (du["day"] <= d), "user_id"].nunique()
        for d in days
    }
    got = {
        int(np.datetime64(k).astype("datetime64[D]").astype(np.int64)): v
        for k, v in zip(out["day"], out["n_active"])
    }
    assert got == exp


def test_grouped_top_terms_matches_bruteforce(ray_session):
    from ptrail_ray.functions.textstats import grouped_top_terms

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(30)]
    langs = ["en", "fr", "de"]
    docs = []
    for i in range(400):
        docs.append(
            {
                "lang": langs[int(rng.integers(0, 3))],
                "text": " ".join(rng.choice(vocab, rng.integers(1, 25))),
            }
        )
    df = pd.DataFrame(docs)
    out = grouped_top_terms(
        rd.from_pandas(df, override_num_blocks=4),
        group_col="lang",
        k=5,
        num_buckets=8,
        batch_size=None,
    )
    # brute force
    rows = []
    for lang, sub in df.groupby("lang"):
        cnt = pd.Series(" ".join(sub["text"]).split()).value_counts()
        c = cnt.reset_index()
        c.columns = ["term", "n"]
        c = c.sort_values(["n", "term"], ascending=[False, True]).head(5)
        for r, (_, row) in enumerate(c.iterrows(), 1):
            rows.append((lang, row["term"], int(row["n"]), r))
    exp = pd.DataFrame(rows, columns=["group", "term", "n", "rnk"])
    got = out.sort_values(["group", "rnk"]).reset_index(drop=True)
    exp = exp.sort_values(["group", "rnk"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_linear_score_matches_numpy(ray_session):
    from ptrail_ray.functions.linalg import linear_score

    rng = np.random.default_rng(9)
    n, d = 300, 16
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    w = rng.normal(size=d).round(2)
    df = pd.DataFrame({"vec_id": np.arange(n), "embedding": list(vecs)})
    out = (
        linear_score(rd.from_pandas(df, override_num_blocks=3), w)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    raw = vecs.astype(np.float64) @ w
    assert np.allclose(out["score"], raw, atol=d * 1e-9)
    # label consistent with the quantized score (not the raw float)
    assert (out["label"] == (out["score"] > 0)).all()


def test_linear_score_dim_mismatch_is_loud(ray_session):
    import pytest

    from ptrail_ray.functions.linalg import linear_score

    df = pd.DataFrame({"vec_id": [0], "embedding": [np.ones(8, np.float32)]})
    with pytest.raises(Exception):
        linear_score(rd.from_pandas(df), np.ones(4)).to_pandas()


def test_snapshot_diff_all_statuses(ray_session):
    from ptrail_ray.functions.dedup import snapshot_diff

    old = pd.DataFrame(
        {"doc_id": [1, 2, 3, 4], "text": ["a", "b", "c", "d"]}
    )
    new = pd.DataFrame(
        {"doc_id": [2, 3, 4, 5], "text": ["b", "CHANGED", "d", "e"]}
    )
    out = (
        snapshot_diff(
            rd.from_pandas(old, override_num_blocks=2),
            rd.from_pandas(new, override_num_blocks=2),
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert dict(zip(out["doc_id"], out["status"])) == {
        1: "removed",
        2: "unchanged",
        3: "changed",
        4: "unchanged",
        5: "added",
    }


def test_term_lift_matches_bruteforce(ray_session):
    from itertools import combinations

    from ptrail_ray.functions.textstats import term_cooccurrence_lift

    rng = np.random.default_rng(21)
    vocab = [f"t{i}" for i in range(12)]
    docs = [
        " ".join(rng.choice(vocab, rng.integers(1, 8), replace=True))
        for _ in range(200)
    ]
    df = pd.DataFrame({"doc_id": range(200), "text": docs})
    out = term_cooccurrence_lift(
        rd.from_pandas(df, override_num_blocks=4),
        top_v=8,
        min_pair_df=2,
        num_buckets=4,
        batch_size=None,
    )
    # brute force
    tok_sets = [set(d.split()) for d in docs]
    dfc = pd.Series(
        [w for s in tok_sets for w in s]
    ).value_counts()
    c = dfc.reset_index()
    c.columns = ["w", "df"]
    topv = c.sort_values(["df", "w"], ascending=[False, True]).head(8)
    tv = dict(zip(topv["w"], topv["df"]))
    exp = {}
    for a, b in combinations(sorted(tv), 2):
        n = sum(1 for s in tok_sets if a in s and b in s)
        if n >= 2:
            exp[(a, b)] = (n, 200 * n / (tv[a] * tv[b]))
    got = {
        (r.term_a, r.term_b): (r.df_ab, r.lift) for r in out.itertuples()
    }
    assert set(got) == set(exp)
    for k in exp:
        assert got[k][0] == exp[k][0]
        assert abs(got[k][1] - exp[k][1]) < 1e-12


def test_first_touch_argmin_decomposition(ray_session):
    from ptrail_ray.stages.stats import first_touch

    rng = np.random.default_rng(13)
    n = 2000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, n),
            "event_type": rng.choice(["a", "b", "c"], n),
            "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="s"),
            "event_id": np.arange(n),
            "value": rng.normal(size=n),
        }
    )
    # plant exact-ts ties to exercise the event_id tie-break
    df.loc[5, ["user_id", "event_type", "ts"]] = df.loc[4, ["user_id", "event_type", "ts"]]
    out = (
        first_touch(rd.from_pandas(df, override_num_blocks=6), num_buckets=8)
        .to_pandas()
        .sort_values(["user_id", "event_type"])
        .reset_index(drop=True)
    )
    exp = (
        df.sort_values(["user_id", "event_type", "ts", "event_id"])
        .drop_duplicates(["user_id", "event_type"])
        .rename(
            columns={
                "ts": "first_ts",
                "event_id": "first_event_id",
                "value": "first_value",
            }
        )
        .sort_values(["user_id", "event_type"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp[out.columns], check_dtype=False)


def test_curriculum_tier_mix(ray_session):
    from ptrail_ray.functions.dedup import _md5_u60
    from ptrail_ray.functions.sample import curriculum_tier_mix

    rng = np.random.default_rng(17)
    n = 3000
    df = pd.DataFrame({"doc_id": np.arange(n), "v": rng.normal(size=n)})
    out = (
        curriculum_tier_mix(
            rd.from_pandas(df, override_num_blocks=4),
            value_col="v",
            id_col="doc_id",
            tier_rates=[1.0, 0.5, 0.25],
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute force: pandas terciles + md5 thresholds
    t0, t1 = df["v"].quantile([1 / 3, 2 / 3])
    tier = np.where(df["v"] > t1, 2, np.where(df["v"] > t0, 1, 0))
    h = np.array([_md5_u60(str(i)) for i in df["doc_id"]], np.uint64)
    cuts = np.array([int(r * (1 << 60)) for r in [1.0, 0.5, 0.25]], np.uint64)
    exp = df[h < cuts[tier]].assign(tier=tier[h < cuts[tier]])
    assert len(out) == len(exp)
    assert np.array_equal(out["doc_id"].to_numpy(), exp["doc_id"].to_numpy())
    assert np.array_equal(out["tier"].to_numpy(), exp["tier"].to_numpy())
    # tier 0 kept in full
    assert (h[tier == 0] < cuts[0]).all()


def test_global_mad_matches_pandas(ray_session):
    from ptrail_ray.stages.quantiles import global_mad

    rng = np.random.default_rng(23)
    v = rng.normal(10, 3, 5000)
    df = pd.DataFrame({"x": v})
    med, mad = global_mad(rd.from_pandas(df, override_num_blocks=4), "x")
    s = pd.Series(v)
    assert abs(med - s.median()) < 1e-12
    assert abs(mad - (s - s.median()).abs().median()) < 1e-12


def test_max_concurrency_sweep(ray_session):
    from ptrail_ray.stages.stats import max_concurrency

    # user 1: events at 0, 10, 20 with duration 15 → overlaps: [0,15),
    # [10,25), [20,35) → peak 2. user 2: one event → 1.
    # user 3: two events at the SAME ts → 2; a third starting exactly
    # when the first closes (t=15) → still 2 (half-open boundary).
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2, 3, 3, 3],
            "ts": pd.to_datetime([0, 10, 20, 5, 0, 0, 15], unit="s"),
        }
    )
    out = (
        max_concurrency(
            rd.from_pandas(df, override_num_blocks=3),
            duration_us=15_000_000,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert dict(zip(out["user_id"], out["max_concurrent"])) == {1: 2, 2: 1, 3: 2}


def test_max_concurrency_matches_bruteforce(ray_session):
    from ptrail_ray.stages.stats import max_concurrency

    rng = np.random.default_rng(29)
    n = 2000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 30, n),
            "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="us"),
        }
    )
    dur = 50_000
    out = max_concurrency(
        rd.from_pandas(df, override_num_blocks=5),
        duration_us=dur,
        num_buckets=8,
    ).to_pandas()
    got = dict(zip(out["user_id"], out["max_concurrent"]))
    ts_us = df["ts"].values.astype("datetime64[us]").astype(np.int64)
    for u in np.unique(df["user_id"]):
        t = np.sort(ts_us[df["user_id"].to_numpy() == u])
        # brute force: for each event count open intervals at its start
        # (the sweep's maximum is attained at some opener)
        opens = [((t <= x) & (x < t + dur)).sum() for x in t]
        assert got[u] == max(opens), (u, got[u], max(opens))


def test_label_centroid_dist_matches_numpy(ray_session):
    from ptrail_ray.functions.linalg import label_centroid_dist

    rng = np.random.default_rng(31)
    n, d = 400, 8
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    lab = rng.integers(0, 4, n)
    df = pd.DataFrame(
        {"vec_id": np.arange(n), "embedding": list(vecs), "label": lab}
    )
    out = (
        label_centroid_dist(rd.from_pandas(df, override_num_blocks=4))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    m = vecs.astype(np.float64)
    for l in range(4):
        mu = m[lab == l].mean(axis=0)
        exp = ((m[lab == l] - mu) ** 2).sum(axis=1)
        got = out.loc[out["label"] == l, "dist2"].to_numpy()
        assert np.allclose(got, exp, atol=d * 2e-9)


def test_funnel_windowed_boundaries(ray_session):
    from ptrail_ray.entry_queries import QUERIES

    # exercised end-to-end via the oracle gate; here: the kernel's
    # boundary semantics on a crafted corpus written to parquet
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    W = 86400 * 1_000_000
    rows = [
        # user 1: click exactly at signup+W (inclusive) → converts;
        # purchase at click+W+1us (outside) → stage 2
        (1, "signup", 0),
        (1, "click", W),
        (1, "purchase", 2 * W + 1),
        # user 2: click before signup → never after → stage 1
        (2, "click", 0),
        (2, "signup", 10),
        # user 3: full conversion inside windows
        (3, "signup", 0),
        (3, "click", 5),
        (3, "purchase", 10),
    ]
    t = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows], pa.string()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array([""] * len(rows), pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        out = QUERIES["q_funnel_windowed"](d).to_pandas()
    got = dict(zip(out["user_id"], out["stage"]))
    assert got == {1: 2, 2: 1, 3: 3}


def test_sparse_cosine_matches_bruteforce(ray_session):
    from ptrail_ray.functions.apss import sparse_cosine_pairs

    rng = np.random.default_rng(37)
    vocab = [f"w{i}" for i in range(15)]
    base = " ".join(rng.choice(vocab, 20))
    docs = [base, base + " extra", " ".join(rng.choice(vocab, 20)),
            " ".join(rng.choice(vocab, 20)), "single"]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    out = (
        sparse_cosine_pairs(
            rd.from_pandas(df, override_num_blocks=2),
            threshold=0.2,
            max_df=100,
            ngram=2,
            num_buckets=4,
            batch_size=None,
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    # brute force over bigram tf*(N/df) vectors
    N = len(docs)
    bags = []
    for d in docs:
        t = d.split()
        bg = [f"{a} {b}" for a, b in zip(t, t[1:])]
        bags.append(pd.Series(bg).value_counts().to_dict() if bg else {})
    from collections import Counter

    dfc = Counter(w for b in bags for w in b)
    vecs = []
    for b in bags:
        v = {w: tf * N / dfc[w] for w, tf in b.items() if dfc[w] <= 100}
        nr = np.sqrt(sum(x * x for x in v.values()))
        vecs.append({w: x / nr for w, x in v.items()} if nr > 0 else {})
    exp = {}
    for i in range(N):
        for j in range(i + 1, N):
            c = sum(vecs[i][w] * vecs[j][w] for w in vecs[i] if w in vecs[j])
            if c >= 0.2:
                exp[(i, j)] = c
    got = {(r.doc_a, r.doc_b): r.cosine for r in out.itertuples()}
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-6
    # the near-identical pair must be found with high cosine
    assert (0, 1) in got and got[(0, 1)] > 0.8


def test_pagerank_int_matches_reference(ray_session):
    from ptrail_ray.functions.graph import PR_SCALE, pagerank_int

    # star graph: node 0 linked to 1..4; node 5 isolated
    pairs = [(0, i) for i in range(1, 5)]
    edges = pd.DataFrame(
        {
            "src": [a for a, b in pairs] + [b for a, b in pairs],
            "dst": [b for a, b in pairs] + [a for a, b in pairs],
        }
    )
    nodes = pd.DataFrame({"node": range(6)})
    N, ITERS = 6, 3
    out = (
        pagerank_int(
            rd.from_pandas(edges, override_num_blocks=2),
            rd.from_pandas(nodes, override_num_blocks=2),
            n_nodes=N,
            iters=ITERS,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    # pure-python reference of the same integer contract
    deg = {}
    adj = {}
    for _, e in edges.iterrows():
        deg[e.src] = deg.get(e.src, 0) + 1
        adj.setdefault(e.dst, []).append(e.src)
    r = {v: PR_SCALE // N for v in range(N)}
    base = (PR_SCALE * 15) // (100 * N)
    for _ in range(ITERS):
        r = {
            v: base + sum(r[u] * 85 // (100 * deg[u]) for u in adj.get(v, []))
            for v in range(N)
        }
    assert dict(zip(out["node"], out["r"])) == r
    # hub outranks leaves; isolated node keeps the base only
    got = dict(zip(out["node"], out["r"]))
    assert got[0] > got[1] and got[5] == base

    # join plan (broadcast_max_nodes=0) is bit-identical to the
    # broadcast plan the small graph took above
    out_join = (
        pagerank_int(
            rd.from_pandas(edges, override_num_blocks=2),
            rd.from_pandas(nodes, override_num_blocks=2),
            n_nodes=N,
            iters=ITERS,
            num_buckets=4,
            broadcast_max_nodes=0,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert dict(zip(out_join["node"], out_join["r"])) == r


def test_session_gini_kernel(ray_session):
    from ptrail_ray.entry_queries import QUERIES

    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    # user 1: events at 0s, 10s (same session), then 40min later (new
    # session). Types: a, a | b → gini session0 = 1 - (2/2)^2 = 0,
    # session1 single event gini 0. user 2: a, b in one session →
    # gini = 1 - (1/4 + 1/4) = 0.5
    rows = [
        (1, "a", 0),
        (1, "a", 10_000_000),
        (1, "b", 2_410_000_000),
        (2, "a", 0),
        (2, "b", 1_000_000),
    ]
    t = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows], pa.string()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array([""] * len(rows), pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        out = QUERIES["q_session_gini"](d).to_pandas()
    got = {
        (r.user_id, r.session_id): (r.n_events, r.gini) for r in out.itertuples()
    }
    assert got == {
        (1, 0): (2, 0.0),
        (1, 1): (1, 0.0),
        (2, 0): (2, 0.5),
    }


def test_flagship_prepartitioned_value_identical(ray_session):
    import os
    import tempfile

    from ptrail_ray.pipelines.flagship import flagship, flagship_auto
    from ptrail_ray.sources.transcripts import (
        read_transcripts,
        side_scd_from_events,
        write_synth,
    )

    with tempfile.TemporaryDirectory() as d:
        write_synth(d, n_convs=60, mean_turns=12, seed=5, n_files=4, n_hot=1,
                    hot_turns=300)
        side = side_scd_from_events("/root/testdata/sf0.001")
        a = (
            flagship(read_transcripts(d), side, num_buckets=8)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx", "ts"])
            .reset_index(drop=True)
        )
        b = (
            flagship_auto(d, side)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx", "ts"])
            .reset_index(drop=True)
        )
    assert list(a.columns) == list(b.columns)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
