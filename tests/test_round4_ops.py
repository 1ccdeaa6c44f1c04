"""Round-4 operators: exact n-gram Jaccard near-dup pairs with
min-shingle anchor blocking (functions/dedup.py::ngram_jaccard_pairs).

Reference model: a pure-Python replica of the CONTRACT — per-doc deduped
k-token shingle sets (`_shingles`), anchor = min shingle id, candidate
pairs from rank-capped all-pairs + hub star pairs within each anchor
block, exact set Jaccard — compared pair-for-pair against the
distributed operator."""

import pytest
import numpy as np
import pandas as pd
import ray.data as rd

from ptrail_ray.functions.dedup import _shingles, ngram_jaccard_pairs

K = 3


def _expected(docs: dict[int, str], threshold: float, max_block: int) -> pd.DataFrame:
    sets = {i: _shingles(t, K) for i, t in docs.items()}
    sets = {i: s for i, s in sets.items() if s}
    blocks: dict[int, list[int]] = {}
    for i in sorted(sets):
        blocks.setdefault(min(sets[i]), []).append(i)
    rows = []
    for ids in blocks.values():
        ids = sorted(ids)
        head = ids[:max_block]
        cand = [(a, b) for ai, a in enumerate(head) for b in head[ai + 1:]]
        cand += [(ids[0], b) for b in ids[max_block:]]
        for a, b in cand:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            j = inter / union if union else 0.0
            if j >= threshold:
                rows.append((a, b, j))
    return (
        pd.DataFrame(rows, columns=["a", "b", "jaccard"])
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )


def _corpus() -> dict[int, str]:
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]
    docs: dict[int, str] = {}
    for i in range(12):
        docs[i] = " ".join(rng.choice(vocab, size=25))
    # near-dups: copy with small perturbations (high Jaccard)
    for i in range(12, 18):
        base = docs[i - 12].split()
        base[rng.integers(0, len(base))] = "zz"
        docs[i] = " ".join(base)
    # exact dups — identical sets share the anchor with certainty
    docs[18] = docs[0]
    docs[19] = docs[5]
    # short docs (< k tokens → one whole-doc shingle) and an empty doc
    docs[20] = "a b"
    docs[21] = "a b"
    docs[22] = ""
    return docs


def _run(docs: dict[int, str], threshold: float, max_block: int) -> pd.DataFrame:
    pdf = pd.DataFrame(
        {"doc_id": list(docs.keys()), "text": list(docs.values())}
    )
    out = ngram_jaccard_pairs(
        rd.from_pandas(pdf, override_num_blocks=4),
        shingle_k=K,
        threshold=threshold,
        num_buckets=4,
        max_block=max_block,
        batch_size=None,
    ).to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def test_ngram_jaccard_matches_bruteforce(ray_session):
    docs = _corpus()
    got = _run(docs, threshold=0.5, max_block=200)
    exp = _expected(docs, threshold=0.5, max_block=200)
    assert len(got) == len(exp) and len(exp) > 0
    pd.testing.assert_frame_equal(
        got.astype({"a": "int64", "b": "int64"}), exp.astype({"a": "int64", "b": "int64"})
    )


def test_ngram_jaccard_hot_anchor_cap(ray_session):
    """Five identical docs share one anchor block; max_block=2 forces
    the star-pair escape hatch. Connectivity must survive: every doc
    reachable from the hub."""
    docs = {i: "x y z x y z q r s" for i in range(5)}
    docs[5] = "totally different tokens here now ok"
    got = _run(docs, threshold=0.5, max_block=2)
    exp = _expected(docs, threshold=0.5, max_block=2)
    pd.testing.assert_frame_equal(
        got.astype({"a": "int64", "b": "int64"}), exp.astype({"a": "int64", "b": "int64"})
    )
    # hub (min id 0) stars to every capped-out doc
    assert set(got["a"]).issubset({0, 1}) and {2, 3, 4} <= set(got["b"])


def test_ngram_jaccard_threshold_zero_includes_blocked_only(ray_session):
    """θ=0 emits every blocked pair — pairs NOT sharing their anchor
    stay out even at θ=0 (the blocking is the contract)."""
    docs = _corpus()
    got = _run(docs, threshold=0.0, max_block=200)
    exp = _expected(docs, threshold=0.0, max_block=200)
    assert len(got) == len(exp)


def test_containment_matches_bruteforce(ray_session):
    """Distributed containment composition vs a single-batch replica:
    winnow_batch (already oracle-proven) + pure-Python pair counting."""
    from ptrail_ray.functions.dedup import containment_pairs, winnow_batch

    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(40)]
    docs = {i: " ".join(rng.choice(vocab, size=60)) for i in range(10)}
    docs[10] = docs[0]                                   # exact dup
    docs[11] = docs[1] + " " + " ".join(rng.choice(vocab, size=200))  # 1 ⊂ 11
    docs[12] = "a b"                                     # short doc
    pdf = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})

    fps = winnow_batch(pdf, k=3, w=4)
    sets = {int(d): set(g["fp"]) for d, g in fps.groupby("doc_id")}
    rows = []
    ids = sorted(sets)
    for ai, a in enumerate(ids):
        for b in ids[ai + 1:]:
            inter = len(sets[a] & sets[b])
            if inter == 0:
                continue
            c = inter / min(len(sets[a]), len(sets[b]))
            if c >= 0.8:
                rows.append((a, b, inter, c))
    exp = pd.DataFrame(
        rows, columns=["a", "b", "n_shared", "containment"]
    ).sort_values(["a", "b"]).reset_index(drop=True)

    got = (
        containment_pairs(
            rd.from_pandas(pdf, override_num_blocks=3),
            k=3, w=4, threshold=0.8, num_buckets=4,
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) and len(exp) >= 2  # the dup + the containment pair
    pd.testing.assert_frame_equal(
        got.astype({"a": "int64", "b": "int64", "n_shared": "int64"}), exp
    )
    # the pasted-inside pair must be found despite low symmetric Jaccard
    assert ((got["a"] == 1) & (got["b"] == 11)).any()


def test_pii_scrub_hits_and_idempotence(ray_session):
    """add_scrub on PII-bearing text: exact per-pattern counts, ordered
    masked rewrite, and idempotence (re-scrubbing a scrubbed text finds
    zero hits and changes nothing)."""
    from ptrail_ray.functions.pii import add_scrub

    pdf = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "mail a.b+c@ex-1.org and d@e.io from 10.0.0.1 now",
                "call 555-123-4567 or ssn 321-54-9876",
                "clean text only",
            ],
        }
    )
    out = (
        add_scrub(rd.from_pandas(pdf, override_num_blocks=2))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_email"].tolist() == [2, 0, 0]
    assert out["n_ipv4"].tolist() == [1, 0, 0]
    assert out["n_phone"].tolist() == [0, 1, 0]
    assert out["n_ssn"].tolist() == [0, 1, 0]
    assert out.loc[0, "scrubbed"] == "mail [EMAIL] and [EMAIL] from [IP] now"
    assert out.loc[1, "scrubbed"] == "call [PHONE] or ssn [SSN]"
    assert out.loc[2, "scrubbed"] == "clean text only"

    again = (
        add_scrub(
            rd.from_pandas(out[["doc_id", "scrubbed"]], override_num_blocks=1),
            text_col="scrubbed",
            out_col="scrubbed2",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (again[["n_email", "n_ipv4", "n_phone", "n_ssn"]].to_numpy() == 0).all()
    assert (again["scrubbed2"] == again["scrubbed"]).all()


def test_containment_stop_fingerprint_filter(ray_session):
    """max_df contract: fingerprints shared by more than max_df docs are
    excluded from sets AND denominators. A 4-doc common phrase becomes a
    stop fingerprint at max_df=3; the pure-Python replica applies the
    same rule."""
    from ptrail_ray.functions.dedup import containment_pairs, winnow_batch

    common = "alpha beta gamma delta epsilon zeta eta theta"
    docs = {
        0: common + " one two three four five six",
        1: common + " one two three four five six",          # dup of 0
        2: common + " seven eight nine ten eleven twelve",
        3: common + " thirteen fourteen fifteen sixteen seventeen",
    }
    pdf = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    max_df = 3

    fps = winnow_batch(pdf, k=3, w=4)
    df_count = fps.groupby("fp")["doc_id"].nunique()
    stop = set(df_count[df_count > max_df].index)
    assert stop, "test premise: the common phrase must create stop fps"
    sets = {
        int(d): set(g["fp"]) - stop for d, g in fps.groupby("doc_id")
    }
    rows = []
    ids = sorted(sets)
    for ai, a in enumerate(ids):
        for b in ids[ai + 1:]:
            if not sets[a] or not sets[b]:
                continue
            inter = len(sets[a] & sets[b])
            if inter == 0:
                continue
            c = inter / min(len(sets[a]), len(sets[b]))
            if c >= 0.5:
                rows.append((a, b, inter, c))
    exp = pd.DataFrame(
        rows, columns=["a", "b", "n_shared", "containment"]
    ).sort_values(["a", "b"]).reset_index(drop=True)

    got = (
        containment_pairs(
            rd.from_pandas(pdf, override_num_blocks=2),
            k=3, w=4, threshold=0.5, num_buckets=4, max_df=max_df,
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"a": "int64", "b": "int64", "n_shared": "int64"}), exp
    )
    # without the filter the common phrase would link every pair; with it
    # docs 2 and 3 share nothing
    assert not ((got["a"] == 2) & (got["b"] == 3)).any()
    assert ((got["a"] == 0) & (got["b"] == 1)).any()


def test_cms_sketch_properties(ray_session):
    """CMS invariants: (1) the multiply-shift cell math matches an
    arbitrary-precision replica, (2) est ≥ exact always, est == exact
    when w is collision-free, (3) the sketch is split-invariant (sum
    merge): 1 block ≡ 4 blocks."""
    from ptrail_ray.functions.sketch import (
        CMS_MULTS, _cms_cells, _term_hashes, cms_estimate, cms_sketch,
    )

    terms = [f"word{i}" for i in range(30)]
    h = _term_hashes(terms)
    cells = _cms_cells(h, d=4, lg_w=8)
    for i, a in enumerate(CMS_MULTS):
        exp = [((a * int(x)) % (1 << 64)) >> (64 - 8) for x in h]
        assert cells[i].tolist() == exp

    rng = np.random.default_rng(7)
    texts = [" ".join(rng.choice(terms, size=40)) for _ in range(200)]
    pdf = pd.DataFrame({"text": texts})
    exact = pd.Series(" ".join(texts).split()).value_counts()

    sk1 = cms_sketch(rd.from_pandas(pdf, override_num_blocks=1), "text", lg_w=16, batch_size=None)
    sk4 = cms_sketch(rd.from_pandas(pdf, override_num_blocks=4), "text", lg_w=16, batch_size=None)
    assert (sk1 == sk4).all()  # sum-merge: layout-invariant

    est = cms_estimate(sk1, list(exact.index), lg_w=16)
    assert (est == exact.to_numpy()).all()  # 30 terms in 65536 cells: exact

    sk_small = cms_sketch(rd.from_pandas(pdf, override_num_blocks=2), "text", lg_w=4, batch_size=None)
    est_small = cms_estimate(sk_small, list(exact.index), lg_w=4)
    assert (est_small >= exact.to_numpy()).all()  # guaranteed overcount
    assert (est_small > exact.to_numpy()).any()   # 30 terms in 16 cells: collide


# ---------------------------------------------------------------------------
# segment_dedup (CCNet-style sub-document dedup)
# ---------------------------------------------------------------------------


def _seg_dedup_expected(docs: dict[int, str], n: int) -> pd.DataFrame:
    """Pure-Python replica of the contract: first corpus occurrence of
    each n-token segment (by doc_id, seg_idx) keeps; docs reassemble
    from kept segments with single spaces."""
    seen: dict[tuple, tuple] = {}
    segs: dict[int, list[tuple[int, tuple]]] = {}
    for i in sorted(docs):
        toks = docs[i].split()
        segs[i] = [
            (j // n, tuple(toks[j : j + n])) for j in range(0, len(toks), n)
        ]
        for si, s in segs[i]:
            seen.setdefault(s, (i, si))
    rows = []
    for i in sorted(docs):
        kept = [s for si, s in segs[i] if seen[s] == (i, si)]
        rows.append(
            (i, " ".join(" ".join(s) for s in kept), len(kept), len(segs[i]))
        )
    return pd.DataFrame(
        rows, columns=["doc_id", "text_clean", "n_seg_kept", "n_seg_total"]
    )


def test_segment_dedup_matches_bruteforce(ray_session):
    from ptrail_ray.functions.dedup import segment_dedup

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    docs = {
        i: " ".join(rng.choice(vocab, size=rng.integers(1, 40)))
        for i in range(60)
    }
    docs[60] = docs[3]                      # exact duplicate doc
    docs[61] = docs[5] + " " + docs[7]      # concatenation of two docs
    docs[62] = ""                           # empty doc
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    )
    for n in (3, 8):
        out = (
            segment_dedup(ds, n_tokens=n, num_buckets=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        exp = _seg_dedup_expected(docs, n)
        pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_segment_dedup_unique_corpus_is_identity(ray_session):
    from ptrail_ray.functions.dedup import segment_dedup

    texts = [f"alpha{i} beta{i} gamma{i} delta{i} eps{i}" for i in range(20)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(20), "text": texts}))
    out = (
        segment_dedup(ds, n_tokens=4, num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out["text_clean"] == pd.Series(texts)).all()
    assert (out["n_seg_kept"] == out["n_seg_total"]).all()


def test_segment_dedup_duplicate_doc_emptied(ray_session):
    from ptrail_ray.functions.dedup import segment_dedup

    t = "a b c d e f g h i j k l m n o p"  # exactly two 8-token segments
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": [t, t]}))
    out = (
        segment_dedup(ds, n_tokens=8, num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.loc[0, "text_clean"] == t and out.loc[0, "n_seg_kept"] == 2
    assert out.loc[1, "text_clean"] == "" and out.loc[1, "n_seg_kept"] == 0
    assert (out["n_seg_total"] == 2).all()


def test_embedding_covariance_matches_numpy(ray_session):
    from ptrail_ray.functions.linalg import embedding_covariance

    rng = np.random.default_rng(7)
    n, d = 400, 6
    m = rng.normal(size=(n, d)).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({"embedding": list(m)}))
    out = embedding_covariance(ds, batch_size=64, row_chunk=32)
    assert len(out) == d * (d + 1) // 2
    assert (out["n"] == n).all()
    ref = np.cov(m.astype(np.float64), rowvar=False, bias=True)
    got = np.zeros((d, d))
    got[out["dim_i"], out["dim_j"]] = out["cov"]
    iu = np.triu_indices(d)
    np.testing.assert_allclose(got[iu], ref[iu], atol=5e-8)


def test_embedding_covariance_batch_split_invariant(ray_session):
    """Integer partials ⇒ bit-identical result under any batch split."""
    from ptrail_ray.functions.linalg import embedding_covariance

    rng = np.random.default_rng(11)
    m = rng.normal(size=(257, 5)).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({"embedding": list(m)}))
    a = embedding_covariance(ds, batch_size=7, row_chunk=3)
    b = embedding_covariance(ds, batch_size=1024, row_chunk=1024)
    assert (a["cov"].to_numpy() == b["cov"].to_numpy()).all()
    assert (a["spq"].to_numpy() == b["spq"].to_numpy()).all() if "spq" in a else True


def test_group_zscore_matches_pandas(ray_session):
    from ptrail_ray.stages.stats import group_zscore

    rng = np.random.default_rng(3)
    conv = np.repeat([f"conv-{i}" for i in range(20)], 25)
    df = pd.DataFrame(
        {
            "conv_id": conv,
            "turn_idx": np.tile(np.arange(25), 20),
            "role": "user",
            "text": None,
            "tool": None,
            "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(500), "s"),
            "m1": rng.integers(0, 300, 500).astype(np.int64),
        }
    )
    # one constant conversation → std 0 → NaN
    df.loc[df["conv_id"] == "conv-7", "m1"] = 42
    out = (
        group_zscore(rd.from_pandas(df), num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    ref = df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    g = ref.groupby("conv_id")["m1"]
    exp = (ref["m1"] - g.transform("mean")) / g.transform(lambda x: x.std(ddof=0))
    exp[ref["conv_id"] == "conv-7"] = np.nan
    np.testing.assert_allclose(out["z_m1"], exp, atol=1e-9)
    assert out.loc[out["conv_id"] == "conv-7", "z_m1"].isna().all()


def test_postings_matches_python(ray_session):
    from collections import Counter

    from ptrail_ray.functions.textstats import postings

    docs = {
        0: "a b a c",
        1: "",
        2: "b b b",
        3: "x y x y z",
    }
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    )
    out = (
        postings(ds, batch_size=None)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    exp_rows = []
    for d, t in docs.items():
        for w, c in sorted(Counter(t.split()).items()):
            exp_rows.append((d, w, c))
    exp = pd.DataFrame(exp_rows, columns=["doc_id", "term", "tf"])
    pd.testing.assert_frame_equal(
        out.astype({"doc_id": "int64", "tf": "int64"}), exp.astype({"doc_id": "int64", "tf": "int64"})
    )


def test_bm25_matches_python(ray_session):
    import math

    from ptrail_ray.functions.retrieval import bm25_scores

    docs = {
        0: "join the window join",
        1: "no relevant terms here at all",
        2: "spark spark spark dup",
        3: "",
        4: "window",
    }
    terms, k1, b = ["join", "window", "dup", "spark"], 1.2, 0.75
    toks = {i: t.split() for i, t in docs.items()}
    n = len(docs)
    avgdl = sum(len(v) for v in toks.values()) / n
    dfs = {w: sum(w in set(v) for v in toks.values()) for w in terms}

    def score(ts):
        s = 0.0
        for w in terms:
            tf = ts.count(w)
            if not tf or not dfs[w]:
                continue
            idf = math.log((n - dfs[w] + 0.5) / (dfs[w] + 0.5) + 1.0)
            s += idf * (tf * (k1 + 1.0)) / (
                tf + k1 * ((1.0 - b) + (b * len(ts)) / avgdl)
            )
        return s

    exp = {i: score(v) for i, v in toks.items() if score(v) != 0.0}
    ds = rd.from_pandas(pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())}))
    out = bm25_scores(ds, terms, batch_size=None).to_pandas()
    got = dict(zip(out["doc_id"], out["bm25"]))
    assert set(got) == set(exp)
    for i in exp:
        assert abs(got[i] - exp[i]) < 1e-6


def test_power_iteration_matches_eigh(ray_session):
    from ptrail_ray.functions.linalg import (
        covariance_matrix,
        embedding_covariance,
        pca_project,
        power_iteration,
    )

    rng = np.random.default_rng(5)
    # anisotropic cloud: stretched along a known direction
    d, n = 8, 600
    base = rng.normal(size=(n, d))
    base[:, 2] *= 4.0
    ds = rd.from_pandas(
        pd.DataFrame({"vec_id": np.arange(n), "embedding": list(base.astype(np.float32))})
    )
    cov = covariance_matrix(embedding_covariance(ds, batch_size=128))
    lam, v = power_iteration(cov)
    w, q = np.linalg.eigh(cov)
    assert abs(lam - w[-1]) < 1e-10
    assert abs(float(q[:, -1] @ v)) > 1.0 - 1e-9
    proj = pca_project(ds, v).to_pandas().sort_values("vec_id")
    exp = base.astype(np.float32).astype(np.float64) @ v
    np.testing.assert_allclose(proj["pc1"].to_numpy(), exp, atol=1e-12)


def test_rank_and_rollmax_kernels_match_pandas(ray_session):
    from ptrail_ray.pipelines.flagship import flagship

    rng = np.random.default_rng(9)
    sizes = [1, 2, 5, 30, 7]
    rows = []
    t0 = pd.Timestamp("2024-01-01")
    for ci, n in enumerate(sizes):
        for k in range(n):
            rows.append(
                (f"conv-{ci}", k, "user",
                 "x" * int(rng.integers(0, 6)),  # many m1 ties
                 None, t0 + pd.Timedelta(seconds=len(rows)))
            )
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"])
    out = (
        flagship(rd.from_pandas(df), features=["rank_m1", "roll5_max_m1"], num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    ref = df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    m1 = ref["text"].str.len().fillna(0)
    exp_rank = m1.groupby(ref["conv_id"]).rank(method="min")
    np.testing.assert_array_equal(out["rank_m1"], exp_rank)
    exp_max = (
        m1.astype(float).groupby(ref["conv_id"]).rolling(5).max().reset_index(drop=True)
    )
    np.testing.assert_allclose(out["roll5_max_m1"], exp_max)


def test_robust_scale_matches_pandas(ray_session):
    from ptrail_ray.stages.stats import robust_scale

    rng = np.random.default_rng(13)
    conv = np.repeat([f"conv-{i}" for i in range(10)], 17)
    df = pd.DataFrame(
        {
            "conv_id": conv,
            "turn_idx": np.tile(np.arange(17), 10),
            "role": "user",
            "text": None,
            "tool": None,
            "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(170), "s"),
            "m1": rng.integers(0, 50, 170).astype(np.int64),
        }
    )
    df.loc[df["conv_id"] == "conv-4", "m1"] = 9  # constant → IQR 0 → NaN
    out = (
        robust_scale(rd.from_pandas(df), num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    ref = df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    g = ref.groupby("conv_id")["m1"]
    med = g.transform("median")
    iqr = g.transform(lambda x: x.quantile(0.75) - x.quantile(0.25))
    exp = (ref["m1"] - med) / iqr.where(iqr > 0)
    np.testing.assert_allclose(out["robust_m1"], exp, atol=1e-12)
    assert out.loc[out["conv_id"] == "conv-4", "robust_m1"].isna().all()


def test_zip_with_index_total_order(ray_session):
    from ptrail_ray.functions.dedup import _md5_u60
    from ptrail_ray.functions.sample import zip_with_index

    ids = [f"id-{i}" for i in range(311)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids}), override_num_blocks=7)
    out = zip_with_index(ds, id_col="doc_id", num_buckets=16).to_pandas()
    assert sorted(out["pos"]) == list(range(len(ids)))
    exp_order = sorted(ids, key=lambda s: (_md5_u60(s), s))
    got_order = out.sort_values("pos")["doc_id"].tolist()
    assert got_order == exp_order


def test_weighted_sample_prob_is_weight(ray_session):
    from ptrail_ray.functions.dedup import _md5_u60
    from ptrail_ray.functions.sample import weighted_sample_by_hash

    n = 2000
    df = pd.DataFrame({"doc_id": [str(i) for i in range(n)]})
    df["w"] = (df["doc_id"].astype(int) % 10) / 10.0
    out = weighted_sample_by_hash(
        rd.from_pandas(df), id_col="doc_id", weight_col="w"
    ).to_pandas()
    kept = set(out["doc_id"])
    for _, r in df.iterrows():
        u = _md5_u60(r["doc_id"]) / float(1 << 60)
        assert (r["doc_id"] in kept) == (u < r["w"])


def test_uniform_k_sample_exact(ray_session):
    from ptrail_ray.functions.dedup import _md5_u60
    from ptrail_ray.functions.sample import uniform_k_sample

    ids = [f"d{i}" for i in range(500)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids}), override_num_blocks=9)
    out = uniform_k_sample(ds, id_col="doc_id", k=25)
    exp = sorted(ids, key=lambda s: (_md5_u60(s), s))[:25]
    assert out["doc_id"].tolist() == exp


def test_bloom_decontam_superset_and_merge_invariance(ray_session):
    from ptrail_ray.functions.decontam import (
        bloom_bench_bits,
        bloom_overlap_flags,
        ngram_overlap_flags,
    )

    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, 12)) for _ in range(120)]
    df = pd.DataFrame({"doc_id": np.arange(120), "text": texts})
    bench = rd.from_pandas(df[df["doc_id"] % 7 == 0])
    corpus_df = df[df["doc_id"] % 7 != 0]
    corpus = rd.from_pandas(corpus_df)
    bloom = bloom_overlap_flags(corpus, bench, n=3, m_bits=1 << 12).to_pandas()
    exact = ngram_overlap_flags(corpus, bench, n=3).to_pandas()
    m = bloom.merge(exact, on="doc_id", validate="one_to_one")
    assert not (m["contaminated"] & ~m["maybe_contaminated"]).any()
    # bitset is split-invariant: 1 block vs 8 blocks give identical bits
    b1 = bloom_bench_bits(rd.from_pandas(df[df["doc_id"] % 7 == 0]), n=3, m_bits=1 << 12)
    b8 = bloom_bench_bits(
        rd.from_pandas(df[df["doc_id"] % 7 == 0], override_num_blocks=8),
        n=3, m_bits=1 << 12,
    )
    assert (b1 == b8).all()


def test_nearest_point_matches_bruteforce(ray_session):
    from ptrail_ray.stages.project import nearest_point

    rng = np.random.default_rng(17)
    n, m = 300, 12
    df = pd.DataFrame(
        {
            "m1": rng.integers(0, 100, n).astype(np.int64),
            "m2": rng.integers(0, 100, n).astype(np.int64),
        }
    )
    pid = np.array([5, 3, 9, 1, 7, 11, 2, 8, 4, 6, 10, 0], np.int64)
    px = rng.uniform(0, 100, m)
    py = rng.uniform(0, 100, m)
    out = nearest_point(rd.from_pandas(df), pid, px, py).to_pandas()
    order = np.argsort(pid, kind="stable")
    pids, pxs, pys = pid[order], px[order], py[order]
    for i in range(n):
        d2 = (df["m1"][i] - pxs) ** 2 + (df["m2"][i] - pys) ** 2
        j = int(np.argmin(d2))  # first min = smallest poi_id
        assert out["nearest_poi"][i] == pids[j]
        assert abs(out["poi_dist"][i] - np.sqrt(d2[j])) < 1e-12
    assert (nearest_point(rd.from_pandas(df), pid, px, py, row_chunk=7)
            .to_pandas()["nearest_poi"] == out["nearest_poi"]).all()


def test_ppm_stream_parse_and_frame_sample(ray_session):
    from ptrail_ray.functions.multimodal import (
        FrameSample,
        parse_ppm_stream,
        synth_ppmv_media,
        ppmv_ground_truth,
    )
    import pyarrow as pa

    media = synth_ppmv_media(n=12, seed=3)
    # parse round-trip: frame count matches the generator's
    for i in range(12):
        frames = parse_ppm_stream(media["payload"][i].as_py())
        assert len(frames) == media["true_frames"][i].as_py()
        assert all(f.ndim == 3 and f.shape[2] == 3 for f in frames)
    out = FrameSample(stride=2)(media).to_pandas()
    gt = ppmv_ground_truth(n=12, seed=3).to_pandas()
    m = out.merge(gt, on=["media_id", "frame_idx"], suffixes=("", "_gt"))
    assert len(m) == len(gt) == len(out)
    assert (m["mean_px"] == m["mean_px_gt"]).all()  # bit-identical reduction
    # corrupt boundary raises loudly
    import pytest

    with pytest.raises(ValueError):
        parse_ppm_stream(b"JUNK" + media["payload"][0].as_py())


def test_kll_sketch_accuracy_and_merge(ray_session):
    from ptrail_ray.functions.sketch import KLLSketch, kll_quantiles

    rng = np.random.default_rng(27)
    x = rng.exponential(scale=10.0, size=100_000)
    s = KLLSketch(256)
    s.update_many(x)
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = s.quantile(q)
        lo, hi = (x < est).mean(), (x <= est).mean()
        assert lo - 0.02 <= q <= hi + 0.02, (q, est, lo, hi)
    # merge of split halves stays within the band too
    a, b = KLLSketch(256), KLLSketch(256)
    a.update_many(x[: 50_000])
    b.update_many(x[50_000:])
    m = a.merge(b)
    for q in (0.25, 0.5, 0.9):
        est = m.quantile(q)
        lo, hi = (x < est).mean(), (x <= est).mean()
        assert lo - 0.02 <= q <= hi + 0.02
    # summary stays bounded: ~k * log2(n/k)
    assert sum(len(v) for v in m.levels) < 256 * 14
    # distributed path round-trips through Arrow partials
    ds = rd.from_pandas(pd.DataFrame({"value": x}), override_num_blocks=8)
    est = kll_quantiles(ds, "value", [0.5], k=256)[0.5]
    lo, hi = (x < est).mean(), (x <= est).mean()
    assert lo - 0.02 <= 0.5 <= hi + 0.02


def test_incremental_dedup_prior_wins(ray_session):
    from ptrail_ray.functions.dedup import incremental_dedup

    prior = pd.DataFrame({"doc_id": [100, 101], "text": ["alpha beta", "gamma"]})
    new = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "alpha beta",   # dies: content exists in prior (despite smaller id)
                "delta",        # survives
                "delta",        # dies: id 2 is the earlier new head
                "gamma",        # dies: prior match
                "epsilon",      # survives
            ],
        }
    )
    out = (
        incremental_dedup(rd.from_pandas(new), rd.from_pandas(prior), num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == [2, 5]


def test_bigram_logprob_matches_python(ray_session):
    import math
    from collections import Counter

    from ptrail_ray.functions.lm import bigram_logprob

    docs = {
        0: "a b a b c",
        1: "c c c",
        2: "a",           # <2 tokens → no row
        3: "",            # no tokens → no row
        4: "b a b",
    }
    toks = {i: t.split() for i, t in docs.items()}
    c12 = Counter()
    hist = Counter()
    vocab = set()
    for ts in toks.values():
        vocab.update(ts)
        for x, y in zip(ts, ts[1:]):
            c12[(x, y)] += 1
            hist[x] += 1
    V = len(vocab)

    def score(ts):
        lps = [
            math.log((c12[(x, y)] + 1.0) / (hist[x] + float(V)))
            for x, y in zip(ts, ts[1:])
        ]
        return (len(lps), sum(lps) / len(lps)) if lps else None

    exp = {i: score(ts) for i, ts in toks.items() if score(ts)}
    ds = rd.from_pandas(pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())}))
    out = bigram_logprob(ds).to_pandas().set_index("doc_id")
    assert set(out.index) == set(exp)
    for i, (nb, lp) in exp.items():
        assert out.loc[i, "n_bigrams"] == nb
        assert abs(out.loc[i, "mean_logprob"] - lp) < 1e-8


def test_mix_to_target_rates_and_membership(ray_session):
    from ptrail_ray.functions.dedup import _md5_u60
    from ptrail_ray.functions.sample import group_weights, mix_rates, mix_to_target

    n = 3000
    df = pd.DataFrame({"doc_id": [str(i) for i in range(n)]})
    df["source"] = "src" + (df["doc_id"].astype(int) % 4).astype(str)
    df["n_chars"] = 100 + (df["doc_id"].astype(int) * 37) % 400
    ds = rd.from_pandas(df, override_num_blocks=7)

    weights = group_weights(ds, group_col="source", weight_col="n_chars")
    assert weights == {
        s: int(df.loc[df["source"] == s, "n_chars"].sum())
        for s in df["source"].unique()
    }

    targets = {"src0": 1.0, "src1": 2.0, "src2": 3.0, "src3": 4.0}
    rates = mix_rates(weights, targets)
    # the binding group is kept whole; kept-weight ∝ target for all
    c = min(weights[g] / targets[g] for g in targets)
    for g in targets:
        assert abs(rates[g] - min(1.0, c * targets[g] / weights[g])) == 0.0
    assert max(rates.values()) == 1.0

    out = mix_to_target(
        ds, id_col="doc_id", group_col="source", rates=rates
    ).to_pandas()
    kept = set(out["doc_id"])
    for _, r in df.iterrows():
        u = _md5_u60(r["doc_id"]) / float(1 << 60)
        assert (r["doc_id"] in kept) == (u < rates[r["source"]])
    # groups without a rate are dropped
    none_kept = mix_to_target(
        ds, id_col="doc_id", group_col="source", rates={"src0": rates["src0"]}
    ).to_pandas()
    assert set(none_kept["source"]) == {"src0"}


def test_group_weights_cap_is_loud(ray_session):
    import pytest
    from ptrail_ray.functions.sample import group_weights

    df = pd.DataFrame(
        {"doc_id": [str(i) for i in range(50)], "w": 1}
    )
    df["g"] = df["doc_id"]
    with pytest.raises(RuntimeError, match="max_groups"):
        group_weights(
            rd.from_pandas(df), group_col="g", weight_col="w", max_groups=10
        )


def test_rate_spikes_flags_planted_spike(ray_session):
    from ptrail_ray.stages.stats import rate_spikes

    # 10 quiet hourly windows of 5 events + one window of 50 for type A;
    # type B is flat (zero variance → z NaN, never flagged)
    rows = []
    base = pd.Timestamp("2024-01-01")
    for w in range(11):
        n = 50 if w == 7 else 5
        for i in range(n):
            rows.append(("A", base + pd.Timedelta(hours=w, seconds=i)))
    for w in range(4):
        for i in range(3):
            rows.append(("B", base + pd.Timedelta(hours=w, seconds=i)))
    df = pd.DataFrame(rows, columns=["event_type", "ts"])
    out = rate_spikes(
        rd.from_pandas(df, override_num_blocks=5),
        ts_col="ts",
        group_col="event_type",
    )
    a = out[out["group"] == "A"].set_index("win")
    assert a["n"].sum() == 10 * 5 + 50
    spikes = a[a["is_spike"]]
    assert len(spikes) == 1 and int(spikes["n"].iloc[0]) == 50
    # exact z for the spike: z = (n*C - S)/sqrt(Q*C - S^2)
    C, S = 11, 10 * 5 + 50
    Q = 10 * 25 + 2500
    import math

    assert spikes["z"].iloc[0] == (50 * C - S) / math.sqrt(Q * C - S * S)
    b = out[out["group"] == "B"]
    assert b["z"].isna().all() and (~b["is_spike"]).all()


def test_cohort_retention_matrix(ray_session):
    from ptrail_ray.stages.stats import cohort_retention

    # cohort 0: users 1,2 (u1 active weeks 0,1,3; u2 week 0 only)
    # cohort 2: user 3 (active weeks 2 and 4 → ages 0, 2)
    wk = pd.Timedelta(weeks=1)
    base = pd.Timestamp("2024-01-04")
    rows = [
        (1, base), (1, base + wk), (1, base + 3 * wk), (1, base + 3 * wk),
        (2, base),
        (3, base + 2 * wk), (3, base + 4 * wk),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    out = cohort_retention(
        rd.from_pandas(df, override_num_blocks=3),
        ts_col="ts",
        user_col="user_id",
        num_buckets=4,
    )
    w0 = int(pd.Timestamp("2024-01-04").value // 1000 // 604800000000)
    got = {
        (r.cohort_period - w0, r.age_periods): r.active_users
        for r in out.itertuples()
    }
    assert got == {(0, 0): 2, (0, 1): 1, (0, 3): 1, (2, 0): 1, (2, 2): 1}


def test_global_percent_rank_matches_pandas(ray_session):
    from ptrail_ray.stages.quantiles import global_percent_rank

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {"doc_id": np.arange(1000), "v": rng.integers(0, 50, 1000)}
    )
    out = (
        global_percent_rank(
            rd.from_pandas(df, override_num_blocks=7), value_col="v"
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    exp = df["v"].rank(method="min").sub(1).div(len(df) - 1).to_numpy()
    assert np.array_equal(out["pct_rank"].to_numpy(), exp)

    import pyarrow as pa

    with pytest.raises(TypeError, match="integer-typed"):
        global_percent_rank(
            rd.from_arrow(pa.table({"v": [0.5, 1.5]})), value_col="v"
        ).materialize()


def test_grouped_topk_matches_pandas(ray_session):
    from ptrail_ray.stages.quantiles import grouped_topk

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "id": np.arange(800),
            "g": rng.choice(list("abcd"), 800),
            "v": rng.integers(0, 40, 800),  # heavy ties → exercises tie-break
        }
    )
    out = grouped_topk(
        rd.from_pandas(df, override_num_blocks=9),
        group_col="g",
        value_col="v",
        id_col="id",
        k=5,
    )
    exp = (
        df.sort_values(["g", "v", "id"], ascending=[True, False, True])
        .groupby("g")
        .head(5)
        .reset_index(drop=True)
    )
    got = out.sort_values(["g", "rank"]).reset_index(drop=True)
    assert got["id"].tolist() == exp["id"].tolist()
    assert got["rank"].tolist() == [1, 2, 3, 4, 5] * 4


def test_max_streaks_gaps_and_islands(ray_session):
    from ptrail_ray.stages.stats import max_streaks

    day = pd.Timedelta(days=1)
    base = pd.Timestamp("2024-03-01")
    rows = []
    # u1: days 0,1,2, 5,6 → max streak 3 (dup events same day collapse)
    for d in (0, 0, 1, 2, 5, 6):
        rows.append((1, base + d * day))
    # u2: single day → 1;  u3: days 3,4,5,6 → 4
    rows.append((2, base + 9 * day))
    for d in (3, 4, 5, 6):
        rows.append((3, base + d * day))
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    out = (
        max_streaks(
            rd.from_pandas(df, override_num_blocks=4),
            ts_col="ts",
            user_col="user_id",
            num_buckets=4,
        )
        .to_pandas()
        .set_index("user_id")["max_streak"]
        .to_dict()
    )
    assert out == {1: 3, 2: 1, 3: 4}


def test_chi2_independence_matches_scipy_formula(ray_session):
    from ptrail_ray.functions.textstats import chi2_independence

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "a": rng.choice(["x", "y", "z"], 2000, p=[0.5, 0.3, 0.2]),
            "b": rng.choice(["p", "q"], 2000, p=[0.7, 0.3]),
        }
    )
    out = chi2_independence(
        rd.from_pandas(df, override_num_blocks=6), col_a="a", col_b="b"
    )
    ct = pd.crosstab(df["a"], df["b"])
    exp = np.outer(ct.sum(1), ct.sum(0)) / ct.to_numpy().sum()
    ref = (((ct.to_numpy() - exp) ** 2) / exp).sum()
    assert out["dof"].iloc[0] == 2 and out["n"].iloc[0] == 2000
    assert abs(out["chi2"].iloc[0] - ref) < 1e-6


def test_weighted_median_exact(ray_session):
    from ptrail_ray.stages.quantiles import weighted_median

    df = pd.DataFrame({"v": [10, 20, 30, 40], "w": [1, 1, 3, 1]})
    # cum = 1,2,5,6 ; tot=6 ; first 2*cum>=6 → v=30
    med, tot = weighted_median(
        rd.from_pandas(df, override_num_blocks=3), value_col="v", weight_col="w"
    )
    assert (med, tot) == (30, 6)
    # all weight on the first value
    df2 = pd.DataFrame({"v": [5, 9], "w": [10, 1]})
    assert weighted_median(rd.from_pandas(df2), value_col="v", weight_col="w") == (5, 11)
