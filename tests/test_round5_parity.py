"""Round-5 randomized parity tests for the rewritten kernels.

Each test pits a distributed path against an independent O(n²)/O(n³)
numpy brute force on seeded random inputs — the shapes most likely to
expose an indexing slip in the vectorized repeat/arange expansions.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _random_edges(rng, n_nodes, n_edges):
    a = rng.integers(0, n_nodes, n_edges * 2)
    b = rng.integers(0, n_nodes, n_edges * 2)
    m = a != b
    lo = np.minimum(a[m], b[m])
    hi = np.maximum(a[m], b[m])
    pairs = np.unique(np.stack([lo, hi], 1), axis=0)[:n_edges]
    return pairs[:, 0], pairs[:, 1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_count_matches_brute_force(ray_session, seed):
    import ray.data as rd

    from ptrail_ray.functions.graph import triangle_count

    rng = np.random.default_rng(seed)
    lo, hi = _random_edges(rng, n_nodes=40, n_edges=160)
    edges = pa.table(
        {"doc_a": pa.array(lo, pa.int64()), "doc_b": pa.array(hi, pa.int64())}
    )
    out = triangle_count(rd.from_arrow(edges), num_buckets=4).to_pandas()

    # brute force: adjacency matrix trace
    n = 40
    adj = np.zeros((n, n), np.int64)
    adj[lo, hi] = adj[hi, lo] = 1
    tri = int(np.einsum("ij,jk,ki->", adj, adj, adj)) // 6
    assert int(out.loc[0, "n_triangles"]) == tri
    assert int(out.loc[0, "n_edges"]) == len(lo)
    # degree-oriented wedge census: Σ_tail C(outdeg, 2)
    deg = adj.sum(1)
    tail_is_a = (deg[lo] < deg[hi]) | ((deg[lo] == deg[hi]) & (lo < hi))
    tails = np.where(tail_is_a, lo, hi)
    _, cnt = np.unique(tails, return_counts=True)
    assert int(out.loc[0, "n_wedges"]) == int((cnt * (cnt - 1) // 2).sum())


@pytest.mark.parametrize("seed", [3, 4])
def test_sparse_cosine_pairs_matches_brute_force(ray_session, seed):
    """Distributed inverted-index APSS == dense numpy replica of the
    documented contract (ratio-idf TF weights over word bigrams with a
    df stop rule, 1e-9-quantized pair contributions)."""
    import ray.data as rd

    from ptrail_ray.functions.apss import _term_codes, sparse_cosine_pairs
    from ptrail_ray.functions.cluster import QUANT_SCALE, _quant_int64

    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(12)]
    docs = [
        " ".join(rng.choice(vocab, size=rng.integers(4, 14)))
        for _ in range(40)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(40), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    max_df, theta = 30, 0.2
    got = (
        sparse_cosine_pairs(
            rd.from_arrow(t), threshold=theta, max_df=max_df, ngram=2,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )

    # dense replica: same bigram space, same weight law, same quantize
    codes, vv, idx = _term_codes(t["text"], 2)
    terms = vv.to_pylist()
    V = len(terms)
    tf = np.zeros((40, V))
    for d, c in zip(idx, codes):
        tf[d, c] += 0  # presence handled below via unique like the engine
    # engine counts tf as multiplicity of (doc, term)
    for d, c in zip(idx, codes):
        tf[d, c] += 1
    df = (tf > 0).sum(0)
    keep = (df > 0) & (df <= max_df)
    w = np.where(keep, tf * 40 / np.where(df == 0, 1, df), 0.0)
    norm2 = np.zeros(40, np.int64)
    for d in range(40):
        nz = w[d] != 0
        norm2[d] = _quant_int64(w[d][nz] * w[d][nz]).sum()
    nr = np.sqrt(norm2 / QUANT_SCALE)
    x = np.divide(w, nr[:, None], out=np.zeros_like(w), where=nr[:, None] > 0)
    rows = []
    for a in range(40):
        for b in range(a + 1, 40):
            shared = (x[a] != 0) & (x[b] != 0)
            if not shared.any():
                continue
            s = int(_quant_int64(x[a][shared] * x[b][shared]).sum())
            cos = s / QUANT_SCALE
            if cos >= theta:
                rows.append((a, b, cos))
    exp = pd.DataFrame(rows, columns=["doc_a", "doc_b", "cosine"])
    assert len(got) == len(exp)
    assert (got["doc_a"].to_numpy() == exp["doc_a"].to_numpy()).all()
    assert (got["doc_b"].to_numpy() == exp["doc_b"].to_numpy()).all()
    assert np.allclose(got["cosine"].to_numpy(), exp["cosine"].to_numpy(),
                       atol=2e-9)


def test_job_prepartitioned_resume_rejects_changed_input(ray_session, tmp_path):
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.sources.transcripts import write_synth

    src1 = str(tmp_path / "a")
    src2 = str(tmp_path / "b")
    out = str(tmp_path / "o")
    write_synth(src1, n_convs=10, mean_turns=4, seed=1, n_files=2, n_hot=0)
    write_synth(src2, n_convs=10, mean_turns=4, seed=2, n_files=2, n_hot=0)
    job_main(["--input", src1, "--output", out, "--num-cpus", "4"])
    with pytest.raises(SystemExit, match="job manifest"):
        job_main(["--input", src2, "--output", out, "--num-cpus", "4"])


def test_sparse_cosine_pairs_unpacked_fallback_identical(ray_session):
    """Doc ids ≥ 2^31 force the two-column pair-key path; results must
    equal the packed path on the same texts (ids shifted back)."""
    import ray.data as rd

    from ptrail_ray.functions.apss import sparse_cosine_pairs

    rng = np.random.default_rng(6)
    vocab = [f"w{i}" for i in range(10)]
    docs = [
        " ".join(rng.choice(vocab, size=rng.integers(5, 12)))
        for _ in range(30)
    ]
    base = 1 << 31

    def run(offset):
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(30) + offset, pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
        out = (
            sparse_cosine_pairs(
                rd.from_arrow(t), threshold=0.2, max_df=25, ngram=2,
                num_buckets=4,
            )
            .to_pandas()
        )
        out["doc_a"] = out["doc_a"].to_numpy().copy() - offset
        out["doc_b"] = out["doc_b"].to_numpy().copy() - offset
        return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    small, big = run(0), run(base)
    assert len(small) > 0  # the corpus must actually produce pairs
    pd.testing.assert_frame_equal(small, big)
