"""Near-dup family stress bench at 20× query scale (BASELINE.md §near-dup).

Rebuilds the r02 corpus deterministically — 20 replicas of the sf0.1
5k-doc table, 1/4 of replicas exact duplicates and 3/4 with one token
perturbed per ~40 tokens — and times the family end-to-end at full CPU.
The corpus is intentionally DENSE (every doc has ~19 near-copies) so
candidate/verify volume, not candidate generation, dominates.

    python tools/stress_neardup.py [minhash simhash exact winnow cosine]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def build_corpus(sf_dir: str = "/root/testdata/sf0.1", replicas: int = 20) -> pd.DataFrame:
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    base = t.to_pandas()
    n = len(base)
    rng = np.random.default_rng(11)
    outs = []
    for r in range(replicas):
        df = base.copy()
        df["doc_id"] = base["doc_id"].to_numpy() + r * n
        if r % 4 != 0 and r > 0:  # 3/4 of non-first replicas: perturb
            texts = []
            for s in df["text"].fillna(""):
                toks = s.split()
                for i in range(0, len(toks), 40):
                    toks[i] = f"tok{r}x{i}"
                texts.append(" ".join(toks))
            df["text"] = texts
        outs.append(df)
    return pd.concat(outs, ignore_index=True)


def build_embeddings(sf_dir: str = "/root/testdata/sf0.1", replicas: int = 20) -> pd.DataFrame:
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    base = t.to_pandas()
    n = len(base)
    rng = np.random.default_rng(13)
    outs = []
    for r in range(replicas):
        df = base.copy()
        df["vec_id"] = base["vec_id"].to_numpy() + r * n
        if r > 0:
            emb = np.stack([np.asarray(e, np.float64) for e in base["embedding"]])
            emb = emb + rng.normal(scale=0.02, size=emb.shape)
            df["embedding"] = [e.tolist() for e in emb]
        outs.append(df)
    return pd.concat(outs, ignore_index=True)


def main() -> int:
    ops = sys.argv[1:] or ["minhash", "simhash", "exact", "winnow", "cosine"]

    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    results = {}
    if set(ops) & {"minhash", "simhash", "exact", "winnow", "ngram", "containment", "segment"}:
        corpus = build_corpus()
        print(f"corpus: {len(corpus)} docs", flush=True)
        ds = rd.from_pandas(corpus, override_num_blocks=64).materialize()

        if "exact" in ops:
            from ptrail_ray.functions.dedup import exact_dedup

            t0 = time.perf_counter()
            nrows = exact_dedup(ds).count()
            results["exact_dedup"] = (time.perf_counter() - t0, nrows)
        if "winnow" in ops:
            from ptrail_ray.functions.dedup import winnow_fingerprints

            t0 = time.perf_counter()
            nrows = winnow_fingerprints(ds).count()
            results["winnow"] = (time.perf_counter() - t0, nrows)
        if "minhash" in ops:
            from ptrail_ray.functions.dedup import minhash_lsh_pairs

            t0 = time.perf_counter()
            nrows = minhash_lsh_pairs(ds, jaccard_threshold=0.5).count()
            results["minhash_lsh_pairs"] = (time.perf_counter() - t0, nrows)
        if "ngram" in ops:
            from ptrail_ray.functions.dedup import ngram_jaccard_pairs

            t0 = time.perf_counter()
            nrows = ngram_jaccard_pairs(ds, threshold=0.5).count()
            results["ngram_jaccard_pairs"] = (time.perf_counter() - t0, nrows)
        if "containment" in ops:
            from ptrail_ray.functions.dedup import containment_pairs

            t0 = time.perf_counter()
            nrows = containment_pairs(ds, threshold=0.8).count()
            results["containment_pairs"] = (time.perf_counter() - t0, nrows)
        if "segment" in ops:
            from ptrail_ray.functions.dedup import segment_dedup

            t0 = time.perf_counter()
            nrows = segment_dedup(ds, n_tokens=8).count()
            results["segment_dedup"] = (time.perf_counter() - t0, nrows)
        if "simhash" in ops:
            from ptrail_ray.functions.dedup import simhash_near_pairs

            t0 = time.perf_counter()
            nrows = simhash_near_pairs(ds, max_hamming=3).count()
            results["simhash_near_pairs"] = (time.perf_counter() - t0, nrows)

    if "cosine" in ops:
        from ptrail_ray.functions.ann import cosine_pairs

        emb = build_embeddings()
        print(f"embeddings: {len(emb)} vecs", flush=True)
        eds = rd.from_pandas(emb, override_num_blocks=64).materialize()
        t0 = time.perf_counter()
        n_blas = len(cosine_pairs(eds, threshold=0.8))
        results["cosine_pairs_blas"] = (time.perf_counter() - t0, n_blas)
        t0 = time.perf_counter()
        n_det = len(cosine_pairs(eds, threshold=0.8, deterministic=True))
        results["cosine_pairs_deterministic"] = (time.perf_counter() - t0, n_det)

    for k, (w, n) in results.items():
        print(f"{k}: {w:.1f} s, {n} rows", flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
