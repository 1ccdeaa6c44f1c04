"""Benchmark decontamination: n-gram overlap flags against a held-out set.

The GPT-3-style test-set decontamination op (Brown et al. 2020, App. C;
also The Pile / Dolma cleanup): flag every training document that
shares at least one word n-gram with any benchmark document, so
evaluation data can be excised from the corpus before training. The
reference has nothing comparable (numeric trajectory filters only);
this is a beyond-reference training-data operator, sharing the
whitespace token model of `textstats` / `dedup.winnow_batch` so the
DuckDB oracle replays identical gram construction.

Design for 100 TB: the BENCHMARK side is small by nature (eval suites
are thousands of documents, not the corpus), so its distinct n-gram
identity set is collected once (loud ``max_bench_grams`` guard — no
silent caps) and broadcast via `ray.put`; the corpus side is a
stateless `map_batches` with NO shuffle — corpus text never leaves
its task.

Gram identity is a pair of two independent 64-bit hashes (stable
SipHash of each UNIQUE token via ``pd.util.hash_array``, combined over
the window by a wrapping polynomial) — effectively 128 bits: among N
distinct grams any collision has probability about N²/2¹²⁹ (<1e-18 at
10⁹ grams), so gram STRINGS are never materialized: tokenization is the Arrow
kernel chain (`tokenize.encoded_tokens`), token hashes are computed
once per batch-unique token, and window combination is pure wrapping
uint64 arithmetic over the flat token array (winnow-style boundary
masking). Membership is a binary search against the sorted broadcast
pair set. The DuckDB oracle compares gram strings — agreement is
exact up to 128-bit hash collisions.

Documents shorter than ``n`` tokens have no n-grams and can never be
flagged (same rule as the SQL ``CASE WHEN len(toks) < n``).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ptrail_ray.functions.tokenize import encoded_tokens

TEXT_BATCH = 16_384

_HASH_KEY2 = "fedcba9876543210"  # second independent SipHash key
_P1 = np.uint64(1099511628211)  # FNV-1a prime (odd → bijective step)
_P2 = np.uint64(0x9E3779B97F4A7C15)  # 2^64/φ, odd


def _gram_hashes(col, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h1, h2, doc_index) for every word n-gram fully inside one doc —
    no gram strings, no per-window Python: token hashes once per
    batch-unique token, then n wrapping multiply-adds over the flat
    stream."""
    codes, vocab, idx = encoded_tokens(col)
    m = len(codes) - n + 1
    e = np.array([], np.uint64)
    if len(codes) == 0 or m <= 0:
        return e, e, np.array([], np.int64)
    vs = np.asarray(vocab.to_pylist(), dtype=object)
    th1 = pd.util.hash_array(vs, categorize=False).astype(np.uint64)
    th2 = pd.util.hash_array(vs, hash_key=_HASH_KEY2, categorize=False).astype(np.uint64)
    f1, f2 = th1[codes], th2[codes]
    # window [j, j+n-1] lies in one doc iff its endpoints agree (idx is
    # non-decreasing) — the winnow-kernel boundary rule
    valid = idx[:m] == idx[n - 1 :]
    g1 = np.zeros(m, np.uint64)
    g2 = np.zeros(m, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            g1 = g1 * _P1 + f1[j : j + m]
            g2 = g2 * _P2 + f2[j : j + m]
    return g1[valid], g2[valid], idx[:m][valid]


def _bench_partial(t: pa.Table, *, text_col: str, n: int) -> pa.Table:
    g1, g2, _ = _gram_hashes(t[text_col], n)
    if len(g1):
        u = np.unique(np.stack([g1, g2], axis=1), axis=0)
        g1, g2 = u[:, 0], u[:, 1]
    return pa.table({"g1": pa.array(g1, pa.uint64()), "g2": pa.array(g2, pa.uint64())})


def _flag_batch(
    t: pa.Table, *, bench_ref, n: int, id_col: str, text_col: str,
    keep_cols: bool = False,
) -> pa.Table:
    b1, b2 = ray.get(bench_ref) if isinstance(bench_ref, ray.ObjectRef) else bench_ref
    ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    g1, g2, doc_of = _gram_hashes(t[text_col], n)
    n_overlap = np.zeros(len(ids), np.int64)
    if len(g1) and len(b1):
        # b1 sorted (lexsort by (g1, g2) upstream); distinct grams share
        # an h1 with probability ~m²/2⁶⁵, so a single probe suffices
        pos = np.searchsorted(b1, g1).clip(max=len(b1) - 1)
        hit = (b1[pos] == g1) & (b2[pos] == g2)
        n_overlap = np.bincount(doc_of[hit], minlength=len(ids)).astype(np.int64)
    if keep_cols:
        return t.append_column(
            "n_overlap", pa.array(n_overlap, pa.int64())
        ).append_column("contaminated", pa.array(n_overlap > 0, pa.bool_()))
    return pa.table(
        {
            id_col: pa.array(ids, pa.int64()),
            "n_overlap": pa.array(n_overlap, pa.int64()),
            "contaminated": pa.array(n_overlap > 0, pa.bool_()),
        }
    )


def bench_ngrams(
    ds,
    *,
    n: int = 5,
    text_col: str = "text",
    max_bench_grams: int = 1 << 26,
    batch_size: int = TEXT_BATCH,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct n-gram identities (two sorted uint64 hash arrays,
    lexsorted by (h1, h2)) of the benchmark set — per-batch unique
    partials, bounded driver union, loud guard."""
    parts = ds.map_batches(
        functools.partial(_bench_partial, text_col=text_col, n=n),
        batch_format="pyarrow",
        batch_size=batch_size,
    ).to_pandas()
    pairs = np.stack(
        [parts["g1"].to_numpy(np.uint64), parts["g2"].to_numpy(np.uint64)], axis=1
    )
    u = np.unique(pairs, axis=0) if len(pairs) else pairs.reshape(0, 2)
    if len(u) > max_bench_grams:
        raise ValueError(
            f"benchmark n-gram set {len(u)} exceeds max_bench_grams="
            f"{max_bench_grams}; the benchmark side must stay broadcastable "
            "— decontam does not silently truncate"
        )
    return np.ascontiguousarray(u[:, 0]), np.ascontiguousarray(u[:, 1])


def ngram_overlap_flags(
    corpus_ds,
    bench_ds,
    *,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_bench_grams: int = 1 << 26,
    batch_size: int = TEXT_BATCH,
    keep_cols: bool = False,
):
    """Per-corpus-doc (id, n_overlap, contaminated) — module docstring.

    ``n_overlap`` counts overlapping gram POSITIONS (a gram repeated in
    the doc counts each occurrence), matching the SQL join count.
    ``keep_cols=True`` appends the two flag columns to the input rows
    instead (for in-pipeline filtering without a join).
    """
    bench_ref = ray.put(bench_ngrams(
        bench_ds, n=n, text_col=text_col,
        max_bench_grams=max_bench_grams, batch_size=batch_size,
    ))
    return corpus_ds.map_batches(
        functools.partial(
            _flag_batch, bench_ref=bench_ref, n=n, id_col=id_col,
            text_col=text_col, keep_cols=keep_cols,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# --- Bloom-filter decontamination (the memory-bounded scale path) ----------


def _bloom_positions(g1: np.ndarray, g2: np.ndarray, m_bits: int):
    """k=2 bit positions per gram from the two independent 64-bit gram
    hashes (classic two-hash Bloom construction)."""
    return (g1 % np.uint64(m_bits)), (g2 % np.uint64(m_bits))


def _bloom_partial(t: pa.Table, *, text_col: str, n: int, m_bits: int) -> pa.Table:
    """Per-batch Bloom bitset partial: one fixed-size uint64 word array
    regardless of batch size (m_bits/8 bytes, e.g. 128 KB at 2²⁰) —
    OR-mergeable, so build order / batch split never matters."""
    words = np.zeros(m_bits // 64, np.uint64)
    g1, g2, _ = _gram_hashes(t[text_col], n)
    if len(g1):
        for pos in _bloom_positions(g1, g2, m_bits):
            np.bitwise_or.at(
                words, (pos // np.uint64(64)).astype(np.int64),
                np.uint64(1) << (pos % np.uint64(64)),
            )
    return pa.table(
        {
            "w": pa.array(np.arange(len(words), dtype=np.int64), pa.int64()),
            "bits": pa.array(words.view(np.int64), pa.int64()),
        }
    )


def bloom_bench_bits(
    ds, *, n: int = 5, text_col: str = "text", m_bits: int = 1 << 20,
    batch_size: int = TEXT_BATCH,
) -> np.ndarray:
    """Bloom bitset of the benchmark n-gram set: per-batch bitset
    partials OR-merged on the driver. Unlike `bench_ngrams` this NEVER
    materializes the gram set — state is a constant m_bits/8 bytes no
    matter how large the benchmark grows (the 100 TB-side escape hatch
    when the exact broadcast set would blow `max_bench_grams`)."""
    if m_bits & (m_bits - 1) or m_bits < 64:
        raise ValueError(f"m_bits must be a power of two >= 64, got {m_bits}")
    parts = ds.map_batches(
        functools.partial(_bloom_partial, text_col=text_col, n=n, m_bits=m_bits),
        batch_format="pyarrow",
        batch_size=batch_size,
    ).to_pandas()
    acc = np.zeros(m_bits // 64, np.uint64)
    np.bitwise_or.at(
        acc,
        parts["w"].to_numpy(np.int64),
        parts["bits"].to_numpy(np.int64).view(np.uint64),
    )
    return acc


def bloom_overlap_flags(
    corpus_ds,
    bench_ds,
    *,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    m_bits: int = 1 << 20,
    batch_size: int = TEXT_BATCH,
):
    """Bloom-filter decontamination: per-corpus-doc
    (id, n_maybe, maybe_contaminated) where a gram "maybe" overlaps the
    benchmark iff BOTH its Bloom bits are set.

    Contract vs the exact `ngram_overlap_flags`: NO false negatives
    (every exactly-contaminated doc is flagged — the property
    decontamination must never lose), false-positive grams at rate
    ≈ (set_bits/m_bits)² (one-sided, so over-excision only). The
    bitset ships once via ``ray.put``; the corpus side is a stateless
    shuffle-free map_batches, same shape as the exact path."""
    bits_ref = ray.put(bloom_bench_bits(
        bench_ds, n=n, text_col=text_col, m_bits=m_bits, batch_size=batch_size,
    ))

    def flag(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref) if isinstance(bits_ref, ray.ObjectRef) else bits_ref
        ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g1, g2, doc_of = _gram_hashes(t[text_col], n)
        n_maybe = np.zeros(len(ids), np.int64)
        if len(g1):
            p1, p2 = _bloom_positions(g1, g2, np.uint64(m_bits))
            def test(pos):
                return (bits[(pos // np.uint64(64)).astype(np.int64)]
                        >> (pos % np.uint64(64))) & np.uint64(1) > 0
            hit = test(p1) & test(p2)
            n_maybe = np.bincount(doc_of[hit], minlength=len(ids)).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_maybe": pa.array(n_maybe, pa.int64()),
                "maybe_contaminated": pa.array(n_maybe > 0, pa.bool_()),
            }
        )

    return corpus_ds.map_batches(flag, batch_format="pyarrow", batch_size=batch_size)


def ngram_novelty(ds, *, text_col: str = "text", id_col: str = "doc_id", n: int = 3,
                  num_buckets: int = 64):
    """Per-document n-gram novelty: the fraction of a document's
    DISTINCT word n-grams whose globally FIRST occurrence (min doc id)
    is this document — the memorization/recombination signal corpus
    curation uses to downweight documents that merely reshuffle text
    already in the corpus (high novelty = new content, low = stitched
    from earlier docs).

    Scale shape: per-batch distinct (gram-hash-pair, doc) triples (no
    gram strings — `_gram_hashes`' 128-bit identity), ONE gram-keyed
    exchange where each bucket resolves min-doc-per-gram and emits
    per-doc (n_grams, n_novel) partials (grams are globally partitioned
    by bucket, so bucket-local min IS the global min), then one narrow
    doc-keyed exchange summing 3-int partials. Text never shuffles.
    Documents with fewer than ``n`` tokens have no grams and are not
    emitted (same rule as the SQL oracle)."""
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket

    def triples(t: pa.Table) -> pa.Table:
        ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g1, g2, doc_of = _gram_hashes(t[text_col], n)
        if len(g1):
            u = np.unique(np.stack([g1, g2, ids[doc_of].astype(np.uint64)], 1), axis=0)
            g1, g2, doc = u[:, 0], u[:, 1], u[:, 2].astype(np.int64)
        else:
            doc = np.array([], np.int64)
        return pa.table(
            {
                "g1": pa.array(g1, pa.uint64()),
                "g2": pa.array(g2, pa.uint64()),
                id_col: pa.array(doc, pa.int64()),
            }
        )

    def per_gram_bucket(t: pa.Table) -> pa.Table:
        g1 = t["g1"].to_numpy(zero_copy_only=False)
        g2 = t["g2"].to_numpy(zero_copy_only=False)
        doc = t[id_col].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "n_grams": pa.array([], pa.int64()),
                "n_novel": pa.array([], pa.int64()),
            }
        )
        if len(g1) == 0:
            return empty
        order = np.lexsort((doc, g2, g1))
        g1, g2, doc = g1[order], g2[order], doc[order]
        new_gram = np.r_[True, (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1])]
        # triples are distinct per (gram, doc); within a gram group rows
        # sort by doc, so the group head IS the min-doc (the novel one)
        udoc, inv = np.unique(doc, return_inverse=True)
        n_grams = np.bincount(inv, minlength=len(udoc)).astype(np.int64)
        n_novel = np.bincount(inv[new_gram], minlength=len(udoc)).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(udoc, pa.int64()),
                "n_grams": pa.array(n_grams, pa.int64()),
                "n_novel": pa.array(n_novel, pa.int64()),
            }
        )

    def sum_doc(t: pa.Table) -> pa.Table:
        df = t.select([id_col, "n_grams", "n_novel"]).to_pandas()
        g = df.groupby(id_col, as_index=False)[["n_grams", "n_novel"]].sum()
        ng = g["n_grams"].to_numpy(np.int64)
        nv = g["n_novel"].to_numpy(np.int64)
        novelty = nv.astype(np.float64) / ng.astype(np.float64)
        return pa.table(
            {
                id_col: pa.array(g[id_col].to_numpy(np.int64), pa.int64()),
                "n_grams": pa.array(ng, pa.int64()),
                "n_novel": pa.array(nv, pa.int64()),
                "novelty": pa.array(novelty, pa.float64()),
            }
        )

    parts = grouped_agg_by_bucket(
        ds.map_batches(triples, batch_format="pyarrow", batch_size=TEXT_BATCH),
        "g1",
        per_gram_bucket,
        num_buckets=num_buckets,
        group_format="pyarrow",
    )
    return grouped_agg_by_bucket(
        parts, id_col, sum_doc, num_buckets=32, group_format="pyarrow",
        partial_batch=None,
    )
