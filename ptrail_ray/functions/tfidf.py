"""TF-IDF scoring over a document corpus.

The classic relevance / keyword-extraction primitive a training-data
pipeline uses for topic tagging, quality filtering, and per-document
keyword summaries. The reference has no text ops at all (its feature
engineering is numeric trajectory math, `ptrail/features/*.py`); this
is a beyond-reference training-data operator from the build brief,
built on the same whitespace tokenization as `textstats.top_terms`
so one SQL token model replays every text query.

Design for 100 TB, two passes:

1. **Document frequency** — per-batch PARTIAL (unique (doc, term)
   pairs → per-term doc counts, so only distinct-term partials leave
   the task, never token streams), then ONE hash-bucket exchange via
   `stages.bucket.grouped_agg_by_bucket` and a vectorized per-bucket
   combine. The resulting vocabulary table is driver-collected:
   natural-language vocab grows ~ Heaps' law (sublinear, ~10^7–10^8
   terms at web scale — gigabytes, not the corpus), and the collect is
   guarded by ``max_vocab`` with a LOUD ValueError (no silent caps;
   raise the cap or pre-filter with ``min_df``).
2. **Scoring** — the (term → df) map is broadcast ONCE via `ray.put`
   (every task fetches the same object-store ref; never re-shipped per
   batch) and scoring is a stateless `map_batches`: per-batch term
   frequencies via one C-speed pandas groupby, idf lookup via a
   vectorized index join, per-doc top-k by (score desc, term asc) —
   no shuffle; each document lives wholly inside one batch.

Score = tf * ln(n_docs / df) — computed in exactly DuckDB's
expression order (``ln(CAST(n_docs AS DOUBLE)/df)`` then multiply) so
the oracle replays bit-equal doubles.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

TEXT_BATCH = 16_384


def _df_partial(t: pa.Table, *, text_col: str) -> pa.Table:
    from ptrail_ray.functions.tokenize import encoded_tokens

    codes, vocab, idx = encoded_tokens(t[text_col])
    if len(codes) == 0:
        return pa.table({"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())})
    # unique (doc, term) pairs as one int key — pure int np.unique
    key = idx * np.int64(len(vocab)) + codes
    df_counts = np.bincount(np.unique(key) % len(vocab), minlength=len(vocab))
    return pa.table(
        {
            "term": vocab.cast(pa.string()),
            "df": pa.array(df_counts.astype(np.int64), pa.int64()),
        }
    )


def doc_frequency(
    ds,
    *,
    text_col: str = "text",
    num_buckets: int = 32,
    max_vocab: int = 1 << 22,
    batch_size: int = TEXT_BATCH,
) -> pd.DataFrame:
    """Global (term, df) table — docs-containing-term counts.

    One exchange; the driver holds only the vocabulary (Heaps-law
    bounded, ``max_vocab``-guarded — loud failure, never truncation).
    """
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("term", as_index=False, sort=False)["df"].sum()

    parts = ds.map_batches(
        functools.partial(_df_partial, text_col=text_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    vocab = grouped_agg_by_bucket(parts, "term", combine, num_buckets=num_buckets).to_pandas()
    if len(vocab) > max_vocab:
        raise ValueError(
            f"vocabulary {len(vocab)} exceeds max_vocab={max_vocab}; "
            "raise the cap or pre-filter the corpus (min_df) — "
            "tfidf does not silently truncate"
        )
    return vocab


def _score_batch(
    t: pa.Table,
    *,
    vocab_ref,
    n_docs: int,
    k: int,
    id_col: str,
    text_col: str,
) -> pa.Table:
    from ptrail_ray.functions.tokenize import encoded_tokens

    df_map: pd.Series = (
        ray.get(vocab_ref) if isinstance(vocab_ref, ray.ObjectRef) else vocab_ref
    )
    codes, vocab, idx = encoded_tokens(t[text_col])
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )
    if len(codes) == 0:
        return empty
    ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    # (doc, term) frequencies via ONE int np.unique on a packed key;
    # df lookup + log run per UNIQUE term (Zipf: vocab ≪ tokens)
    V = np.int64(len(vocab))
    ukey, tf = np.unique(idx * V + codes, return_counts=True)
    doc_pos = (ukey // V).astype(np.int64)
    tc = (ukey % V).astype(np.int64)
    terms_np = np.asarray(vocab.to_pylist(), dtype=object)
    df_uniq = df_map.reindex(terms_np).to_numpy(np.int64)
    # DuckDB expression order: ln(CAST(n AS DOUBLE)/df) then * tf
    idf_uniq = np.log(float(n_docs) / df_uniq)
    score = tf.astype(np.float64) * idf_uniq[tc]
    # top-k fully in int/float space: the term-ASC tie-break becomes a
    # rank over the sorted vocab, so pair-row term strings are never
    # materialized — only the ≤ k-per-doc survivors get strings
    vrank = np.empty(int(V), np.int64)
    vrank[np.argsort(terms_np, kind="stable")] = np.arange(int(V))
    srt = np.lexsort((vrank[tc], -score, ids[doc_pos]))
    d = ids[doc_pos][srt]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    grp_start = np.maximum.accumulate(np.where(first, np.arange(len(d)), 0))
    keep = srt[(np.arange(len(d)) - grp_start) < k]
    return pa.table(
        {
            id_col: pa.array(ids[doc_pos][keep], pa.int64()),
            "term": pa.array(terms_np[tc[keep]], pa.string()),
            "tf": pa.array(tf[keep].astype(np.int64), pa.int64()),
            "df": pa.array(df_uniq[tc[keep]], pa.int64()),
            "score": pa.array(score[keep], pa.float64()),
        }
    )


def tfidf_topk(
    ds,
    *,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 32,
    max_vocab: int = 1 << 22,
    batch_size: int = TEXT_BATCH,
    n_docs: int | None = None,
):
    """Top-k TF-IDF terms per document (see module docstring).

    Returns a Dataset of (id_col, term, tf, df, score), ties broken by
    term ascending. Terms present in every document score exactly 0
    (ln(1)) on both engines, so even degenerate ties are stable.
    Pass ``n_docs`` (total docs INCLUDING token-less ones) when the
    input is a derived pipeline — otherwise ``ds.count()`` re-executes
    it (free only for metadata-countable reads).
    """
    vocab = doc_frequency(
        ds,
        text_col=text_col,
        num_buckets=num_buckets,
        max_vocab=max_vocab,
        batch_size=batch_size,
    )
    if n_docs is None:
        n_docs = ds.count()
    df_map = pd.Series(
        vocab["df"].to_numpy(np.int64), index=vocab["term"].to_numpy(dtype=object)
    )
    vocab_ref = ray.put(df_map)
    return ds.map_batches(
        functools.partial(
            _score_batch,
            vocab_ref=vocab_ref,
            n_docs=n_docs,
            k=k,
            id_col=id_col,
            text_col=text_col,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
