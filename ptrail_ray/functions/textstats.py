"""Text-analysis kernels for large-scale training-data pipelines.

Beyond-reference operators (per the build brief): token counting,
quality scoring, language ID, document fingerprinting. All are
vectorized ``map_batches`` stages over the ``documents`` table schema
(doc_id, text, lang, source, n_chars).

Everything except the md5 fingerprint runs on Arrow compute kernels
(``count_substring_regex`` / ``split_pattern_regex`` / ``is_in``) — no
per-row Python in the hot path — and the stages are stateless task
stages (RE2 compiles inside Arrow per kernel call; nothing to hold
across batches). Every formula is intentionally SQL-expressible so the
driver's DuckDB oracle can verify it exactly (see oracle_sql in
__ray_entry__).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# must match the SQL stoplist in __ray_entry__ verbatim
STOPWORDS = ["the", "a", "and", "of", "to", "in", "is", "on", "for", "with"]

TOKEN_RE = r"\S+"
# BPE-ish subword segmentation (GPT-2-style coarse classes; RE2-compatible
# so the DuckDB oracle runs the identical pattern)
BPE_RE = r" ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+"
WORD_RE = r"[A-Za-z]+"
DIGIT_RE = r"[0-9]"

# Narrow vectorized stages want large batches (the parquet reader's
# iterator otherwise feeds ~10k-row slivers).
TEXT_BATCH = 65536


def _counts(txt: pa.ChunkedArray | pa.Array) -> dict[str, np.ndarray]:
    """Shared vectorized counters over a null-filled text column."""
    out = {
        "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()).to_numpy(
            zero_copy_only=False
        ),
        "n_tokens": pc.cast(
            pc.count_substring_regex(txt, TOKEN_RE), pa.int64()
        ).to_numpy(zero_copy_only=False),
    }
    # stopword hits: split on whitespace, flatten, membership, per-row
    # sums via the list offsets (one cumsum, no Python loop)
    lst = pc.split_pattern_regex(txt, r"\s+")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = pc.list_flatten(lst)
    hit = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(
        zero_copy_only=False
    )
    offsets = lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    cs = np.concatenate(([0], np.cumsum(hit, dtype=np.int64)))
    out["n_stop"] = cs[offsets[1:]] - cs[offsets[:-1]]
    return out


def text_stats_batch(t: pa.Table) -> pa.Table:
    """Per-doc token/quality metrics: n_chars_calc, n_tokens,
    n_alpha_words, n_digits, n_bpe_tokens, stop_ratio, mean_token_len,
    quality (all reproducible in ANSI SQL)."""
    txt = pc.fill_null(t["text"], "")
    c = _counts(txt)
    n_tokens = c["n_tokens"]
    n_alpha = pc.cast(pc.count_substring_regex(txt, WORD_RE), pa.int64())
    n_digits = pc.cast(pc.count_substring_regex(txt, DIGIT_RE), pa.int64())
    n_bpe = pc.cast(pc.count_substring_regex(txt, BPE_RE), pa.int64())
    tok_chars = pc.cast(pc.count_substring_regex(txt, r"\S"), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        stop_ratio = np.where(n_tokens > 0, c["n_stop"] / n_tokens, np.nan)
        mean_token_len = np.where(n_tokens > 0, tok_chars / n_tokens, np.nan)
    quality = np.where(
        n_tokens > 0,
        (np.nan_to_num(stop_ratio) > 0.05).astype(np.int64)
        + ((mean_token_len >= 3) & (mean_token_len <= 10)).astype(np.int64)
        + ((c["n_chars"] >= 50) & (c["n_chars"] <= 10_000)).astype(np.int64),
        0,
    ).astype(np.int64)
    for name, col in (
        ("n_chars_calc", pa.array(c["n_chars"], pa.int64())),
        ("n_tokens", pa.array(n_tokens, pa.int64())),
        ("n_alpha_words", n_alpha),
        ("n_digits", n_digits),
        ("n_bpe_tokens", n_bpe),
        ("stop_ratio", pa.array(stop_ratio, pa.float64())),
        ("mean_token_len", pa.array(mean_token_len, pa.float64())),
        ("quality", pa.array(quality, pa.int64())),
    ):
        t = t.append_column(name, col)
    return t


LANG_TAU = 0.05


def lang_id_batch(t: pa.Table) -> pa.Table:
    """Heuristic language ID: stopword-profile scoring.

    score = |tokens ∩ english-stoplist| / |tokens|; 'en' if score > tau
    else 'unk'. (n-gram profiles would be the production version; the
    synthetic corpus is English-vocab so the stoplist heuristic is the
    deterministic, oracle-checkable choice.)"""
    txt = pc.fill_null(t["text"], "")
    c = _counts(txt)
    with np.errstate(invalid="ignore", divide="ignore"):
        score = np.where(c["n_tokens"] > 0, c["n_stop"] / c["n_tokens"], 0.0)
    pred = np.where(score > LANG_TAU, "en", "unk")
    return t.append_column("lang_pred", pa.array(pred, pa.string()))


def fingerprint_table(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Arrow-native content fingerprint: md5 of the whitespace-
    normalized text, appended as a ``fingerprint`` column. The batch
    never round-trips through pandas object columns (VERDICT r03
    item 7); the md5-per-row loop is inherent (oracle parity), the
    normalization is an Arrow kernel chain.

    (The rolling-hash shingle fingerprint lives in functions/dedup.py;
    this one is the exact-content id used for exact dedup and lineage.)
    """
    # trim + collapse with RE2 \s (NOT utf8_trim_whitespace, whose
    # unicode whitespace class is wider than RE2's) — byte-equal to the
    # oracle's string_agg(regexp_extract_all(text, '\S+'), ' ')
    norm = pc.replace_substring_regex(
        pc.replace_substring_regex(
            pc.fill_null(t[text_col], "").cast(pa.large_string()),
            r"^\s+|\s+$",
            "",
        ),
        r"\s+",
        " ",
    )
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    fp = pa.array(
        [hashlib.md5(s.encode()).hexdigest() for s in norm.to_pylist()],
        pa.string(),
    )
    return t.append_column("fingerprint", fp)


def fingerprint_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """pandas wrapper over ``fingerprint_table`` (kept for callers whose
    surrounding stage is pandas-level)."""
    batch["fingerprint"] = fingerprint_table(
        pa.table({"text": pa.array(batch["text"].fillna(""), pa.large_string())})
    )["fingerprint"].to_pylist()
    return batch


def repetition_batch(t: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition quality signals (Rae et al. 2021, §A1.1
    repetition filters — public): per doc, the distinct-token ratio and
    the duplicated bigram/trigram fractions. High dup-n-gram fractions
    mark boilerplate / degenerate generations that LLM corpus cleaning
    drops.

    Token spec (matched verbatim by the DuckDB oracle): split on single
    space, drop empty strings. Fully vectorized: one ``split_pattern``
    + ``list_flatten``, exact integer token codes via ``pd.factorize``
    (no hash-collision slack vs the string-exact SQL), and per-doc
    distinct n-gram counts via one lexsort + run-boundary scan per
    order — no Python loop over docs or tokens.
    """
    txt = pc.fill_null(t[text_col], "")
    lst = pc.split_pattern(txt, " ")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.values
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    parent = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False).astype(
        np.int64
    )[keep]
    toks = flat.to_numpy(zero_copy_only=False)[keep]
    ndocs = t.num_rows
    n = np.bincount(parent, minlength=ndocs).astype(np.int64)
    codes = pd.factorize(toks)[0].astype(np.int64)

    def distinct_ngrams(g: int) -> np.ndarray:
        m = len(codes) - g + 1
        if m <= 0:
            return np.zeros(ndocs, np.int64)
        pm = parent[:m]
        ok = parent[g - 1 : g - 1 + m] == pm  # n-gram fully inside one doc
        arrs = [codes[j : j + m][ok] for j in range(g)]
        pp = pm[ok]
        if len(pp) == 0:
            return np.zeros(ndocs, np.int64)
        order = np.lexsort(tuple(reversed(arrs)) + (pp,))
        pp_s = pp[order]
        dup = pp_s[1:] == pp_s[:-1]
        for a in arrs:
            a_s = a[order]
            dup &= a_s[1:] == a_s[:-1]
        new = np.ones(len(pp_s), bool)
        new[1:] = ~dup
        return np.bincount(pp_s[new], minlength=ndocs).astype(np.int64)

    d1, d2, d3 = distinct_ngrams(1), distinct_ngrams(2), distinct_ngrams(3)
    with np.errstate(invalid="ignore", divide="ignore"):
        distinct_ratio = np.where(n > 0, d1 / n, np.nan)
        dup_bigram_frac = np.where(n >= 2, 1.0 - d2 / (n - 1), np.nan)
        dup_trigram_frac = np.where(n >= 3, 1.0 - d3 / (n - 2), np.nan)
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "n_tokens": pa.array(n),
            "distinct_ratio": pa.array(distinct_ratio, pa.float64()),
            "dup_bigram_frac": pa.array(dup_bigram_frac, pa.float64()),
            "dup_trigram_frac": pa.array(dup_trigram_frac, pa.float64()),
        }
    )


def add_repetition(ds, *, batch_size: int = TEXT_BATCH):
    return ds.map_batches(repetition_batch, batch_format="pyarrow", batch_size=batch_size)


def add_text_stats(ds, *, batch_size: int = TEXT_BATCH):
    return ds.map_batches(text_stats_batch, batch_format="pyarrow", batch_size=batch_size)


def add_lang_id(ds, *, batch_size: int = TEXT_BATCH):
    return ds.map_batches(lang_id_batch, batch_format="pyarrow", batch_size=batch_size)


def add_fingerprint(ds):
    return ds.map_batches(fingerprint_batch, batch_format="pandas", batch_size=TEXT_BATCH)


def top_terms(
    ds,
    *,
    k: int = 50,
    text_col: str = "text",
    num_buckets: int = 32,
    batch_size: int | None = 1 << 18,
):
    """Corpus-wide top-k terms by occurrence count (heavy hitters).

    The canonical pre-aggregation shape: a narrow vectorized PARTIAL
    per batch (flat-tokenize → np.unique counts → (term, n) rows, so
    only distinct-term partials leave the task, never tokens), ONE
    hash-bucket exchange on the term, a per-bucket vectorized combine,
    then per-bucket top-k partials — a term lives wholly in one bucket,
    so the global top-k is contained in the union of per-bucket top-ks
    and the driver merge is bounded at num_buckets × k rows.
    Ties break by term ascending (deterministic, SQL-replicable).

    ``batch_size``: the 1<<18 default coalesces the parquet reader's
    ~10k-row sliver batches (CLAUDE.md perf rule). For datasets already
    materialized as MANY SMALL BLOCKS (e.g. ``from_pandas(...,
    override_num_blocks=N)``) pass ``None`` — coalescing across blocks
    funnels the whole input into ONE task and stalls in Ray's bundling
    path (measured 0.4 s per-block vs 23-60 s coalesced on a 100k-doc
    64-block corpus; BASELINE.md r03).
    """
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket
    from ptrail_ray.functions.tokenize import encoded_tokens

    def partial(t: pa.Table) -> pa.Table:
        codes, vocab, _ = encoded_tokens(t[text_col])
        if len(codes) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        counts = np.bincount(codes, minlength=len(vocab))
        return pa.table(
            {
                "term": vocab.cast(pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def combine_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", as_index=False, sort=False)["n"].sum()
        g = g.sort_values(["n", "term"], ascending=[False, True], kind="stable")
        return g.head(k)

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    bucket_tops = grouped_agg_by_bucket(
        parts, "term", combine_topk, num_buckets=num_buckets
    ).to_pandas()
    out = bucket_tops.sort_values(
        ["n", "term"], ascending=[False, True], kind="stable"
    ).head(k)
    return out.reset_index(drop=True)


def source_profile(ds, *, group_cols=("source", "lang"), text_col: str = "text"):
    """Per-(source, lang) corpus profile: doc/token/char totals, mean
    tokens, char extremes — the data-mix summary a pretraining run
    reports before sampling weights are chosen.

    Scale shape: per-batch vectorized partials (one pandas groupby over
    the batch), driver combine bounded by |sources|×|langs| (small by
    construction — these are catalog dimensions, not data). Token and
    char sums are exact int64, so the means are accumulation-order-
    independent; token model = the shared Arrow tokenizer.
    """
    import pyarrow.compute as _pc

    from ptrail_ray.functions.tokenize import arrow_tokens

    gcols = list(group_cols)

    def partial(t: pa.Table) -> pa.Table:
        _, idx = arrow_tokens(t[text_col])
        n_tok = np.bincount(idx, minlength=t.num_rows).astype(np.int64)
        n_chars = _pc.utf8_length(_pc.fill_null(t[text_col], "")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        df = pd.DataFrame({c: t[c].to_pandas() for c in gcols})
        df["n_docs"] = 1
        df["total_tokens"] = n_tok
        df["total_chars"] = n_chars
        df["max_chars"] = n_chars
        df["min_chars"] = n_chars
        g = df.groupby(gcols, as_index=False, sort=False).agg(
            n_docs=("n_docs", "sum"),
            total_tokens=("total_tokens", "sum"),
            total_chars=("total_chars", "sum"),
            max_chars=("max_chars", "max"),
            min_chars=("min_chars", "min"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536).to_pandas()
    out = parts.groupby(gcols, as_index=False, sort=False).agg(
        n_docs=("n_docs", "sum"),
        total_tokens=("total_tokens", "sum"),
        total_chars=("total_chars", "sum"),
        max_chars=("max_chars", "max"),
        min_chars=("min_chars", "min"),
    )
    out["mean_tokens"] = out["total_tokens"].to_numpy(np.float64) / out[
        "n_docs"
    ].to_numpy(np.float64)
    return out


# --- character-level Shannon entropy (quality signal) ------------------------

# entropy batches decode to UTF-32 (4 B/char); keep them smaller than the
# narrow regex stages so a batch stays ~tens of MB even at 2k chars/doc
ENTROPY_BATCH = 8192


def char_entropy_batch(t: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Per-doc character Shannon entropy in bits: ``-Σ p_c·log2(p_c)``
    over the doc's codepoint histogram (empty/null text → 0.0).

    A standard low-quality-text signal (boilerplate and mojibake sit at
    the entropy extremes — Gopher/C4-style quality rules). Vectorized:
    the batch's texts are joined once, decoded to a UTF-32 codepoint
    array (C-speed), and ALL per-doc histograms come from one
    ``np.unique`` over ``doc_idx·2²¹ + codepoint`` packed keys (Unicode
    max 0x10FFFF < 2²¹) — no per-doc loop.
    """
    txt = pc.fill_null(t[text_col], "")
    n = t.num_rows
    lens = pc.utf8_length(txt).to_numpy(zero_copy_only=False).astype(np.int64)
    joined = "".join(txt.to_pylist())
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    ent = np.zeros(n, dtype=np.float64)
    if len(cp):
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        key = doc_idx << np.int64(21) | cp
        uniq, counts = np.unique(key, return_counts=True)
        doc_of = (uniq >> np.int64(21)).astype(np.int64)
        p = counts.astype(np.float64) / lens[doc_of].astype(np.float64)
        ent = -np.bincount(doc_of, weights=p * np.log2(p), minlength=n)
        ent = ent + 0.0  # -0.0 → +0.0 for single-char docs (p == 1)
    return pa.table(
        {"doc_id": t["doc_id"], "char_entropy": pa.array(ent, type=pa.float64())}
    )


def add_char_entropy(ds, *, batch_size: int = ENTROPY_BATCH):
    return ds.map_batches(
        char_entropy_batch, batch_format="pyarrow", batch_size=batch_size
    )


def top_bigrams(
    ds,
    *,
    k: int = 30,
    text_col: str = "text",
    num_buckets: int = 32,
    batch_size: int | None = 1 << 18,
):
    """Corpus-wide top-k adjacent-token bigrams (heavy hitters).

    Same pre-aggregation shape as ``top_terms``: per-batch partial
    (adjacent join of the flat token stream, masked at document
    boundaries, counted per distinct bigram via ``np.unique`` over
    dictionary codes), ONE hash-bucket exchange on the bigram string,
    bounded per-bucket top-k, driver merge ≤ num_buckets × k rows.
    Ties break by bigram ascending (deterministic, SQL-replicable).
    ``batch_size`` semantics: see ``top_terms`` (None for many-small-
    block inputs).
    """
    from ptrail_ray.functions.tokenize import encoded_tokens
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket

    def partial(t: pa.Table) -> pa.Table:
        codes, vocab, idx = encoded_tokens(t[text_col])
        empty = pa.table(
            {"bigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
        if len(codes) < 2:
            return empty
        same_doc = idx[1:] == idx[:-1]
        if not same_doc.any():
            return empty
        a, b = codes[:-1][same_doc], codes[1:][same_doc]
        # count per distinct (a, b) code pair — ints, never strings
        key = a * np.int64(len(vocab)) + b
        uniq, counts = np.unique(key, return_counts=True)
        ua, ub = uniq // len(vocab), uniq % len(vocab)
        big = pc.binary_join_element_wise(
            pc.take(vocab, pa.array(ua, pa.int64())).cast(pa.string()),
            pc.take(vocab, pa.array(ub, pa.int64())).cast(pa.string()),
            " ",
        )
        return pa.table({"bigram": big, "n": pa.array(counts.astype(np.int64))})

    def combine_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bigram", as_index=False, sort=False)["n"].sum()
        g = g.sort_values(["n", "bigram"], ascending=[False, True], kind="stable")
        return g.head(k)

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    bucket_tops = grouped_agg_by_bucket(
        parts, "bigram", combine_topk, num_buckets=num_buckets
    ).to_pandas()
    out = bucket_tops.sort_values(
        ["n", "bigram"], ascending=[False, True], kind="stable"
    ).head(k)
    return out.reset_index(drop=True)


def postings(ds, *, text_col: str = "text", batch_size: int | None = 1 << 18):
    """Inverted-index build: the (term, doc_id, tf) long-format postings
    table — the retrieval/BM25 primitive over a document corpus.

    Embarrassingly parallel by construction: a document lives whole in
    one row, so per-(doc, term) term frequencies are FINAL within the
    batch that holds the doc — a single stateless ``map_batches`` pass,
    NO exchange anywhere (contrast `top_terms`, whose per-term global
    counts need one). Per batch: dictionary-encode the flat token
    stream (`tokenize.encoded_tokens`), pack (row, code) into one int64
    key, one ``np.unique`` → counts. Output rows ≈ Σ distinct terms per
    doc; a downstream consumer wanting term-major layout repartitions
    on ``term`` itself (kept out of here so the index build stays
    shuffle-free).
    """
    from ptrail_ray.functions.tokenize import encoded_tokens

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
            }
        )
        codes, vocab, idx = encoded_tokens(t[text_col])
        if len(codes) == 0:
            return empty
        doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = len(vocab)
        key = idx.astype(np.int64) * v + codes
        uk, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(doc[uk // v], pa.int64()),
                "term": vocab.take(pa.array(uk % v, pa.int64())).cast(pa.string()),
                "tf": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)


def normalize_text_table(
    t: pa.Table, *, text_col: str = "text", out_col: str = "text_norm"
) -> pa.Table:
    """Canonical text normalization for fuzzy-exact dedup: lowercase,
    every non-alphanumeric run → one space (folds punctuation AND
    whitespace variants). One Arrow RE2 kernel chain, no Python rows;
    the DuckDB replica is ``regexp_replace(lower(text), '[^a-z0-9]+',
    ' ', 'g')`` (both RE2 — the q_scrub_pii parity precedent)."""
    norm = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(t[text_col], "").cast(pa.large_string())),
        r"[^a-z0-9]+",
        " ",
    )
    return t.append_column(out_col, norm)


def add_normalize_text(ds, *, text_col: str = "text", out_col: str = "text_norm"):
    import functools

    return ds.map_batches(
        functools.partial(normalize_text_table, text_col=text_col, out_col=out_col),
        batch_format="pyarrow",
        batch_size=None,
    )


def chi2_independence(
    ds,
    *,
    col_a: str,
    col_b: str,
    max_cells: int = 1_000_000,
    quant: float = 1e9,
    with_dims: bool = False,
):
    """Pearson chi-square test of independence between two categorical
    columns (is the lang mix independent of source? — the corpus-drift
    check of a data-mixing pipeline).

    Scale shape: per-batch (a, b) count partials (bounded by batch
    distinct cells), driver merge bounded by the |A|×|B| catalog (loud
    cap). The statistic is computed cell-by-cell from EXACT integers —
    term = (o·T − rᵢ·cⱼ)² / (rᵢ·cⱼ·T) with arbitrary-precision
    numerators — then each term is quantized half-away-from-zero at
    ``quant`` and summed as integers, so the total is
    accumulation-order-independent and bit-identical to the HUGEINT
    SQL replica. Returns (chi2, dof, n) as a one-row DataFrame."""

    def partial(t: pa.Table) -> pa.Table:
        a = np.asarray(t[col_a].to_numpy(zero_copy_only=False), dtype=str)
        b = np.asarray(t[col_b].to_numpy(zero_copy_only=False), dtype=str)
        ka, ia = np.unique(a, return_inverse=True)
        kb, ib = np.unique(b, return_inverse=True)
        comp = ia.astype(np.int64) * len(kb) + ib
        keys, inv = np.unique(comp, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(keys)).astype(np.int64)
        return pa.table(
            {
                "a": pa.array(ka[keys // len(kb)], pa.string()),
                "b": pa.array(kb[keys % len(kb)], pa.string()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=1 << 20)
        .to_pandas()
        .groupby(["a", "b"], as_index=False)["n"]
        .sum()
    )
    if len(parts) > max_cells:
        raise RuntimeError(
            f"chi2_independence: {len(parts)} cells exceeds max_cells="
            f"{max_cells} — the driver merge assumes catalog-sized dimensions"
        )
    row = parts.groupby("a")["n"].sum().to_dict()
    col = parts.groupby("b")["n"].sum().to_dict()
    obs = {(r.a, r.b): int(r.n) for r in parts.itertuples()}
    T = int(parts["n"].sum())
    acc = 0
    for ra, rn in row.items():
        for cb, cn in col.items():
            o = obs.get((ra, cb), 0)
            num = (o * T - int(rn) * int(cn)) ** 2  # exact int
            den = int(rn) * int(cn) * T  # exact int, > 0
            z = quant * (float(num) / float(den))
            # replicate DuckDB round() (std::round, half away from zero)
            # for z >= 0 without the float(z + 0.5) midpoint hazard
            f = int(np.floor(z))
            acc += f + 1 if (z - f) >= 0.5 else f
    chi2 = acc / quant
    dof = (len(row) - 1) * (len(col) - 1)
    out = pd.DataFrame({"chi2": [chi2], "dof": [dof], "n": [T]})
    if with_dims:
        out["r"] = len(row)
        out["c"] = len(col)
    return out


def grouped_top_terms(
    ds,
    *,
    group_col: str = "lang",
    text_col: str = "text",
    k: int = 10,
    num_buckets: int = 32,
    batch_size: int | None = 1 << 18,
):
    """Top-k terms BY GROUP (per-language heavy hitters — the corpus
    report a multilingual pipeline emits per lang gate).

    Same exactness argument as ``top_terms``, one level down: a
    (group, term) pair lives wholly in one bucket of the composite-key
    exchange, so each bucket's per-group local top-k (n desc, term asc)
    contains every row of the TRUE per-group top-k, and the driver
    merge re-ranks a union bounded by num_buckets × groups × k rows.

    Per-batch partial: tokens and groups are both dictionary-encoded,
    counts computed per UNIQUE (group, term) pair via one bincount over
    packed codes — no Python loop, nothing token-shaped leaves the task.
    Returns a driver-side pandas DataFrame (group, term, n, rnk)."""
    from ptrail_ray.functions.tokenize import encoded_tokens
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "group": pa.array([], pa.string()),
                "term": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        codes, vocab, idx = encoded_tokens(t[text_col])
        if len(codes) == 0:
            return empty
        genc = pc.dictionary_encode(
            pc.fill_null(
                t[group_col].combine_chunks()
                if isinstance(t[group_col], pa.ChunkedArray)
                else t[group_col],
                "",
            )
        )
        if isinstance(genc, pa.ChunkedArray):
            genc = genc.combine_chunks()
        g_per_tok = genc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[idx]
        V = len(vocab)
        packed = g_per_tok * V + codes
        keys, cnt = np.unique(packed, return_counts=True)
        gd = np.asarray(genc.dictionary.to_pylist(), dtype=object)
        vd = np.asarray(vocab.to_pylist(), dtype=object)
        return pa.table(
            {
                "group": pa.array(gd[keys // V], pa.string()),
                "term": pa.array(vd[keys % V], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def combine_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["group", "term"], as_index=False, sort=False)["n"].sum()
        g = g.sort_values(["group", "n", "term"], ascending=[True, False, True])
        return g.groupby("group", sort=False).head(k)

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    tops = grouped_agg_by_bucket(
        parts,
        ["group", "term"],
        combine_topk,
        num_buckets=num_buckets,
        partial_batch=None,  # input is already many small partial blocks
    ).to_pandas()
    out = tops.sort_values(["group", "n", "term"], ascending=[True, False, True])
    out = out.groupby("group", sort=False).head(k).reset_index(drop=True)
    out["rnk"] = out.groupby("group", sort=False).cumcount() + 1
    out["n"] = out["n"].astype("int64")
    out["rnk"] = out["rnk"].astype("int64")
    return out


def term_cooccurrence_lift(
    ds,
    *,
    text_col: str = "text",
    top_v: int = 40,
    min_pair_df: int = 5,
    num_buckets: int = 32,
    batch_size: int | None = 1 << 18,
):
    """Term-association (PMI/lift) over the corpus's top-V terms by
    document frequency: for every pair (a < b) of top-V terms,
    ``lift = N·df(a,b) / (df(a)·df(b))`` — the collocation /
    topic-drift signal a corpus report computes (PMI = ln lift; the
    exact integer ratio ships instead of the log so both engines do ONE
    IEEE division and the hash gate sees identical bits).

    Two bounded passes, nothing wide: (1) per-batch per-doc-DISTINCT
    term partials → the top_terms exchange → exact top-V by (df desc,
    term asc); (2) top-V broadcast into a stateless per-batch kernel
    that restricts each doc to its distinct top-V terms and emits
    (a, b, n) pair partials — ≤ V(V−1)/2 rows per batch regardless of
    batch size; the driver merge is V²-bounded. Pair df is exact
    because a document lives wholly in one row/batch.

    Returns a driver-side pandas DataFrame
    (term_a, term_b, df_ab, lift)."""
    from ptrail_ray.functions.tokenize import encoded_tokens
    from ptrail_ray.stages.bucket import grouped_agg_by_bucket

    # ---- pass 1: exact document frequency → top-V -------------------
    def df_partial(t: pa.Table) -> pa.Table:
        codes, vocab, idx = encoded_tokens(t[text_col])
        if len(codes) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        V = len(vocab)
        dt = np.unique(idx * V + codes)  # distinct (doc, term) in batch
        tcode, cnt = np.unique(dt % V, return_counts=True)
        return pa.table(
            {
                "term": vocab.take(pa.array(tcode)).cast(pa.string()),
                "df": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def combine_top(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", as_index=False, sort=False)["df"].sum()
        return g.sort_values(["df", "term"], ascending=[False, True]).head(top_v)

    n_docs = ds.count()
    tops = grouped_agg_by_bucket(
        ds.map_batches(df_partial, batch_format="pyarrow", batch_size=batch_size),
        "term",
        combine_top,
        num_buckets=num_buckets,
        partial_batch=None,
    ).to_pandas()
    tops = (
        tops.groupby("term", as_index=False)["df"]
        .sum()
        .sort_values(["df", "term"], ascending=[False, True])
        .head(top_v)
        .reset_index(drop=True)
    )
    terms = tops["term"].to_numpy(dtype=object)
    dfs = tops["df"].to_numpy(np.int64)
    tv_index = {t: i for i, t in enumerate(terms)}

    # ---- pass 2: per-doc distinct top-V pairs (V²-bounded partials) --
    def pair_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        codes, vocab, idx = encoded_tokens(t[text_col])
        if len(codes) == 0:
            return empty
        V = len(vocab)
        # map the batch's vocab codes to top-V ids (−1 = not a top term)
        vmap = np.full(V, -1, np.int64)
        for c, term in enumerate(vocab.to_pylist()):
            vmap[c] = tv_index.get(term, -1)
        tv = vmap[codes]
        keep = tv >= 0
        if not keep.any():
            return empty
        d, v = idx[keep], tv[keep]
        dt = np.unique(d * np.int64(top_v) + v)  # distinct (doc, tv)
        ddoc, dv = dt // top_v, dt % top_v
        sub = pd.DataFrame({"doc": ddoc, "v": dv})
        m = sub.merge(sub, on="doc")
        m = m[m["v_x"] < m["v_y"]]
        if m.empty:
            return empty
        g = m.groupby(["v_x", "v_y"], sort=False).size()
        keys = np.asarray(list(g.index), np.int64)
        return pa.table(
            {
                "a": pa.array(keys[:, 0], pa.int64()),
                "b": pa.array(keys[:, 1], pa.int64()),
                "n": pa.array(g.to_numpy(np.int64), pa.int64()),
            }
        )

    parts = ds.map_batches(
        pair_partial, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    if parts.empty:
        return pd.DataFrame(columns=["term_a", "term_b", "df_ab", "lift"])
    cells = parts.groupby(["a", "b"], as_index=False)["n"].sum()
    cells = cells[cells["n"] >= min_pair_df]
    a = cells["a"].to_numpy(np.int64)
    b = cells["b"].to_numpy(np.int64)
    n = cells["n"].to_numpy(np.int64)
    lift = (n_docs * n).astype(np.float64) / (dfs[a] * dfs[b]).astype(np.float64)
    out = pd.DataFrame(
        {
            "term_a": terms[a],
            "term_b": terms[b],
            "df_ab": n,
            "lift": lift,
        }
    )
    # canonical pair order = lexicographic by term STRING (SQL a.w < b.w),
    # not by df rank — re-orient rows where the rank order disagrees
    flip = out["term_a"] > out["term_b"]
    out.loc[flip, ["term_a", "term_b"]] = out.loc[
        flip, ["term_b", "term_a"]
    ].to_numpy()
    return out.sort_values(["term_a", "term_b"]).reset_index(drop=True)


def mutual_info(
    ds,
    *,
    col_a: str,
    col_b: str,
    max_cells: int = 1_000_000,
    quant: float = 1e9,
):
    """Mutual information (nats) between two categorical columns — the
    information-theoretic companion of `chi2_independence` (how many
    nats does knowing the source tell you about the lang mix; 0 ⇔
    independent). Same scale shape: per-batch (a, b) count partials,
    |A|×|B|-bounded driver merge with a loud cap.

    Each cell's term (o/T)·ln(o·T/(rᵢ·cⱼ)) is computed from EXACT
    integer counts with a fixed IEEE operation order, quantized
    half-away-from-zero at ``quant`` (terms CAN be negative — the
    rounding replica handles both signs, unlike chi2's nonneg path)
    and summed as integers: accumulation-order-independent,
    bit-identical to the HUGEINT SQL replica. Returns a one-row
    DataFrame (mi, n_cells, n)."""

    def partial(t: pa.Table) -> pa.Table:
        a = np.asarray(t[col_a].to_numpy(zero_copy_only=False), dtype=str)
        b = np.asarray(t[col_b].to_numpy(zero_copy_only=False), dtype=str)
        ka, ia = np.unique(a, return_inverse=True)
        kb, ib = np.unique(b, return_inverse=True)
        comp = ia.astype(np.int64) * len(kb) + ib
        keys, inv = np.unique(comp, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(keys)).astype(np.int64)
        return pa.table(
            {
                "a": pa.array(ka[keys // len(kb)], pa.string()),
                "b": pa.array(kb[keys % len(kb)], pa.string()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    parts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=1 << 20)
        .to_pandas()
        .groupby(["a", "b"], as_index=False)["n"]
        .sum()
    )
    if len(parts) > max_cells:
        raise RuntimeError(
            f"mutual_info: {len(parts)} cells exceeds max_cells="
            f"{max_cells} — the driver merge assumes catalog-sized dimensions"
        )
    row = parts.groupby("a")["n"].sum().to_dict()
    col = parts.groupby("b")["n"].sum().to_dict()
    T = int(parts["n"].sum())
    acc = 0
    for r in parts.itertuples():
        o, rn, cn = int(r.n), int(row[r.a]), int(col[r.b])
        # fixed IEEE order, mirrored by the SQL replica term-for-term
        z = quant * (
            (float(o) / float(T)) * np.log(float(o * T) / float(rn * cn))
        )
        # DuckDB round(): half away from zero, BOTH signs
        f = int(np.floor(z))
        d = z - f
        if d > 0.5 or (d == 0.5 and z >= 0):
            f += 1
        acc += f
    return pd.DataFrame(
        {"mi": [acc / quant], "n_cells": [len(parts)], "n": [T]}
    )
