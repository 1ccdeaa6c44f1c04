"""Seeded input generators for the benchmark.

Everything a workload reads is written here, into the run's work
directory, from ``--seed`` alone: the same seed gives byte-identical
inputs. The program under test only ever sees the generated files.

* ``write_corpus``: a conversation-partitioned transcript corpus
  (``write_synth``), so the job takes its exchange-free plan.
* ``write_side_events``: an ``events.parquet`` whose signup/purchase
  rows become the as-of side table through ``side_scd_from_events``.
  Its keys are the corpus's own conversation ids (string ``user_id``),
  so the as-of join has real matches.
* ``write_sf_tables``: the ten TPC-H-ish + events/documents/embeddings
  tables the query registry reads, with the same schemas and value
  domains as the registry's reference data, at a small scale.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Corpus shape (a 1/10-scale copy of the 3.8 M-turn prototype corpus):
# 8k conversations with geometric sizes of mean 45 turns, 8 files, and
# 8 hot conversations of 4k turns in file 0 -- about 0.39 M turns.
CORPUS = dict(n_convs=8_000, mean_turns=45, n_files=8, n_hot=8, hot_turns=4_000)

# Side table: share of conversations that get versions, and how many
# keys exist only in the side table (never probed).
SIDE_CONV_SHARE = 0.6
SIDE_ORPHAN_KEYS = 200

# Query tables: events rows per scale unit follow the reference data
# (about 66 events per user); documents and embeddings are fixed size.
SF = 0.005
N_DOCS = 500
N_VECS = 500
EMBED_DIM = 64


def write_corpus(path: str, seed: int) -> int:
    """Write the transcript corpus; returns its turn count."""
    from ptrail_ray.sources.transcripts import write_synth

    write_synth(path, seed=seed, **CORPUS)
    return sum(pq.read_metadata(f).num_rows for f in corpus_files(path))


def corpus_files(path: str) -> list[str]:
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def _conv_spans(corpus: str) -> pa.Table:
    """(conv_id, ts_min, ts_max) for every conversation in the corpus."""
    parts = []
    for f in corpus_files(corpus):
        t = pq.read_table(f, columns=["conv_id", "ts"])
        parts.append(t.group_by("conv_id").aggregate([("ts", "min"), ("ts", "max")]))
    return pa.concat_tables(parts).sort_by("conv_id")


def write_side_events(corpus: str, out_dir: str, seed: int) -> str:
    """Write ``out_dir/events.parquet`` holding SCD versions for a seeded
    subset of the corpus's conversations.

    Per chosen conversation: one version at exactly its first turn's
    ``ts`` (the inclusive as-of boundary), plus 0-3 more at uniform
    times from 10 minutes before its first turn to its last turn. A few
    hundred keys exist only in the side table.
    """
    rng = np.random.default_rng(seed + 7)
    spans = _conv_spans(corpus)
    conv = spans["conv_id"].to_numpy(zero_copy_only=False)
    lo = spans["ts_min"].to_numpy().astype("datetime64[us]").view("int64")
    hi = spans["ts_max"].to_numpy().astype("datetime64[us]").view("int64")
    pick = np.flatnonzero(rng.random(len(conv)) < SIDE_CONV_SHARE)
    extra = rng.integers(0, 4, size=len(pick))
    key_idx = np.concatenate([pick, np.repeat(pick, extra)])
    start = lo[key_idx] - np.where(
        np.arange(len(key_idx)) < len(pick), 0, 600_000_000
    )
    span = (hi[key_idx] - start).astype(np.float64)
    offs = np.where(
        np.arange(len(key_idx)) < len(pick), 0, (rng.random(len(key_idx)) * span)
    ).astype(np.int64)
    ts = start + offs
    users = [c.split("-", 1)[1] for c in conv[key_idx]]

    # keys the corpus never probes
    n_orph = SIDE_ORPHAN_KEYS
    users += [f"9{i:06d}" for i in range(n_orph)]
    ts = np.concatenate([ts, rng.choice(lo, size=n_orph)])

    n = len(users)
    order = np.argsort(ts, kind="stable")
    table = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts[order].astype("datetime64[us]"), pa.timestamp("us")),
            "user_id": pa.array(np.asarray(users, dtype=object)[order], pa.string()),
            "event_type": pa.array(
                rng.choice(np.array(["signup", "purchase"], dtype=object), size=n),
                pa.string(),
            ),
            "value": pa.array(np.round(rng.exponential(50.0, size=n), 2) + 0.01),
        }
    )
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(table, os.path.join(out_dir, "events.parquet"))
    return out_dir


# ---------------------------------------------------------------------------
# query tables
# ---------------------------------------------------------------------------

_WORDS = np.array(
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window".split(),
    dtype=object,
)
_LANGS = np.array(["en", "zh", "es", "fr", "de"], dtype=object)
_LANG_P = [0.42, 0.15, 0.15, 0.14, 0.14]
_EVENT_TYPES = np.array(["signup", "purchase", "view", "click", "error"], dtype=object)
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = np.array(
    ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], dtype=object
)
_PRIORITIES = np.array(
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], dtype=object
)
_PART_A = np.array(["blue", "hot", "large", "small", "red", "green", "cold", "tiny"], dtype=object)
_PART_B = np.array(["ring", "bolt", "anvil", "widget", "nut", "gear", "pipe", "clip"], dtype=object)
_PART_TYPES = np.array(["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"], dtype=object)


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, size=n), 2)


def _days(rng, first: str, n_days: int, n: int) -> pa.Array:
    d = np.datetime64(first, "D") + rng.integers(0, n_days, size=n).astype("timedelta64[D]")
    return pa.array(d.astype("datetime64[us]"), pa.timestamp("us"))


def _events(rng, n_users: int) -> pa.Table:
    n = n_users * 66
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = np.sort(t0 + rng.integers(0, 30 * 86_400_000_000, size=n))
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, size=n), pa.int64()),
            "event_type": pa.array(rng.choice(_EVENT_TYPES, size=n), pa.string()),
            "value": pa.array(np.round(rng.exponential(50.0, size=n), 2) + 0.01),
            "props": pa.array(
                [f'{{"k": {k}}}' for k in rng.integers(0, 100, size=n)], pa.string()
            ),
        }
    )


def _documents(rng, n: int) -> pa.Table:
    texts = [
        " ".join(rng.choice(_WORDS, size=int(k)))
        for k in rng.integers(10, 101, size=n)
    ]
    # ~5% near-duplicates (an earlier text plus " dup") and ~0.4% exact
    # copies, as in the reference corpus
    for i in np.flatnonzero(rng.random(n) < 0.05):
        texts[i] = texts[int(rng.integers(0, n))] + " dup"
    for i in rng.choice(n, size=max(1, n // 250), replace=False):
        texts[i] = texts[int(rng.integers(0, n))]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choice(_LANGS, size=n, p=_LANG_P), pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def _embeddings(rng, n: int) -> pa.Table:
    e = rng.standard_normal((n, EMBED_DIM)).astype(np.float32)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(e), pa.list_(pa.float32())),
            "label": pa.array(rng.integers(0, 10, size=n), pa.int32()),
        }
    )


def _tpch(rng, scale: float) -> dict[str, pa.Table]:
    n_cust, n_ord, n_li = int(150_000 * scale), int(1_500_000 * scale), int(6_000_000 * scale)
    n_part, n_supp = int(200_000 * scale), int(10_000 * scale)
    keys = lambda n: pa.array(np.arange(n, dtype=np.int64))  # noqa: E731
    nat = lambda n: pa.array(rng.integers(0, 25, size=n), pa.int32())  # noqa: E731
    return {
        "region": pa.table(
            {"r_regionkey": pa.array(range(5), pa.int32()), "r_name": _REGIONS}
        ),
        "nation": pa.table(
            {
                "n_nationkey": pa.array(range(25), pa.int32()),
                "n_name": [f"NATION_{i}" for i in range(25)],
                "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
            }
        ),
        "customer": pa.table(
            {
                "c_custkey": keys(n_cust),
                "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
                "c_nationkey": nat(n_cust),
                "c_acctbal": _money(rng, -999.99, 9999.99, n_cust),
                "c_mktsegment": pa.array(rng.choice(_SEGMENTS, size=n_cust), pa.string()),
            }
        ),
        "supplier": pa.table(
            {
                "s_suppkey": keys(n_supp),
                "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
                "s_nationkey": nat(n_supp),
                "s_acctbal": _money(rng, -999.99, 9999.99, n_supp),
            }
        ),
        "part": pa.table(
            {
                "p_partkey": keys(n_part),
                "p_name": pa.array(
                    rng.choice(_PART_A, size=n_part) + " " + rng.choice(_PART_B, size=n_part),
                    pa.string(),
                ),
                "p_brand": [f"Brand#{int(b)}" for b in rng.integers(1, 26, size=n_part)],
                "p_type": pa.array(rng.choice(_PART_TYPES, size=n_part), pa.string()),
                "p_size": pa.array(rng.integers(1, 51, size=n_part), pa.int32()),
                "p_retailprice": np.round(900.0 + (np.arange(n_part) % 1000) / 10.0, 2),
            }
        ),
        "orders": pa.table(
            {
                "o_orderkey": keys(n_ord),
                "o_custkey": pa.array(rng.integers(0, n_cust, size=n_ord), pa.int64()),
                "o_orderstatus": pa.array(
                    rng.choice(np.array(["F", "O", "P"], dtype=object), size=n_ord), pa.string()
                ),
                "o_totalprice": _money(rng, 1000.0, 500_000.0, n_ord),
                "o_orderdate": _days(rng, "1995-01-01", 2405, n_ord),
                "o_orderpriority": pa.array(rng.choice(_PRIORITIES, size=n_ord), pa.string()),
            }
        ),
        "lineitem": pa.table(
            {
                "l_orderkey": pa.array(rng.integers(0, n_ord, size=n_li), pa.int64()),
                "l_partkey": pa.array(rng.integers(0, n_part, size=n_li), pa.int64()),
                "l_suppkey": pa.array(rng.integers(0, n_supp, size=n_li), pa.int64()),
                "l_linenumber": pa.array(rng.integers(1, 8, size=n_li), pa.int32()),
                "l_quantity": rng.integers(1, 51, size=n_li).astype(np.float64),
                "l_extendedprice": _money(rng, 900.0, 105_000.0, n_li),
                "l_discount": rng.integers(0, 11, size=n_li) / 100.0,
                "l_tax": rng.integers(0, 9, size=n_li) / 100.0,
                "l_returnflag": pa.array(
                    rng.choice(np.array(["A", "N", "R"], dtype=object), size=n_li), pa.string()
                ),
                "l_linestatus": pa.array(
                    rng.choice(np.array(["F", "O"], dtype=object), size=n_li), pa.string()
                ),
                "l_shipdate": _days(rng, "1995-01-02", 2499, n_li),
            }
        ),
    }


def write_sf_tables(out_dir: str, seed: int) -> tuple[str, int]:
    """Write the registry's ten input tables; returns (dir, events rows)."""
    rng = np.random.default_rng(seed + 11)
    tables = _tpch(rng, SF)
    tables["events"] = _events(rng, n_users=int(15_000 * SF))
    tables["documents"] = _documents(rng, N_DOCS)
    tables["embeddings"] = _embeddings(rng, N_VECS)
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir, tables["events"].num_rows


def side_frame(events_dir: str):
    """The as-of side table exactly as the job builds it, as pandas."""
    from ptrail_ray.sources.transcripts import side_scd_from_events

    side = side_scd_from_events(events_dir).to_pandas()
    return side.sort_values(["key", "effective_ts"], kind="stable").reset_index(drop=True)
