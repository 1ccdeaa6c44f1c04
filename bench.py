"""Benchmark harness (driver contract: prints ONE JSON line on stdout).

Headline metric: wall seconds for the flagship featurization pipeline
(derive transcripts → single conv-bucket shuffle → fused window kernels →
temporal extractors → as-of backfill join → consume) over a deterministic
synthetic transcript table (~2M turns, skewed conv sizes), reported as
``value`` plus ``turns_per_sec``. Per-query timings for the driver's
query registry run at $GRAFT_SF_DIR (default /root/testdata/sf0.1).

``--scaling``: run the headline twice in FRESH processes at
RAY_GRAFT_CPUS=8 and =32 on the same input (page cache warmed) and print
throughputs + scaling efficiency (the sandbox stand-in for the
north_rule's N vs 4N-node cluster criterion).

``BENCH_GENERAL=1``: force the general conv-exchange plan; by default
the corpus's declared conv-partitioned layout elides the exchange
(`flagship_auto`). Composes with ``--scaling``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# synthetic bench corpus (deterministic; cached under /tmp). Sized so the
# small-cluster level is compute-bound (saturated, not overhead-bound)
# while one run stays well under a minute at 32 CPUs. Doubling the
# corpus was measured to REDUCE 32-CPU throughput (1.6M vs 2.3M
# turns/s) — measured on the r03 FUSED config; r04 unfused config does
# 3.2M turns/s on the same corpus (BASELINE.md "scaling root cause").
BENCH_CONVS = int(os.environ.get("BENCH_CONVS", "640000"))
BENCH_MEAN_TURNS = int(os.environ.get("BENCH_MEAN_TURNS", "45"))
BENCH_SEED = 42
# file count = the storage partition granularity. The default 32 keeps
# the historical corpus byte-identical; the prepartitioned path needs
# ≥4 partitions per CPU slot (the engine's own read-block rule) — pass
# BENCH_FILES=128 for 32-CPU prepart measurements (different per-file
# seeds → statistically identical but not row-identical corpus; the
# two levels of one --scaling run always share one corpus).
BENCH_FILES = int(os.environ.get("BENCH_FILES", "32"))
_files_tag = "" if BENCH_FILES == 32 else f"_f{BENCH_FILES}"
BENCH_DIR = f"/tmp/ptrail_ray_bench/convs{BENCH_CONVS}_mt{BENCH_MEAN_TURNS}_s{BENCH_SEED}{_files_tag}"

# queries that are cheap enough to time at sf0.1 every round
BENCH_QUERIES = [
    "q_kinematics",
    "q_sessionize",
    "q_asof_backfill",
    "q_conv_stats",
    "q_gapfill_linear",
    "q_doc_tokens",
    "q_dedup_exact_docs",
    "q_ann_cosine",
    "q_winnow",
    "q_hopping",
    "q_join_orders_customer",
    "q_minhash_pairs",
    "q_top_terms",
    "q_sample_hash",
    "q_scrub_pii",
    "q_tfidf_topk",
    "q_unigram_lp",
    "q_chunk_docs",
    "q_decontam",
    "q_centroid_assign",
    "q_semantic_neardup",
    "q_ewma",
    "q_roll_corr",
    "q_resample",
    "q_pack_greedy",
    "q_char_entropy",
    "q_topk_turns",
    "q_top_bigrams",
    "q_diversity",
    "q_time_window",
    "q_context_pairs",
    "q_quantile_bin",
    "q_hll_distinct",
    "q_grouped_quantiles",
    "q_roll_median",
    "q_tool_transitions",
    "q_lang_confusion",
    "q_event_funnel",
    "q_ngram_jaccard",
    "q_containment",
    "q_segment_dedup",
    "q_bm25",
    "q_inverted_index",
    "q_embed_covariance",
    "q_pca_power",
    "q_group_zscore",
    "q_robust_scale",
    "q_group_rank",
    "q_roll_max",
    "q_left_join_customer_orders",
    "q_weighted_sample",
    "q_uniform_k",
    "q_zip_index",
    "q_bloom_decontam",
    "q_dedup_normalized",
    "q_nearest_poi",
    "q_media_video_frames",
    "q_kll_quantiles",
    "q_incremental_dedup",
    "q_bigram_lp",
    "q_tpch_q3",
    "q_tpch_q5",
    "q_tpch_q14",
    "q_tpch_q13",
    "q_tpch_q18",
    "q_mix_to_target",
    "q_ann_filtered",
    "q_knn_classify",
    "q_rate_spikes",
    "q_cohort_retention",
    "q_pct_rank",
    "q_grouped_topk",
    "q_max_streak",
    "q_chi2_lang_source",
    "q_weighted_median",
    "q_tool_pairs",
    "q_edit_near_dup",
    "q_rollup_docs",
    "q_dup_ngrams",
    "q_full_join",
    "q_rolling_dau",
    "q_grouped_top_terms",
    "q_linear_score",
    "q_snapshot_diff",
    "q_term_lift",
    "q_first_touch",
    "q_curriculum_mix",
    "q_global_mad",
    "q_max_concurrency",
    "q_embed_outlier",
    "q_funnel_windowed",
    "q_wow_growth",
    "q_twap",
    "q_drift_welch",
    "q_session_gini",
    "q_conv_trend",
    "q_autocorr",
    "q_target_encode_loo",
    "q_response_latency",
    "q_burstiness",
    "q_rrf_fusion",
    "q_kappa",
    "q_render_sft",
    "q_loss_mask",
    "q_conv_dedup",
    "q_asof_staleness",
    "q_pref_pairs",
    "q_speaker_balance",
    "q_ttr",
    "q_auc",
    "q_tool_latency",
    "q_gini_lengths",
    "q_prf1",
    "q_source_overlap",
    "q_mann_kendall",
    "q_theil_sen",
    "q_mutual_info",
    "q_benford",
    "q_anon_k",
    "q_cross_source_dup",
    "q_ngram_novelty",
    "q_triangle_count",
    "q_spearman",
    "q_ks_drift",
    "q_tpch_q4",
    "q_tpch_q12",
    "q_ntile",
    "q_cume_dist",
    "q_silhouette",
    "q_js_divergence",
    "q_tpch_q6",
    "q_tpch_q10",
    "q_entropy_mix",
    "q_tool_cond_entropy",
    "q_first_tool_latency",
    "q_repeat_user_rate",
    "q_tpch_q15",
    "q_tpch_q19",
    "q_tpch_q22",
    "q_hapax_bigrams",
    "q_oov_rate",
    "q_bigram_entropy",
    "q_abandoned_convs",
    "q_runs_test",
    "q_tool_trigrams",
    "q_length_anomaly",
    "q_vowel_ratio",
    "q_mean_word_len",
    "q_zipf_fit",
    "q_mcnemar",
    "q_role_length_ratio",
    "q_tpch_q7",
    "q_norm_bands",
    "q_event_type_dow",
    "q_poisson_dispersion",
    "q_role_entropy",
    "q_peak_hour",
    "q_tpch_q8",
    "q_gap_histogram",
    "q_priority_mix",
    "q_tpch_q17",
    "q_price_quantiles",
    "q_user_type_diversity",
    "q_tpch_q21",
    "q_tpch_q9",
    "q_tpch_q16",
    "q_cusum",
    "q_mode_event",
    "q_ndcg",
    "q_kendall_tau",
    "q_cramers_v",
    "q_prop_ztest",
    "q_cube_orders",
    "q_turn_edit_dist",
    "q_above_avg_orders",
    "q_min_unit_price",
    "q_interarrival",
    "q_odds_ratio",
    "q_unpivot",
    "q_hhi",
    "q_mase",
    "q_char_jaccard",
    "q_anova_f",
    "q_percentile_disc",
    "q_mannwhitney",
    "q_holt",
    "q_tpch_q11",
    "q_kruskal",
    "q_tpch_q20",
    "q_top_decile_share",
    "q_entropy_rate",
    "q_seasonal_idx",
    "q_logrank",
    # round-4 session-5 representatives (multi-stage pipelines)
    "q_asof_nearest",
    "q_rfm",
    "q_order_integrity",
    "q_ks_matrix",
    # round-4 session-6 representatives (catalog-exact stats / graph ops)
    "q_markov_stationary",
    "q_basket_lift",
    "q_growth_accounting",
    "q_emd_lengths",
    "q_hitting_time",
    "q_cooccur_pmi",
    "q_weibull_fit",
    "q_region_trend",
    # round-4 session-7 representatives (LM / joins / embeddings / A-B)
    "q_kneser_ney",
    "q_lin_ccc",
    "q_mahalanobis_diag",
    "q_silhouette_centroid",
    "q_keyness_dunning",
    "q_cuped",
    "q_mtbf_mttr",
]


def ensure_bench_corpus() -> str:
    if not os.path.isdir(BENCH_DIR) or not os.listdir(BENCH_DIR):
        from ptrail_ray.sources.transcripts import write_synth

        os.makedirs(BENCH_DIR, exist_ok=True)
        write_synth(
            BENCH_DIR,
            n_convs=BENCH_CONVS,
            mean_turns=BENCH_MEAN_TURNS,
            seed=BENCH_SEED,
            n_files=BENCH_FILES,
            n_hot=8,
            hot_turns=20000,
        )
    else:
        # corpus cached by a pre-layout-manifest round: write_synth's
        # per-file conv disjointness is positional (part-NNNN ranges),
        # so backfill the declaration it would write today
        from ptrail_ray.state.manifest import (
            load_layout_manifest,
            save_layout_manifest,
        )

        if load_layout_manifest(BENCH_DIR) is None:
            import glob as _g

            names = sorted(
                os.path.basename(f)
                for f in _g.glob(os.path.join(BENCH_DIR, "*.parquet"))
            )
            save_layout_manifest(BENCH_DIR, names, producer="write_synth")
    return BENCH_DIR


def run_headline() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # push-based sort shuffle pipelines the map/merge phases — measured
    # ~5% off the 16-CPU flagship wall, neutral at 4 CPUs (r04 sweep)
    # (non-deprecated spelling of use_push_based_shuffle in Ray 2.49)
    ctx.shuffle_strategy = "sort_shuffle_push_based"

    from ptrail_ray.pipelines.flagship import flagship, flagship_auto
    from ptrail_ray.sources.transcripts import read_transcripts, side_scd_from_events

    path = ensure_bench_corpus()
    # warm the page cache and the Ray session (worker imports, executor
    # resource estimates) with an untimed PILOT run of the same pipeline
    # over one input file — we measure compute + shuffle, not process
    # spawn / first-touch I/O (bench methodology recorded in BASELINE.md)
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    n_turns = sum(pq.read_metadata(f).num_rows for f in files)
    for f in files:
        with open(f, "rb") as fh:
            fh.read()

    side = side_scd_from_events(SF_DIR)
    # r04 sweep (BASELINE.md "scaling root cause"): 4 read blocks/CPU
    # keeps the read/project phase pipelined ahead of the sort barrier
    # (1 block/CPU measured 30 s vs 16 s at 16 CPUs); ≥128 buckets give
    # the post-sort kernel task pool enough grain to fill every CPU.
    read_blocks = NUM_CPUS * 4
    num_buckets = max(128, NUM_CPUS * 4)

    # Default (VERDICT r04 #3): the STORAGE LAYOUT decides the plan —
    # flagship_auto reads the corpus's layout manifest (written by the
    # engine's own producers: write_synth here, the sink's
    # partition-only mode in production) and elides the conv exchange
    # whenever every conversation provably lives whole in one file.
    # BENCH_GENERAL=1 forces the general exchange path (the comparison
    # row in BASELINE.md).
    general = bool(os.environ.get("BENCH_GENERAL"))

    def build():
        if general:
            return flagship(
                read_transcripts(path, override_num_blocks=read_blocks),
                side,
                num_buckets=num_buckets,
                gap_seconds=120.0,
                hot_threshold=None,
            )
        return flagship_auto(
            path,
            side,
            num_buckets=num_buckets,
            gap_seconds=120.0,
            hot_threshold=None,
            read_blocks=read_blocks,
        )

    # The pilot is one UNTIMED full-corpus run with the same parameters
    # as the timed runs: besides worker imports and executor estimates,
    # the first big pipeline in a session also pays first-touch plasma
    # page allocation for the object store's high-water footprint
    # (measured: 167 s first run vs 23 s steady-state at 58M turns) —
    # a one-off session cost on this VM, not per-pipeline compute.
    build().count()

    # median of N timed runs (single-node Ray Data wall time is noisy —
    # ±25-40% run-to-run on an otherwise idle box; the median is the
    # steady-state number, and --scaling raises N to 5)
    n_runs = int(os.environ.get("BENCH_RUNS", "3"))
    walls = []
    for _ in range(n_runs):
        t0 = time.perf_counter()
        # hot_threshold=None in build(): the bench corpus is skew-bounded
        # (max conversation 20k turns << bucket size); the salted path and
        # its detection pre-pass cost are measured separately — see
        # BASELINE.md "skew handling"
        out = build()
        rows = out.count()  # consume via aggregate — no driver materialization
        walls.append(time.perf_counter() - t0)
        assert rows >= n_turns
    wall = sorted(walls)[len(walls) // 2]
    return {
        "wall_s": wall,
        "walls": [round(w, 3) for w in walls],
        "turns": n_turns,
        "turns_per_sec": n_turns / wall,
    }


def run_queries() -> dict[str, float]:
    """Median-of-3 per query, with one untimed pilot before the first
    query (VERDICT r03 #3: single-run per-query numbers swung 2-3×
    round-over-round with VM phase; medians make them comparable)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    reps = int(os.environ.get("BENCH_QUERY_RUNS", "3"))
    out = {}
    first = True
    for name in BENCH_QUERIES:
        if first:  # untimed pilot: session/object-store first-touch costs
            res = qs[name](SF_DIR)
            if hasattr(res, "count"):
                res.count()
            first = False
        walls = []
        for _ in range(reps):
            t0 = time.perf_counter()
            res = qs[name](SF_DIR)
            if hasattr(res, "count"):
                res.count()
            walls.append(time.perf_counter() - t0)
        out[name] = round(sorted(walls)[len(walls) // 2], 3)
    return out


def main():
    if "--scaling" in sys.argv:
        # fresh interpreter per level → fresh ray.init(num_cpus=N)
        def run(ncpu: int) -> dict:
            env = dict(
                os.environ,
                RAY_GRAFT_CPUS=str(ncpu),
                BENCH_HEADLINE_ONLY="1",
                BENCH_RUNS=os.environ.get("BENCH_RUNS", "5"),
            )
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            return json.loads(p.stdout.strip().splitlines()[-1])

        # MEDIAN of the timed runs per level (VERDICT r01: best-of-3
        # overstates capability; medians make the two levels comparable
        # under the same noise model — the full run lists are reported
        # so the spread is visible).
        #
        # Levels default to 4 and 16 CPUs (the rule's "N and 4N"). The
        # r04 profiling (BASELINE.md "scaling root cause") retired the
        # earlier DRAM-wall theory: the real limiters were operator
        # fusion pinning the kernel stage onto the as-of actor pool and
        # 1-block-per-CPU reads — both fixed. The residual sub-linear
        # term is the sort barrier's fixed map→reduce span (~4-6 s at
        # this corpus size, CPU-count independent), which shrinks as a
        # fraction of wall on bigger corpora/clusters. The 8→32 pair is
        # also measured and disclosed in BASELINE.md.
        n_lo = int(os.environ.get("SCALE_LO", "4"))
        n_hi = int(os.environ.get("SCALE_HI", "16"))
        lo, hi = run(n_lo), run(n_hi)
        t_lo = sorted(lo["runs"])[len(lo["runs"]) // 2]
        t_hi = sorted(hi["runs"])[len(hi["runs"]) // 2]
        eff = (t_lo / t_hi) / (n_hi / n_lo)
        print(
            json.dumps(
                {
                    "cpus_lo": n_lo,
                    "cpus_hi": n_hi,
                    f"sec_{n_lo}": t_lo,
                    f"sec_{n_hi}": t_hi,
                    f"runs_{n_lo}": lo["runs"],
                    f"runs_{n_hi}": hi["runs"],
                    f"turns_per_sec_{n_lo}": round(lo["turns"] / t_lo, 1),
                    f"turns_per_sec_{n_hi}": round(hi["turns"] / t_hi, 1),
                    "scaling_efficiency": round(eff, 3),
                }
            )
        )
        return

    headline = run_headline()
    queries = {} if os.environ.get("BENCH_HEADLINE_ONLY") else run_queries()
    result = {
        "metric": "flagship featurization wall-clock (derive->shuffle->window kernels->temporal->asof) over synthetic transcripts",
        "value": round(headline["wall_s"], 3),
        "unit": "sec",
        "runs": headline["walls"],
        "turns": headline["turns"],
        "turns_per_sec": round(headline["turns_per_sec"], 1),
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }
    print(json.dumps(result))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
