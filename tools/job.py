"""Production job entry point — the `ray job submit` target.

    ray job submit --working-dir /root/repo -- \
        python tools/job.py --input /data/transcripts --output /out/features \
        --sf-side /root/testdata/sf0.1 --num-buckets 512 --gap-seconds 120 \
        --hot-threshold 1000000 --resume

Runs the flagship featurization (derivative chains, sessionization,
temporal extractors, as-of backfill) over a canonical transcript Parquet
directory and writes a resumable partitioned output with per-partition
lineage manifests. Re-running with ``--resume`` (default) skips
completed buckets — the mid-backfill resume story from the north rule.

On a real cluster the driver submits this to the head node; in this
sandbox it runs under a local Ray session (``ray.init`` is guarded, per
the driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

# allow running as `python tools/job.py` from anywhere (repo root on path;
# under `ray job submit --working-dir` the cwd is already the repo root)
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _write_per_file(files, out_dir, done, featurize, data_format) -> int:
    """Exchange-free plan over a declared conv-partitioned input: one
    Ray task per pending input file (bucket index == file index) runs
    the flagship bucket kernel and writes its bucket atomically — no
    shuffle, no spill. Returns the number of buckets written."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ptrail_ray.schema import TRANSCRIPT_COLUMNS
    from ptrail_ray.state.manifest import write_bucket

    todo = [{"idx": i, "path": f} for i, f in enumerate(files) if i not in done]
    if not todo:
        return 0

    def process(batch):
        for i, f in zip(batch["idx"], batch["path"]):
            t = featurize(pq.read_table(f, columns=TRANSCRIPT_COLUMNS))
            write_bucket(t, int(i), out_dir, lineage=str(f), data_format=data_format)
        return batch[["idx"]]

    return rd.from_items(todo).map_batches(
        process, batch_size=1, batch_format="pandas"
    ).count()


def _write_exchange(args, ds, config, side, featurize, resume) -> int:
    """Conv-bucket exchange plan (write_resumable, which sorts each
    bucket before ``featurize`` runs), plus the sub-range split arm for
    giant conversations. Returns the number of buckets written."""
    from ptrail_ray.pipelines.flagship import project_measures
    from ptrail_ray.state.manifest import (
        completed_buckets,
        save_job_manifest,
        write_resumable,
    )

    hot, giants = config["hot_convs"], config["giants"]
    if giants:
        import pyarrow.dataset as pads

        from ptrail_ray.sources.transcripts import read_transcripts
        from ptrail_ray.stages.project import semi_join_keys

        ds = semi_join_keys(ds, giants, anti=True)
        if not config.get("giants_done", False):
            import shutil

            from ptrail_ray.stages.split import featurize_split, split_subrange_rows

            # giants are <<1% of rows: push the membership filter into the
            # parquet scan (row-group stats + C++ scan-level filtering)
            # instead of shipping every non-giant row into Ray to drop it
            ds_giants = read_transcripts(
                args.input, filter=pads.field("conv_id").isin(giants)
            )
            gdir = os.path.join(args.output, "_giants")
            # a previous interrupted run may have written partial files
            # with no completion marker — clear before (re)writing
            if os.path.isdir(gdir):
                shutil.rmtree(gdir)
            # ends in the bucket kernel's tail: the bucket files' schema
            featurize_split(
                ds_giants,
                side,
                subrange_rows=split_subrange_rows(args.split_threshold),
                num_buckets=args.num_buckets,
                gap_seconds=args.gap_seconds,
            ).write_parquet(gdir)
            save_job_manifest(args.output, {**config, "giants_done": True})

    if args.partition_only:
        # raw payload, text kept; write_resumable already sorts each
        # bucket (conv, turn, ts) — the kernel is identity
        def kern(table):
            return table

    else:
        ds = ds.map_batches(
            project_measures, batch_format="pyarrow", batch_size=262144
        )
        kern = featurize

    # fast path: when every expected partition already has a manifest
    # (cold hash buckets + one salted partition per hot conv), skip the
    # read+shuffle entirely — a fully-completed job resumes in O(ls).
    # (An input hash bucket that happened to be empty never writes a
    # manifest, so this only triggers once genuinely everything is done.)
    expected = set(range(args.num_buckets + len(hot)))
    if resume and expected <= completed_buckets(args.output):
        return 0
    return len(
        write_resumable(
            ds,
            args.output,
            kern,
            num_buckets=args.num_buckets,
            lineage=args.input,
            resume=resume,
            hot_convs=hot,
            data_format=args.data_format,
        )
    )


def _parquet_rows(files=None, *, under: str = "") -> int:
    """Metadata-only row count of ``files``, or of every parquet file
    under the directory ``under``."""
    import glob

    import pyarrow.parquet as pq

    if files is None:
        files = glob.glob(os.path.join(under, "**", "*.parquet"), recursive=True)
    return sum(pq.read_metadata(f).num_rows for f in files)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="transcript parquet dir")
    ap.add_argument("--output", required=True, help="output dir (resumable)")
    ap.add_argument("--sf-side", default=None, help="dir holding events.parquet for the SCD side table")
    ap.add_argument("--num-buckets", type=int, default=256)
    ap.add_argument("--gap-seconds", type=float, default=120.0)
    ap.add_argument("--hot-threshold", type=int, default=None)
    ap.add_argument(
        "--split-threshold",
        type=int,
        default=None,
        help="conversations above this many turns are processed via "
        "sub-range splitting (stages/split.py) and written to a "
        "separate _giants output with the bucket files' schema",
    )
    ap.add_argument(
        "--partition-only",
        action="store_true",
        help="write RAW turns conversation-bucketed (no featurization) "
        "and declare the layout in _manifest/layout.json — subsequent "
        "featurization over this dir (pipelines.flagship.flagship_auto) "
        "elides the conv exchange entirely",
    )
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument(
        "--data-format", choices=("parquet", "jsonl"), default="parquet",
        help="bucket payload format: parquet (analytics) or jsonl (training export)",
    )
    ap.add_argument(
        "--validate",
        action="store_true",
        help="after the write, assert row conservation: manifest rows "
        "+ _giants rows == input parquet rows (metadata-only count)",
    )
    ap.add_argument("--num-cpus", type=int, default=None, help="only for standalone local runs")
    args = ap.parse_args(argv)
    if args.partition_only and args.split_threshold:
        raise SystemExit(
            "--partition-only writes whole conversations per bucket; "
            "--split-threshold would break that contract"
        )

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # r04 scaling findings (BASELINE.md "scaling root cause"): push-based
    # sort shuffle + 4 read blocks per CPU keep the pre-sort pipeline fed
    DataContext.get_current().shuffle_strategy = "sort_shuffle_push_based"

    from ptrail_ray.pipelines.flagship import (
        choose_plan,
        featurize_bucket,
        featurize_sorted,
    )
    from ptrail_ray.sources.transcripts import read_transcripts, side_scd_from_events
    from ptrail_ray.stages.asof import put_side_table
    from ptrail_ray.stages.salt import detect_hot_convs
    from ptrail_ray.state.manifest import (
        completed_buckets,
        load_job_manifest,
        load_metrics,
        save_job_manifest,
        save_layout_manifest,
    )

    t0 = time.perf_counter()
    ncpu = int(ray.cluster_resources().get("CPU", 8))

    # Layout-driven plan (pipelines.flagship.choose_plan): an input that
    # declares a complete conversation-partitioned layout runs one task
    # per input file and the all-to-all shuffle (whose object-store spill
    # exceeds local disk on raw-text corpora well before 100 TB) never
    # happens. Output bucket index == input file index there, a hash
    # bucket on the exchange plan.
    files = choose_plan(
        args.input,
        hot_threshold=args.hot_threshold,
        split_threshold=args.split_threshold,
        partition_only=args.partition_only,
    )
    if files is None:
        plan = "exchange"
        ds = read_transcripts(args.input, override_num_blocks=max(8, ncpu * 4))
        config = {
            "num_buckets": args.num_buckets,
            "input": args.input,
            "hot_threshold": args.hot_threshold,
            "split_threshold": args.split_threshold,
        }
    else:
        plan = "prepartitioned"
        config = {
            "plan": plan,
            "input": args.input,
            "n_files": len(files),
            "num_buckets": len(files),
        }

    # The bucket mapping (plan, num_buckets, salted hot-conv ids, the
    # giant set) must be IDENTICAL across resume runs — it is derived once
    # on the first run, persisted in _manifest/job.json, and reused
    # verbatim on resume. Re-detecting would tie the mapping to block
    # boundaries (--num-cpus), risking silently skipped rows; resuming
    # with a different input or threshold would skip "completed" buckets
    # that never saw the new rows (ADVICE r02).
    resume = not args.no_resume
    prior = load_job_manifest(args.output) if resume else None
    if prior is not None:
        # an exchange-plan manifest has no "plan" key; its bucket ids are
        # hash buckets, a prepartitioned plan's are file indices
        prior_plan = prior.get("plan", "exchange")
        if prior_plan != plan:
            raise SystemExit(
                f"output dir was written by the {prior_plan} plan but this "
                f"run takes the {plan} plan; bucket ids are not comparable "
                "across plans — use a fresh --output or pass --no-resume "
                "to restart"
            )
        for key, val in config.items():
            if key in prior and prior[key] != val:
                raise SystemExit(
                    f"{key} {val!r} != {prior[key]!r} recorded in the job "
                    "manifest; a resume must reuse the original "
                    "partition-defining parameters (or pass --no-resume "
                    "to restart)"
                )
        config = prior
    else:
        if files is None:
            config["hot_convs"] = (
                detect_hot_convs(ds, args.hot_threshold) if args.hot_threshold else []
            )
            # exhaustive detection (floor=1) — the split path's memory
            # contract must not miss a giant spread thinly across blocks
            config["giants"] = (
                detect_hot_convs(ds, args.split_threshold, floor=1)
                if args.split_threshold
                else []
            )
            config["giants_done"] = False
        save_job_manifest(args.output, config)

    side = side_scd_from_events(args.sf_side) if args.sf_side else None
    kw = dict(side_ref=None if side is None else put_side_table(side),
              gap_seconds=args.gap_seconds)
    if files is None:
        kern = partial(featurize_sorted, **kw)  # write_resumable sorts
        n_written = _write_exchange(args, ds, config, side, kern, resume)
    else:
        done = completed_buckets(args.output) if resume else set()
        n_written = _write_per_file(
            files, args.output, done, partial(featurize_bucket, **kw), args.data_format
        )

    metrics = load_metrics(args.output)
    wall = time.perf_counter() - t0
    rows = int(sum(m["rows"] for m in metrics))

    # layout declaration: reaching this point means the write phase ran
    # to completion (every pending bucket was processed or the resume
    # fast path found all expected manifests; an empty hash bucket never
    # writes a manifest and never will), so the output IS a complete
    # conversation-partitioned layout — declare it so flagship_auto
    # elides the exchange on the next read. Payload "transcripts"
    # (re-featurizable) only for raw parquet buckets.
    if args.data_format == "parquet":
        save_layout_manifest(
            args.output,
            [f"bucket={m['bucket']:05d}/part.parquet" for m in metrics],
            payload="transcripts" if args.partition_only else "features",
            producer=f"tools/job.py ({plan} plan)"
            + (" --partition-only" if args.partition_only else ""),
        )

    validation = None
    if args.validate:
        # row conservation across BOTH arms: every input turn must appear
        # exactly once in the main partitioned output or in _giants.
        # Metadata-only counts — no data read.
        input_rows = _parquet_rows(files, under=args.input)
        giants_rows = (
            _parquet_rows(under=os.path.join(args.output, "_giants"))
            if config.get("giants")
            else 0
        )
        if rows + giants_rows != input_rows:
            raise SystemExit(
                f"row conservation FAILED: main={rows} + giants={giants_rows} "
                f"= {rows + giants_rows} != input={input_rows}"
            )
        validation = {
            "input_rows": input_rows,
            "main_rows": rows,
            "giants_rows": giants_rows,
            "conserved": True,
        }

    print(
        json.dumps(
            {
                "status": "ok",
                "plan": plan,
                "wall_s": round(wall, 2),
                "rows": rows,
                "out_bytes": sum(m["bytes"] for m in metrics),
                **({"validation": validation} if validation else {}),
                "buckets_written_this_run": int(n_written),
                "buckets_total": len(metrics),
                "hot_convs_salted": len(config.get("hot_convs", [])),
                "giant_convs_split": len(config.get("giants", [])),
                "turns_per_sec": round(rows / wall, 1),
                "output": args.output,
            }
        )
    )
    if owns_session:
        # only tear down a session this process created (an embedding
        # caller — e.g. the test fixture — owns its own lifecycle)
        ray.shutdown()


if __name__ == "__main__":
    main()
