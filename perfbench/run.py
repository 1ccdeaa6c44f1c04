"""ptrail_ray benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload featurize --seed 1 --seconds 6 --trace 0

Workloads (inputs are generated from ``--seed``, see ``inputs.py``):

* ``featurize``: ``tools/job.py`` over a conversation-partitioned corpus
  with an as-of side table -- read, sort, project, 19 kernels, temporal,
  inline as-of, parquet sink. No exchange.
* ``query_mix``: 21 registry queries via ``__ray_entry__.queries()``
  over generated TPC-H-ish tables; each result is compared exactly with
  its DuckDB oracle. No job, no sink.

``tools/job.py --partition-only`` (the conversation exchange) is timed
and checked in the ledger only: as a workload of its own, its median pass
time varied by 0.30-0.35 (IQR/median over ten seeds) on a shared 4-vCPU
VM at num_cpus=1, too widely to bound.

Ray runs with ``num_cpus`` = the CPUs this process may use. With
``--trace 0`` the run measures the workload and prints the end-to-end
metrics; with ``--trace 1`` it records spans and prints the per-layer
ledger instead (the same ledger for every workload). The ledger's
``trace.overhead_share`` is the wall time of the in-process layer chain
with spans over its wall time without them, minus one. Metric names and
units come from ``BENCHMARK.json`` at the checkout root.

End-to-end metrics, where an op is a job pass (featurize) or one query
(query_mix), each timed warm, after an untimed pass that also checks it:

* ``op_geomean_s``: geometric mean over the workload's ops of each op's
  median wall time;
* ``turns_per_s``: input turns / median job pass time (query_mix: rows
  of the generated events table, the transcript source, over the
  geometric mean of the median times of the queries that read it);
* ``setup_s``: median of three Ray session set-ups (engine and registry
  import, ``ray.init``, side-table build);
* ``out_bytes_per_turn``: bytes the job writes per input turn
  (query_mix has no sink: in-memory result bytes of the queries that
  read the events table, per events row);
* ``peak_pss_mb``: peak summed PSS of this process and its Ray sessions;
* ``ok_ops_share``: share of the workload's distinct ops that never
  failed. An op fails if it raises, misses its deadline (its session is
  then killed and the run goes on in a fresh one) or fails its output
  check; a failed output check also makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

QUERIES = [
    # the first 16 of bench.py's BENCH_QUERIES; the two whose actor pools
    # starve their upstream tasks at num_cpus=1 go first, so that their
    # kills (and fresh sessions) come before any other query is warmed up
    "q_asof_backfill", "q_minhash_pairs",
    "q_kinematics", "q_sessionize", "q_conv_stats",
    "q_gapfill_linear", "q_doc_tokens", "q_dedup_exact_docs", "q_ann_cosine",
    "q_winnow", "q_hopping", "q_join_orders_customer",
    "q_top_terms", "q_sample_hash", "q_scrub_pii", "q_tfidf_topk",
    # queries that regressed between two earlier rounds
    "q_tpch_q5", "q_incremental_dedup", "q_containment", "q_bm25", "q_roll_max",
]
# the queries that read the events table (the transcript source)
EVENT_QUERIES = [
    "q_kinematics", "q_sessionize", "q_asof_backfill", "q_conv_stats",
    "q_gapfill_linear", "q_hopping", "q_roll_max",
]
QUERY_DEADLINE_S = 5.0
JOB_DEADLINE_S = 40.0
START_DEADLINE_S = 45.0
SETUP_SAMPLES = 3
MIN_SAMPLES = 3
NUM_BUCKETS = 8
GAP_SECONDS = 120.0


T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"perfbench [{time.perf_counter() - T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


def nproc() -> int:
    """CPUs this process may use, as GNU ``nproc`` counts them: the
    affinity mask, overridden by OMP_NUM_THREADS and capped by
    OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    for var, pick in (("OMP_NUM_THREADS", lambda v: v), ("OMP_THREAD_LIMIT", lambda v: min(n, v))):
        head = os.environ.get(var, "").split(",")[0].strip()
        if head.isdigit() and int(head) > 0:
            n = pick(int(head))
    return n


def median(xs) -> float:
    return statistics.median(xs)


def geomean(xs) -> float:
    logs = [math.log(x) for x in xs]
    return math.exp(sum(logs) / len(logs))


class Bench:
    """State of one run: work dir, the live session, counters."""

    def __init__(self, args):
        from ledger import Tracer
        from session import PssSampler, ray_temp_dir

        self.args = args
        self.num_cpus = nproc()
        self.work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        os.makedirs(self.work)
        self.ray_dir, self.ray_dir_private = ray_temp_dir(self.work)
        self.tracer = Tracer(bool(args.trace))
        self.sampler = PssSampler()
        self.session = None
        self.generation = 0  # sessions started so far
        self.side_dir = None
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.last_op_s = 0.0  # wall of the last failed op, until its kill
        self.errors: list[str] = []  # wrong outputs
        self.op_errors: list[str] = []  # ops that raised or missed a deadline

    # -- inputs ----------------------------------------------------------
    def corpus(self) -> tuple[str, list[str], int]:
        from inputs import corpus_files, write_corpus

        path = os.path.join(self.work, "corpus")
        turns = write_corpus(path, self.args.seed)
        log(f"corpus: {turns} turns")
        return path, corpus_files(path), turns

    # -- sessions --------------------------------------------------------
    def start(self, side_dir=None):
        from session import Session

        self.side_dir = side_dir
        self.session = Session(
            repo=ROOT, work=self.work, ray_dir=self.ray_dir,
            num_cpus=self.num_cpus, side_dir=side_dir, sampler=self.sampler,
            deadline=START_DEADLINE_S,
        )
        self.generation += 1
        self.setups.append(self.session.setup_s)
        log(f"session up, setup {self.session.setup_s:.2f}s")

    def restart(self):
        """A fresh session after a kill; its start is a setup sample."""
        self.session.kill()
        self.start(self.side_dir)

    def fill_setups(self):
        """``ray.shutdown`` + ``ray.init`` in the live worker until there
        are SETUP_SAMPLES setup samples."""
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(self.session.call("reinit", START_DEADLINE_S)["setup_s"])
            log(f"re-init, setup {self.setups[-1]:.2f}s")

    def op(self, label: str, deadline: float, **kw):
        """One attempted op, ``label`` = "<worker op>[:<detail>]"; returns
        None (and restarts the session if it is gone) if it failed.
        ``last_op_s`` is then the time until the op raised or was killed."""
        from session import DeadlineMissed, OpFailed

        name = label.split(":")[0]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, op=label):
                return self.session.call(name, deadline, **kw)
        except (DeadlineMissed, OpFailed) as e:
            self.last_op_s = time.perf_counter() - t0
            self.failed += 1
            self.op_errors.append(f"{label}: {e}")
            if isinstance(e, DeadlineMissed) or self.session.proc.poll() is not None:
                self.restart()
        return None

    def close(self):
        if self.session is not None:
            self.session.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        if self.ray_dir_private:
            shutil.rmtree(self.ray_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# workloads (--trace 0)
# ---------------------------------------------------------------------------


def job_argv(corpus: str, out: str, side_dir: "str | None") -> list[str]:
    argv = ["--input", corpus, "--output", out, "--no-resume",
            "--gap-seconds", str(GAP_SECONDS)]
    if side_dir is None:
        return argv + ["--partition-only", "--num-buckets", str(NUM_BUCKETS)]
    return argv + ["--sf-side", side_dir]


def job_passes(b: Bench, argv: list[str], out: str, after_pass) -> list[float]:
    """One untimed warm-up pass, then timed passes while another one fits
    in ``--seconds`` (at least MIN_SAMPLES). ``after_pass(out, warm_up)``
    checks each pass's output outside the timed region."""
    walls = []
    t_end = None
    while t_end is None or len(walls) < MIN_SAMPLES or time.perf_counter() + walls[-1] < t_end:
        shutil.rmtree(out, ignore_errors=True)
        wall = b.op("job", JOB_DEADLINE_S, argv=argv)
        if wall is None:
            break
        log(f"job pass {wall:.3f}s")
        checked(b, after_pass, out, t_end is None)
        if t_end is None:
            t_end = time.perf_counter() + b.args.seconds
        else:
            walls.append(wall)
    return walls


def checked(b: Bench, check, *args) -> None:
    """Run an output check; an op whose output fails it is a failed op."""
    n = len(b.errors)
    check(*args)
    if len(b.errors) > n:
        b.failed += 1


def run_featurize(b: Bench) -> dict:
    from checks import featurize_oracle, out_bytes, row_conservation, value_digest
    from inputs import side_frame, write_side_events

    corpus, files, turns = b.corpus()
    side_dir = write_side_events(corpus, os.path.join(b.work, "side"), b.args.seed)
    out = os.path.join(b.work, "out")
    digests = set()

    def check(out_dir, warm_up):
        b.errors.extend(row_conservation(files, out_dir))
        if warm_up:
            digests.add(value_digest(out_dir))

    def final_check():
        # the last pass must reproduce the warm-up pass's values exactly
        digests.add(value_digest(out))
        if len(digests) > 1:
            b.errors.append(f"output digest differs across passes: {sorted(digests)}")
        b.errors.extend(featurize_oracle(files, out, side_frame(side_dir),
                                         gap_seconds=GAP_SECONDS))

    b.start(side_dir)
    b.fill_setups()
    walls = job_passes(b, job_argv(corpus, out, side_dir), out, check)
    checked(b, final_check)
    return job_metrics(b, walls, turns, out_bytes(out))


def job_metrics(b: Bench, walls: list[float], turns: int, nbytes: int) -> dict:
    if not walls:
        raise SystemExit("no job pass completed: " + "; ".join(b.op_errors))
    wall = median(walls)
    return {
        "turns_per_s": turns / wall,
        "op_geomean_s": wall,
        "out_bytes_per_turn": nbytes / turns,
        # one distinct op, the job pass
        "ok_ops_share": 1.0 - min(b.failed, 1),
    }


def query_passes(b: Bench, sf_dir: str, min_passes: int, seconds: float):
    """Run QUERIES: one untimed pass that warms each query up, then timed
    passes, at least ``min_passes`` and until the queries' own time adds
    up to ``seconds``. Every result is checked against its DuckDB oracle,
    outside the op's timing. A query that fails is not run again. A kill
    starts a fresh session, so the queries that ran before it run once
    more, untimed, before the timed passes.

    Returns (per-query median walls, {failed query: seconds its failed
    attempt took, until the kill if it missed its deadline}, per-query
    result bytes).
    """
    from checks import QueryOracle

    oracle = QueryOracle(sf_dir)
    failed: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    warm_in: dict[str, int] = {}  # query -> the session it last ran in

    def run(q):
        r = b.op(f"query:{q}", QUERY_DEADLINE_S, name=q, sf_dir=sf_dir)
        if r is None:
            failed[q] = b.last_op_s
            return None
        warm_in[q] = b.generation
        nbytes.setdefault(q, r["nbytes"])
        errs = oracle.check(q, r["result"])
        if errs:  # a wrong result is a failed op, and the run is incorrect
            b.errors.extend(errs)
            b.failed += 1
            failed[q] = r["wall_s"]
            return None
        return r["wall_s"]

    def ok():
        return [q for q in QUERIES if q not in failed]

    for q in QUERIES:
        run(q)
    while stale := [q for q in ok() if warm_in[q] != b.generation]:
        for q in stale:
            if run(q) is None:
                break
    log(f"warm-up: {len(ok())} of {len(QUERIES)} queries ok")

    walls: dict[str, list[float]] = {q: [] for q in ok()}
    passes = spent = 0
    while ok() and (passes < min_passes or spent < seconds):
        for q in ok():
            wall = run(q)
            if wall is not None:
                walls[q].append(wall)
                spent += wall
        passes += 1
    log(f"{passes} timed query passes")
    return {q: median(walls[q]) for q in ok()}, failed, nbytes


def run_query_mix(b: Bench) -> dict:
    from inputs import write_sf_tables

    sf_dir, n_events = write_sf_tables(os.path.join(b.work, "sf"), b.args.seed)
    b.start(None)
    walls, failed, nbytes = query_passes(b, sf_dir, MIN_SAMPLES, b.args.seconds)
    b.fill_setups()
    ev = [q for q in EVENT_QUERIES if q in walls]
    if not ev:
        raise SystemExit("no events query completed: " + "; ".join(b.op_errors))
    return {
        "turns_per_s": n_events / geomean(walls[q] for q in ev),
        "op_geomean_s": geomean(walls.values()),
        "out_bytes_per_turn": statistics.mean(nbytes[q] for q in ev) / n_events,
        "ok_ops_share": 1.0 - len(failed) / len(QUERIES),
    }


# ---------------------------------------------------------------------------
# per-layer ledger (--trace 1)
# ---------------------------------------------------------------------------


def run_ledger(b: Bench) -> dict:
    from checks import row_conservation, text_bytes_equal
    from inputs import side_frame, write_sf_tables, write_side_events
    from ledger import Tracer, kernel_features, ns_per_turn, transcript_layers

    tr = b.tracer
    corpus, files, turns = b.corpus()
    side_dir = write_side_events(corpus, os.path.join(b.work, "side"), b.args.seed)
    sf_dir, _ = write_sf_tables(os.path.join(b.work, "sf"), b.args.seed)
    side = side_frame(side_dir)

    # in-bucket layers, one process, no Ray: an untraced warm-up pass, the
    # traced pass the ledger comes from, and an untraced pass; traced over
    # untraced wall is the tracing overhead
    def layers(tracer):
        t0 = time.perf_counter()
        counts = transcript_layers(tracer, files, side, b.work, NUM_BUCKETS)
        return counts, time.perf_counter() - t0

    layers(Tracer(False))
    counts, traced_s = layers(tr)
    _, plain_s = layers(Tracer(False))
    log(f"layer chain: traced {traced_s:.3f}s, untraced {plain_s:.3f}s")
    m = {"trace.overhead_share": traced_s / plain_s - 1.0}
    for name in ("sources.read", "stages.bucket.sort", "pipelines.flagship.project",
                 "stages.kernels.kernels", "stages.temporal.temporal",
                 "stages.asof.probe", "state.manifest.write",
                 "state.manifest.write_raw", "stages.bucket.hash"):
        m[f"{name}_ns_per_turn"] = ns_per_turn(tr, name, turns)
    for f in kernel_features():
        m[f"stages.kernels.{f}_ns_per_turn"] = ns_per_turn(tr, f"stages.kernels.{f}", turns)
    m["stages.asof.build_ms"] = median(tr.durations("stages.asof.build")) * 1e3
    m["stages.asof.match_share"] = counts["matched"] / counts["turns"]

    # Ray layers: scan, and scan + conversation exchange
    b.start(side_dir)
    m["entry_queries.import_s"] = b.session.registry_s
    r = b.op("scan_exchange", JOB_DEADLINE_S, corpus=corpus,
             num_buckets=NUM_BUCKETS, reps=2)
    if r is None:  # killed: both report the time until the kill
        scan_ns = exch_ns = b.last_op_s * 1e9 / turns
        m["stages.bucket.exchange_ns_per_turn"] = exch_ns
    else:
        scan_ns = median(r["scan_s"]) * 1e9 / turns
        exch_ns = median(r["exchange_s"]) * 1e9 / turns
        m["stages.bucket.exchange_ns_per_turn"] = (
            exch_ns - scan_ns - m["stages.bucket.hash_ns_per_turn"]
            - m["stages.bucket.sort_ns_per_turn"]
        )
    m["sources.scan_ns_per_turn"] = scan_ns

    out = os.path.join(b.work, "out")

    def job_walls(argv, n):
        """A warm-up job pass, then ``n`` timed ones. The first failure
        ends them; its time until the kill is its sample. Returns (walls,
        whether every pass completed)."""
        walls = []
        for i in range(n + 1):
            shutil.rmtree(out, ignore_errors=True)
            wall = b.op("job", JOB_DEADLINE_S, argv=argv)
            if wall is None:
                return walls + [b.last_op_s], False
            if i:
                walls.append(wall)
        return walls, True

    # runtime overhead = measured ns/turn minus the layer sum
    feat, feat_ok = job_walls(job_argv(corpus, out, side_dir), 2)
    feat_layers = sum(m[f"{n}_ns_per_turn"] for n in (
        "sources.read", "stages.bucket.sort", "pipelines.flagship.project",
        "stages.kernels.kernels", "stages.temporal.temporal",
        "stages.asof.probe", "state.manifest.write"))
    feat_layers += m["stages.asof.build_ms"] * 1e6 * counts["files"] / turns
    m["runtime.featurize_overhead_ns_per_turn"] = median(feat) * 1e9 / turns - feat_layers
    if feat_ok:
        checked(b, lambda: b.errors.extend(row_conservation(files, out)))

    # the partitioner: a Ray sort-exchange of raw text into conversation
    # buckets; its output must prove the layout it declares and keep every
    # conversation's turns and text bytes
    part, part_ok = job_walls(job_argv(corpus, out, None), 2)
    m["runtime.partition_overhead_ns_per_turn"] = (
        median(part) * 1e9 / turns - exch_ns - m["state.manifest.write_raw_ns_per_turn"]
    )

    def partition_check():
        b.errors.extend(row_conservation(files, out))
        res = b.op("verify_layout", JOB_DEADLINE_S, path=out)
        if res is None or not res[0]:
            b.errors.append(f"verify_layout refuted the partitioned layout: {res}")
        b.errors.extend(text_bytes_equal(files, out))

    if part_ok:
        checked(b, partition_check)

    # the registry: a warm-up pass, then one timed run of each query; a
    # query that failed reports the time its failed attempt took
    walls, failed, _ = query_passes(b, sf_dir, 1, 0.0)
    for q in QUERIES:
        m[f"entry_queries.{q}_s"] = walls[q] if q in walls else failed[q]
    m["entry_queries.failed_queries"] = float(len(failed))
    m["runtime.failed_ops"] = float(b.failed)
    tr.write(os.path.join(
        ROOT, ".bench_out", f"spans-{b.args.workload}-{b.args.seed}.jsonl"))
    return m


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("featurize", "query_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("ptrail_ray/__init__.py", "tools/job.py", "__ray_entry__.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; "
                  "run from a checkout of the repository", file=sys.stderr)
            return 2
    units = declared_metrics(bool(args.trace))

    # the engine must import in the worker and in every Ray worker,
    # whatever the caller's cwd is
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for p in (ROOT, os.path.join(ROOT, "tools")):
        if p not in sys.path:
            sys.path.insert(0, p)

    # a caller's timeout (SIGTERM) still tears the Ray sessions down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    b = Bench(args)
    try:
        with b.sampler:
            if args.trace:
                metrics = run_ledger(b)
            else:
                metrics = {
                    "featurize": run_featurize,
                    "query_mix": run_query_mix,
                }[args.workload](b)
                metrics["setup_s"] = median(b.setups)
        if not args.trace:
            metrics["peak_pss_mb"] = b.sampler.peak_mb
    finally:
        b.close()

    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 3
    for e in b.op_errors + b.errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not b.errors,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
