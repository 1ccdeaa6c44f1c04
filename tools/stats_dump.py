"""Per-stage Ray Data stats for the flagship pipeline.

Prints the executor's own per-operator wall/cpu/rows breakdown
(``Dataset.stats()``) after one full run over the bench corpus — the
evidence loop for "wall-time dominated by useful compute": look for a
stage whose wall ≫ cpu (scheduling/backpressure problem) or whose
output rows balloon (operator emitting too much).

    python tools/stats_dump.py [--sf DIR] [--num-cpus N]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if "--num-cpus" in sys.argv:
        num_cpus = int(sys.argv[sys.argv.index("--num-cpus") + 1])

    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from bench import SF_DIR, ensure_bench_corpus
    from ptrail_ray.pipelines.flagship import flagship_auto
    from ptrail_ray.sources.transcripts import side_scd_from_events

    path = ensure_bench_corpus()
    side = side_scd_from_events(SF_DIR)
    t0 = time.perf_counter()
    # the plan chooser's pick, as bench.py runs it: the corpus declares
    # its conv-partitioned layout, so the exchange is elided
    out = flagship_auto(
        path,
        side,
        num_buckets=max(32, num_cpus * 4),
        gap_seconds=120.0,
        read_blocks=num_cpus * 4,
    )
    mat = out.materialize()  # stats() needs the executed plan's handle
    n = mat.count()
    wall = time.perf_counter() - t0
    print(f"rows={n} wall={wall:.1f}s (includes session-cold overhead)\n")
    print(mat.stats())
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
