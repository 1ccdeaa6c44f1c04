"""Spans, and the per-layer ledger measured in one process without Ray.

A ``Tracer`` records spans (id, name, start, end, parent) around the
benchmark's calls into each layer's public function, keeps them in
memory and writes them out as JSON lines at exit. With tracing off,
``span`` records nothing.

``transcript_layers`` replays, file by file over the corpus, exactly the
chain the job's exchange-free plan runs per bucket -- read, sort,
project, kernels, temporal, as-of build and probe, write -- plus the
raw-text write the partitioner does and the bucket hash, and times each
call under its own span.
"""

from __future__ import annotations

import contextlib
import json
import os
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# the 19 kernels the job computes (m1/m2 come from the projection)
def kernel_features() -> list[str]:
    from ptrail_ray.schema import M1, M2
    from ptrail_ray.stages.kernels import ALL_FEATURES

    return [f for f in ALL_FEATURES if f not in (M1, M2)]


def transcript_layers(tr: Tracer, files: list[str], side, work: str,
                      num_buckets: int) -> dict:
    """Time every in-bucket layer on every corpus file; returns counts.

    ``side`` is the sorted pandas side table (what ``put_side_table``
    broadcasts); the as-of joiner is built once per file, as the job
    builds it once per bucket task.
    """
    import numpy as np
    import pyarrow.parquet as pq

    from ptrail_ray.pipelines.flagship import project_measures
    from ptrail_ray.schema import TRANSCRIPT_COLUMNS
    from ptrail_ray.stages.asof import AsofJoiner
    from ptrail_ray.stages.bucket import sort_bucket, stable_hash
    from ptrail_ray.stages.kernels import compute_features
    from ptrail_ray.stages.temporal import add_temporal_columns
    from ptrail_ray.state.manifest import write_bucket

    feats = kernel_features()
    turns = matched = 0
    for i, f in enumerate(files):
        with tr.span("ledger.file", file=os.path.basename(f)):
            with tr.span("sources.read"):
                t = pq.read_table(f, columns=TRANSCRIPT_COLUMNS)
            with tr.span("stages.bucket.hash"):
                stable_hash(t["conv_id"]) % np.uint64(num_buckets)
            with tr.span("stages.bucket.sort"):
                t = sort_bucket(t)
            with tr.span("state.manifest.write_raw"):
                write_bucket(t, i, os.path.join(work, "ledger_raw"))
            with tr.span("pipelines.flagship.project"):
                p = project_measures(t)
            with tr.span("stages.kernels.kernels"):
                k = compute_features(p)
            for name in feats:
                with tr.span(f"stages.kernels.{name}"):
                    compute_features(p, [name])
            with tr.span("stages.temporal.temporal"):
                k = add_temporal_columns(k)
            with tr.span("stages.asof.build"):
                joiner = AsofJoiner(side)
            with tr.span("stages.asof.probe"):
                out = joiner(k)
            with tr.span("state.manifest.write"):
                write_bucket(out, i, os.path.join(work, "ledger_feat"))
            turns += t.num_rows
            matched += out["attr_cat"].null_count
    matched = turns - matched
    return {"turns": turns, "matched": matched, "files": len(files)}


def ns_per_turn(tr: Tracer, name: str, turns: int) -> float:
    return tr.total_s(name) * 1e9 / turns
