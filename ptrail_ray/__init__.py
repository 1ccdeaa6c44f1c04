"""ptrail_ray — a from-scratch Ray-Data-native feature-engineering engine.

Re-expresses the operator semantics of the reference trajectory library
(YakshHaranwala/PTRAIL, surveyed in SURVEY.md) over Parquet tables of
multi-turn conversation transcripts:

    (conv_id: string, turn_idx: int32, role: string, text: string,
     tool: string, ts: timestamp)

Architecture (NOT a port — see SURVEY.md §1.2/§3.4):

* one ``ray.data.Dataset`` per logical table; blocks are Arrow tables;
* a single hash-bucket shuffle (``stages/bucket.py``) establishes the
  invariant "all turns of a conversation are contiguous and sorted by
  (turn_idx, ts)"; every ordered kernel runs vectorized on whole buckets;
* window/derivative kernels (``stages/kernels.py``) are fused numpy
  kernels with NaN re-seeding at conversation boundaries (exact NaN-width
  parity with the reference, SURVEY.md §1.3);
* the flagship runs one bucket kernel per bucket (sort → kernels →
  temporal → as-of probe against a broadcast side table,
  ``pipelines/flagship.py``) — no actor pool between the stages;
* resumable partitioned Parquet sink with per-partition lineage
  manifests (``state/manifest.py``).
"""

__version__ = "0.1.0"

from ptrail_ray.schema import TRANSCRIPT_COLUMNS  # noqa: F401
