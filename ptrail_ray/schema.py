"""Canonical transcript schema + constants.

Analog of the reference's mandatory-column contract
(``ptrail/utilities/constants.py:7-13`` — lat/lon/DateTime/traj_id) recast
onto the BASELINE.json ``input_hint`` shape. The engine's normalize stage
coerces any input to this schema once, up front (the reference re-validates
and re-sorts on every operator call; we do it exactly once — SURVEY.md §4.3).
"""

from __future__ import annotations

import pyarrow as pa

# --- canonical columns (BASELINE.json input_hint) ---------------------------
CONV_ID = "conv_id"
TURN_IDX = "turn_idx"
ROLE = "role"
TEXT = "text"
TOOL = "tool"
TS = "ts"

TRANSCRIPT_COLUMNS = [CONV_ID, TURN_IDX, ROLE, TEXT, TOOL, TS]

TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field(CONV_ID, pa.string()),
        pa.field(TURN_IDX, pa.int32()),
        pa.field(ROLE, pa.string()),
        pa.field(TEXT, pa.string()),
        pa.field(TOOL, pa.string()),
        pa.field(TS, pa.timestamp("us")),
    ]
)

# --- derived measure channels (SURVEY.md §7.0 recast dictionary) ------------
# m1: text length in characters  (lat-channel analog)
# m2: text length in bytes       (lon-channel analog)
M1 = "m1"
M2 = "m2"

# temporal bucket labels — identical to the reference's TIME_OF_DAY
# (ptrail/utilities/constants.py:18-25) with the same (>, <=) hour
# boundaries (ptrail/features/temporal_features.py:188-196)
TIME_OF_DAY = [
    "Late Night",  # 0  <= h <= 4
    "Early Morning",  # 4  < h <= 8
    "Morning",  # 8  < h <= 12
    "Noon",  # 12 < h <= 16
    "Evening",  # 16 < h <= 20
    "Night",  # 20 < h <= 24
]

WEEKEND_DAYS = ["Saturday", "Sunday"]  # constants.py:16

# DuckDB dayname() naming (Monday..Sunday); Arrow pc.day_of_week gives
# 0=Monday, matching this list's order.
DAY_NAMES = [
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
]

# per-conv stats vector layout — ORDERED_COLS pattern
# (ptrail/utilities/constants.py:34-43): stat-per-feature, fixed order.
STATS_PERCENTILES = [0.10, 0.25, 0.50, 0.75, 0.90]
STATS_STATS = ["p10", "p25", "p50", "p75", "p90", "min", "max", "mean", "std"]
STATS_FEATURES = [
    "delta_t",
    "delta_len",
    "elapsed_s",
    "cum_len",
    "len_rate",
    "len_accel",
    "len_jerk",
    "tok_delta",
    "tok_rate",
    "tok_accel",
]


def stats_ordered_cols() -> list[str]:
    """Wide stats-vector column order: ``{stat}_{feature}`` fixed order."""
    return [f"{s}_{f}" for f in STATS_FEATURES for s in STATS_STATS]


def normalize_batch(batch: pa.Table) -> pa.Table:
    """Coerce canonical columns to TRANSCRIPT_SCHEMA dtypes.

    Analog of the reference's constructor coercion
    (``ptrail/core/TrajectoryDF.py:158-166``: lat/lon→float64,
    DateTime→datetime64, traj_id→str) — done ONCE in a stateless
    map_batches stage, enforced by Arrow thereafter. Extra columns pass
    through untouched (the ``rest_of_columns`` contract,
    ``TrajectoryDF.py:53-60``).
    """
    import pyarrow.compute as pc

    for f in TRANSCRIPT_SCHEMA:
        if f.name not in batch.column_names:
            continue
        col = batch[f.name]
        if col.type == f.type:
            continue
        i = batch.column_names.index(f.name)
        if pa.types.is_null(col.type):
            batch = batch.set_column(i, f, pa.nulls(batch.num_rows, f.type))
        else:
            batch = batch.set_column(i, f, pc.cast(col, f.type))
    return batch


def normalize(ds):
    """Dataset-level schema normalization (stateless, narrow)."""
    return ds.map_batches(normalize_batch, batch_format="pyarrow", batch_size=None)
