"""Stateless temporal extractors (per-batch, no shuffle).

Analog of the reference's temporal feature suite
(``ptrail/features/temporal_features.py:32-199``): Date, Time,
Day_Of_Week, Weekend, Time_Of_Day. The reference fans each one out over a
multiprocessing pool re-pickling the whole frame
(``temporal_features.py:233,286,338``); here each is a vectorized Arrow
kernel inside ONE fused ``map_batches`` — embarrassingly parallel,
order-preserving, zero-copy.

Bucket boundaries for Time_Of_Day replicate ``temporal_features.py:188-196``
exactly: hour 0-4 'Late Night', (4,8] 'Early Morning', (8,12] 'Morning',
(12,16] 'Noon', (16,20] 'Evening', (20,24] 'Night'.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ptrail_ray.schema import DAY_NAMES, TIME_OF_DAY, TS, WEEKEND_DAYS

TEMPORAL_COLUMNS = ["Date", "Time", "Day_Of_Week", "Weekend", "Time_Of_Day"]


def add_temporal_columns(batch: pa.Table, ts_col: str = TS) -> pa.Table:
    ts = batch[ts_col]
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()

    date = pc.cast(ts, pa.date32())
    time = pc.cast(ts, pa.time64("us"))

    dow = pc.day_of_week(ts)  # 0 = Monday, matches DAY_NAMES order
    day_names = pa.array(DAY_NAMES, type=pa.string())
    dow_name = pc.take(day_names, dow)

    weekend_set = pa.array(
        [DAY_NAMES.index(d) for d in WEEKEND_DAYS], type=dow.type
    )
    weekend = pc.is_in(dow, value_set=weekend_set)

    # hour 0-4 → 0, else (h-1)//4: (4,8] → 1 ... (20,24) → 5; a null ts
    # stays null
    hour = pc.hour(ts)
    tod_idx = pc.if_else(
        pc.less_equal(hour, 4), 0, pc.divide(pc.subtract(hour, 1), 4)
    )
    tod = pc.take(pa.array(TIME_OF_DAY, type=pa.string()), tod_idx)

    for name, arr in [
        ("Date", date),
        ("Time", time),
        ("Day_Of_Week", dow_name),
        ("Weekend", weekend),
        ("Time_Of_Day", tod),
    ]:
        batch = batch.append_column(name, arr)
    return batch


def add_temporal(ds, ts_col: str = TS):
    """Append all five temporal columns in one fused stateless stage."""
    return ds.map_batches(
        add_temporal_columns, batch_format="pyarrow", batch_size=None, fn_kwargs={"ts_col": ts_col}
    )
