"""Stateless per-turn projections and broadcast joins.

Reference counterparts (SURVEY.md §2.2 / §2.5):

* scalar extractors — ``is_tool_turn``, role one-hots, numeric extraction
  from semi-structured text (the ``convert_directions_to_degree_lat_lon``
  analog, ``ptrail/utilities/conversions.py:12-38`` — the reference
  row-applies a Python parser; we use a compiled-regex vectorized kernel);
* ``visited_location`` (``ptrail/features/contextual_features.py:33-124``)
  — membership flag against a broadcast set;
* ``trajectories_inside_polygon`` (``contextual_features.py:187-228``) —
  semi-join: keep conversations whose key is in a broadcast key set;
  anti-join = complement.

All are narrow ``map_batches`` stages; the small side is shipped ONCE via
``ray.put`` (never per batch) and looked up with Arrow ``is_in`` kernels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ptrail_ray.schema import CONV_ID, ROLE, TEXT, TOOL

ROLES = ["user", "assistant", "tool", "system"]


def add_turn_flags(ds):
    """Append ``is_tool_turn`` and one-hot role indicator columns."""

    def fn(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(
            "is_tool_turn",
            pc.fill_null(pc.equal(batch[ROLE], pa.scalar("tool")), False),
        )
        for r in ROLES:
            batch = batch.append_column(
                f"role_{r}",
                pc.cast(
                    pc.fill_null(pc.equal(batch[ROLE], pa.scalar(r)), False),
                    pa.int64(),
                ),
            )
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


class ExtractNumeric:
    """Pull a numeric field out of semi-structured text with a regex
    (conversions analog). Fully vectorized: ``pc.extract_regex`` runs
    the RE2 pattern natively over the whole batch — no per-row Python
    (the reference row-applies a parser; an earlier draft here looped
    ``re.search`` per row). The pattern must contain ONE named group
    ``v`` capturing the digits."""

    def __init__(self, pattern: str = r'"k": (?P<v>[0-9]+)', out_col: str = "k_value"):
        self.pattern = pattern
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch[TEXT], "")
        m = pc.extract_regex(txt, self.pattern)  # struct<v: string> or null
        val = pc.struct_field(m, "v")
        return batch.append_column(self.out_col, pc.cast(val, pa.int64()))

    @staticmethod
    def stage(ds, pattern: str = r'"k": (?P<v>[0-9]+)', out_col: str = "k_value"):
        fn = ExtractNumeric(pattern, out_col)
        return ds.map_batches(fn, batch_format="pyarrow", batch_size=65536)


def distance_from_point(
    ds,
    point: tuple[float, float],
    *,
    cols: tuple[str, str] = ("m1", "m2"),
    out_col: str | None = None,
):
    """Continuous distance-from-fixed-point: per-row Euclidean distance
    in measure space to a reference point — the
    ``create_distance_from_point_column`` analog
    (ptrail/features/kinematic_features.py:374-413 +
    helper ``distance_from_given_point_helper``,
    helper_functions.py:245-277; there haversine to a coordinate, here
    L2 over the (m1, m2) measure plane). Narrow vectorized stage; the
    reference fans out a multiprocessing pool per call."""
    cx, cy = float(point[0]), float(point[1])
    out_col = out_col or f"dist_from_{point[0]}_{point[1]}"
    ca, cb = cols

    def fn(batch: pa.Table) -> pa.Table:
        x = batch[ca].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[cb].to_numpy(zero_copy_only=False).astype(np.float64)
        d = np.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))
        return batch.append_column(out_col, pa.array(d, pa.float64()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=65536)


def membership_flag(ds, values: list[str], *, col: str = TOOL, out_col: str = "flagged"):
    """visited_location analog: 0/1 flag — is ``col`` in the broadcast
    value set. The set ships once in the task closure (a few KB); a
    larger side would go through ``ray.put`` instead."""
    vals = pa.array(sorted(v for v in values if v is not None), type=pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.is_in(batch[col], value_set=vals), False)
        return batch.append_column(out_col, pc.cast(m, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def bbox_by_radius(
    point: tuple[float, float], radius: float
) -> tuple[float, float, float, float]:
    """Measure-space bounding rectangle around a point — the
    ``get_bounding_box_by_radius`` analog
    (ptrail/utilities/KernelFunctions… see filters bbox helpers;
    reference computes a lat/lon box from metres via inverse haversine,
    here the measure plane is Euclidean so the box is ±radius). Returns
    (m1_lo, m1_hi, m2_lo, m2_hi) — feed it to ``filter_by_range`` /
    ``conv_intersect_in_region``."""
    cx, cy = float(point[0]), float(point[1])
    r = float(radius)
    if r < 0:
        raise ValueError(f"negative radius: {radius!r}")
    return (cx - r, cx + r, cy - r, cy + r)


def conv_intersect_in_region(
    ds,
    conv_a: str,
    conv_b: str,
    region: tuple[float, float, float, float],
    *,
    cols: tuple[str, str] = ("m1", "m2"),
):
    """3-way overlay: points of two conversations that fall inside a
    measure-space region AND coincide exactly — the
    ``traj_intersect_inside_polygon`` analog
    (ptrail/features/contextual_features.py:231-301: clip both
    single-trajectory frames to the polygon, then point-intersect).

    The region is an (m1_lo, m1_hi, m2_lo, m2_hi) rectangle. Like the
    reference (which requires single-trajectory inputs), side B is ONE
    conversation — small by contract — so it is clipped and broadcast
    once; side A streams through a narrow vectorized merge per batch.
    Output: one row per coinciding point pair
    (conv_id_1, ts_1, m1, m2, conv_id_2, ts_2).
    """
    import ray

    ca, cb = cols
    m1_lo, m1_hi, m2_lo, m2_hi = region

    def clip(conv_id):
        def fn(t: pa.Table) -> pa.Table:
            m = pc.fill_null(pc.equal(t[CONV_ID], pa.scalar(conv_id)), False)
            m = pc.and_(m, pc.greater_equal(t[ca], pa.scalar(m1_lo)))
            m = pc.and_(m, pc.less_equal(t[ca], pa.scalar(m1_hi)))
            m = pc.and_(m, pc.greater_equal(t[cb], pa.scalar(m2_lo)))
            m = pc.and_(m, pc.less_equal(t[cb], pa.scalar(m2_hi)))
            return t.filter(pc.fill_null(m, False))

        return fn

    side_b = (
        ds.map_batches(clip(conv_b), batch_format="pyarrow", batch_size=None)
        .select_columns([CONV_ID, "ts", ca, cb])
        .to_pandas()
    )
    b_ref = ray.put(side_b)

    def probe(t: pa.Table) -> pa.Table:
        import pandas as pd

        b = ray.get(b_ref)
        a = clip(conv_a)(t).select([CONV_ID, "ts", ca, cb]).to_pandas()
        if len(a) == 0 or len(b) == 0:
            # empty-batch schema must mirror the input's actual column
            # types (hardcoded int64 measures conflict with float
            # measure columns across blocks and break schema unification
            # — ADVICE r02)
            ts_t = t.schema.field("ts").type
            return pa.table(
                {
                    "conv_id_1": pa.array([], t.schema.field(CONV_ID).type),
                    "ts_1": pa.array([], ts_t),
                    ca: pa.array([], t.schema.field(ca).type),
                    cb: pa.array([], t.schema.field(cb).type),
                    "conv_id_2": pa.array([], t.schema.field(CONV_ID).type),
                    "ts_2": pa.array([], ts_t),
                }
            )
        m = a.merge(b, on=[ca, cb], suffixes=("_1", "_2"))
        out = m[[f"{CONV_ID}_1", "ts_1", ca, cb, f"{CONV_ID}_2", "ts_2"]].rename(
            columns={f"{CONV_ID}_1": "conv_id_1", f"{CONV_ID}_2": "conv_id_2"}
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return ds.map_batches(probe, batch_format="pyarrow", batch_size=65536)


def semi_join_keys(ds, keys, *, col: str = CONV_ID, anti: bool = False):
    """Semi-join (keep rows whose ``col`` is in the broadcast key set) or
    anti-join (``anti=True``: keep rows whose key is NOT in the set).
    trajectories_inside_polygon analog — the 'polygon' is the key set."""
    vals = pa.array(sorted(set(keys)), type=pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.is_in(batch[col], value_set=vals), False)
        if anti:
            m = pc.invert(m)
        return batch.filter(m)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def nearest_point(
    ds,
    poi_ids: "np.ndarray",
    px: "np.ndarray",
    py: "np.ndarray",
    *,
    cols: tuple[str, str] = ("m1", "m2"),
    row_chunk: int = 8192,
    max_pois: int = 1 << 20,
    batch_size: int | None = None,
):
    """``nearest_poi`` analog (ptrail/features/contextual_features.py:
    304-379 — there an osmnx network fetch + nearest OSM node; here the
    same contract against an OFFLINE broadcast POI table, the form a
    no-network engine can honor): per row, the id of and distance to
    the nearest point in (poi_id, px, py), L2 over the (m1, m2) measure
    plane, ties to the smallest poi_id.

    Scale shape: the POI side is SMALL by nature (a lookup gazetteer);
    it ships once in the task closure with a LOUD ``max_pois`` guard —
    a larger side belongs in the as-of/hash-join paths instead. Per
    batch: one (rows × pois) squared-distance block per row_chunk
    (bounded scratch), ``np.argmin`` row-wise — argmin takes the FIRST
    minimum and the side is pre-sorted by poi_id, which IS the min-id
    tie-break the SQL replica uses (row_number ORDER BY d2, poi_id).
    """
    if len(poi_ids) > max_pois:
        raise ValueError(
            f"nearest_point: side has {len(poi_ids)} points > max_pois="
            f"{max_pois}; broadcast sides must stay small — use a join"
        )
    order = np.argsort(np.asarray(poi_ids, np.int64), kind="stable")
    pid = np.asarray(poi_ids, np.int64)[order]
    pxs = np.asarray(px, np.float64)[order]
    pys = np.asarray(py, np.float64)[order]
    ca, cb = cols

    def fn(batch: pa.Table) -> pa.Table:
        x = batch[ca].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[cb].to_numpy(zero_copy_only=False).astype(np.float64)
        # solve per UNIQUE (x, y) point: feature planes are often heavily
        # discretized (here m1/m2 are small-int text lengths), so the
        # (points × pois) block shrinks by orders of magnitude; for
        # continuous data u == n and this is a no-op wrapper.
        key = x + 1j * y
        uniq, inv = np.unique(key, return_inverse=True)
        ux, uy = uniq.real, uniq.imag
        u = len(uniq)
        ubest = np.empty(u, np.int64)
        udist = np.empty(u, np.float64)
        for lo in range(0, u, row_chunk):
            hi = min(lo + row_chunk, u)
            dx = ux[lo:hi, None] - pxs[None, :]
            dy = uy[lo:hi, None] - pys[None, :]
            d2 = dx * dx + dy * dy
            idx = np.argmin(d2, axis=1)
            ubest[lo:hi] = pid[idx]
            udist[lo:hi] = np.sqrt(d2[np.arange(hi - lo), idx])
        return batch.append_column(
            "nearest_poi", pa.array(ubest[inv], pa.int64())
        ).append_column("poi_dist", pa.array(udist[inv], pa.float64()))

    # batch_size=None: the input is typically the bucket exchange's
    # output (many small blocks) — coalescing across blocks funnels
    # everything into ONE bundling task (the CLAUDE.md stall; measured
    # 17 s -> sub-second on 100k rows x 1.5k POIs at sf0.1)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def melt_table(
    t: pa.Table,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "metric",
    value_name: str = "value",
) -> pa.Table:
    """UNPIVOT / melt kernel: wide (id…, v1, v2, …) → long
    (id…, metric, value), metrics emitted per-row in ``value_cols``
    order — exactly DuckDB's ``UNPIVOT … INTO NAME … VALUE …`` row
    order for NON-NULL cells. Value columns are cast to one common
    type (int64 here; widen at the call site for floats). Pure Arrow
    take/concat — no Python per row, safe inside ``map_batches``."""
    n = t.num_rows
    k = len(value_cols)
    # row i of the wide table expands to rows i*k .. i*k+k-1
    idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
    cols = {c: t[c].take(idx) for c in id_cols}
    cols[var_name] = pa.array(np.tile(np.array(value_cols, object), n))
    stacked = np.empty(n * k, np.int64)
    for j, c in enumerate(value_cols):
        stacked[j::k] = t[c].cast(pa.int64()).to_numpy(zero_copy_only=False)
    cols[value_name] = pa.array(stacked, pa.int64())
    return pa.table(cols)


def melt(ds, id_cols, value_cols, var_name="metric", value_name="value"):
    """Dataset-level UNPIVOT: each block melts independently (row order
    within a block is preserved), so the stage streams — no shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        return melt_table(t, id_cols, value_cols, var_name, value_name)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
