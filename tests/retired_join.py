"""Join operators with no product caller, kept here with their tests.

``broadcast_join`` (the small side shipped once through the object
store and probed per batch) and its per-worker table cache,
``expand_join`` (the SQL-multiplicity join: duplicate keys expand to
the full per-key cross product, ``how`` extends to ``right``/``full``
outer), ``range_join`` (band join), ``hot_keys`` / ``skew_join``
(hot-key split) and ``bloom_join`` (Bloom-prefiltered) build on
``broadcast_join`` and ``ocr_pipeline_ray.stages.join``'s
``repartition_join``. No CLI flag, query or script calls them, so
they live beside the tests that pin them.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.cloudpickle

from ocr_pipeline_ray.functions.hashing import bucket_ids
from ocr_pipeline_ray.stages.join import repartition_join

# Ray workers do not have tests/ on their path, so the functions of
# this module that run in Ray tasks travel by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])

# per-worker cache for broadcast right-side tables (workers persist
# across tasks; deserialize once per worker, not once per batch)
_JOIN_TBL_CACHE: Dict[str, pa.Table] = {}


def _right_tbl_from_ref(ref) -> pa.Table:
    import ray

    cache_key = ref.hex()
    tbl = _JOIN_TBL_CACHE.get(cache_key)
    if tbl is None:
        if len(_JOIN_TBL_CACHE) > 8:
            _JOIN_TBL_CACHE.clear()
        tbl = ray.get(ref)
        _JOIN_TBL_CACHE[cache_key] = tbl
    return tbl


def broadcast_join(ds, right, on: str, right_cols: Optional[List[str]] = None,
                   how: str = "inner", suffix: str = "_r"):
    """Join ``ds`` against a SMALL dataset/table ``right`` on ``on``.

    ``right`` may be a ``ray.data.Dataset`` or a ``pyarrow.Table``;
    it is broadcast via the object store and probed per batch fully
    vectorized — ``pc.index_in`` against the (deduped) right key
    array, then one Arrow ``take`` gathers the matched rows (null
    probe positions yield null right columns on the left path).
    ``right_cols`` selects which right-side columns to append
    (default: all but the key); name collisions get ``suffix``.
    Duplicate right keys keep the LAST row (dict semantics) — the
    driver dedupes the small side once before broadcasting.

    ``how="semi"`` / ``"anti"`` filter the left side by EXISTS /
    NOT EXISTS of the key in ``right`` (no right columns appended;
    a NULL left key matches nothing, so semi drops it and anti
    keeps it — SQL ``EXISTS`` semantics). Reduce the right side to
    distinct keys BEFORE the call when it is large — membership
    only needs the key set.
    """
    import pyarrow.compute as pc
    import ray
    import ray.data

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be inner|left|semi|anti, got {how!r}")
    if how in ("semi", "anti"):
        right_cols = []
    if isinstance(right, pa.Table):
        right_tbl = right
        cols = right_cols if right_cols is not None else [
            c for c in right_tbl.column_names if c != on
        ]
    else:
        # prune BEFORE driver-side collection: the broadcast (and
        # the driver's transient copy) carry only key + needed cols
        cols = right_cols if right_cols is not None else [
            c for c in right.schema().names if c != on
        ]
        right_tbl = pa.concat_tables(
            right.select_columns([on] + cols)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    # last occurrence per key wins (dict contract), deduped ONCE here
    keep = {k: i for i, k in enumerate(right_tbl.column(on).to_pylist())}
    if len(keep) != right_tbl.num_rows:
        right_tbl = right_tbl.take(
            pa.array(sorted(keep.values()), pa.int64())
        )
    ref = ray.put(right_tbl.select([on] + cols).combine_chunks())

    def _probe(batch: pa.Table) -> pa.Table:
        rt = _right_tbl_from_ref(ref)
        keys = batch.column(on)
        pos = pc.index_in(keys, value_set=rt.column(on))
        # SQL join semantics: a NULL key matches NOTHING (index_in
        # would otherwise match null-to-null)
        pos = pc.if_else(pc.is_valid(keys), pos, pa.scalar(None, pos.type))
        if how == "semi":
            return batch.filter(pc.is_valid(pos))
        if how == "anti":
            return batch.filter(pc.is_null(pos))
        if how == "inner":
            valid = pc.is_valid(pos)
            if not pc.all(valid).as_py():
                batch = batch.filter(valid)
                pos = pos.filter(valid)
        out = batch
        for c in cols:
            name = c if c not in out.column_names else c + suffix
            out = out.append_column(name, rt.column(c).take(pos))
        return out

    return ds.map_batches(_probe, batch_format="pyarrow")


def expand_join(left, right, on: str,
                right_cols: Optional[List[str]] = None,
                how: str = "inner", suffix: str = "_r",
                n_buckets: int = 64):
    """SQL-multiplicity join: duplicate keys expand to the per-key
    cross product; ``how`` covers ``inner|left|right|full``.

    :func:`broadcast_join` / :func:`repartition_join` are lookup
    joins (last right row wins) — the right shape for dimension
    enrichment, the wrong one for fact-to-fact SQL semantics. This
    operator is the ANSI join: a left row with k matching right rows
    emits k rows; ``left``/``full`` keep unmatched left rows with
    null right payload; ``right``/``full`` keep unmatched right rows
    (including null-key right rows, which match nothing but still
    appear in SQL outer results) with null left payload. The output
    ``on`` column is ``COALESCE(left.on, right.on)``.

    Physical plan = the :func:`repartition_join` shape: both sides
    co-shuffled once by ``bucket_ids(key) % n_buckets`` through a
    union + ONE groupby; each whole-bucket UDF dictionary-encodes
    the bucket's keys once, builds a CSR index over the right side
    (argsort + bincount/cumsum), and expands matches with
    np.repeat + one gather — no per-key UDF, no per-row Python.
    Row EXPANSION is the scale hazard here, not the shuffle: a key
    with L left × R right rows emits L·R rows inside one bucket, so
    skewed fact-fact keys belong in :func:`skew_join` or a
    pre-aggregation, same as any SQL engine.
    """
    import numpy as np
    import pyarrow.compute as pc

    if how not in ("inner", "left", "right", "full"):
        raise ValueError(
            f"how must be inner|left|right|full, got {how!r}")
    left_schema = left.schema()
    if left_schema is None:
        if how in ("inner", "left"):
            return left
        raise ValueError(
            f"{how} join with an empty schemaless left dataset: "
            "left column types are unknown")
    right_schema = right.schema()
    if right_schema is None:
        if how in ("inner", "right"):
            return left.limit(0)
        raise ValueError(
            f"{how} join against an empty schemaless right dataset: "
            "right column types are unknown")
    left_cols = list(left_schema.names)
    left_types = {n: t for n, t in zip(left_schema.names,
                                       left_schema.types)}
    cols = right_cols if right_cols is not None else [
        c for c in right_schema.names if c != on
    ]
    right_types = {n: t for n, t in zip(right_schema.names,
                                        right_schema.types)}
    out_names = left_cols + [
        (c if c not in left_cols else c + suffix) for c in cols
    ]
    key_type = left_types[on]
    payload_left = [c for c in left_cols if c != on]
    union_fields = (
        [("_bucket", pa.int64()), ("_side", pa.int32()), (on, key_type)]
        + [(f"_l_{c}", left_types[c]) for c in payload_left]
        + [(f"_r_{c}", right_types[c]) for c in cols]
    )
    union_schema = pa.schema(union_fields)

    def _tag(side: int, payload_names: List[str], prefix: str):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            keys = batch.column(on)
            arrays = {
                "_bucket": pa.array(bucket_ids(keys, n_buckets),
                                    pa.int64()),
                "_side": pa.array([side] * n, pa.int32()),
                on: keys,
            }
            for name, typ in union_fields[3:]:
                arrays[name] = pa.nulls(n, typ)
            for c in payload_names:
                arrays[f"{prefix}{c}"] = batch.column(c)
            return pa.table(
                {name: arrays[name] for name, _ in union_fields},
                schema=union_schema,
            )
        return _fn

    tagged_left = left.map_batches(
        _tag(0, payload_left, "_l_"), batch_format="pyarrow")
    tagged_right = right.select_columns([on] + cols).map_batches(
        _tag(1, cols, "_r_"), batch_format="pyarrow")

    out_schema = pa.schema(
        [(on, key_type)]
        + [(c, left_types[c]) for c in payload_left]
        + [(n, right_types[c]) for n, c in zip(out_names[len(left_cols):],
                                               cols)]
    )

    def _emit(group: pa.Table, l_idx, r_idx) -> pa.Table:
        """Gather one output part. ``l_idx``/``r_idx`` are row
        indices into ``group`` (int64, -1 = null side); the key is
        coalesced from whichever side is present."""
        l_rows = group.take(pa.array(l_idx, pa.int64(), mask=l_idx < 0))
        r_rows = group.take(pa.array(r_idx, pa.int64(), mask=r_idx < 0))
        arrays = [pc.coalesce(l_rows.column(on), r_rows.column(on))]
        for c in payload_left:
            arrays.append(l_rows.column(f"_l_{c}"))
        for c in cols:
            arrays.append(r_rows.column(f"_r_{c}"))
        return pa.table(dict(zip(out_schema.names, arrays)),
                        schema=out_schema)

    def _join_bucket(group: pa.Table) -> pa.Table:
        sides = group.column("_side").combine_chunks().to_numpy()
        codes = pc.dictionary_encode(
            group.column(on).combine_chunks()
        ).indices.fill_null(-1).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_codes = int(codes.max()) + 1 if len(codes) else 0
        l_all = np.flatnonzero(sides == 0)
        r_all = np.flatnonzero(sides == 1)
        rc = codes[r_all]
        r_valid = r_all[rc >= 0]
        rcodes = codes[r_valid]
        # CSR over the right side: rows of code c sit at
        # r_sorted[offsets[c]:offsets[c+1]]
        r_sorted = r_valid[np.argsort(rcodes, kind="stable")]
        counts = (np.bincount(rcodes, minlength=n_codes)
                  if n_codes else np.zeros(1, np.int64))
        offsets = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum(counts)])
        lcodes = codes[l_all]
        safe = np.maximum(lcodes, 0)
        cnt = np.where(lcodes >= 0,
                       counts[safe] if n_codes else 0, 0)
        tot = int(cnt.sum())
        rep_left = np.repeat(l_all, cnt)
        cum = np.cumsum(cnt)
        intra = np.arange(tot, dtype=np.int64) - np.repeat(
            cum - cnt, cnt)
        rep_right = r_sorted[np.repeat(offsets[safe], cnt) + intra]
        parts = [_emit(group, rep_left, rep_right)]
        if how in ("left", "full"):
            ul = l_all[cnt == 0]
            parts.append(_emit(
                group, ul, np.full(len(ul), -1, dtype=np.int64)))
        if how in ("right", "full"):
            lp = np.zeros(max(n_codes, 1), dtype=bool)
            lp[lcodes[lcodes >= 0]] = True
            ur = r_all[(rc < 0) | ~lp[np.maximum(rc, 0)]]
            parts.append(_emit(
                group, np.full(len(ur), -1, dtype=np.int64), ur))
        return pa.concat_tables(parts)

    return tagged_left.union(tagged_right).groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(
        _join_bucket, batch_format="pyarrow"
    )


def _as_i64(arr: pa.ChunkedArray):
    """View a value column as an int64/float64 numpy array for band
    math: timestamps become epoch-microseconds, numerics pass
    through. NULLs surface as a separate validity mask."""
    import numpy as np
    import pyarrow.compute as pc

    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_timestamp(arr.type):
        vals = pc.cast(arr, pa.timestamp("us")).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype("datetime64[us]").view(np.int64)
    else:
        vals = arr.fill_null(0).to_numpy(zero_copy_only=False)
    return vals, valid


def _range_pairs(v, lo, hi, chunk: int = 4096):
    """All (left, right) index pairs with ``lo[j] <= v[i] <= hi[j]``.

    Chunked broadcast mask: memory is ``chunk × len(lo)`` booleans,
    never ``len(v) × len(lo)``. Returns (left_idx, right_idx) int64
    arrays. Callers bound ``len(lo)`` — by broadcasting a small
    interval table or by banding — so the mask stays cache-sized.
    """
    import numpy as np

    li_parts, ri_parts = [], []
    for s in range(0, len(v), chunk):
        vs = v[s:s + chunk]
        m = (lo[None, :] <= vs[:, None]) & (vs[:, None] <= hi[None, :])
        li, ri = np.nonzero(m)
        li_parts.append(li + s)
        ri_parts.append(ri)
    if not li_parts:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return (np.concatenate(li_parts).astype(np.int64),
            np.concatenate(ri_parts).astype(np.int64))


def range_join(left, right, value_col: str, lo_col: str, hi_col: str,
               right_cols: Optional[List[str]] = None,
               how: str = "inner", suffix: str = "_r",
               strategy: str = "broadcast", band_width: float = None,
               n_buckets: int = 64):
    """Range (interval) join: left rows whose ``value_col`` falls in
    ``[right.lo_col, right.hi_col]`` (inclusive both ends — SQL
    ``BETWEEN`` semantics; NULL values and NULL bounds match nothing).
    One output row PER MATCHING PAIR for inner/left (a value inside k
    overlapping intervals yields k rows); ``semi``/``anti`` filter
    left rows by match existence.

    Two strategies, same contract:

    * ``"broadcast"`` (default): the interval table is broadcast once
      via the object store (per-worker cached) and probed per batch
      with a chunked vectorized mask — zero shuffles. Right for
      campaign/session/calendar tables (the overwhelmingly common
      case); cost per batch is ``O(batch × n_intervals)`` bitwise
      compares, so keep the interval count worker-heap-small.
    * ``"shuffle"``: no memory assumption. The value domain is cut
      into bands of ``band_width`` (required; epoch-µs for
      timestamps); each left row goes to the ONE band containing its
      value and each interval is REPLICATED to every band it
      overlaps, so a pair meets in exactly one band — no dedup pass.
      Bands co-shuffle via ``bucket_ids(band) % n_buckets`` and each
      whole-bucket UDF probes band runs with the same chunked mask.
      Replication factor ≈ interval_len / band_width + 1: pick
      ``band_width`` near the typical interval length. Skewed bands
      (a band holding many intervals) bound the in-bucket mask width,
      not the shuffle.
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be inner|left|semi|anti, got {how!r}")
    if strategy not in ("broadcast", "shuffle"):
        raise ValueError(
            f"strategy must be broadcast|shuffle, got {strategy!r}")

    left_schema = left.schema()
    left_cols = list(left_schema.names)
    left_types = dict(zip(left_schema.names, left_schema.types))
    right_schema = right.schema() if not isinstance(right, pa.Table) \
        else right.schema
    right_names = list(right_schema.names)
    right_types = dict(zip(right_schema.names, right_schema.types))
    if how in ("semi", "anti"):
        cols = []
    else:
        cols = right_cols if right_cols is not None else [
            c for c in right_names if c not in (lo_col, hi_col)
        ]
    out_names = left_cols + [
        (c if c not in left_cols else c + suffix) for c in cols
    ]

    def _emit(batch_left: pa.Table, right_tbl: pa.Table,
              li, ri) -> pa.Table:
        """Gather matched pairs (or filtered lefts) into the output
        schema. ``li``/``ri`` are pair indices; for left join the
        caller already appended unmatched lefts with ri = -1."""
        left_rows = batch_left.take(pa.array(li, pa.int64()))
        if how in ("semi", "anti"):
            return left_rows.select(left_cols)
        right_rows = right_tbl.take(
            pa.array(ri, pa.int64(), mask=np.asarray(ri) < 0))
        arrays = []
        for name in out_names:
            if name in left_cols:
                arrays.append(left_rows.column(name))
            else:
                base = name[:-len(suffix)] \
                    if name not in cols else name
                arrays.append(right_rows.column(base))
        return pa.table(dict(zip(out_names, arrays)))

    if strategy == "broadcast":
        if isinstance(right, pa.Table):
            right_tbl = right.select([lo_col, hi_col] + cols)
        else:
            right_tbl = pa.concat_tables(
                right.select_columns([lo_col, hi_col] + cols)
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        # drop NULL-bounded intervals once, before the broadcast
        right_tbl = right_tbl.filter(pc.and_(
            pc.is_valid(right_tbl.column(lo_col)),
            pc.is_valid(right_tbl.column(hi_col)),
        )).combine_chunks()
        ref = ray.put(right_tbl)

        def _probe(batch: pa.Table) -> pa.Table:
            rt = _right_tbl_from_ref(ref)
            lo, _ = _as_i64(rt.column(lo_col))
            hi, _ = _as_i64(rt.column(hi_col))
            v, vvalid = _as_i64(batch.column(value_col))
            li, ri = _range_pairs(v, lo, hi)
            keep = vvalid[li]
            li, ri = li[keep], ri[keep]
            if how in ("semi", "anti", "left"):
                matched = np.zeros(batch.num_rows, dtype=bool)
                matched[li] = True
                if how == "semi":
                    li, ri = np.flatnonzero(matched), None
                elif how == "anti":
                    li, ri = np.flatnonzero(~matched), None
                else:
                    lone = np.flatnonzero(~matched)
                    li = np.concatenate([li, lone])
                    ri = np.concatenate(
                        [ri, np.full(len(lone), -1, dtype=np.int64)])
            return _emit(batch, rt, li, ri)

        return left.map_batches(_probe, batch_format="pyarrow")

    # ---- shuffle strategy: banded co-partition ----
    if band_width is None or band_width <= 0:
        raise ValueError("shuffle strategy requires band_width > 0")
    payload_left = [c for c in left_cols if c != value_col]
    union_fields = (
        [("_bucket", pa.int64()), ("_band", pa.int64()),
         ("_side", pa.int32()), ("_v", left_types[value_col]),
         ("_lo", right_types[lo_col]), ("_hi", right_types[hi_col])]
        + [(f"_l_{c}", left_types[c]) for c in payload_left]
        + [(f"_r_{c}", right_types[c]) for c in cols]
    )
    union_schema = pa.schema(union_fields)

    def _band_bucket(band: "np.ndarray") -> "np.ndarray":
        return bucket_ids(pa.array(band, pa.int64()), n_buckets)

    def _tag_left(batch: pa.Table) -> pa.Table:
        # NULL values keep their row (band 0): they match nothing in
        # the probe — validity travels in the _v column itself — but
        # left/anti joins must still emit them
        v, _vvalid = _as_i64(batch.column(value_col))
        band = np.floor_divide(v, band_width).astype(np.int64)
        n = batch.num_rows
        arrays = {
            "_bucket": pa.array(_band_bucket(band), pa.int64()),
            "_band": pa.array(band, pa.int64()),
            "_side": pa.array(np.zeros(n, dtype=np.int32)),
            "_v": batch.column(value_col),
        }
        for name, typ in union_fields[4:]:
            arrays[name] = pa.nulls(n, typ)
        for c in payload_left:
            arrays[f"_l_{c}"] = batch.column(c)
        return pa.table({n_: arrays[n_] for n_, _ in union_fields},
                        schema=union_schema)

    def _tag_right(batch: pa.Table) -> pa.Table:
        lo, lov = _as_i64(batch.column(lo_col))
        hi, hiv = _as_i64(batch.column(hi_col))
        ok = lov & hiv & (lo <= hi)
        batch = batch.filter(pa.array(ok))
        lo, hi = lo[ok], hi[ok]
        b0 = np.floor_divide(lo, band_width).astype(np.int64)
        b1 = np.floor_divide(hi, band_width).astype(np.int64)
        reps = (b1 - b0 + 1).astype(np.int64)
        src = np.repeat(np.arange(len(b0), dtype=np.int64), reps)
        # band of each replica: b0[src] + offset within its run
        if len(reps):
            offs = np.arange(len(src), dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps)
        else:
            offs = np.empty(0, dtype=np.int64)
        band = b0[src] + offs
        rep = batch.take(pa.array(src, pa.int64()))
        n = rep.num_rows
        arrays = {
            "_bucket": pa.array(_band_bucket(band), pa.int64()),
            "_band": pa.array(band, pa.int64()),
            "_side": pa.array(np.ones(n, dtype=np.int32)),
            "_v": pa.nulls(n, left_types[value_col]),
            "_lo": rep.column(lo_col),
            "_hi": rep.column(hi_col),
        }
        for name, typ in union_fields[6:]:
            arrays[name] = pa.nulls(n, typ)
        for c in cols:
            arrays[f"_r_{c}"] = rep.column(c)
        return pa.table({n_: arrays[n_] for n_, _ in union_fields},
                        schema=union_schema)

    tagged_left = left.map_batches(_tag_left, batch_format="pyarrow")
    tagged_right = right.select_columns(
        [lo_col, hi_col] + cols
    ).map_batches(_tag_right, batch_format="pyarrow")

    def _join_bucket(group: pa.Table) -> pa.Table:
        """Per-band chunked mask probe: rows sorted by band once,
        band runs found with one neighbor-compare — Python loop count
        = bands per bucket, not rows."""
        sides = group.column("_side").combine_chunks().to_numpy()
        bands = group.column("_band").combine_chunks().to_numpy()
        v, vvalid = _as_i64(group.column("_v"))
        lo, _ = _as_i64(group.column("_lo"))
        hi, _ = _as_i64(group.column("_hi"))
        order = np.argsort(bands, kind="stable")
        sb = bands[order]
        if len(sb):
            bounds = np.concatenate((
                [0], np.nonzero(sb[1:] != sb[:-1])[0] + 1, [len(sb)],
            )).astype(np.int64)
        else:
            bounds = np.zeros(1, dtype=np.int64)
        li_parts, ri_parts = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            run = order[s:e]
            lall = run[sides[run] == 0]
            lsel = lall[vvalid[lall]]
            lnull = lall[~vvalid[lall]]
            rsel = run[sides[run] == 1]
            if not len(lall) or (not len(rsel) and how not in
                                 ("left", "anti")):
                continue
            li, ri = _range_pairs(v[lsel], lo[rsel], hi[rsel])
            gl, gr = lsel[li], rsel[ri]
            if how in ("semi", "anti", "left"):
                matched = np.zeros(len(lsel), dtype=bool)
                matched[li] = True
                if how == "semi":
                    gl, gr = lsel[matched], None
                elif how == "anti":
                    gl, gr = np.concatenate(
                        [lsel[~matched], lnull]), None
                else:
                    lone = np.concatenate([lsel[~matched], lnull])
                    gl = np.concatenate([gl, lone])
                    gr = np.concatenate(
                        [gr, np.full(len(lone), -1, dtype=np.int64)])
            li_parts.append(gl)
            ri_parts.append(gr if gr is not None else
                            np.empty(0, dtype=np.int64))
        gl = (np.concatenate(li_parts) if li_parts
              else np.empty(0, dtype=np.int64))
        gr = (np.concatenate(ri_parts) if ri_parts
              else np.empty(0, dtype=np.int64))
        left_rows = group.take(pa.array(gl, pa.int64()))
        out = {}
        for name in left_cols:
            out[name] = (left_rows.column("_v") if name == value_col
                         else left_rows.column(f"_l_{name}"))
        if how in ("semi", "anti"):
            return pa.table(out)
        right_rows = group.take(
            pa.array(gr, pa.int64(), mask=gr < 0))
        for name in out_names:
            if name not in left_cols:
                base = name[:-len(suffix)] if name not in cols else name
                out[name] = right_rows.column(f"_r_{base}")
        return pa.table({n_: out[n_] for n_ in out_names})

    return tagged_left.union(tagged_right).groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_join_bucket, batch_format="pyarrow")


def hot_keys(ds, on: str, hot_count: int, n_buckets: int = 64) -> pa.Table:
    """Exact keys with frequency >= ``hot_count``: map-side
    ``value_counts`` partials (one row per distinct key per block)
    into one small groupby — the heavy-hitters shape with an exact
    second-stage sum (no candidate recount needed because partials
    are exact). NULL keys are never hot (they match nothing in a
    join)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column(on).combine_chunks())
        keys, counts = vc.field("values"), vc.field("counts")
        valid = pc.is_valid(keys)
        return pa.table({
            on: keys.filter(valid),
            "n": pc.cast(counts.filter(valid), pa.int64()),
        })

    agg = (
        ds.select_columns([on])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(on)
        .aggregate(Sum("n"))
    )

    def _prune(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("sum(n)"),
                                pa.scalar(hot_count))
        t = batch.filter(keep)
        return pa.table({
            on: t.column(on),
            "n": pc.cast(t.column("sum(n)"), pa.int64()),
        })

    return agg.map_batches(_prune, batch_format="pyarrow")


def skew_join(left, right, on: str,
              right_cols: Optional[List[str]] = None,
              how: str = "inner", suffix: str = "_r",
              hot_count: int = 100_000, n_buckets: int = 64,
              hot: Optional[List] = None):
    """Skew-aware hybrid join: broadcast the hot keys, shuffle the rest.

    A repartition join hashes every row of both sides into buckets —
    one pathological key (the empty referrer, the null-ish user, the
    front-page URL) lands its entire row mass in ONE bucket and that
    straggler task dominates the wall clock. This operator removes
    the straggler deterministically:

    1. **Detect** — exact left-key histogram (``hot_keys``): map-side
       ``value_counts`` partials, one tiny groupby, keys with
       ``count >= hot_count``. Exact, layout-independent detection —
       no sampling nondeterminism.
    2. **Split** — both sides filter into hot / cold slices with one
       vectorized ``is_in`` each (row-local, no shuffle).
    3. **Join** — hot slice: :func:`broadcast_join` (the hot RIGHT
       rows are at most |hot keys| ≪ right, broadcast once; the hot
       left mass never shuffles at all). Cold slice:
       :func:`repartition_join`, now guaranteed bucket-balanced to
       ``< hot_count`` rows per key.
    4. **Union** — the two outputs share schema and the per-key join
       contract (duplicate right keys keep the last row), so the
       result equals the plain join on any layout.

    ``hot_count`` is the knob: set it near (rows / buckets·safety) so
    any key that would overwhelm one bucket goes the broadcast route.
    With no hot keys this degrades to exactly ``repartition_join``.

    ``hot`` (a list of key values) skips the detection pass — the
    caller often already holds the left-key histogram (any query
    whose right side IS that histogram, or a reused profile); at toy
    scale detection is a whole extra exchange, at 10^12 rows a whole
    extra corpus scan.
    """
    import pyarrow.compute as pc

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be inner|left|semi|anti, got {how!r}")

    if hot is None:
        hot = [r[on] for r in
               hot_keys(left, on, hot_count, n_buckets).take_all()]
    else:
        hot = [k for k in hot if k is not None]
    if not hot:
        return repartition_join(left, right, on, right_cols, how,
                                suffix, n_buckets)
    hot_arr = pa.array(hot)

    # The split consumes RIGHT twice (hot + cold slices) and LEFT
    # three times (detection + 2 slices). Datasets are lazy — each
    # consumer re-executes its full lineage, so a computed right side
    # (e.g. an aggregated dimension) would re-run its shuffle per
    # slice. Materialize right once: it is the lookup side of the
    # join contract (dimension-scale by definition). Left stays lazy:
    # its re-scans are pruned parquet reads, the standard trade vs
    # pinning the corpus in the object store.
    right = right.materialize()

    def _slice(want_hot: bool):
        def _fn(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch.column(on), value_set=hot_arr)
            if not want_hot:
                # NULL keys -> cold (they match nothing either way)
                mask = pc.invert(pc.fill_null(mask, False))
            else:
                mask = pc.fill_null(mask, False)
            return batch.filter(mask)
        return _fn

    left_hot = left.map_batches(_slice(True), batch_format="pyarrow")
    left_cold = left.map_batches(_slice(False), batch_format="pyarrow")
    right_hot = right.map_batches(_slice(True), batch_format="pyarrow")
    right_cold = right.map_batches(_slice(False), batch_format="pyarrow")

    res_hot = broadcast_join(left_hot, right_hot, on, right_cols,
                             how, suffix)
    res_cold = repartition_join(left_cold, right_cold, on, right_cols,
                                how, suffix, n_buckets)
    return res_hot.union(res_cold)


_BLOOM_MIX = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
              0x165667B19E3779F9, 0x27D4EB2F165667C5)


def _int_bit_indices(col, n_bits: int):
    """int64 key column → ``(n, 4)`` Bloom bit indices via four
    multiply-shift mixes — fully vectorized, no per-row hashing
    (the probe side is the HUGE side; an md5 per row there would be
    the hot cost). ``n_bits`` must be a power of two."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    v = pc.cast(col, pa.int64()).fill_null(0).to_numpy(
        zero_copy_only=False).astype(np.uint64)
    shift = np.uint64(64 - (n_bits.bit_length() - 1))
    out = np.empty((len(v), 4), np.int64)
    for j, c in enumerate(_BLOOM_MIX):
        out[:, j] = ((v * np.uint64(c)) >> shift).astype(np.int64)
    return out


def bloom_join(left, right, on: str, how: str = "inner",
               n_bits: int = 1 << 20, n_buckets: int = 32,
               fanin: int = 32):
    """Runtime-filter join: the Bloom-pushdown every warehouse
    applies when a SELECTIVE dimension side joins a huge fact side.

    1. one pass over ``right`` builds per-block partial bitmaps over
       its join keys, OR-folded through a log-depth repartition tree
       (the driver never holds one row per block);
    2. the bitmap ships to the object store ONCE (``ray.put``, read
       zero-copy per worker) and prefilters ``left`` AT SCAN SPEED —
       fact rows that cannot match never enter the shuffle;
    3. the survivors run the exact :func:`repartition_join`.

    No false negatives ⇒ exactness is preserved for every ``how``:
    ``inner``/``semi`` prefilter then join; ``anti`` splits — rows
    REJECTED by the bloom are definite anti-results emitted with
    zero join work, survivors take the exact anti join, and the two
    streams union. Integer keys only (vectorized multiply-shift bit
    indices); lookup-join semantics on duplicate right keys, like
    :func:`repartition_join`.
    """
    import ray
    import ray.data

    if n_bits & (n_bits - 1):
        raise ValueError("bloom_join: n_bits must be a power of two")
    if how not in ("inner", "semi", "anti"):
        raise ValueError(f"bloom_join: unsupported how={how!r}")

    nbytes = n_bits // 8

    def _partial(batch: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, np.uint8)
        idx = _int_bit_indices(batch.column(on), n_bits)
        np.bitwise_or.at(
            bm, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    right = right.materialize()
    # materialize: count() + the fold/iter below would otherwise each
    # re-execute the lazy partial pipeline from the source
    parts = right.select_columns([on]).map_batches(
        _partial, batch_format="pyarrow").materialize()

    def _fold(batch: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, np.uint8)
        for payload in batch.column("bm").to_pylist():
            np.bitwise_or(bm, np.frombuffer(payload, np.uint8),
                          out=bm)
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    while parts.count() > fanin:
        parts = parts.repartition(
            max(1, parts.count() // fanin)).map_batches(
            _fold, batch_format="pyarrow",
            batch_size=None).materialize()
    final = np.zeros(nbytes, np.uint8)
    for b in parts.iter_batches(batch_format="pyarrow",
                                batch_size=None):
        for payload in b.column("bm").to_pylist():
            np.bitwise_or(final, np.frombuffer(payload, np.uint8),
                          out=final)
    ref = ray.put(final)

    def _make_filter(keep_hits: bool):
        def _filt(batch: pa.Table) -> pa.Table:
            bm = ray.get(ref)
            idx = _int_bit_indices(batch.column(on), n_bits)
            hit = ((bm[idx >> 3] & (1 << (idx & 7))) != 0).all(axis=1)
            return batch.filter(pa.array(
                hit if keep_hits else ~hit))
        return _filt

    survivors = left.map_batches(_make_filter(True),
                                 batch_format="pyarrow")
    if how == "anti":
        definite = left.map_batches(_make_filter(False),
                                    batch_format="pyarrow")
        exact = repartition_join(survivors, right, on=on, how="anti",
                                 n_buckets=n_buckets)
        return definite.union(exact)
    return repartition_join(survivors, right, on=on, how=how,
                            n_buckets=n_buckets)
