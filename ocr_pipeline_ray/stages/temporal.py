"""Temporal operators over keyed, ordered rows: last-observation-
carried-forward fill and type-2 slowly-changing-dimension intervals.

The reference is strictly batch (SURVEY.md §2.9 — no windows exist);
``locf_fill`` and ``scd2_intervals`` back the storage queries
(``locf_fill``, ``scd2_build``) and ship with DuckDB oracles. Both
use the engine's standard skew-safe layout: ONE shuffle,
hash-partitioned by ``bucket_ids(key) % n_buckets`` (never a per-key
groupby — that is one Python UDF call per user/type), then a single
Arrow sort + vectorized numpy segment math inside each whole-bucket
UDF.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _bucket_by(ds, key_col: str, n_buckets: int):
    from ..functions.hashing import bucket_ids

    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = bucket_ids(batch.column(key_col), n_buckets)
        return batch.append_column("_kbucket", pa.array(buckets, pa.int64()))

    return ds.map_batches(_bucketize, batch_format="pyarrow")


def locf_fill(ds, key_col: str, order_cols: List[str], val_col: str,
              n_buckets: int = 64):
    """Last-observation-carried-forward gap fill — the SQL window
    ``last_value(val IGNORE NULLS) OVER (PARTITION BY key ORDER BY
    order_cols ROWS UNBOUNDED PRECEDING)`` (the time-series backfill
    / sensor-gap operator; pass a tiebreaker in ``order_cols`` so
    the order is total and the fill deterministic).

    Standard skew-safe layout: ONE hash shuffle by
    ``bucket_ids(key)``, whole-bucket Arrow sort by
    ``(key, *order_cols)``, then a fully vectorized fill — no
    per-key loop at all: ``np.maximum.accumulate`` over
    valid-positions gives each row its most recent non-null index,
    and comparing that against the row's own segment start keeps
    the carry from leaking across keys. The filled value is produced
    by Arrow ``take`` (null index -> null), so it works for ANY
    value type and floats pass through BIT-EXACT (no arithmetic).
    Leading nulls within a key stay null, like the SQL window.
    """
    import pyarrow.compute as pc

    from ..functions.segments import key_segments

    def _fill(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_kbucket"])
        if group.num_rows == 0:
            return base
        sort_keys = [(key_col, "ascending")] + [
            (c, "ascending") for c in order_cols
        ]
        g = base.sort_by(sort_keys)
        n = g.num_rows
        col = g.column(val_col).combine_chunks()
        valid = np.zeros(n, dtype=bool)
        valid_mask = pc.is_valid(col)
        valid[:] = valid_mask.to_numpy(zero_copy_only=False)
        pos = np.arange(n, dtype=np.int64)
        last_valid = np.maximum.accumulate(np.where(valid, pos, -1))
        keys = g.column(key_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        seg_start, seg_len = key_segments(keys)
        own_start = np.repeat(seg_start, seg_len)
        ok = last_valid >= own_start
        idx = pa.array(
            np.where(ok, last_valid, 0),
            pa.int64(),
            mask=~ok,          # null index -> null output
        )
        filled = col.take(idx)
        return g.set_column(
            g.schema.get_field_index(val_col), val_col, filled)

    bucketed = _bucket_by(ds, key_col, n_buckets)
    return bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_fill, batch_format="pyarrow")


def scd2_intervals(ds, user_col: str = "user_id", ts_col: str = "ts",
                   attr_col: str = "event_type",
                   order_col: str = "event_id", n_buckets: int = 64):
    """Type-2 slowly-changing-dimension history build (the CDC
    compaction): per key, collapse CONSECUTIVE runs of an equal
    attribute value into validity intervals ``(user, attr,
    valid_from, valid_to)`` — ``valid_from`` is the run's first
    event time, ``valid_to`` the next run's first event time (NULL
    for the current value). Events order by ``(ts, order_col)``
    within a key; a value that recurs after an interruption opens a
    NEW interval (true SCD2, not a distinct list).

    Same skew-safe layout as every keyed window here: ONE user-hash
    co-shuffle, then per whole bucket a single Arrow sort + two
    boundary masks (key change | attr change) and a shifted take for
    ``valid_to`` — no per-key loop.
    """
    import pyarrow.compute as pc

    def _runs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            user_col: pa.array([], pa.int64()),
            attr_col: pa.array([], pa.string()),
            "valid_from": pa.array([], pa.timestamp("us")),
            "valid_to": pa.array([], pa.timestamp("us")),
        })
        if group.num_rows == 0:
            return empty
        g = group.sort_by([(user_col, "ascending"),
                           (ts_col, "ascending"),
                           (order_col, "ascending")])
        users = g.column(user_col).combine_chunks().to_numpy()
        attrs = pc.dictionary_encode(
            g.column(attr_col).combine_chunks()
        ).indices.to_numpy(zero_copy_only=False)
        new_run = np.ones(len(users), dtype=bool)
        new_run[1:] = (users[1:] != users[:-1]) | (attrs[1:] != attrs[:-1])
        starts = np.flatnonzero(new_run)
        # next run's start within the same user, else null
        nxt = np.concatenate([starts[1:], [-1]])
        same_user = np.zeros(len(starts), dtype=bool)
        if len(starts) > 1:
            same_user[:-1] = users[starts[1:]] == users[starts[:-1]]
        ts = g.column(ts_col).combine_chunks()
        valid_to = ts.take(pa.array(
            np.where(same_user, nxt, 0), pa.int64()))
        valid_to = pc.if_else(pa.array(same_user), valid_to,
                              pa.scalar(None, ts.type))
        idx = pa.array(starts, pa.int64())
        return pa.table({
            user_col: g.column(user_col).take(idx),
            attr_col: g.column(attr_col).take(idx),
            "valid_from": ts.take(idx),
            "valid_to": valid_to,
        })

    bucketed = _bucket_by(
        ds.select_columns([user_col, ts_col, order_col, attr_col]),
        user_col, n_buckets,
    )
    return bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_runs, batch_format="pyarrow")
