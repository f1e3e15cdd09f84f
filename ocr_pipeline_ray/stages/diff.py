"""Keyed two-snapshot reconciliation (``snapshot_diff``).

The replication/migration audit companion to
``stats.table_checksum``: the checksum answers "are the two copies
equal?", this operator answers "WHICH keys differ, and how" —
added / removed / changed / unchanged per primary key between an
old and a new snapshot of the same table (the CDC / backfill-audit
primitive; reference analogue: the marker-file done/fail
reconciliation of SURVEY §2.1, generalized from files to rows).

Physical plan (scale-first):

* Row-local digest pass on each side: every row contributes
  ``(key, md5(sentinel-composite(compare_cols)), side)`` — the
  CONTENT never enters the exchange, only key + 15-hex digest +
  int8, regardless of how wide or heavy the compared columns are
  (a 100-TB text column diffs by shipping ~30 bytes/row).
* ONE co-shuffle of both sides by ``bucket_ids(key)`` (the engine's
  shared partitioning hash, so equal keys meet in one bucket by
  construction).
* Whole-bucket UDF: Arrow sort by (key, side) + numpy boundary
  masks classify every key group — never a per-key UDF. Digest
  equality stands in for value equality exactly like the checksum
  (md5 collision odds aside); NULL values are sentinel-encoded, so
  NULL == NULL (SQL ``IS NOT DISTINCT FROM`` semantics).

Keys must be unique within each snapshot (it is a PRIMARY-key
reconciliation); duplicates are detected inside the bucket UDF —
bucket-local detection IS global detection because equal keys
co-locate — and raise loudly rather than mis-classify.

``snapshot_diff`` returns one row per key ``(key, status)``;
``diff_summary`` folds that to one row of four counts with a
map-side partial combine (no second shuffle of key-scale rows).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_ids
from .setops import _row_keys

_STATUS = pa.array(["added", "removed", "changed", "unchanged"],
                   pa.string())


def _digest_side(key_col: str, compare_cols: List[str], side: int,
                 n_buckets: int):
    """Row-local projection to the (key, digest, side, bucket)
    exchange rows."""
    import hashlib

    def _fn(batch: pa.Table) -> pa.Table:
        composite = _row_keys(batch, list(compare_cols))
        digests = pa.array(
            [hashlib.md5(s.encode("utf-8")).hexdigest()[:15]
             for s in composite.to_pylist()],
            pa.string())
        key = batch.column(key_col)
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        return pa.table({
            "_k": key,
            "_d": digests,
            "_side": pa.array([side] * batch.num_rows, pa.int8()),
            "_bucket": pa.array(bucket_ids(key, n_buckets),
                                pa.int64()),
        })

    return _fn


def snapshot_diff(old_ds, new_ds, key_col: str,
                  compare_cols: List[str], n_buckets: int = 64):
    """One row per key present in either snapshot:
    ``(key_col, status)`` with status in
    added / removed / changed / unchanged."""

    tagged = old_ds.map_batches(
        _digest_side(key_col, compare_cols, 0, n_buckets),
        batch_format="pyarrow",
    ).union(new_ds.map_batches(
        _digest_side(key_col, compare_cols, 1, n_buckets),
        batch_format="pyarrow",
    ))

    def _bucket(group: pa.Table) -> pa.Table:
        tbl = group.combine_chunks().sort_by(
            [("_k", "ascending"), ("_side", "ascending")])
        if tbl.num_rows == 0:
            return pa.table({
                key_col: pa.array([], tbl.column("_k").type),
                "status": pa.array([], pa.string()),
            })
        k = tbl.column("_k").to_numpy(zero_copy_only=False)
        side = tbl.column("_side").to_numpy(zero_copy_only=False)
        dig = tbl.column("_d").to_numpy(zero_copy_only=False)
        same_key = k[1:] == k[:-1]
        if np.any(same_key & (side[1:] == side[:-1])):
            raise ValueError(
                "snapshot_diff: duplicate key within one snapshot "
                "side — reconciliation requires a primary key")
        starts = np.flatnonzero(np.concatenate(([True], ~same_key)))
        ends = np.concatenate((starts[1:], [len(k)]))
        has_old = side[starts] == 0
        has_new = side[ends - 1] == 1
        both = has_old & has_new
        changed = both & (dig[starts] != dig[ends - 1])
        # 0 added / 1 removed / 2 changed / 3 unchanged
        code = np.where(~has_old, 0,
                        np.where(~has_new, 1,
                                 np.where(changed, 2, 3)))
        return pa.table({
            key_col: tbl.column("_k").take(
                pa.array(starts, pa.int64())),
            "status": _STATUS.take(pa.array(code, pa.int64())),
        })

    return tagged.groupby("_bucket", num_partitions=n_buckets).map_groups(
        _bucket, batch_format="pyarrow")


def diff_summary(old_ds, new_ds, key_col: str,
                 compare_cols: List[str],
                 n_buckets: int = 64) -> pa.Table:
    """One row of corpus-wide reconciliation counts
    ``(n_added, n_removed, n_changed, n_unchanged)``: the per-key
    diff folded by a map-side partial count (int64 partials per
    block, driver folds blocks-scale rows — key-scale rows are
    never collected)."""
    rows = snapshot_diff(old_ds, new_ds, key_col, compare_cols,
                         n_buckets=n_buckets)

    def _partial(batch: pa.Table) -> pa.Table:
        s = batch.column("status")
        return pa.table({
            "a": pa.array([_count(s, "added")], pa.int64()),
            "r": pa.array([_count(s, "removed")], pa.int64()),
            "c": pa.array([_count(s, "changed")], pa.int64()),
            "u": pa.array([_count(s, "unchanged")], pa.int64()),
        })

    totals = np.zeros(4, dtype=np.int64)
    for b in rows.map_batches(
            _partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for i, c in enumerate(("a", "r", "c", "u")):
            v = pc.sum(b.column(c)).as_py()
            totals[i] += int(v or 0)
    return pa.table({
        "n_added": pa.array([int(totals[0])], pa.int64()),
        "n_removed": pa.array([int(totals[1])], pa.int64()),
        "n_changed": pa.array([int(totals[2])], pa.int64()),
        "n_unchanged": pa.array([int(totals[3])], pa.int64()),
    })


def _count(status: pa.ChunkedArray, label: str) -> int:
    return int(pc.sum(pc.cast(pc.equal(status, label),
                              pa.int64())).as_py() or 0)


def column_diff(old_ds, new_ds, key_col: str,
                compare_cols: List[str], n_buckets: int = 64):
    """COLUMN-granular reconciliation: for every key present in BOTH
    snapshots, list exactly which compared columns changed — the CDC
    attribution step after :func:`snapshot_diff` says "changed"
    (schema-drift audits, selective backfills that rewrite only the
    damaged columns).

    Same digest-projection scale contract: each side emits one
    ``(key, col, md5-15, side)`` row per key × column — content
    never enters the exchange, however heavy the column — then ONE
    key-hash co-shuffle and a whole-bucket sort + boundary-mask pass
    flags (key, col) pairs whose two sides disagree. Keys on only
    one side are added/removed rows (`snapshot_diff`'s business) and
    are skipped here. Output: ``(key_col, col)`` sorted upstream of
    the caller.
    """
    import hashlib

    def _explode_side(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            key = batch.column(key_col)
            if isinstance(key, pa.ChunkedArray):
                key = key.combine_chunks()
            n = batch.num_rows
            keys_out, cols_out, digs_out = [], [], []
            for c in compare_cols:
                composite = _row_keys(batch, [c])
                digs_out.extend(
                    hashlib.md5(s.encode("utf-8")).hexdigest()[:15]
                    for s in composite.to_pylist())
            key_np = key.to_numpy(zero_copy_only=False)
            keys_rep = np.tile(key_np, len(compare_cols))
            cols_rep = np.repeat(np.asarray(compare_cols), n)
            out_key = pa.array(keys_rep, pa.int64())
            return pa.table({
                "_k": out_key,
                "_c": pa.array(cols_rep, pa.string()),
                "_d": pa.array(digs_out, pa.string()),
                "_side": pa.array(
                    np.full(n * len(compare_cols), side, np.int8)),
                "_bucket": pa.array(bucket_ids(out_key, n_buckets),
                                    pa.int64()),
            })
        return _fn

    tagged = old_ds.map_batches(
        _explode_side(0), batch_format="pyarrow"
    ).union(new_ds.map_batches(
        _explode_side(1), batch_format="pyarrow"))

    def _bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({
            key_col: pa.array([], pa.int64()),
            "col": pa.array([], pa.string())})
        if group.num_rows == 0:
            return empty
        t = group.combine_chunks().sort_by(
            [("_k", "ascending"), ("_c", "ascending"),
             ("_side", "ascending")])
        k = t.column("_k").to_numpy(zero_copy_only=False)
        c = np.asarray(t.column("_c").to_pylist())
        d = np.asarray(t.column("_d").to_pylist())
        side = t.column("_side").to_numpy(zero_copy_only=False)
        if len(k) < 2:
            return empty
        pair = (k[1:] == k[:-1]) & (c[1:] == c[:-1])
        if np.any(pair & (side[1:] == side[:-1])):
            raise ValueError(
                "column_diff: duplicate key within one snapshot "
                "side — reconciliation requires a primary key")
        changed = pair & (d[1:] != d[:-1])
        idx = np.flatnonzero(changed)
        return pa.table({
            key_col: pa.array(k[idx], pa.int64()),
            "col": pa.array(c[idx], pa.string()),
        })

    return (
        tagged.groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket, batch_format="pyarrow")
    )
