"""Relational set operators: ``EXCEPT`` / ``INTERSECT`` / ``UNION`` (DISTINCT).

The reference has no set ops (SURVEY.md §2.7) and the join family
covers KEY-based existence (semi/anti); these are the WHOLE-ROW,
duplicate-eliminating twins — "which (lang, source) combinations
exist in yesterday's snapshot but not today's" — where SQL's
``EXCEPT`` / ``INTERSECT`` semantics (set, not bag) are what the
audit actually wants.

Physical plan: both sides are tagged and co-shuffled ONCE by a
bucket of the composite row key (every column, null-sentinel
encoded — `stats._composite_key`, the null-safe composite grouping
key); each whole-bucket UDF sorts its rows by the composite
key, collapses duplicates with a boundary mask, and keeps the
distinct rows satisfying the membership predicate (EXCEPT: left
present, right absent; INTERSECT: both present). Output is bounded
by the distinct-row count; shuffle volume = both sides, once. Rows
with the same values land in the same bucket by construction, so
distinctness is global. SQL NULL semantics: set ops treat NULLs as
EQUAL (unlike joins) — the sentinel encoding preserves that.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_ids

# unit-separator sentinel pair: no real text column contains \x1f/\x1e
_SEP = "\x1f"
_NULL = "\x1e"


def _row_keys(batch: pa.Table, cols: List[str]) -> pa.Array:
    """Composite null-safe row-key string (vectorized)."""
    parts = []
    for c in cols:
        arr = batch.column(c)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        s = pc.fill_null(pc.cast(arr, pa.string()), _NULL)
        parts.append(s)
        parts.append(_SEP)
    if not parts:
        raise ValueError("set op over zero columns")
    return pc.binary_join_element_wise(*parts, "")


def _setop(left, right, op: str, n_buckets: int):
    schema = left.schema()
    cols = list(schema.names)
    rs = right.schema()
    if list(rs.names) != cols or list(rs.types) != list(schema.types):
        raise ValueError(
            f"set op requires identical schemas; left={schema} right={rs}")

    def _tag(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            keys = _row_keys(batch, cols)
            return batch.append_column(
                "_rk", keys
            ).append_column(
                "_side", pa.array([side] * batch.num_rows, pa.int32())
            ).append_column(
                "_bucket", pa.array(bucket_ids(keys, n_buckets),
                                    pa.int64())
            )
        return _fn

    tagged = left.map_batches(_tag(0), batch_format="pyarrow").union(
        right.map_batches(_tag(1), batch_format="pyarrow"))

    def _bucket(group: pa.Table) -> pa.Table:
        tbl = group.combine_chunks().sort_by(
            [("_rk", "ascending"), ("_side", "ascending")])
        rk = tbl.column("_rk").to_numpy(zero_copy_only=False)
        sides = tbl.column("_side").to_numpy(zero_copy_only=False)
        if len(rk) == 0:
            return tbl.select(cols)
        starts = np.flatnonzero(
            np.concatenate(([True], rk[1:] != rk[:-1])))
        ends = np.concatenate((starts[1:], [len(rk)]))
        has_left = sides[starts] == 0           # sorted: left first
        has_right = sides[ends - 1] == 1
        if op == "except":
            keep = has_left & ~has_right
        elif op == "intersect":
            keep = has_left & has_right
        else:                                   # union
            keep = np.ones(len(starts), dtype=bool)
        return tbl.take(
            pa.array(starts[keep], pa.int64())).select(cols)

    return tagged.groupby("_bucket", num_partitions=n_buckets).map_groups(
        _bucket, batch_format="pyarrow")


def except_distinct(left, right, n_buckets: int = 64):
    """SQL ``left EXCEPT right``: distinct left rows absent from
    ``right`` (whole-row equality, NULLs equal)."""
    return _setop(left, right, "except", n_buckets)


def intersect_distinct(left, right, n_buckets: int = 64):
    """SQL ``left INTERSECT right``: distinct rows present on both
    sides (whole-row equality, NULLs equal)."""
    return _setop(left, right, "intersect", n_buckets)


def union_distinct(left, right, n_buckets: int = 64):
    """SQL ``left UNION right`` (DISTINCT): every distinct row of
    either side, once — completes the set-op family on the same
    one-co-shuffle kernel (the kept row is each group's first in
    (row-key, side) order, so values come from the left copy when
    both sides have one; whole-row equality, NULLs equal)."""
    return _setop(left, right, "union", n_buckets)
