"""Repartition join: the bucketed co-shuffle lookup join.

The reference has no joins (SURVEY.md §2.4), but its engine recast
needs them for the wider training-data workload (incremental dedup,
n-gram model lookups, enrichment). :func:`repartition_join` makes no
memory assumption: both sides are co-shuffled by
``bucket_ids(key) % n_buckets`` (vectorized numpy mix for integer
keys, crc32 for strings) through a union + ONE groupby, and each
whole-bucket UDF builds a dict of the right side and probes the left
(never a per-key group). Shuffle volume = both sides, once.

It is an inner join by default; ``how="left"`` keeps unmatched left
rows with nulls. It is a LOOKUP join — duplicate right keys keep the
last row (dimension-table semantics).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_ids


def repartition_join(left, right, on: str,
                     right_cols: Optional[List[str]] = None,
                     how: str = "inner", suffix: str = "_r",
                     n_buckets: int = 64):
    """Large-large join: co-shuffle both sides by a key-hash bucket.

    Union + one groupby on the bucket; each whole-bucket UDF builds a
    dict of its right-side rows and probes its left-side rows — one
    UDF call per bucket, not per key. Duplicate right keys keep the
    last row.

    ``how="semi"`` / ``"anti"`` keep / drop left rows by key
    existence in ``right`` (no right columns in the output; NULL
    left keys match nothing — SQL ``EXISTS`` semantics). This is
    the no-memory-assumption membership filter.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be inner|left|semi|anti, got {how!r}")
    left_schema = left.schema()
    if left_schema is None:
        # empty schemaless left: the join output is empty for every
        # join type this operator supports
        return left
    if right.schema() is None:
        # empty schemaless right: anti keeps everything, inner/semi
        # keep nothing; a left join needs right column types, which
        # don't exist here
        if how == "anti":
            return left
        if how in ("inner", "semi"):
            return left.limit(0)
        raise ValueError(
            "left join against an empty schemaless right dataset: "
            "right column types are unknown")
    left_cols = list(left_schema.names)
    left_types = {n: t for n, t in zip(left_schema.names,
                                       left_schema.types)}
    right_schema = right.schema()
    if how in ("semi", "anti"):
        right_cols = []
    cols = right_cols if right_cols is not None else [
        c for c in right_schema.names if c != on
    ]
    right_types = {n: t for n, t in zip(right_schema.names,
                                        right_schema.types)}
    out_names = left_cols + [
        (c if c not in left_cols else c + suffix) for c in cols
    ]
    key_type = left_types[on]

    # union schema: bucket, side, key, then nullable payloads of both
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

    def _join_bucket(group: pa.Table) -> pa.Table:
        """Vectorized hash probe: dictionary-encode the bucket's key
        column once (shared codes across both sides), resolve each
        code's LAST right row with one fancy assignment, then gather
        both sides with Arrow ``take`` — C-speed and type-exact, no
        per-row Python."""
        import numpy as np
        import pyarrow.compute as pc

        sides = group.column("_side").combine_chunks().to_numpy()
        # fill_null(-1): a NULL key gets code -1 and matches NOTHING
        # (SQL join semantics; an unguarded null index would wrap to
        # INT64_MIN and crash the probe)
        codes = pc.dictionary_encode(
            group.column(on).combine_chunks()
        ).indices.fill_null(-1).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_codes = int(codes.max()) + 1 if len(codes) else 0
        left_sel = np.flatnonzero(sides == 0)
        right_sel = np.flatnonzero((sides == 1) & (codes >= 0))
        # duplicate right keys: later assignment wins == last row
        last_right = np.full(max(n_codes, 1), -1, dtype=np.int64)
        last_right[codes[right_sel]] = right_sel
        lcodes = codes[left_sel]
        match = np.where(
            lcodes >= 0, last_right[np.maximum(lcodes, 0)], -1
        ) if len(left_sel) else np.empty(0, dtype=np.int64)
        if how == "inner":
            keep = match >= 0
            left_sel, match = left_sel[keep], match[keep]
        elif how == "semi":
            left_sel = left_sel[match >= 0]
        elif how == "anti":
            left_sel = left_sel[match < 0]
        left_rows = group.take(pa.array(left_sel, pa.int64()))
        if how in ("semi", "anti"):
            return pa.table({
                name: (left_rows.column(on) if name == on
                       else left_rows.column(f"_l_{name}"))
                for name in left_cols
            })
        right_rows = group.take(
            pa.array(match, pa.int64(), mask=match < 0)
        )
        arrays = []
        for name in out_names:
            if name in left_cols:
                col = (left_rows.column(on) if name == on
                       else left_rows.column(f"_l_{name}"))
            else:
                src = name[:-len(suffix)] if name not in cols else name
                col = right_rows.column(f"_r_{src}")
            arrays.append(col)
        return pa.table(dict(zip(out_names, arrays)))

    return tagged_left.union(tagged_right).groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(
        _join_bucket, batch_format="pyarrow"
    )


