"""Join operators: broadcast hash join + bucketed repartition join.

The reference has no joins (SURVEY.md §2.4), but its engine recast
needs them as first-class tools for the wider training-data workload
(enrichment lookups, candidate verification, star-schema rollups).
Two strategies, mirroring the shapes already proven inside the
jaccard verifier (`stages/dedup.jaccard_dup_pairs`):

* :func:`broadcast_join` — the small side is materialized ONCE into
  the object store (``ray.put``), deserialized once per worker
  process (cached), and dict-joined inside ``map_batches``. Zero
  shuffles; right whenever one side fits in a worker's heap. This is
  the 100-TB default for dimension/lookup tables.
* :func:`repartition_join` — no memory assumption: both sides are
  co-shuffled by ``bucket_ids(key) % n_buckets`` (vectorized numpy
  mix for integer keys, crc32 for strings) through a union + ONE
  groupby, and each whole-bucket UDF builds a dict of the right side
  and probes the left (never a per-key group). Shuffle volume = both
  sides, once.

Both are inner joins by default; ``how="left"`` keeps unmatched left
rows with nulls.

Both strategies are LOOKUP joins — duplicate right keys keep the
last row (dimension-table semantics). :func:`adaptive_join` picks
one of them from a measured right-side row count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_ids

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


def repartition_join(left, right, on: str,
                     right_cols: Optional[List[str]] = None,
                     how: str = "inner", suffix: str = "_r",
                     n_buckets: int = 64):
    """Large-large join: co-shuffle both sides by a key-hash bucket.

    Union + one groupby on the bucket; each whole-bucket UDF builds a
    dict of its right-side rows and probes its left-side rows — one
    UDF call per bucket, not per key. Duplicate right keys keep the
    last row (same contract as :func:`broadcast_join`).

    ``how="semi"`` / ``"anti"`` keep / drop left rows by key
    existence in ``right`` (no right columns in the output; NULL
    left keys match nothing — SQL ``EXISTS`` semantics). This is
    the no-memory-assumption membership filter; prefer
    :func:`broadcast_join` semi/anti when the right key set fits a
    worker.
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


def adaptive_join(left, right, on: str,
                  right_cols: Optional[List[str]] = None,
                  how: str = "inner", suffix: str = "_r",
                  broadcast_limit_rows: int = 2_000_000,
                  n_buckets: int = 64):
    """ADAPTIVE physical join planning — the engine's broadcast-vs-
    shuffle decision made from a measured right-side row count
    instead of a hand-picked operator (the AQE join-strategy
    switch).

    ``right.count()`` is a metadata fold for un-transformed reads
    (parquet footers; no data moves) and a one-pass projection
    otherwise — cheap relative to mis-planning a join: broadcasting
    a 10^9-row dimension OOMs every worker, while shuffling a
    100-row dimension pays a full left-side exchange for nothing.
    At or under ``broadcast_limit_rows`` the right side ships once
    via the object store (:func:`broadcast_join`, left side never
    shuffles); above it both sides co-shuffle
    (:func:`repartition_join`). The choice CANNOT change values —
    both operators implement the same join contract (duplicate
    right keys keep the last row; NULL keys match nothing).

    Returns ``(joined, strategy)`` with strategy one of
    ``"broadcast" | "shuffle"`` so callers (and audits) can pin the
    plan that actually ran.
    """
    # materialize BEFORE counting: count() on a lazy transformed
    # dataset executes its whole plan, and the join would then
    # execute it a second time — materialized, the count is a
    # metadata fold and the join reuses the cached blocks
    right = right.materialize()
    n_right = right.count()
    if n_right <= broadcast_limit_rows:
        return broadcast_join(left, right, on, right_cols=right_cols,
                              how=how, suffix=suffix), "broadcast"
    return repartition_join(left, right, on, right_cols=right_cols,
                            how=how, suffix=suffix,
                            n_buckets=n_buckets), "shuffle"
