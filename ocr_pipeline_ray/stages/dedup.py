"""Deduplication operators: exact first-wins dedup and the per-key
cap, plus the shingling, fingerprint and broadcast helpers other
families call (n-gram novelty, overlap, the LM scorer).

Scale shape (10^12-row design notes):

* Exact dedup hash-partitions on the key — the ONE shuffle — then
  keeps the first row per group (D1 first-wins semantics of the
  reference's ``ocr_pipeline.py:335``).
* Hash functions are md5-based so the DuckDB oracle can reproduce
  them exactly (md5 hex strings compare lexicographically the same
  in Python and SQL).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc


def _md5(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- exact

def fingerprint_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``fp`` = md5(text) (hex) — the exact-dedup key."""
    texts = batch.column(text_col).to_pylist()
    fps = [_md5(t or "") for t in texts]
    return batch.append_column("fp", pa.array(fps, pa.string()))


def dedup_first(ds, key_col: str = "url", order_col="warc_ts",
                n_buckets: int = 128):
    """Keep one full row per key: the minimum ``order_col`` wins.

    The engine's D1 keep-one-row analogue for duplicate urls
    (first-wins, `/root/reference/ocr_pipeline.py:335`). ONE shuffle
    of full rows, hash-partitioned by ``bucket_ids(key)`` —
    NOT by the key itself: a groupby on the raw key invokes the UDF
    once per key (millions of 1-2-row Python calls at 10^12 keys).
    Here each whole-bucket UDF does a single Arrow
    ``sort_by([(key, asc), (order, asc)])`` plus a vectorized
    key-boundary mask, so the per-key cost is one numpy comparison.

    ``order_col`` may be a string or a list of strings; ties beyond
    the given order columns are broken arbitrarily — pass enough
    columns to make the winner unique when determinism matters.
    """
    import numpy as np

    order_cols = [order_col] if isinstance(order_col, str) else list(order_col)

    from ..functions.hashing import bucket_ids

    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = bucket_ids(batch.column(key_col), n_buckets)
        return batch.append_column("_kbucket", pa.array(buckets, pa.int64()))

    sort_keys = [(key_col, "ascending")] + [
        (c, "ascending") for c in order_cols
    ]

    def _first_per_key(group: pa.Table) -> pa.Table:
        g = group.sort_by(sort_keys)
        n = g.num_rows
        if n == 0:
            return g.drop_columns(["_kbucket"])
        keys = g.column(key_col)
        # row i survives iff it starts a new key run in the sorted view
        neq = pc.fill_null(
            pc.not_equal(keys.slice(1, n - 1), keys.slice(0, n - 1)), True
        )
        mask = np.empty(n, dtype=bool)
        mask[0] = True
        mask[1:] = neq.to_numpy(zero_copy_only=False)
        return g.filter(pa.array(mask)).drop_columns(["_kbucket"])

    return (
        ds.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("_kbucket", num_partitions=n_buckets)
        .map_groups(_first_per_key, batch_format="pyarrow")
    )


def group_cap(ds, key_col: str, order_col="doc_id", k: int = 1,
              n_buckets: int = 128, descending: bool = False):
    """Keep at most ``k`` rows per key — the domain-balancing gate
    ("at most K pages per host"), CCNet/C4 style.

    Generalizes :func:`dedup_first` (k=1) with the same scale shape:
    ONE shuffle hash-partitioned by ``bucket_ids(key)`` — never a
    groupby on the raw key — then each whole-bucket UDF does a single
    Arrow sort by (key, order...) and a vectorized within-run rank
    mask. Per-key cost is one numpy comparison regardless of key
    count; the hot key's rows all land in one bucket, which bounds
    that bucket's sort, not the shuffle.

    Winners are the k smallest by ``order_col`` (string or list;
    pass enough columns for a unique order when determinism matters).
    ``descending=True`` flips every order column — "keep the LATEST
    k snapshots per url", the crawl-store retention policy.
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    order_cols = [order_col] if isinstance(order_col, str) \
        else list(order_col)

    from ..functions.hashing import bucket_ids

    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = bucket_ids(batch.column(key_col), n_buckets)
        return batch.append_column(
            "_kbucket", pa.array(buckets, pa.int64()))

    direction = "descending" if descending else "ascending"
    sort_keys = [(key_col, "ascending")] + [
        (c, direction) for c in order_cols
    ]

    def _cap_per_key(group: pa.Table) -> pa.Table:
        g = group.sort_by(sort_keys)
        n = g.num_rows
        if n == 0:
            return g.drop_columns(["_kbucket"])
        keys = g.column(key_col)
        neq = pc.fill_null(
            pc.not_equal(keys.slice(1, n - 1), keys.slice(0, n - 1)),
            True,
        )
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = neq.to_numpy(zero_copy_only=False)
        start_idx = np.flatnonzero(starts)
        # within-key rank = position minus the run's start position
        rank = np.arange(n, dtype=np.int64) - np.repeat(
            start_idx,
            np.diff(np.concatenate((start_idx, [n]))),
        )
        return g.filter(pa.array(rank < k)).drop_columns(["_kbucket"])

    return (
        ds.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("_kbucket", num_partitions=n_buckets)
        .map_groups(_cap_per_key, batch_format="pyarrow")
    )


# ------------------------------------------------------------ shingles

def shingles(tokens: List[str], k: int = 3) -> List[str]:
    return [
        " ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)
    ] if len(tokens) >= k else []


# per-worker-process cache for broadcast objects (workers persist
# across tasks; deserialize from the object store once per worker,
# not once per batch)
_BROADCAST_CACHE: Dict[str, object] = {}


def _cached_get(ref):
    """ray.get memoized per worker process (keyed by the ref id)."""
    import ray

    key = ref.hex()
    if key not in _BROADCAST_CACHE:
        if len(_BROADCAST_CACHE) > 8:
            _BROADCAST_CACHE.clear()
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def doc_novelty(ds, id_col: str = "doc_id", text_col: str = "text",
                k: int = 3, n_buckets: int = 64):
    """Per-document n-gram NOVELTY: the fraction of a doc's distinct
    k-shingles that occur in NO other document — the
    memorization/novelty signal a training-data pipeline reads next
    to the dedup verdicts (a doc of df-1 shingles is fresh content;
    a doc of high-df shingles is template/boilerplate).

    Physical plan: per-doc DISTINCT shingles explode map-side into
    ``(shingle, doc)`` rows, ONE shingle-hash co-shuffle; each
    whole-bucket UDF reads global df off the sorted run length
    (distinct-per-doc rows make run length = document frequency) and
    pre-combines per-doc (unique, total) partials, so the second
    exchange — a doc-hash bucketed whole-bucket combine, not a
    per-key aggregate — carries docs-per-bucket rows, not shingles.
    Output: ``(doc_id, n_unique, n_shingles, novelty·round6)``; docs
    with fewer than k tokens have no shingles and are omitted (the
    SQL twin's join drops them too).
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    def _explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_s, out_d = [], []
        for rid, t in zip(ids, texts):
            for s in set(shingles((t or "").split(" "), k)):
                out_s.append(s)
                out_d.append(rid)
        sh_arr = pa.array(out_s, pa.string())
        return pa.table({
            "s": sh_arr,
            "d": pa.array(out_d, pa.int64()),
            "_bucket": pa.array(bucket_ids(sh_arr, n_buckets),
                                pa.int64()),
        })

    def _bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "d": pa.array([], pa.int64()),
            "nu": pa.array([], pa.int64()),
            "nt": pa.array([], pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        g = group.sort_by([("s", "ascending")])
        s = g.column("s").to_numpy(zero_copy_only=False)
        d = g.column("d").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate(([True], s[1:] != s[:-1])))
        lens = np.diff(np.append(starts, len(s)))
        df = np.repeat(lens, lens)
        uniq_docs, inv = np.unique(d, return_inverse=True)
        nu = np.zeros(len(uniq_docs), dtype=np.int64)
        np.add.at(nu, inv, (df == 1).astype(np.int64))
        nt = np.bincount(inv, minlength=len(uniq_docs))
        return pa.table({
            "d": pa.array(uniq_docs, pa.int64()),
            "nu": pa.array(nu, pa.int64()),
            "nt": pa.array(nt.astype(np.int64), pa.int64()),
            "_dbucket": pa.array(uniq_docs % n_buckets, pa.int64()),
        })

    def _combine(group: pa.Table) -> pa.Table:
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "n_unique": pa.array([], pa.int64()),
            "n_shingles": pa.array([], pa.int64()),
            "novelty": pa.array([], pa.float64()),
        })
        if group.num_rows == 0:
            return empty
        d = group.column("d").to_numpy(zero_copy_only=False)
        uniq_docs, inv = np.unique(d, return_inverse=True)
        nu = np.bincount(
            inv, weights=group.column("nu").to_numpy(
                zero_copy_only=False)).astype(np.int64)
        nt = np.bincount(
            inv, weights=group.column("nt").to_numpy(
                zero_copy_only=False)).astype(np.int64)
        nov = np.floor(nu / nt * 1e6 + 0.5) / 1e6
        return pa.table({
            id_col: pa.array(uniq_docs, pa.int64()),
            "n_unique": pa.array(nu, pa.int64()),
            "n_shingles": pa.array(nt, pa.int64()),
            "novelty": pa.array(nov, pa.float64()),
        })

    partials = ds.map_batches(
        _explode, batch_format="pyarrow"
    ).groupby("_bucket", num_partitions=n_buckets).map_groups(
        _bucket, batch_format="pyarrow")
    return partials.groupby(
        "_dbucket", num_partitions=max(8, n_buckets // 4)
    ).map_groups(_combine, batch_format="pyarrow")
