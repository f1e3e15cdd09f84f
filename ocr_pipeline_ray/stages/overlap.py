"""Cross-source contamination audit: distinct-shingle overlap matrix.

This module answers a governance question above any per-document
n-gram check: **how much do the corpus's data sources overlap each
other** — the pairwise count of distinct k-token
shingles shared by every pair of sources. That matrix is what decides
"drop source B, it is 90% contained in A" before any per-document
dedup runs.

Physical plan (never materializes a shingle list on the driver):

1. One corpus pass: per batch, a dict ``shingle -> source-bitmask``
   (map-side combine — duplicate shingles within the batch collapse
   before the exchange). Sources are mapped to bit positions via a
   tiny driver-side ``unique`` over the group column (≤ 63 groups —
   a pair MATRIX is only meaningful for small group counts; raises
   otherwise).
2. ONE ``groupby(crc32(shingle) % n_buckets)`` exchange of
   ``(shingle, mask)`` rows; each whole-bucket UDF ORs the masks per
   shingle (sort + ``np.bitwise_or.reduceat`` — no per-key UDF) and
   emits ``(mask, count)`` partials: the bucket's output is at most
   #distinct-masks rows, regardless of shingle count.
3. The driver merges the per-bucket ``(mask, count)`` partials
   (≤ buckets × distinct-combinations rows) and expands each mask
   into the source pairs it contains (``mask ⊇ {a,b}`` ⇒ the
   shingle counts toward pair (a,b)) — no second shuffle.

Shuffle volume = the deduped shingle set, once; the reduction output
is bounded by the number of DISTINCT source combinations, not by
corpus size. At 10^12 docs the exchange is the inherent cost of
global distinctness.

Reference analogue: none (the reference has no multi-source
governance); this extends the dedup family of SURVEY.md §2.7.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_ids
from .dedup import shingles


def source_overlap(
    ds,
    group_col: str = "source",
    text_col: str = "text",
    k: int = 3,
    n_buckets: int = 64,
    groups: Optional[List[str]] = None,
) -> pa.Table:
    """Pairwise distinct-shingle overlap counts between groups.

    Returns a small ``pa.Table`` ``(source_a, source_b, n_shared)``
    — one row per unordered group pair (``source_a < source_b``)
    sharing at least one distinct k-token shingle, sorted by pair.
    Rows with a NULL group or NULL text contribute nothing.

    Pass ``groups`` (the distinct group values) when known up front
    — it skips the discovery pass. Otherwise one COLUMN-PRUNED scan
    of ``group_col`` collects per-block uniques (blocks × groups
    rows on the driver — bounded, never the column itself).
    """
    if groups is None:
        def _block_uniques(batch: pa.Table) -> pa.Table:
            return pa.table({
                "g": pc.unique(batch.column(group_col)),
            })

        seen = set()
        for t in ds.select_columns([group_col]).map_batches(
            _block_uniques, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            seen.update(t.column("g").to_pylist())
        groups = [g for g in seen if g is not None]
    groups = sorted(groups)
    if len(groups) > 63:
        raise ValueError(
            f"source_overlap: {len(groups)} groups — the pair matrix "
            "is meaningful (and the int64 bitmask valid) only for "
            "<= 63 groups; pre-aggregate the group column first")
    bit_of: Dict[str, int] = {g: 1 << i for i, g in enumerate(groups)}

    def _shingle_masks(batch: pa.Table) -> pa.Table:
        local: Dict[str, int] = {}
        texts = batch.column(text_col).to_pylist()
        grps = batch.column(group_col).to_pylist()
        for text, g in zip(texts, grps):
            if text is None or g is None:
                continue
            bit = bit_of[g]
            for s in shingles(text.split(" "), k):
                local[s] = local.get(s, 0) | bit
        sh = pa.array(list(local.keys()), pa.string())
        return pa.table({
            "s": sh,
            "mask": pa.array(list(local.values()), pa.int64()),
            "_bucket": pa.array(bucket_ids(sh, n_buckets), pa.int64()),
        })

    def _bucket_partials(group: pa.Table) -> pa.Table:
        tbl = group.select(["s", "mask"]).combine_chunks().sort_by(
            [("s", "ascending")])
        s = tbl.column("s").to_numpy(zero_copy_only=False)
        masks = tbl.column("mask").to_numpy(zero_copy_only=False)
        if len(s) == 0:
            return pa.table({"mask": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        starts = np.flatnonzero(
            np.concatenate(([True], s[1:] != s[:-1])))
        per_shingle = np.bitwise_or.reduceat(masks, starts)
        uniq, counts = np.unique(per_shingle, return_counts=True)
        return pa.table({
            "mask": pa.array(uniq, pa.int64()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    mask_partials = (
        ds.map_batches(_shingle_masks, batch_format="pyarrow")
        .groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket_partials, batch_format="pyarrow")
    )
    # driver merges the per-bucket (mask, count) partials directly:
    # <= n_buckets × #distinct-combinations rows — no second shuffle
    mask_n: Dict[int, int] = {}
    for t in mask_partials.iter_batches(batch_format="pyarrow",
                                        batch_size=None):
        for mask, n in zip(t.column("mask").to_pylist(),
                           t.column("n").to_pylist()):
            mask_n[mask] = mask_n.get(mask, 0) + n
    pair_n: Dict[tuple, int] = {}
    for mask, n in mask_n.items():
        members = [g for g in groups if mask & bit_of[g]]
        for a, b in combinations(members, 2):
            pair_n[(a, b)] = pair_n.get((a, b), 0) + n
    pairs = sorted(pair_n)
    return pa.table({
        "source_a": pa.array([p[0] for p in pairs], pa.string()),
        "source_b": pa.array([p[1] for p in pairs], pa.string()),
        "n_shared": pa.array([pair_n[p] for p in pairs], pa.int64()),
    })
