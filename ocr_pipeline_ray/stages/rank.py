"""Global rank assignment: distributed ``ROW_NUMBER`` / ``NTILE``.

The reference sorts its corpus report ascending by quality ratio
(`/root/reference/ocr_pipeline.py:238`) but never *numbers* the rows;
a training-data pipeline needs the numbering itself — "keep the
bottom-decile documents", "assign each doc its global quality
percentile bucket", curriculum ordering. This module provides the
window function as a first-class distributed operator:

* :func:`global_rank` — ``row_number() OVER (ORDER BY order_cols)``
  as an int64 ``rank`` column (1-based), plus optionally the exact
  SQL ``NTILE(k)`` bucket derived from that rank.

Physical plan (the Spark ``zipWithIndex`` shape, Ray-Data-native):

1. ``ds.sort(order_cols)`` — Ray Data's range-partitioned sort does
   the heavy lifting; ties are broken by the caller-supplied
   tiebreak column(s), so hot values are SPLIT across blocks by the
   range partitioner rather than forced into one group (no skew
   trap, unlike a groupby-on-value design).
2. The driver walks the sorted dataset's block METADATA only
   (``iter_internal_ref_bundles`` — object refs + row counts, never
   rows), prefix-sums the per-block counts into block offsets.
3. One Ray task per block attaches ``rank = offset + arange + 1``
   (and the NTILE bucket); the result is re-wrapped with
   ``ray.data.from_arrow_refs`` — blocks never touch the driver.

Driver state is O(#blocks); shuffle volume is the one sort exchange.
At 10^12 rows the sort is the inherent cost of a global ordering —
there is no rank without it.

NULL-key hazard (pinned by tests/test_stats.py and the repo memory):
Ray 2.49's sort crashes or misbehaves on nullable keys, so the sort
runs on ``fill_null``-ed HELPER key columns (dropped afterwards).
Null ordering therefore follows the fill sentinel (documented:
nulls-first for the default minimum sentinel) — the oracle queries
use non-null keys.

NTILE(k) parity: DuckDB/ANSI NTILE gives the first ``n % k`` buckets
``ceil(n/k)`` rows and the rest ``floor(n/k)`` — reproduced in exact
integer arithmetic from the global rank, no floats.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_HELPER_PREFIX = "_rk_"


def _ntile_from_rank(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """Exact SQL ``NTILE(k)`` bucket (1-based) from 1-based ranks."""
    big = n // k + 1            # rows in each of the first n%k buckets
    n_big = n % k
    cut = n_big * big           # rows covered by the big buckets
    small = max(n // k, 1)      # avoid div-by-zero when n < k
    return np.where(
        rank <= cut,
        (rank - 1) // big + 1,
        n_big + (rank - cut - 1) // small + 1,
    ).astype(np.int64)


def global_rank(
    ds,
    order_cols: Union[str, Sequence[str]],
    ntile_k: Optional[int] = None,
    rank_col: str = "rank",
    ntile_col: str = "tile",
):
    """Attach ``row_number() OVER (ORDER BY order_cols)`` to ``ds``.

    ``order_cols`` should end in a tiebreak column that makes the
    ordering total (e.g. the doc id) — otherwise ranks among ties
    follow the sort's internal (stable but unspecified) placement.
    Returns a new Dataset with the input columns (in sorted order)
    plus ``rank_col`` (int64, 1-based) and, when ``ntile_k`` is set,
    ``ntile_col`` (int64, exact SQL NTILE semantics).
    """
    import ray
    import ray.data

    if isinstance(order_cols, str):
        order_cols = [order_cols]
    order_cols = list(order_cols)
    schema = ds.schema()
    types = dict(zip(schema.names, schema.types))

    # sort on fill_null'ed helper keys (Ray sort null-key hazard)
    helper_names: List[str] = []

    def _with_helpers(batch: pa.Table) -> pa.Table:
        out = batch
        for c in order_cols:
            arr = batch.column(c)
            typ = arr.type
            if pa.types.is_string(typ) or pa.types.is_large_string(typ):
                filled = pc.fill_null(arr, "")
            elif pa.types.is_timestamp(typ):
                filled = pc.fill_null(arr, pa.scalar(0, typ))
            elif pa.types.is_floating(typ):
                filled = pc.fill_null(arr, float("-inf"))
            else:
                filled = pc.fill_null(
                    arr, pa.scalar(np.iinfo(np.int64).min, pa.int64())
                    .cast(typ))
            out = out.append_column(_HELPER_PREFIX + c, filled)
        return out

    helper_names = [_HELPER_PREFIX + c for c in order_cols]
    sorted_ds = ds.map_batches(
        _with_helpers, batch_format="pyarrow"
    ).sort(helper_names)

    # driver sees refs + row counts only, never block contents
    blocks: List = []
    counts: List[int] = []
    pending = []  # (index, ref) whose metadata lacked num_rows

    @ray.remote
    def _count(block: pa.Table) -> int:
        return block.num_rows

    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            blocks.append(ref)
            if meta.num_rows is None:
                pending.append((len(counts), ref))
                counts.append(-1)
            else:
                counts.append(int(meta.num_rows))
    if pending:
        got = ray.get([_count.remote(ref) for _, ref in pending])
        for (i, _), n in zip(pending, got):
            counts[i] = n
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    total = int(np.sum(counts))

    out_cols = [c for c in schema.names]
    k = ntile_k

    @ray.remote
    def _attach(block: pa.Table, off: int) -> pa.Table:
        n = block.num_rows
        ranks = off + np.arange(1, n + 1, dtype=np.int64)
        out = block.select(out_cols).append_column(
            rank_col, pa.array(ranks, pa.int64()))
        if k is not None:
            out = out.append_column(
                ntile_col,
                pa.array(_ntile_from_rank(ranks, total, k), pa.int64()))
        return out

    new_refs = [
        _attach.remote(ref, int(off))
        for ref, off, n in zip(blocks, offsets, counts)
        if n > 0
    ]
    if not new_refs:
        empty_schema = pa.schema(
            [(c, types[c]) for c in out_cols]
            + [(rank_col, pa.int64())]
            + ([(ntile_col, pa.int64())] if k is not None else [])
        )
        return ray.data.from_arrow(empty_schema.empty_table())
    return ray.data.from_arrow_refs(new_refs)


def grouped_rank(ds, key_col: str, order_by, n_dense: int = None,
                 n_buckets: int = 64, distribution: bool = False):
    """Per-partition window numbering:
    ``row_number()/rank()/dense_rank() OVER (PARTITION BY key ORDER
    BY order_by)`` in ONE key-hash shuffle.

    ``order_by`` is a list of ``(col, "ascending"|"descending")``
    (Arrow sort spec). ``row_number`` numbers the full ordering;
    ``rank``/``dense_rank`` group ties on the first ``n_dense``
    order columns (default: all of them — append a unique tiebreak
    to ``order_by`` and set ``n_dense`` to the prefix that defines
    ties, exactly like SQL where the tiebreak column is simply not
    part of the OVER clause for rank/dense_rank).

    Physical plan: rows co-shuffle by ``bucket_ids(key)`` (a key's
    whole partition meets in one bucket — the window semantics
    demand it); the whole-bucket UDF does ONE Arrow ``sort_by`` over
    (key, order_by) and derives all three numberings from sentinel
    composite-key change masks with numpy cumsums — never a per-key
    UDF. Nulls in the key form their own partition (SQL); nulls in
    order columns sort last (Arrow default, = DuckDB NULLS LAST).
    A hot key bounds one bucket's sort, not the exchange.

    ``distribution=True`` additionally emits the SQL distribution
    windows ``percent_rank`` ((rank-1)/(rows-1), 0 for a single-row
    partition) and ``cume_dist`` (tie-group end / rows) — integer
    divisions, bit-identical to the SQL twins.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.hashing import bucket_ids
    from .stats import _composite_key

    order_by = [(c, d) for c, d in order_by]
    if n_dense is None:
        n_dense = len(order_by)
    if not (1 <= n_dense <= len(order_by)):
        raise ValueError("n_dense must be in 1..len(order_by)")

    def _tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pa.array(bucket_ids(batch.column(key_col), n_buckets),
                     pa.int64()))

    def _bucket(group: pa.Table) -> pa.Table:
        g = group.drop_columns(["_bucket"]).sort_by(
            [(key_col, "ascending")] + order_by)
        n = g.num_rows
        if not n:
            out = g.append_column(
                "row_number", pa.array([], pa.int64())
            ).append_column(
                "rank", pa.array([], pa.int64())
            ).append_column("dense_rank", pa.array([], pa.int64()))
            if distribution:
                out = out.append_column(
                    "percent_rank", pa.array([], pa.float64())
                ).append_column(
                    "cume_dist", pa.array([], pa.float64()))
            return out
        kck = _composite_key(g, [key_col])
        tck = _composite_key(
            g, [key_col] + [c for c, _ in order_by[:n_dense]])
        if isinstance(kck, pa.ChunkedArray):
            kck = kck.combine_chunks()
        if isinstance(tck, pa.ChunkedArray):
            tck = tck.combine_chunks()
        kch = np.ones(n, dtype=bool)
        kch[1:] = np.asarray(
            pc.not_equal(kck.slice(1), kck.slice(0, n - 1)))
        tch = np.ones(n, dtype=bool)
        tch[1:] = np.asarray(
            pc.not_equal(tck.slice(1), tck.slice(0, n - 1)))
        tch |= kch  # a new key always starts a new tie group
        pos = np.arange(n, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(kch, pos, 0))
        row_number = pos - seg_start + 1
        tie_start = np.maximum.accumulate(np.where(tch, pos, 0))
        rank = tie_start - seg_start + 1
        ct = np.cumsum(tch)
        dense = ct - ct[seg_start] + 1
        out = g.append_column(
            "row_number", pa.array(row_number, pa.int64())
        ).append_column(
            "rank", pa.array(rank, pa.int64())
        ).append_column("dense_rank", pa.array(dense, pa.int64()))
        if distribution:
            kstarts = np.flatnonzero(kch)
            sizes = np.diff(np.append(kstarts, n))
            size_row = np.repeat(sizes, sizes).astype(np.float64)
            pr = np.where(size_row > 1,
                          (rank - 1) / np.maximum(size_row - 1, 1),
                          0.0)
            tstarts = np.flatnonzero(tch)
            tsizes = np.diff(np.append(tstarts, n))
            tie_end = np.repeat(tstarts + tsizes, tsizes)
            cume = (tie_end - seg_start) / size_row
            out = out.append_column(
                "percent_rank", pa.array(pr, pa.float64())
            ).append_column(
                "cume_dist", pa.array(cume, pa.float64()))
        return out

    return ds.map_batches(_tag, batch_format="pyarrow").groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_bucket, batch_format="pyarrow")


def rrf_fuse(legs, k: int = 10, c: int = 60, id_out: str = "doc_id"):
    """Reciprocal-rank fusion of retrieval legs (Cormack et al.,
    SIGIR'09): ``rrf(d) = sum over legs of 1/(c + rank_leg(d))``,
    summing only the legs where ``d`` appears.

    ``legs`` is an ordered dict ``name -> (result, id_col,
    score_col)`` where each ``result`` is a top-K retrieval output
    (Dataset or Arrow table) — e.g. the BM25 lexical top-K
    (``stages/textstats.bm25_topk``) and the dense cosine top-K
    (``stages/similarity.brute_force_topk``). The fusion itself runs
    on the driver BY DESIGN: each leg is bounded at K rows by
    construction (the legs are the distributed operators; their
    outputs are candidates-scale, never corpus-scale), so the fuse is
    O(sum of K) no matter the corpus size — the same shape as the
    repo's other tiny-result folds.

    Rank within a leg is assigned by (score desc, id asc) over the
    leg's grid-rounded scores (the repo-wide 1e-6 contract), so rank
    parity with the SQL twin's ``row_number() OVER (ORDER BY score
    DESC, id)`` is exact wherever the leg scores themselves
    hash-match. The fused score is summed in leg order (bit-identical
    double addition vs the SQL twin's COALESCE sum) and grid-rounded
    to 1e-9.

    Returns an Arrow table (id_out, rrf, <name>_rank ...) sorted by
    (rrf desc, id asc), limited to ``k``; a leg miss surfaces as
    rank 0 (COALESCE-with-0 in the twin) so the per-leg provenance
    of every fused hit is visible in the output.
    """
    import math

    fused: dict = {}
    names = list(legs)
    for li, name in enumerate(names):
        result, id_col, score_col = legs[name]
        if hasattr(result, "take_all"):  # Dataset: K rows by contract
            rows = result.take_all()
            ids = [r[id_col] for r in rows]
            scores = [r[score_col] for r in rows]
        else:  # Arrow table
            ids = result.column(id_col).to_pylist()
            scores = result.column(score_col).to_pylist()
        order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        for rank0, i in enumerate(order):
            ent = fused.setdefault(ids[i], [0.0] * len(names))
            ent[li] = float(rank0 + 1)
    out_ids = sorted(fused)
    rrf = {}
    for d in out_ids:
        s = 0.0
        for li in range(len(names)):
            r = fused[d][li]
            s += 1.0 / (c + r) if r else 0.0
        rrf[d] = math.floor(s * 1e9 + 0.5) / 1e9
    top = sorted(out_ids, key=lambda d: (-rrf[d], d))[:k]
    cols = {
        id_out: pa.array(top, pa.int64()),
        "rrf": pa.array([rrf[d] for d in top], pa.float64()),
    }
    for li, name in enumerate(names):
        cols[f"{name}_rank"] = pa.array(
            [int(fused[d][li]) for d in top], pa.int64())
    return pa.table(cols)
