"""Operators with no product caller, kept here with their tests.

From ``stats``: grouped moments and correlation, and the 2-D skyline.
From ``bucketed``: the bucket-to-bucket join, its probe tables and the
per-bucket aggregate over a bucketed layout. From ``bpe``: applying
learned merges. From ``multimodal``: the resize and frame-sample
planners. From ``dedup``: the exact all-pairs shingle Jaccard. From
``similarity``: the hot-bucket telemetry of the bucketed embedding
near-dup pairs. No CLI flag, query or script calls them, so they live
beside the tests that pin them.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.cloudpickle

from ocr_pipeline_ray.stages.bpe import _merge_word, _word_symbols
from ocr_pipeline_ray.stages.bucketed import (
    BUCKET_COL,
    _read_bucket,
    _side_schema,
)
from ocr_pipeline_ray.stages.dedup import shingles
from ocr_pipeline_ray.stages.similarity import (
    _nonempty_block_refs,
    _round6,
    _to_matrix,
)

# Ray workers do not have tests/ on their path, so the functions of
# this module that run in Ray tasks travel by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


def grouped_moments(ds, key_col: str, value_col: str):
    """Per-key count / mean / sample variance via SUFFICIENT
    STATISTICS: each block contributes one ``(key, n, sum, sumsq)``
    partial row (Arrow ``group_by``), ONE tiny per-key groupby sums
    them, and the driver-scale finish computes
    ``mean = s1/n`` and ``var_samp = (s2 - s1^2/n) / (n-1)``.
    The corpus is touched once and the shuffle carries keys x blocks
    rows — the same contract as ``partial_sum_count``, extended to
    second moments.

    SQL parity: NULL values are ignored (``n`` counts valid values
    only, like ``count(value)``); a key with ``n == 0`` keeps its
    group with NULL mean/variance; ``n == 1`` yields NULL
    ``var_samp``. Keys must be non-null (pre-filter or fill a
    sentinel — the Ray groupby null-key hazard).

    Numerical note: the textbook ``s2 - s1^2/n`` form is exact
    enough here because downstream comparison happens on a 1e-6
    grid after floor-rounding (the repo-wide float contract); for
    ill-conditioned data (mean >> stddev) switch to a shifted-value
    pass using any per-key pivot.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        sq = pc.multiply(v, v)
        sub = pa.table({
            "key": batch.column(key_col),
            "v": v,
            "v2": sq,
        })
        agg = sub.group_by(["key"]).aggregate(
            [("v", "count"), ("v", "sum"), ("v2", "sum")])
        return pa.table({
            key_col: agg.column("key"),
            "n": pc.cast(agg.column("v_count"), pa.int64()),
            "s1": agg.column("v_sum"),
            "s2": agg.column("v2_sum"),
        })

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("n"), Sum("s1"), Sum("s2"))
    )

    def _finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = batch.column("sum(n)").to_numpy(zero_copy_only=False)
        s1 = batch.column("sum(s1)").to_numpy(zero_copy_only=False)
        s2 = batch.column("sum(s2)").to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = s1 / n
            var = (s2 - s1 * s1 / n) / (n - 1)
        # var_samp never goes negative through float cancellation
        var = np.maximum(var, 0.0)
        return pa.table({
            key_col: batch.column(key_col),
            "n": pa.array(n, pa.int64()),
            "mean_value": pa.array(mean, pa.float64(),
                                   mask=(n == 0)),
            "var_value": pa.array(var, pa.float64(),
                                  mask=(n < 2)),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")


def grouped_corr(ds, key_col: str, x_col: str, y_col: str):
    """Per-key Pearson correlation via SUFFICIENT STATISTICS: each
    block contributes one ``(key, n, sx, sy, sxx, syy, sxy)`` partial
    row (Arrow ``group_by``), ONE tiny per-key groupby sums them, and
    the key-scale finish computes
    ``r = (n*sxy - sx*sy) / sqrt((n*sxx - sx^2) * (n*syy - sy^2))``.
    The corpus is touched once; the shuffle carries keys x blocks
    rows — the ``grouped_moments`` contract extended to cross
    moments.

    SQL parity (``corr(x, y)``): rows where EITHER side is NULL are
    ignored; keys with ``n < 2`` or a zero-variance side yield NULL.
    Downstream comparison happens on the repo-wide 1e-6 grid, which
    absorbs the ulp-level differences between this two-pass form and
    DuckDB's streaming update formula.
    """
    import numpy as np
    import pyarrow.compute as pc

    agg = _cross_moments(ds, key_col, x_col, y_col)

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(
            np.float64)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sy = batch.column("sy").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        syy = batch.column("syy").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        # float cancellation can push a zero variance slightly negative
        vx = np.maximum(n * sxx - sx * sx, 0.0)
        vy = np.maximum(n * syy - sy * sy, 0.0)
        denom = np.sqrt(vx * vy)
        bad = (n < 2) | (denom == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (n * sxy - sx * sy) / denom
        return pa.table({
            key_col: batch.column(key_col),
            "n": pc.cast(batch.column("n"), pa.int64()),
            "corr_xy": pa.array(np.where(bad, 0.0, r), pa.float64(),
                                mask=bad),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")


def _cross_moments(ds, key_col: str, x_col: str, y_col: str):
    """Shared sufficient-statistics plan for the per-key bivariate
    statistics (:func:`grouped_corr`): block-local
    Arrow ``group_by`` partials of ``(n, sx, sy, sxx, syy, sxy)``
    then ONE key-scale groupby sum. Rows with a NULL on either side
    are ignored (SQL ``corr``/``regr_*`` semantics).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(x_col), pa.float64())
        y = pc.cast(batch.column(y_col), pa.float64())
        ok = pc.and_(pc.is_valid(x), pc.is_valid(y))
        sub = pa.table({
            "key": batch.column(key_col),
            "x": x, "y": y,
            "xx": pc.multiply(x, x),
            "yy": pc.multiply(y, y),
            "xy": pc.multiply(x, y),
        }).filter(ok)
        agg = sub.group_by(["key"]).aggregate(
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("yy", "sum"), ("xy", "sum")])
        return pa.table({
            key_col: agg.column("key"),
            "n": pc.cast(agg.column("x_count"), pa.int64()),
            "sx": agg.column("x_sum"), "sy": agg.column("y_sum"),
            "sxx": agg.column("xx_sum"), "syy": agg.column("yy_sum"),
            "sxy": agg.column("xy_sum"),
        })

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("n", alias_name="n"),
                   Sum("sx", alias_name="sx"),
                   Sum("sy", alias_name="sy"),
                   Sum("sxx", alias_name="sxx"),
                   Sum("syy", alias_name="syy"),
                   Sum("sxy", alias_name="sxy"))
    )


def _skyline_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the 2-D maxima (both dims maximized).

    Point q is dominated iff some p has ``p.x >= q.x`` and
    ``p.y >= q.y`` with strict inequality somewhere; coordinate-equal
    duplicates never dominate each other (standard SKYLINE OF
    semantics, Börzsönyi et al. ICDE'01). Vectorized: sort by
    (x desc, y desc); a row survives iff its y equals its equal-x
    group's max AND strictly exceeds the running y-max over all
    strictly-greater-x rows.
    """
    n = len(x)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    new_x = np.concatenate(([True], xs[1:] != xs[:-1]))
    idx = np.arange(n)
    group_start = np.maximum.accumulate(np.where(new_x, idx, 0))
    group_max_y = ys[group_start]
    run_max = np.maximum.accumulate(ys)
    prev_max = np.where(
        group_start > 0, run_max[np.maximum(group_start - 1, 0)],
        np.iinfo(np.int64).min)
    keep_sorted = (ys == group_max_y) & (ys > prev_max)
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def skyline_2d(ds, x_col: str, y_col: str):
    """Distributed 2-D SKYLINE (Pareto frontier, maximize both
    columns): the multi-criteria selection operator (pick documents
    /users not beaten on BOTH quality axes by anyone).

    Skyline is MERGEABLE — ``sky(S ∪ T) = sky(sky(S) ∪ sky(T))`` —
    so the plan is a map-side local skyline per block (each block
    shrinks to its own frontier before anything moves) followed by
    one final pass over the concatenated local frontiers. The final
    pass runs in a single task: the skyline of 2-D points with
    distinct x values has at most |distinct x| members, and after
    local pruning the survivors of a web-scale input are frontier-
    scale, not input-scale (the caller's dimensions bound it — the
    same output-size contract every skyline engine has; a degenerate
    fully-anticorrelated input keeps O(n) and belongs in a top-k
    instead). Both columns must be integer-valued (exactness: no
    float ties).
    """
    def _local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        keep = _skyline_mask(
            batch.column(x_col).to_numpy().astype(np.int64),
            batch.column(y_col).to_numpy().astype(np.int64))
        return batch.filter(pa.array(keep))

    return (
        ds.map_batches(_local, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_local, batch_format="pyarrow",
                     batch_size=None)
    )


def probe_join_tables(left: pa.Table, right: pa.Table, on: str,
                      right_cols: List[str], how: str,
                      suffix: str = "_r") -> pa.Table:
    """The repartition_join bucket kernel over two plain tables:
    dictionary-encode the concatenated key column once, resolve each
    code's LAST right row, gather with Arrow ``take``. NULL keys
    match nothing (SQL semantics)."""
    import pyarrow.compute as pc

    n_l = left.num_rows
    keys = pa.concat_arrays([
        left.column(on).combine_chunks().cast(left.column(on).type),
        right.column(on).combine_chunks().cast(left.column(on).type),
    ])
    codes = pc.dictionary_encode(keys).indices.fill_null(-1).to_numpy(
        zero_copy_only=False).astype(np.int64)
    n_codes = int(codes.max()) + 1 if len(codes) else 0
    lcodes, rcodes = codes[:n_l], codes[n_l:]
    last_right = np.full(max(n_codes, 1), -1, dtype=np.int64)
    rsel = np.flatnonzero(rcodes >= 0)
    last_right[rcodes[rsel]] = rsel
    match = (np.where(lcodes >= 0, last_right[np.maximum(lcodes, 0)], -1)
             if n_l else np.empty(0, dtype=np.int64))
    if how == "inner":
        keep = np.flatnonzero(match >= 0)
        out_left = left.take(pa.array(keep, pa.int64()))
        match = match[keep]
    elif how == "left":
        out_left = left
    elif how == "semi":
        return left.take(pa.array(np.flatnonzero(match >= 0), pa.int64()))
    elif how == "anti":
        return left.take(pa.array(np.flatnonzero(match < 0), pa.int64()))
    else:
        raise ValueError(f"how must be inner|left|semi|anti, got {how!r}")
    gather = pa.array(match, pa.int64(), mask=match < 0)
    out = out_left
    for c in right_cols:
        name = c if c not in out.column_names else c + suffix
        out = out.append_column(name, right.column(c).take(gather))
    return out


def bucketed_join(left_dir: str, right_dir: str, on: str,
                  n_buckets: int,
                  left_cols: Optional[List[str]] = None,
                  right_cols: Optional[List[str]] = None,
                  how: str = "inner", suffix: str = "_r"):
    """Shuffle-FREE join of two tables previously written with
    :func:`write_bucketed` under the same ``on`` key and
    ``n_buckets``. One task per bucket id; returns a Dataset.

    ``left_cols`` / ``right_cols`` prune the bucket reads (the
    column-prune-at-the-read rule applies to bucket storage too;
    the join key is always read). Missing/empty buckets yield empty
    blocks of the resolved output schema — never schemaless.
    """
    import ray
    import ray.data

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how must be inner|left|semi|anti, got {how!r}")
    ls = _side_schema(left_dir)
    rs = _side_schema(right_dir)
    l_names = [c for c in ls.names if c != BUCKET_COL]
    if left_cols is not None:
        l_names = [c for c in l_names
                   if c in left_cols or c == on]
    r_names = (right_cols if right_cols is not None
               else [c for c in rs.names if c not in (on, BUCKET_COL)])
    if how in ("semi", "anti"):
        r_names = []
    out_fields = [(c, ls.field(c).type) for c in l_names]
    out_fields += [
        (c if c not in l_names else c + suffix, rs.field(c).type)
        for c in r_names
    ]
    out_schema = pa.schema(out_fields)

    @ray.remote
    def _join_one(b: int) -> pa.Table:
        empty = out_schema.empty_table()
        lt = _read_bucket(left_dir, b, l_names)
        if lt is None or lt.num_rows == 0:
            return empty
        rt = _read_bucket(right_dir, b,
                          sorted(set(r_names) | {on}))
        if rt is None:
            if how == "anti":
                return lt.select(l_names).cast(
                    pa.schema(out_fields[:len(l_names)]))
            if how == "left":
                out = lt.select(l_names)
                for name, typ in out_fields[len(l_names):]:
                    out = out.append_column(
                        name, pa.nulls(out.num_rows, typ))
                return out
            return empty
        out = probe_join_tables(lt.select(l_names), rt, on,
                                r_names, how, suffix)
        return out.cast(out_schema) if out.num_rows else empty

    refs = [_join_one.remote(b) for b in range(n_buckets)]
    return ray.data.from_arrow_refs(refs)


def bucketed_aggregate(root: str, key_col: str, n_buckets: int,
                       count_name: str = "n"):
    """Shuffle-FREE per-key count over a bucketed table.

    Bucket alignment means every row of a key lives in ONE bucket
    dir, so a per-bucket local ``group_by`` is already the GLOBAL
    per-key aggregate — the groupby exchange disappears the same way
    the join's did. One task per bucket (column-pruned to the key),
    results wrapped as a Dataset of ``(key, count)``.

    NULL keys hash to bucket 0 and form the standard single NULL
    group there (SQL ``GROUP BY`` keeps it).
    """
    import ray
    import ray.data
    import pyarrow.compute as pc  # noqa: F401 (documented dep)

    schema = _side_schema(root)
    key_type = schema.field(key_col).type
    out_schema = pa.schema([(key_col, key_type),
                            (count_name, pa.int64())])

    @ray.remote
    def _agg_one(b: int) -> pa.Table:
        tbl = _read_bucket(root, b, [key_col])
        if tbl is None or tbl.num_rows == 0:
            return out_schema.empty_table()
        agg = tbl.group_by([key_col]).aggregate([([], "count_all")])
        return pa.table({
            key_col: agg.column(key_col),
            count_name: agg.column("count_all").cast(pa.int64()),
        })

    return ray.data.from_arrow_refs(
        [_agg_one.remote(b) for b in range(n_buckets)])


def bpe_apply(ds, merges: pa.Table, text_col: str = "text",
              out_col: str = "bpe_tokens"):
    """Tokenize ``text_col`` with a learned merge table.

    The merge table ships ONCE via the object store; each batch
    applies merges per word in rank order with a per-worker memoized
    word→tokens cache (web text repeats words heavily)."""
    import ray

    ranks = {
        (l, r): i for i, (l, r) in enumerate(
            zip(merges.column("left").to_pylist(),
                merges.column("right").to_pylist()))
    }
    ref = ray.put(ranks)

    def _encode_word(word: str, ranks: Dict) -> List[str]:
        syms = _word_symbols(word)
        while len(syms) > 1:
            best, best_rank = None, None
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best, best_rank = (syms[i], syms[i + 1]), r
            if best is None:
                break
            syms = _merge_word(syms, best[0], best[1])
        return syms

    cache: Dict[str, List[str]] = {}

    def _fn(batch: pa.Table) -> pa.Table:
        rk = ray.get(ref)
        toks = []
        for t in batch.column(text_col).to_pylist():
            out: List[str] = []
            for w in (t or "").split(" "):
                if not w:
                    continue
                enc = cache.get(w)
                if enc is None:
                    if len(cache) > 200_000:
                        cache.clear()
                    enc = _encode_word(w, rk)
                    cache[w] = enc
                out.extend(enc)
            toks.append(out)
        return batch.append_column(
            out_col, pa.array(toks, pa.list_(pa.string())))

    return ds.map_batches(_fn, batch_format="pyarrow")


def resize_plan_fn(batch: pa.Table, max_side: int = 512) -> pa.Table:
    """Image resize planning: target dims preserving aspect ratio.

    The geometric math + schema plumbing are real; the pixel resample
    itself would live in the (stubbed) decoder. Unknown dims (-1)
    pass through unchanged.
    """
    widths = batch.column("width").to_pylist()
    heights = batch.column("height").to_pylist()
    tw, th = [], []
    for w, h in zip(widths, heights):
        if w is None or h is None or w <= 0 or h <= 0:
            tw.append(-1)
            th.append(-1)
            continue
        scale = min(1.0, max_side / max(w, h))
        tw.append(max(1, int(w * scale)))
        th.append(max(1, int(h * scale)))
    return (
        batch.append_column("target_width", pa.array(tw, pa.int32()))
        .append_column("target_height", pa.array(th, pa.int32()))
    )


def frame_sample_fn(batch: pa.Table, fps: float = 1.0,
                    max_frames: int = 32) -> pa.Table:
    """Video frame-sampling plan: deterministic timestamps (ms).

    ``fps`` sampling capped at ``max_frames``, evenly re-spaced when
    the cap binds. Non-video rows (duration -1) get an empty list.
    """
    kinds = batch.column("kind").to_pylist()
    durations = batch.column("duration_ms").to_pylist()
    plans = []
    for kind, dur in zip(kinds, durations):
        if kind != "video" or dur is None or dur <= 0:
            plans.append([])
            continue
        step_ms = 1000.0 / fps
        n = int(dur / step_ms) + 1
        if n > max_frames:
            step_ms = dur / max_frames
            n = max_frames
        plans.append([int(i * step_ms) for i in range(n)])
    return batch.append_column(
        "frame_times_ms", pa.array(plans, pa.list_(pa.int32()))
    )


def jaccard_all_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      k: int = 3, threshold: float = 0.8,
                      max_blocks: int = 16):
    """EXACT all-pairs n-gram Jaccard ≥ threshold.

    Distributed block-pair join (same shape as
    ``similarity.embedding_near_dup_pairs``): distinct shingle sets
    materialize as B object-store blocks, one task per block pair
    scores its cross product, the driver holds refs only. Inherently
    O(N²) pair comparisons — a recall-measurement / verification
    operator, NOT a scale path; run it on samples or buckets, never
    the full corpus.
    """
    import ray
    import ray.data

    def _shingle_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        shs = [
            sorted(set(shingles((t or "").split(" "), k))) for t in texts
        ]
        return pa.table({
            "key": pa.array(ids, pa.int64()),
            "sh": pa.array(shs, pa.list_(pa.string())),
        })

    sh_ds = ds.map_batches(_shingle_rows, batch_format="pyarrow").materialize()
    refs = _nonempty_block_refs(sh_ds)
    if len(refs) > max_blocks:
        sh_ds = sh_ds.repartition(max_blocks).materialize()
        refs = _nonempty_block_refs(sh_ds)
    n = len(refs)
    idx_pairs = [{"i": i, "j": j} for i in range(n) for j in range(i, n)]

    def _block_pair(batch: pa.Table) -> pa.Table:
        d1s, d2s, scores = [], [], []
        for i, j in zip(batch.column("i").to_pylist(),
                        batch.column("j").to_pylist()):
            blk_a, blk_b = ray.get([refs[i], refs[j]])
            ids_a = blk_a.column("key").to_pylist()
            ids_b = blk_b.column("key").to_pylist()
            sets_a = [frozenset(s) for s in blk_a.column("sh").to_pylist()]
            sets_b = (
                sets_a if i == j
                else [frozenset(s) for s in blk_b.column("sh").to_pylist()]
            )
            for ai, (a_id, sa) in enumerate(zip(ids_a, sets_a)):
                b_start = ai + 1 if i == j else 0
                for b_id, sb in zip(ids_b[b_start:], sets_b[b_start:]):
                    inter = len(sa & sb)
                    union = len(sa) + len(sb) - inter
                    if union == 0:
                        # two sub-k-token docs: EXCLUDED, as SQL's
                        # 0/0 -> NULL drops the pair
                        continue
                    score = inter / union
                    if score >= threshold:
                        d1s.append(min(a_id, b_id))
                        d2s.append(max(a_id, b_id))
                        scores.append(_round6(score))
        return pa.table({
            "d1": pa.array(d1s, pa.int64()),
            "d2": pa.array(d2s, pa.int64()),
            "jaccard": pa.array(scores, pa.float64()),
        })

    return ray.data.from_items(idx_pairs).map_batches(
        _block_pair, batch_size=1, batch_format="pyarrow"
    )


def near_dup_bucket_stats(
    ds,
    n_planes: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_bucket: int = 10000,
):
    """Hot-bucket telemetry for ``similarity.bucketed_near_dup_pairs``
    (one row): how many signature buckets exist, how many exceed
    ``max_bucket``, the largest one, and how many vectors the cap would
    drop. Emit this next to the pairs so the cap is a measured
    trade-off.
    """
    from ray.data.aggregate import Count, Max, Sum

    def _sig_only(batch: pa.Table) -> pa.Table:
        mat = _to_matrix(batch.column(emb_col))
        if not mat.size:
            return pa.table({"sig": pa.array([], pa.int64())})
        local_planes = np.random.default_rng(seed).standard_normal(
            (n_planes, mat.shape[1]))
        bits = (mat @ local_planes.T > 0).astype(np.int64)
        sig = bits @ (1 << np.arange(n_planes, dtype=np.int64))
        return pa.table({"sig": pa.array(sig, pa.int64())})

    sizes = ds.map_batches(
        _sig_only, batch_format="pyarrow"
    ).groupby("sig").aggregate(Count())

    def _per_bucket(batch: pa.Table) -> pa.Table:
        n = batch.column("count()")
        dropped = pc.max_element_wise(
            pc.subtract(n, pa.scalar(max_bucket, n.type)),
            pa.scalar(0, n.type),
        )
        return pa.table({
            "n_buckets": pa.array([batch.num_rows], pa.int64()),
            "n_hot": pa.array(
                [pc.sum(pc.cast(pc.greater(n, max_bucket),
                                pa.int64())).as_py() or 0], pa.int64()),
            "max_size": pa.array([pc.max(n).as_py() or 0], pa.int64()),
            "dropped": pa.array([pc.sum(dropped).as_py() or 0], pa.int64()),
        })

    agg = sizes.map_batches(_per_bucket, batch_format="pyarrow").aggregate(
        Sum("n_buckets"), Sum("n_hot"), Max("max_size"), Sum("dropped")
    )
    return pa.table({
        "n_buckets": pa.array([agg["sum(n_buckets)"] or 0], pa.int64()),
        "n_hot_buckets": pa.array([agg["sum(n_hot)"] or 0], pa.int64()),
        "max_bucket_size": pa.array([agg["max(max_size)"] or 0], pa.int64()),
        "dropped_ids": pa.array([agg["sum(dropped)"] or 0], pa.int64()),
    })
