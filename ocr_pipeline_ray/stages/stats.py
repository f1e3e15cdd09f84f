"""Distributed order statistics.

:func:`exact_quantiles` — EXACT percentiles over a
bounded-cardinality column.

Shape: one map-side ``value_counts`` per batch (the partial
combine), ONE small ``groupby(value).sum`` shuffle over the
DISTINCT-VALUE set, then a driver-side cumsum over that set. The
corpus is touched once, streaming; the only materialized object is
the distinct-value histogram. That is the exactness contract: the
column must have bounded cardinality (discrete scores like the
3-decimal ``hit_ratio``, integer lengths like ``n_chars``, enum-ish
codes) — at 10^12 rows a 10^6-distinct histogram is a few MB. For
genuinely continuous columns, discretize first (then this IS a
fixed-bin quantile sketch with known error = bin width).

Quantile semantics match SQL ``percentile_disc`` / DuckDB
``quantile_disc`` exactly: the element at index
``max(0, ceil(q*n) - 1)`` of the sorted column (verified against
DuckDB; the oracle recomputes it natively).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_NULL_SENTINEL = "\x00"


def _composite_key(batch: pa.Table, cols: List[str]) -> pa.Array:
    """Deterministic string key over nullable mixed-type columns
    (NULL encoded as a sentinel that cannot appear in cast output)."""
    parts = []
    for c in cols:
        parts.append(pc.fill_null(
            pc.cast(batch.column(c), pa.string()), _NULL_SENTINEL))
        parts.append("\x1f")
    return pc.binary_join_element_wise(*parts, "")


def exact_quantiles(ds, col: str, qs: Sequence[float]) -> pa.Table:
    """Exact ``percentile_disc`` quantiles of ``ds[col]``.

    Returns one row per q: ``(q: float64, value: <col type>)``.
    NULLs are ignored (SQL aggregate semantics).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        arr = batch.column(col)
        vc = pc.value_counts(arr.combine_chunks()
                             if isinstance(arr, pa.ChunkedArray) else arr)
        return pa.table({
            "value": vc.field("values"),
            "n": pc.cast(vc.field("counts"), pa.int64()),
        })

    counts = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("value").aggregate(Sum("n"))
    )
    tbls = [
        t for t in counts.iter_batches(batch_format="pyarrow",
                                       batch_size=None)
        if t.num_rows
    ]
    if not tbls:
        raise ValueError(f"exact_quantiles: no rows in column {col!r}")
    hist = pa.concat_tables(tbls)
    hist = hist.filter(pc.is_valid(hist.column("value")))
    hist = hist.sort_by([("value", "ascending")])
    values = hist.column("value").combine_chunks()
    cum = np.cumsum(hist.column("sum(n)").to_numpy(zero_copy_only=False))
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        raise ValueError(f"exact_quantiles: column {col!r} is all-null")
    picks = []
    for q in qs:
        r = max(0, math.ceil(q * n) - 1)   # percentile_disc index
        picks.append(int(np.searchsorted(cum, r + 1, side="left")))
    return pa.table({
        "q": pa.array(list(qs), pa.float64()),
        "value": values.take(pa.array(picks, pa.int64())),
    })


def grouped_quantiles(ds, key_col: str, col: str,
                      qs: Sequence[float]) -> pa.Table:
    """Exact per-key ``percentile_disc`` quantiles.

    Same contract and shape as :func:`exact_quantiles`, with the
    histogram keyed by ``(key, value)``: one streaming pass, one
    groupby over the per-key distinct-value histogram, driver-side
    cumsum per key. Returns ``(key, q, value)`` rows sorted by
    ``(key, q)``. A key whose value column is entirely NULL has no
    quantiles and is OMITTED (unlike SQL GROUP BY, which would keep
    the group with NULL aggregates — the SQL twin needs
    ``HAVING count(col) > 0`` to match).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        sub = pa.table({
            "key": batch.column(key_col),
            "value": batch.column(col),
        })
        sub = sub.filter(pc.is_valid(sub.column("value")))
        agg = sub.group_by(["key", "value"]).aggregate([([], "count_all")])
        return pa.table({
            "key": agg.column("key"),
            "value": agg.column("value"),
            "n": pc.cast(agg.column("count_all"), pa.int64()),
        })

    counts = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["key", "value"]).aggregate(Sum("n"))
    )
    tbls = [
        t for t in counts.iter_batches(batch_format="pyarrow",
                                       batch_size=None)
        if t.num_rows
    ]
    key_type = ds.schema().types[ds.schema().names.index(key_col)]
    val_type = ds.schema().types[ds.schema().names.index(col)]
    if not tbls:
        return pa.table({
            "key": pa.array([], key_type),
            "q": pa.array([], pa.float64()),
            "value": pa.array([], val_type),
        })
    hist = pa.concat_tables(tbls).sort_by(
        [("key", "ascending"), ("value", "ascending")]
    )
    keys = hist.column("key").combine_chunks().to_numpy(
        zero_copy_only=False)
    values = hist.column("value").combine_chunks()
    ns = hist.column("sum(n)").to_numpy(zero_copy_only=False)

    from ..functions.segments import key_segments

    seg_start, seg_len = key_segments(keys)
    out_key_idx = []
    out_q = []
    out_val_idx = []
    for s, ln in zip(seg_start, seg_len):
        cum = np.cumsum(ns[s:s + ln])
        n = int(cum[-1])
        for q in qs:
            r = max(0, math.ceil(q * n) - 1)
            out_key_idx.append(int(s))
            out_q.append(q)
            out_val_idx.append(
                int(s) + int(np.searchsorted(cum, r + 1, side="left"))
            )
    take = pa.array(out_val_idx, pa.int64())
    return pa.table({
        "key": hist.column("key").take(
            pa.array(out_key_idx, pa.int64())),
        "q": pa.array(out_q, pa.float64()),
        "value": values.take(take),
    })


def partial_sum_count(batch: pa.Table, keys: Sequence[str],
                      value_col: str, sum_name: str = "sum_value",
                      count_name: str = "n_events") -> pa.Table:
    """Map-side partial combine: ONE vectorized Arrow ``group_by``
    per batch reducing ``(keys → count, sum(value))`` — the shuffle
    then carries keys × blocks rows, never raw rows. Shared by every
    grouped-aggregate query (sum of partial counts/sums is exact;
    float summation order changes only below the queries' 1e-6
    grids)."""
    import pyarrow.compute as pc

    agg = batch.select(list(keys) + [value_col]).group_by(
        list(keys)
    ).aggregate([(value_col, "sum"), ([], "count_all")])
    cols = {k: agg.column(k) for k in keys}
    cols[count_name] = pc.cast(agg.column("count_all"), pa.int64())
    cols[sum_name] = agg.column(f"{value_col}_sum")
    return pa.table(cols)


# per-block total marker for heavy_hitters: contains spaces, so no
# space-split token can ever equal it
_TOTAL_SENTINEL = " __block_total__ "


def heavy_hitters(ds, text_col: str = "text",
                  min_frac_num: int = 5, min_frac_den: int = 1000,
                  max_candidates: int = 2_000_000):
    """EXACT frequent tokens: every token with corpus frequency
    ``>= min_frac_num/min_frac_den`` of all tokens, with its exact
    count. Two streaming passes, shuffle bounded by the CANDIDATE
    set — never the vocabulary.

    The scale story vs the full-vocab partial combine
    (`queries.q_top_tokens`): that shape shuffles (vocab × blocks)
    partial rows; here pass 1 applies the LOCAL threshold
    ``count_b * den >= num * n_b`` inside each block (a token with
    global fraction >= num/den must clear it in at least one block —
    if it missed everywhere, summing gives count < (num/den) * N,
    contradiction), so only locally-heavy tokens (at most den/num
    per block) plus one total-row per block ever leave the block.
    Pass 2 broadcasts the deduped candidate set (``ray.put`` once,
    ``pc.is_in`` per batch) and counts ONLY candidates exactly via
    the usual partial-combine groupby, then filters by the exact
    global threshold ``count * den >= num * N``. All integer
    arithmetic — no float threshold drift vs the SQL oracle.

    The candidate set is driver-held between passes (bounded by
    ``blocks * den/num``); ``max_candidates`` turns a mis-sized
    threshold into a loud error instead of a silent OOM.

    Null texts are skipped; empty texts count one '' token (DuckDB
    ``string_split`` parity).
    """
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    def _tokens(batch: pa.Table) -> pa.Array:
        col = batch.column(text_col)
        col = col.filter(pc.is_valid(col))
        parts = pc.split_pattern(col, " ").combine_chunks()
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.chunk(0) if parts.num_chunks else pa.array(
                [], pa.list_(pa.string()))
        return parts.values

    def _local_heavy(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        n_b = len(toks)
        if n_b == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        g = pa.table({"token": toks}).group_by("token").aggregate(
            [([], "count_all")])
        cnt = pc.cast(g.column("count_all"), pa.int64())
        keep = pc.greater_equal(
            pc.multiply(cnt, pa.scalar(min_frac_den, pa.int64())),
            pa.scalar(min_frac_num * n_b, pa.int64()),
        )
        out = pa.table({"token": g.column("token"), "cnt": cnt}
                       ).filter(keep)
        # the per-block token total rides along under a sentinel key
        # that cannot collide with a real token (tokens are
        # space-split, the sentinel contains spaces); Ray's
        # sort-based aggregate cannot shuffle a null key
        return pa.concat_tables([out, pa.table({
            "token": pa.array([_TOTAL_SENTINEL], pa.string()),
            "cnt": pa.array([n_b], pa.int64()),
        })])

    partial = ds.map_batches(_local_heavy, batch_format="pyarrow")
    merged = partial.groupby("token").aggregate(Sum("cnt")).take_all()
    n_total = 0
    cand = []
    for row in merged:
        if row["token"] == _TOTAL_SENTINEL:
            n_total = row["sum(cnt)"]
        else:
            cand.append(row["token"])
    if len(cand) > max_candidates:
        raise ValueError(
            f"heavy_hitters: {len(cand)} candidates exceed "
            f"max_candidates={max_candidates}; raise the threshold "
            f"or the cap")
    cand_ref = ray.put(pa.array(sorted(cand), pa.string()))

    def _count_cand(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        toks = toks.filter(pc.is_in(toks, value_set=ray.get(cand_ref)))
        if len(toks) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        g = pa.table({"token": toks}).group_by("token").aggregate(
            [([], "count_all")])
        return pa.table({
            "token": g.column("token"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })

    exact = ds.map_batches(_count_cand, batch_format="pyarrow"
                           ).groupby("token").aggregate(Sum("n"))

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)")
        keep = pc.greater_equal(
            pc.multiply(n, pa.scalar(min_frac_den, pa.int64())),
            pa.scalar(min_frac_num * n_total, pa.int64()),
        )
        return pa.table({"token": batch.column("token"),
                         "n": pc.cast(n, pa.int64())}).filter(keep)

    return exact.map_batches(_finish, batch_format="pyarrow")


def weighted_sample(ds, key_col: str, weight_col: str, scale: int):
    """Deterministic weighted Bernoulli sample: keep a row with
    probability ``min(1, weight / scale)`` — no RNG, reproducible
    across runs and block layouts, dup-safe (same key → same fate).

    The coin is ``md5(key)[:8]`` mapped to [0, 1): a row survives iff
    ``hash_32 * scale < weight * 2^32`` (pure int64 comparison — no
    float rounding ambiguity at the threshold). Row-local predicate:
    prunes at scan speed, no shuffle, exactly reproducible in SQL.

    This is the quality-proportional carve ("sample long/high-score
    docs more") complementing the uniform stratified sample
    (`queries.q_stratified_sample`).
    """
    import hashlib

    import pyarrow.compute as pc

    def _fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        hs = np.fromiter(
            (int(hashlib.md5(str(k).encode("utf-8")).hexdigest()[:8],
                 16) for k in keys),
            dtype=np.uint64, count=len(keys),
        ).astype(np.int64)
        w = batch.column(weight_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = hs * int(scale) < w * 4294967296
        return batch.filter(pa.array(keep))

    return ds.map_batches(_fn, batch_format="pyarrow")


def mix_sample(ds, group_col: str, weights: dict, key_col: str):
    """Deterministic data-mix rebalancer: downsample groups so the
    output approximates target proportions ``weights`` (a training
    "data mixing" pass — e.g. rebalance languages or sources before
    shard writing).

    Let ``W = sum(weights)``, ``n_g`` the exact group counts (one
    map-side-combined aggregate over the group column only). The
    largest feasible output honoring the mix caps every group at its
    share of ``T = min_g floor(n_g * W / w_g)`` rows; each group then
    keeps rows with acceptance rate ``r_g = (T * w_g * 2^32) //
    (W * n_g)`` via the repo's integer hash-coin
    (``md5_32(key) < r_g`` — dup-safe, layout-independent, no RNG,
    exactly reproducible in SQL; see :func:`weighted_sample`).
    Keeps are Bernoulli, so realized counts are binomial around the
    target — the standard trade for a one-pass, shuffle-free mix.

    Groups missing from ``weights`` (and NULL groups) are dropped —
    an explicit mix is also a whitelist. Weight 0 drops the group but
    does not constrain ``T``.
    """
    import hashlib

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    if not weights or all(w == 0 for w in weights.values()):
        raise ValueError("weights must contain a positive target")

    def _counts(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column(group_col).combine_chunks())
        keys, counts = vc.field("values"), vc.field("counts")
        valid = pc.is_valid(keys)
        return pa.table({
            group_col: keys.filter(valid),
            "n": pc.cast(counts.filter(valid), pa.int64()),
        })

    n_g = {
        r[group_col]: r["sum(n)"]
        for r in ds.select_columns([group_col])
        .map_batches(_counts, batch_format="pyarrow")
        .groupby(group_col).aggregate(Sum("n")).take_all()
    }
    w_total = sum(weights.values())
    t_out = min(
        (n_g.get(g, 0) * w_total) // w
        for g, w in weights.items() if w > 0
    )
    rates = {
        g: min(2 ** 32, (t_out * w * 4294967296) // (w_total * n_g[g]))
        for g, w in weights.items() if w > 0 and n_g.get(g, 0) > 0
    }

    def _keep(batch: pa.Table) -> pa.Table:
        groups = batch.column(group_col).to_pylist()
        keys = batch.column(key_col).to_pylist()
        thresholds = np.fromiter(
            (rates.get(g, 0) for g in groups), dtype=np.int64,
            count=len(groups))
        hs = np.fromiter(
            (int(hashlib.md5(str(k).encode("utf-8")).hexdigest()[:8],
                 16) for k in keys),
            dtype=np.uint64, count=len(keys),
        ).astype(np.int64)
        return batch.filter(pa.array(hs < thresholds))

    return ds.map_batches(_keep, batch_format="pyarrow")


def hash_sample_exact(ds, k: int, key_col: str = "doc_id",
                      hash_col: str = "_h"):
    """Deterministic uniform sample of EXACTLY ``k`` rows.

    ``stratified/weighted_sample`` are threshold samplers — output
    size is only approximate. Eval-set carving often needs an exact
    row count; this is the distributed "ORDER BY md5(key) LIMIT k":

    1. per block, a vectorized LOCAL top-k by ``(md5(key), key)`` —
       only blocks × k candidate rows survive the scan;
    2. one tiny global sort+limit over the candidates.

    Deterministic across runs and block layouts (hash order is a
    pure function of the key; the key itself breaks md5-prefix
    ties). Candidates = blocks × k rows — fine for the eval-set
    regime (k up to ~10^6); for larger k use the threshold samplers.
    The md5 is over ``str(key)``, matching the DuckDB twin
    ``ORDER BY md5(CAST(key AS VARCHAR)), key LIMIT k``.
    """
    import hashlib

    def _local_topk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # null keys are unsampleable (and would poison the global
        # sort — Ray 2.49 null-sort-key hazard): drop them up front
        batch = batch.filter(pc.is_valid(batch.column(key_col)))
        keys = batch.column(key_col).to_pylist()
        hs = [
            hashlib.md5(str(x).encode("utf-8")).hexdigest()
            for x in keys
        ]
        order = sorted(range(len(hs)), key=lambda i: (hs[i], keys[i]))
        head = pa.array(order[:k], pa.int64())
        out = batch.take(head)
        return out.append_column(
            hash_col, pa.array([hs[i] for i in order[:k]], pa.string()))

    cands = ds.map_batches(_local_topk, batch_format="pyarrow")
    return (
        cands.sort([hash_col, key_col]).limit(k)
        .drop_columns([hash_col])
    )


def grouped_distinct_count(ds, key_col: str, value_col: str,
                           out_col: str = "n_distinct",
                           n_buckets: int = 64):
    """EXACT ``COUNT(DISTINCT value) GROUP BY key`` in one shuffle.

    Phase 1 (map-side): each block dedups its (key, value) pairs, so
    the shuffle carries blocks x block-distinct pairs, never raw
    rows — a hot key whose duplicate values repeat within blocks
    collapses BEFORE it moves. Phase 2: pairs co-shuffle by
    ``bucket_ids(key)`` (key-hash, so every pair of a key meets in
    exactly one bucket); the whole-bucket UDF dedups pairs globally
    and counts valid values per key — final rows, no second
    exchange.

    Semantics match SQL: NULL values are never counted
    (``COUNT(DISTINCT v)`` ignores NULL) but an all-NULL key still
    appears with count 0, exactly like ``GROUP BY``; NULL keys form
    their own group.

    Dedup identity is a sentinel-encoded composite STRING
    (``_composite_key`` — same contract: cast output must not
    contain the \\x00/\\x1f sentinels, true for numeric/timestamp
    and real-text keys) dictionary-encoded to dense codes +
    ``np.unique`` first-occurrence take — NEVER a pyarrow
    ``group_by`` on the nullable columns themselves: pyarrow 16's
    hash group_by splits groups with NULL slots by the garbage bytes
    under them (measurably: one whole-table group_by on 300 rows of
    (nullable string, nullable int64) returned 27 "distinct" pairs
    for 23), and Ray's sort shares the null-key hazard.

    Scale note: a key's DISTINCT-value set lands in one bucket (that
    is what makes the count exact in one pass); per-bucket cost is
    bounded by distinct pairs per bucket, not row count. For
    sketch-grade cardinalities use the KMV estimator instead.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.hashing import bucket_ids

    def _dedup_pairs(sub: pa.Table) -> pa.Table:
        if not sub.num_rows:
            return sub
        ck = _composite_key(sub, ["k", "v"])
        if isinstance(ck, pa.ChunkedArray):
            ck = ck.combine_chunks()
        codes = pc.dictionary_encode(ck).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        _, first = np.unique(codes, return_index=True)
        return sub.take(pa.array(first, pa.int64()))

    def _local(batch: pa.Table) -> pa.Table:
        # NULL values are KEPT (collapsed to one (k, NULL) pair per
        # block) so an all-NULL key still reaches its bucket and
        # comes out with count 0, matching SQL GROUP BY
        sub = _dedup_pairs(pa.table({
            "k": batch.column(key_col),
            "v": batch.column(value_col),
        }))
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(sub.column("k"), n_buckets), pa.int64()),
            "k": sub.column("k"),
            "v": sub.column("v"),
        })

    def _bucket(group: pa.Table) -> pa.Table:
        pairs = _dedup_pairs(group.select(["k", "v"]).combine_chunks())
        kck = _composite_key(pairs, ["k"])
        if isinstance(kck, pa.ChunkedArray):
            kck = kck.combine_chunks()
        kcodes = pc.dictionary_encode(kck).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        valid = pc.is_valid(pairs.column("v")).to_numpy(
            zero_copy_only=False)
        n_codes = int(kcodes.max()) + 1 if len(kcodes) else 0
        cnt = np.bincount(
            kcodes, weights=valid.astype(np.float64),
            minlength=max(n_codes, 1)).astype(np.int64)
        # dictionary codes are dense 0..n-1, so np.unique's sorted
        # uniques == arange(n_codes) and `first` aligns with `cnt`
        _, first = np.unique(kcodes, return_index=True)
        return pa.table({
            key_col: pairs.column("k").take(
                pa.array(first, pa.int64())),
            out_col: pa.array(cnt[:n_codes], pa.int64()),
        })

    return ds.map_batches(_local, batch_format="pyarrow").groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_bucket, batch_format="pyarrow")


def cms_sketch(ds, text_col: str = "text", width: int = 1024,
               depth: int = 4):
    """Count-Min sketch of the corpus token frequency — the
    MERGEABLE approximate-counts structure (Cormode & Muthukrishnan
    2005): ``depth`` hash rows x ``width`` counters;
    ``est(t) = min_r counter[r][h_r(t)] >= true(t)``, overestimate
    only, error bounded by collisions (~N/width per row, take the
    min across rows).

    Fully deterministic and SQL-twinnable: the ``depth<=4`` row
    hashes are the four 8-hex chunks of ONE md5 per token (the
    minhash-signature trick — one digest, four independent hashes;
    DuckDB: ``substr(md5(t), 1+8*r, 8)``), bucket = chunk % width.

    Shape: per block, ``value_counts`` over the flat token split
    dedups tokens FIRST (one md5 per distinct token per block, not
    per occurrence), counters accumulate via ``np.bincount`` with
    count weights, and the shuffle carries <= depth*width partial
    rows per block — never tokens. One tiny groupby merges partials.
    Returns a Dataset of ``(r, b, c)`` with zero counters omitted.
    NULL texts contribute nothing (SQL ``WHERE text IS NOT NULL``).
    """
    import hashlib

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    if not (1 <= depth <= 4):
        raise ValueError("depth must be in 1..4 (four 8-hex chunks "
                         "per md5 digest)")

    def _partial(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.is_valid(batch.column(text_col)))
        flat = pc.list_flatten(
            pc.split_pattern(sub.column(text_col), " "))
        vc = pc.value_counts(flat.combine_chunks()
                             if isinstance(flat, pa.ChunkedArray)
                             else flat)
        toks = vc.field("values").to_pylist()
        cnts = vc.field("counts").to_numpy(
            zero_copy_only=False).astype(np.int64)
        digs = [hashlib.md5(t.encode("utf-8")).hexdigest()
                for t in toks]
        rbs, cs = [], []
        for r in range(depth):
            b = np.array(
                [int(d[8 * r:8 * r + 8], 16) for d in digs],
                dtype=np.int64) % width
            row = np.bincount(b, weights=cnts, minlength=width)
            nz = np.flatnonzero(row)
            rbs.append(r * width + nz)
            cs.append(row[nz].astype(np.int64))
        return pa.table({
            "rb": pa.array(np.concatenate(rbs) if rbs else [],
                           pa.int64()),
            "c": pa.array(np.concatenate(cs) if cs else [],
                          pa.int64()),
        })

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("rb").aggregate(Sum("c"))
    )

    def _finish(batch: pa.Table) -> pa.Table:
        rb = batch.column("rb").to_numpy(zero_copy_only=False)
        return pa.table({
            "r": pa.array(rb // width, pa.int64()),
            "b": pa.array(rb % width, pa.int64()),
            "c": pc.cast(batch.column("sum(c)"), pa.int64()),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")


def grouped_hll(ds, key_col: str, value_col: str,
                n_buckets: int = 64):
    """Per-key HyperLogLog distinct sketch (Flajolet et al. 2007),
    m = 64 registers — a FIXED-SIZE mergeable sketch: it carries at
    most ``keys x 64`` (key, register, max_rho) rows through the
    shuffle whatever the value cardinality, and register
    merge is a plain ``max`` — the sketch unions across any number
    of blocks/hosts losslessly.

    Deterministic + oracle-pinnable construction: one md5 per
    block-distinct (key, value) pair; register = first 8 hex chars
    mod 64, rho = 1 + trailing zeros of the second 8 hex chars
    (33 when that 32-bit word is 0). The estimate
    ``0.709 * m^2 / sum(2^-M_j)`` is EXACT float math — every
    ``2^-M`` term is a dyadic ≥ 2^-33 and the sum stays below 2^6,
    so all 39 significand bits fit in a double and the sum is
    order-independent — which makes the estimate reproducible
    bit-for-bit in SQL after the repo-wide 1e-6 grid. Small-range
    (linear-counting) correction applies when ``raw <= 2.5 m`` and
    empty registers exist; the 32-bit large-range correction is
    unreachable at these register counts and is omitted.

    Shape: map-side (key, value) dedup + Arrow group_by max(rho)
    per (key, register), ONE key-hash co-shuffle of register rows,
    whole-bucket lexsort + reduceat merge — no per-key UDF.
    """
    import hashlib

    import pyarrow.compute as pc

    from ..functions.hashing import bucket_ids

    M = 64

    def _empty(key_type) -> pa.Table:
        return pa.table({
            "_bucket": pa.array([], pa.int64()),
            "k": pa.array([], key_type),
            "reg": pa.array([], pa.int64()),
            "rho": pa.array([], pa.int64()),
        })

    def _partial(batch: pa.Table) -> pa.Table:
        sub = pa.table({
            "k": batch.column(key_col),
            "v": batch.column(value_col),
        })
        sub = sub.filter(pc.is_valid(sub.column("v")))
        if not sub.num_rows:
            return _empty(batch.column(key_col).type)
        ck = _composite_key(sub, ["k", "v"])
        if isinstance(ck, pa.ChunkedArray):
            ck = ck.combine_chunks()
        cidx = pc.dictionary_encode(ck).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        _, fst = np.unique(cidx, return_index=True)
        sub = sub.take(pa.array(fst, pa.int64()))
        digests = [
            hashlib.md5(str(v).encode("utf-8")).hexdigest()
            for v in sub.column("v").to_pylist()]
        h1 = np.fromiter((int(d[:8], 16) for d in digests),
                         dtype=np.int64, count=sub.num_rows)
        h2 = np.fromiter((int(d[8:16], 16) for d in digests),
                         dtype=np.int64, count=sub.num_rows)
        low = h2 & -h2
        rho = np.where(
            h2 == 0, np.int64(33),
            np.log2(np.maximum(low, 1)).astype(np.int64) + 1)
        t = pa.table({
            "k": sub.column("k"),
            "reg": pa.array(h1 % M, pa.int64()),
            "rho": pa.array(rho, pa.int64()),
        })
        g = t.group_by(["k", "reg"]).aggregate([("rho", "max")])
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(g.column("k"), n_buckets), pa.int64()),
            "k": g.column("k"),
            "reg": g.column("reg"),
            "rho": g.column("rho_max"),
        })

    def _bucket(group: pa.Table) -> pa.Table:
        key_type = group.schema.field("k").type
        if group.num_rows == 0:
            return pa.table({
                key_col: pa.array([], key_type),
                "n_registers_set": pa.array([], pa.int64()),
                "hll_estimate": pa.array([], pa.float64()),
            })
        # null-safe key codes: after the shuffle, hash group_by on raw
        # nullable keys is unsafe
        karr = group.column("k").combine_chunks()
        codes = pc.dictionary_encode(karr).indices.fill_null(
            -1).to_numpy(zero_copy_only=False).astype(np.int64)
        reg = group.column("reg").to_numpy(zero_copy_only=False)
        rho = group.column("rho").to_numpy(zero_copy_only=False)
        order = np.lexsort((reg, codes))
        c_s, r_s, rho_s = codes[order], reg[order], rho[order]
        pair_start = np.ones(len(c_s), dtype=bool)
        pair_start[1:] = (c_s[1:] != c_s[:-1]) | (r_s[1:] != r_s[:-1])
        p_idx = np.flatnonzero(pair_start)
        mr = np.maximum.reduceat(rho_s, p_idx)
        pc_codes = c_s[p_idx]
        key_start = np.ones(len(pc_codes), dtype=bool)
        key_start[1:] = pc_codes[1:] != pc_codes[:-1]
        k_idx = np.flatnonzero(key_start)
        k_end = np.append(k_idx[1:], len(pc_codes))
        nset = (k_end - k_idx).astype(np.int64)
        s = np.add.reduceat(np.power(2.0, -mr.astype(np.float64)),
                            k_idx)
        denom = s + (M - nset).astype(np.float64)
        raw = 0.709 * 4096.0 / denom
        lin_arg = np.where(nset < M, M - nset, 1).astype(np.float64)
        lin = M * np.log(M / lin_arg)
        est = np.where((raw <= 2.5 * M) & (nset < M), lin, raw)
        est = np.floor(est * 1e6 + 0.5) / 1e6
        rep = karr.take(pa.array(order[p_idx][k_idx], pa.int64()))
        return pa.table({
            key_col: rep,
            "n_registers_set": pa.array(nset, pa.int64()),
            "hll_estimate": pa.array(est, pa.float64()),
        })

    return ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_bucket, batch_format="pyarrow")


_CHECKSUM_MOD = 1 << 63


def table_checksum(ds, cols):
    """Order-insensitive, MERGEABLE content checksum — the
    replication/migration audit primitive ("is the copy byte-equal
    to the source?") that never needs a sort or a shuffle: checksum
    = sum over rows of md5_60(sentinel-composite(cols)) mod 2^63.
    Any row-order permutation, block layout, or partial/merged
    computation yields the same value; a single changed/missing row
    changes it (md5 collision odds aside).

    One streaming pass: each block contributes ``(n, partial_sum)``;
    the driver folds blocks-scale partials. Returns a one-row table
    ``(n_rows, checksum)``. The composite uses the repo's sentinel
    encoding (NULL -> \\x1e, \\x1f separators) over ``CAST(col AS
    VARCHAR)`` — SQL-reproducible, so the checksum itself is
    oracle-pinnable bit-for-bit.
    """
    import hashlib

    import pyarrow.compute as pc

    from .setops import _row_keys

    def _partial(batch: pa.Table) -> pa.Table:
        keys = _row_keys(batch, list(cols))
        total = 0
        for s in keys.to_pylist():
            total = (total + int(
                hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)
            ) % _CHECKSUM_MOD
        return pa.table({
            "n": pa.array([batch.num_rows], pa.int64()),
            "s": pa.array([total], pa.int64()),
        })

    n_rows = 0
    total = 0
    for b in ds.map_batches(
            _partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        if not b.num_rows:
            continue
        n_rows += int(pc.sum(b.column("n")).as_py() or 0)
        for v in b.column("s").to_pylist():
            total = (total + int(v)) % _CHECKSUM_MOD
    return pa.table({
        "n_rows": pa.array([n_rows], pa.int64()),
        "checksum": pa.array([total], pa.int64()),
    })


def priority_sample_k(ds, k: int, key_col: str, weight_col: str):
    """Deterministic WEIGHTED sample of exactly ``k`` rows —
    Efraimidis-Spirakis priority sampling (Inf. Proc. Letters 2006)
    with hash coins: each row draws u = (md5_15(key)+1) / 2^60 and
    gets priority ``-ln(u) / w``; the k smallest priorities win,
    giving inclusion probability proportional to weight. No RNG —
    the coin is a pure function of the key, so the sample is
    reproducible across runs and block layouts (dup-safe like every
    sampler here).

    Same two-phase shape as :func:`hash_sample_exact`: a vectorized
    LOCAL top-k per block (only blocks x k candidates survive), one
    tiny global sort+limit. Rows with NULL keys, or NULL/non-positive
    weights, are unsampleable and dropped. Ties (measure-zero) break
    by key. The priority arithmetic (-ln / divide on float64) is
    mirrored verbatim by the DuckDB twin; the k-th/k+1-th priority
    gap is astronomically larger than any libm ulp difference.
    """
    import hashlib

    import pyarrow.compute as pc

    pri_col = "_pri"

    def _local_topk(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.is_valid(batch.column(key_col)),
            pc.and_(pc.is_valid(batch.column(weight_col)),
                    pc.greater(pc.cast(batch.column(weight_col),
                                       pa.float64()), 0.0))))
        keys = batch.column(key_col).to_pylist()
        w = batch.column(weight_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        hv = np.array(
            [int(hashlib.md5(str(x).encode("utf-8")).hexdigest()[:15],
                 16) for x in keys], dtype=np.float64)
        u = (hv + 1.0) / float(1 << 60)
        pri = -np.log(u) / w
        order = np.lexsort((np.array(keys), pri))[:k]
        out = batch.take(pa.array(order, pa.int64()))
        return out.append_column(
            pri_col, pa.array(pri[order], pa.float64()))

    cands = ds.map_batches(_local_topk, batch_format="pyarrow")
    return (
        cands.sort([pri_col, key_col]).limit(k)
        .drop_columns([pri_col])
    )


def grouped_topk(ds, key_col: str, value_col: str, k: int,
                 n_buckets: int = 64):
    """Exact top-``k`` values per key by frequency (grouped heavy
    hitters): ``(key, value, n, rk)`` for the k most frequent
    ``value_col`` per ``key_col`` — e.g. each language's dominant
    vocabulary. Tie rule pinned: count desc, value asc.

    Map-side (key, value, n) partial combine, ONE key-hash
    co-shuffle of the pair partials, per whole bucket one Arrow group_by + sort + vectorized per-key rank
    (cumcount via boundary subtraction) and a rank filter.
    """
    import pyarrow.compute as pc

    from ..functions.hashing import bucket_ids

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch.select([key_col, value_col]).group_by(
            [key_col, value_col]).aggregate([([], "count_all")])
        out = pa.table({
            key_col: g.column(key_col),
            value_col: g.column(value_col),
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })
        return out.append_column("_kbucket", pa.array(
            bucket_ids(out.column(key_col), n_buckets), pa.int64()))

    def _topk(group: pa.Table) -> pa.Table:
        key_t = group.schema.field(key_col).type
        val_t = group.schema.field(value_col).type
        empty = pa.table({
            key_col: pa.array([], key_t),
            value_col: pa.array([], val_t),
            "n": pa.array([], pa.int64()),
            "rk": pa.array([], pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        g = group.select([key_col, value_col, "n"]).group_by(
            [key_col, value_col]).aggregate([("n", "sum")])
        g = g.sort_by([(key_col, "ascending"), ("n_sum", "descending"),
                       (value_col, "ascending")])
        keys = g.column(key_col).combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False)
        pos = np.arange(len(codes), dtype=np.int64)
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        seg_start = pos[first][np.cumsum(first) - 1]
        rk = pos - seg_start + 1
        sel = rk <= k
        idx = pa.array(pos[sel], pa.int64())
        return pa.table({
            key_col: keys.take(idx),
            value_col: g.column(value_col).take(idx),
            "n": pc.cast(g.column("n_sum").take(idx), pa.int64()),
            "rk": pa.array(rk[sel], pa.int64()),
        })

    return ds.select_columns([key_col, value_col]).map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("_kbucket", num_partitions=n_buckets).map_groups(
        _topk, batch_format="pyarrow")


def grouped_argmax(ds, key_col: str, value_col: str, id_col: str,
                   n_buckets: int = 64):
    """Per-key ARG-MAX row: for each key, the ``(id, value)`` with
    the largest ``value_col`` (ties → smallest ``id_col``) — the
    survivor-selection primitive (best doc per duplicate cluster,
    best candidate per query, latest version per key).

    Scale shape: each block first reduces to ONE candidate row per
    key it contains (vectorized sort + boundary mask — a legal
    partial because argmax is associative), so the single key-hash
    co-shuffle carries keys × blocks candidate rows, never raw rows;
    the whole-bucket UDF re-runs the same kernel to finish.
    """
    import pyarrow.compute as pc

    from ..functions.hashing import bucket_ids

    def _best(tbl: pa.Table) -> pa.Table:
        g = tbl.sort_by([(key_col, "ascending"),
                         (value_col, "descending"),
                         (id_col, "ascending")])
        keys = g.column(key_col).combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False)
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        return g.take(pa.array(np.flatnonzero(first), pa.int64()))

    def _partial(batch: pa.Table) -> pa.Table:
        b = batch.select([key_col, value_col, id_col])
        if b.num_rows == 0:
            return b.append_column("_kbucket", pa.array([], pa.int64()))
        best = _best(b)
        return best.append_column("_kbucket", pa.array(
            bucket_ids(best.column(key_col), n_buckets), pa.int64()))

    def _final(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_kbucket"])
        if base.num_rows == 0:
            return base
        return _best(base)

    return ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_final, batch_format="pyarrow")


def range_partition(ds, col: str, n_shards: int, lo: int,
                    bin_width: int, n_bins: int, id_col: str = "doc_id"):
    """RANGE sharding — the sorted-layout complement of hash
    `shuffle_shards`: rows land in ``n_shards`` contiguous key
    ranges of ~equal row counts, so downstream consumers get
    globally ordered shards (merge-readable output, range-prunable
    files — pairs with `bucketed.build_zone_map`).

    Splits come from a fixed-bin histogram SKETCH (per-block
    bincount partials, driver-folded, NO shuffle); split i is the
    inclusive-upper-edge estimate at rank ``ceil(i*n/n_shards)``
    evaluated in PURE int64 (``(i*n + n_shards - 1) // n_shards``) so
    the assignment is bit-reproducible in SQL. Pass 2 is map-only:
    ``shard = #(splits <= x)`` via one searchsorted per batch;
    NULL keys get shard -1.

    Returns ``(assignments, splits)``: assignments is a Dataset of
    ``(id_col, shard:int64)``; splits the (n_shards-1,) int64 array
    (driver state — it IS the partitioner).
    """
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        arr = batch.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.filter(pc.is_valid(arr))
        v = arr.to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.clip((v - lo) // bin_width, 0, n_bins - 1)
        return pa.table({
            "b": pa.array(np.arange(n_bins, dtype=np.int64)),
            "n": pa.array(np.bincount(b, minlength=n_bins).astype(
                np.int64)),
        })

    hist = np.zeros(n_bins, dtype=np.int64)
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        hist[t.column("b").to_numpy(zero_copy_only=False)] += (
            t.column("n").to_numpy(zero_copy_only=False))
    cum = np.cumsum(hist)
    n = int(cum[-1]) if n_bins else 0
    if n == 0:
        raise ValueError(f"range_partition: column {col!r} is all-null")
    splits = np.empty(n_shards - 1, dtype=np.int64)
    for i in range(1, n_shards):
        r = max(0, (i * n + n_shards - 1) // n_shards - 1)
        b = int(np.searchsorted(cum, r + 1, side="left"))
        splits[i - 1] = lo + (b + 1) * bin_width - 1
    final = splits.copy()

    def _assign(batch: pa.Table) -> pa.Table:
        arr = batch.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
        v = arr.fill_null(0).to_numpy(zero_copy_only=False).astype(
            np.int64)
        shard = np.searchsorted(final, v, side="right").astype(np.int64)
        shard[~valid] = -1
        return pa.table({
            id_col: batch.column(id_col),
            "shard": pa.array(shard, pa.int64()),
        })

    return ds.map_batches(_assign, batch_format="pyarrow"), final


def agg_refresh(base_agg, delta, keys, value_col: str,
                count_name: str = "n", sum_name: str = "sum_value"):
    """Incremental AGGREGATE-VIEW maintenance: merge a stored
    grouped aggregate (one row per key: count + sum) with a fresh
    delta partition WITHOUT rescanning history — the materialized-
    view refresh every ingest pipeline runs on each new crawl/day
    partition. Counts and sums are mergeable sufficient statistics,
    so refresh = (stored agg rows) ∪ (map-side partials of the
    delta) → one groupby at AGG scale; the work is proportional to
    |delta| + |keys|, never to the history that produced the base.

    ``base_agg`` must carry ``keys + [count_name, sum_name]``
    (exactly what this function outputs — refreshes chain). Float
    sums merge in a different order than a full recompute; callers
    compare on the shared 1e-6 grid like every grouped-sum query.
    """
    from ray.data.aggregate import Sum

    ks = list(keys)

    def _partial(batch: pa.Table) -> pa.Table:
        return partial_sum_count(batch, ks, value_col,
                                 sum_name=sum_name,
                                 count_name=count_name)

    delta_partials = delta.select_columns(ks + [value_col]).map_batches(
        _partial, batch_format="pyarrow")
    return base_agg.select_columns(
        ks + [count_name, sum_name]
    ).union(delta_partials).groupby(ks).aggregate(
        Sum(count_name, alias_name=count_name),
        Sum(sum_name, alias_name=sum_name),
    )


def bucket_checksums(ds, key_col: str, cols, n_buckets: int = 64):
    """Per-BUCKET mergeable content checksums — the Merkle level of a
    bucketed store's layout, and the anti-entropy repair primitive:
    two replicas compare buckets-scale checksum tables and re-sync
    ONLY the buckets that disagree, never scanning matching data
    twice (Dynamo/Cassandra repair, at bucket granularity).

    Same integrity math as :func:`table_checksum` (order-insensitive
    ``Σ md5_60(sentinel-composite) mod 2^63`` — SQL-reproducible),
    keyed by ``key_col % n_buckets`` (the SQL-expressible store
    partition rule; the engine-hash layout works identically).

    One streaming pass, NO shuffle: each block emits per-bucket
    ``(bucket, n, partial)`` rows (exact Python-int modular sums —
    an int64 aggregate of 2^63-bounded partials could overflow);
    the driver folds the buckets × blocks table. Returns
    ``(bucket, n_rows, checksum)``.
    """
    import hashlib

    import ray.data

    from .setops import _row_keys

    def _partial(batch: pa.Table) -> pa.Table:
        keys = _row_keys(batch, list(cols))
        bucket = pc.cast(batch.column(key_col), pa.int64()
                         ).combine_chunks().to_numpy(
            zero_copy_only=False) % n_buckets
        sums: dict = {}
        counts: dict = {}
        for b, s in zip(bucket.tolist(), keys.to_pylist()):
            hv = int(hashlib.md5(
                s.encode("utf-8")).hexdigest()[:15], 16)
            sums[b] = (sums.get(b, 0) + hv) % _CHECKSUM_MOD
            counts[b] = counts.get(b, 0) + 1
        bs = sorted(sums)
        return pa.table({
            "bucket": pa.array(bs, pa.int64()),
            "n": pa.array([counts[b] for b in bs], pa.int64()),
            "s": pa.array([sums[b] for b in bs], pa.int64()),
        })

    folded_n: dict = {}
    folded_s: dict = {}
    for b in ds.map_batches(
            _partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for bk, n, s in zip(b.column("bucket").to_pylist(),
                            b.column("n").to_pylist(),
                            b.column("s").to_pylist()):
            folded_n[bk] = folded_n.get(bk, 0) + n
            folded_s[bk] = (folded_s.get(bk, 0) + s) % _CHECKSUM_MOD
    bs = sorted(folded_n)
    return ray.data.from_arrow(pa.table({
        "bucket": pa.array(bs, pa.int64()),
        "n_rows": pa.array([folded_n[b] for b in bs], pa.int64()),
        "checksum": pa.array([folded_s[b] for b in bs], pa.int64()),
    }))


def grouped_priority_sample(ds, k: int, group_col: str,
                            key_col: str, weight_col: str,
                            n_buckets: int = 64):
    """Per-GROUP weighted exact-k sample — stratified
    Efraimidis-Spirakis: inside every group the k smallest
    ``-ln((md5_15(key)+1)/2^60) / w`` priorities win, so inclusion
    is weight-proportional WITHIN each stratum (the "k docs per
    language, weighted by length" training-mix sampler). Hash coins,
    no RNG — reproducible across runs and layouts like
    :func:`priority_sample_k`.

    Two-phase `group_cap` shape: a vectorized local per-group top-k
    per block (lexsort + boundary-mask cumcount — never a per-group
    UDF) cuts candidates to blocks × groups × k rows, then ONE
    group-hash co-shuffle re-applies the same kernel per whole
    bucket. NULL groups/keys and non-positive weights drop.
    """
    import hashlib

    import ray.data

    from ..functions.hashing import bucket_ids

    pri_col = "_pri"

    def _rank_mask(groups: np.ndarray, pri: np.ndarray,
                   keys: np.ndarray):
        """indices of rows with per-group priority rank < k."""
        order = np.lexsort((keys, pri, groups))
        g = groups[order]
        change = np.r_[True, g[1:] != g[:-1]]
        idx = np.arange(len(g), dtype=np.int64)
        seg = np.maximum.accumulate(np.where(change, idx, 0))
        return order[(idx - seg) < k]

    def _local(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.and_(pc.is_valid(batch.column(group_col)),
                    pc.is_valid(batch.column(key_col))),
            pc.and_(pc.is_valid(batch.column(weight_col)),
                    pc.greater(pc.cast(batch.column(weight_col),
                                       pa.float64()), 0.0))))
        if batch.num_rows == 0:
            return batch.append_column(
                pri_col, pa.array([], pa.float64())).append_column(
                "_bucket", pa.array([], pa.int64()))
        keys = batch.column(key_col).to_pylist()
        w = batch.column(weight_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        hv = np.array(
            [int(hashlib.md5(
                str(x).encode("utf-8")).hexdigest()[:15], 16)
             for x in keys], dtype=np.float64)
        pri = -np.log((hv + 1.0) / float(1 << 60)) / w
        groups = np.asarray(batch.column(group_col).to_pylist())
        keep = _rank_mask(groups, pri, np.asarray(keys))
        out = batch.take(pa.array(keep, pa.int64()))
        out = out.append_column(
            pri_col, pa.array(pri[keep], pa.float64()))
        return out.append_column(
            "_bucket", pa.array(
                bucket_ids(out.column(group_col), n_buckets),
                pa.int64()))

    def _bucket_final(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.drop_columns(["_bucket", pri_col])
        groups = np.asarray(group.column(group_col).to_pylist())
        pri = group.column(pri_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        keys = np.asarray(group.column(key_col).to_pylist())
        keep = _rank_mask(groups, pri, keys)
        return group.take(pa.array(keep, pa.int64())).drop_columns(
            ["_bucket", pri_col])

    return (
        ds.map_batches(_local, batch_format="pyarrow")
        .groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket_final, batch_format="pyarrow")
    )
