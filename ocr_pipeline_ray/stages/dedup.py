"""Deduplication operators: exact, MinHash/LSH, SimHash, n-gram Jaccard.

Scale shape (10^12-row design notes):

* Exact dedup hash-partitions on the content fingerprint — the ONE
  shuffle — then keeps the first row per group (D1 first-wins
  semantics, `/root/reference/ocr_pipeline.py:335`).
* MinHash near-dup shuffles only ``(band_hash → doc_id)`` pairs
  (bytes per doc, not the documents), groups by band, and emits
  candidate pairs inside each bucket; a hot bucket is bounded by
  ``max_bucket`` to keep the pair blow-up polynomial-safe, and the
  truncation is OBSERVABLE via :func:`minhash_bucket_stats` (no
  silent caps).
* Jaccard verification is fully distributed: candidate pairs stay a
  Dataset; only the candidate docs' shingle sets move, co-shuffled to
  their pairs through two small groupbys (a union-based repartition
  join). Nothing content-sized ever lands on the driver.
* Hash functions are md5-based so the DuckDB oracle can reproduce
  them exactly (md5 hex strings compare lexicographically the same
  in Python and SQL).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Min

# per-process sequence for checkpoint dir tags (the pid is already in
# the dir name; this disambiguates multiple calls within one process)
_CKPT_SEQ = itertools.count()


def _md5(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def _round6(x: float) -> float:
    """floor(x*1e6 + 0.5)/1e6 — matches the DuckDB oracle formula."""
    return math.floor(x * 1000000.0 + 0.5) / 1000000.0


# ---------------------------------------------------------------- exact

def fingerprint_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``fp`` = md5(text) (hex) — the exact-dedup key."""
    texts = batch.column(text_col).to_pylist()
    fps = [_md5(t or "") for t in texts]
    return batch.append_column("fp", pa.array(fps, pa.string()))


def exact_dedup_summary(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-content-group summary: fp, keep_id=min(id), n_dups=count.

    One hash-partition shuffle on ``fp``; the map side ships only
    (fp, id) — content never moves.
    """
    with_fp = ds.map_batches(
        lambda b: fingerprint_fn(b, text_col), batch_format="pyarrow"
    ).select_columns(["fp", id_col])
    agg = with_fp.groupby("fp").aggregate(Min(id_col), Count())

    def _rename(batch: pa.Table) -> pa.Table:
        mapping = {
            f"min({id_col})": "keep_id",
            "count()": "n_dups",
        }
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names]
        )

    return agg.map_batches(_rename, batch_format="pyarrow")


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


# -------------------------------------------------------------- minhash

def shingles(tokens: List[str], k: int = 3) -> List[str]:
    return [
        " ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)
    ] if len(tokens) >= k else []


def minhash_signature(text: str, n_hashes: int = 4, k: int = 3) -> List[Optional[str]]:
    """Bottom-1 minhash per band — ``n_hashes`` band values.

    ONE md5 per distinct shingle, sliced into ``n_hashes`` 8-hex-char
    chunks (independent 32-bit hash functions from a single digest) —
    4× fewer hashes than salting per band. min() over hex chunks =
    lexicographic min, matching DuckDB's
    ``list_min(list_transform(shingles, s -> substr(md5(s), 1+8*i, 8)))``.
    """
    if n_hashes > 4:
        raise ValueError("n_hashes > 4 needs more than one 128-bit digest")
    toks = text.split(" ")
    sh = set(shingles(toks, k))
    if not sh:
        return [None] * n_hashes
    # min over raw 4-byte chunks == min over their hex (hex is an
    # order-preserving map); only the 4 winners get hex-encoded
    digests = [hashlib.md5(s.encode("utf-8")).digest() for s in sh]
    return [
        min(d[4 * i : 4 * i + 4] for d in digests).hex()
        for i in range(n_hashes)
    ]


def minhash_fn(batch: pa.Table, text_col: str = "text", n_hashes: int = 4, k: int = 3) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    sigs = [minhash_signature(t or "", n_hashes, k) for t in texts]
    out = batch
    for i in range(n_hashes):
        out = out.append_column(
            f"h{i}", pa.array([s[i] for s in sigs], pa.string())
        )
    return out


def minhash_signatures(ds, id_col: str = "doc_id", text_col: str = "text",
                       n_hashes: int = 4, k: int = 3):
    """doc_id + h0..h{n-1} minhash band values (no shuffle)."""
    return ds.map_batches(
        lambda b: minhash_fn(b, text_col, n_hashes, k),
        batch_format="pyarrow",
    ).select_columns([id_col] + [f"h{i}" for i in range(n_hashes)])


def _band_explode(sigs, id_col: str, n_hashes: int, r: int = 1):
    """(id, h0..hN) → (band, id) rows — the only data that shuffles.

    Band ``j`` is the concatenation of the ``r`` consecutive hashes
    ``h_{j·r} .. h_{j·r+r-1}`` (classic LSH banding); ``r=1`` is the
    one-hash-per-band default. A doc with NULL hashes (no shingles)
    emits no bands — all of a doc's hashes come from the same
    shingle set, so checking the band's first hash suffices.
    """
    n_bands = n_hashes // r

    def _explode(batch: pa.Table) -> pa.Table:
        ids, bands = [], []
        id_vals = batch.column(id_col).to_pylist()
        cols = [batch.column(f"h{i}").to_pylist() for i in range(n_hashes)]
        for j in range(n_bands):
            rows = cols[j * r: (j + 1) * r]
            for t, rid in enumerate(id_vals):
                if rows[0][t] is None:
                    continue
                ids.append(rid)
                bands.append(
                    f"{j}:{''.join(rows[x][t] for x in range(r))}")
        return pa.table({
            "band": pa.array(bands, pa.string()),
            id_col: pa.array(ids, pa.int64()),
        })

    return sigs.map_batches(_explode, batch_format="pyarrow")


def _pairs_from_band_rows(exploded, id_col: str, max_bucket: int,
                          n_buckets: int = 128):
    """(band, id) rows → distinct candidate (d1, d2) pairs.

    The shared LSH back half: groupby(crc32-BUCKET of band) →
    per-band pair expansion inside whole-bucket UDFs (Arrow/numpy,
    no pandas, no per-band UDF invocation) → global pair dedup. Two
    small shuffles over (hash, id) pairs only. ``max_bucket`` caps
    degenerate bands (hot-key guard) — use
    :func:`minhash_bucket_stats` to MEASURE what a cap drops.
    """
    import numpy as np
    from zlib import crc32

    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = [
            crc32(b.encode()) % n_buckets
            for b in batch.column("band").to_pylist()
        ]
        return batch.append_column("bucket", pa.array(buckets, pa.int64()))

    def _bucket_pairs(group: pa.Table) -> pa.Table:
        """Whole bucket of bands: sort by band, expand each band's
        upper triangle over contiguous runs — one UDF call per
        bucket instead of one per band."""
        empty = pa.table({"d1": pa.array([], pa.int64()),
                          "d2": pa.array([], pa.int64())})
        if group.num_rows < 2:
            return empty
        bands = np.asarray(group.column("band").to_pylist())
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bands))
        bands, ids = bands[order], ids[order]
        # band run boundaries in the sorted view
        starts = np.concatenate(
            [[0], np.nonzero(bands[1:] != bands[:-1])[0] + 1, [len(bands)]]
        )
        d1_parts, d2_parts = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            run = ids[s:e][:max_bucket]
            if len(run) < 2:
                continue
            r, c = np.triu_indices(len(run), k=1)
            d1_parts.append(run[r])
            d2_parts.append(run[c])
        if not d1_parts:
            return empty
        return pa.table({
            "d1": pa.array(np.concatenate(d1_parts), pa.int64()),
            "d2": pa.array(np.concatenate(d2_parts), pa.int64()),
        })

    pairs = (
        exploded.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("bucket", num_partitions=n_buckets)
        .map_groups(_bucket_pairs, batch_format="pyarrow")
    )
    # distinct pairs (a doc pair can collide in several bands)
    agg = pairs.groupby(["d1", "d2"]).aggregate(Count())
    return agg.select_columns(["d1", "d2"])


def minhash_dup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      n_hashes: int = 4, k: int = 3, max_bucket: int = 1000):
    """Candidate near-duplicate pairs: docs sharing ANY band value.

    band explode → :func:`_pairs_from_band_rows` (bucketed
    whole-bucket pair expansion + global pair dedup).

    ``ds`` may already BE a signature table (``h0..hN`` columns
    attached — detected by schema, same contract as
    :func:`minhash_cross_pairs`): the signature scan is skipped, so
    callers composing several minhash consumers hash the corpus once.
    """
    if f"h{n_hashes - 1}" in (ds.schema().names or []):
        sigs = ds  # precomputed signature table
    else:
        sigs = minhash_signatures(ds, id_col, text_col, n_hashes, k)
    exploded = _band_explode(sigs, id_col, n_hashes)
    return _pairs_from_band_rows(exploded, id_col, max_bucket)


def minhash_bucket_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                         n_hashes: int = 4, k: int = 3,
                         max_bucket: int = 1000):
    """Hot-bucket telemetry for the ``max_bucket`` cap (one row).

    Reports how much :func:`minhash_dup_pairs` would truncate at the
    given cap: total band buckets, buckets over the cap, the largest
    bucket, and the number of (band, id) memberships dropped. Emit
    this next to the pairs so a cap is a measured trade-off, not a
    silent one.
    """
    from ray.data.aggregate import Max, Sum

    sigs = minhash_signatures(ds, id_col, text_col, n_hashes, k)
    exploded = _band_explode(sigs, id_col, n_hashes)
    sizes = exploded.groupby("band").aggregate(Count())

    def _per_bucket(batch: pa.Table) -> pa.Table:
        n = batch.column("count()")
        dropped = pc.max_element_wise(
            pc.subtract(n, pa.scalar(max_bucket, n.type)),
            pa.scalar(0, n.type),
        )
        return pa.table({
            "n_buckets": pa.array([batch.num_rows], pa.int64()),
            "n_hot": pa.array(
                [pc.sum(pc.cast(pc.greater(n, max_bucket), pa.int64())).as_py() or 0],
                pa.int64()),
            "max_size": pa.array(
                [pc.max(n).as_py() or 0], pa.int64()),
            "dropped_ids": pa.array(
                [pc.sum(dropped).as_py() or 0], pa.int64()),
        })

    partials = sizes.map_batches(_per_bucket, batch_format="pyarrow")
    agg = partials.aggregate(
        Sum("n_buckets"), Sum("n_hot"), Max("max_size"), Sum("dropped_ids")
    )
    return pa.table({
        "n_buckets": pa.array([agg["sum(n_buckets)"] or 0], pa.int64()),
        "n_hot_buckets": pa.array([agg["sum(n_hot)"] or 0], pa.int64()),
        "max_bucket_size": pa.array([agg["max(max_size)"] or 0], pa.int64()),
        "dropped_ids": pa.array([agg["sum(dropped_ids)"] or 0], pa.int64()),
    })


def prefix_dup_groups(ds, p: int = 32, id_col: str = "doc_id",
                      text_col: str = "text"):
    """Duplicate groups by PREFIX fingerprint: md5 of the first ``p``
    tokens — the truncation-mirror detector (a syndicated copy cut at
    a different length, a page re-crawled with a shorter render, a
    doc whose tail differs only in injected chrome shares its head
    verbatim; CCNet-style head-hash dedup). Exact dedup
    (:func:`exact_dedup_summary`) misses these because ANY tail byte
    breaks the whole-content hash.

    Same scale shape as exact dedup: the map side ships (pfp, id)
    only — one hash-partition shuffle, content never moves — and only
    groups with >1 member survive. Docs shorter than ``p`` tokens
    fingerprint their full text (prefix == text), so for them this
    degrades to exact dedup rather than dropping rows.
    """
    def _pfp(batch: pa.Table) -> pa.Table:
        fps = [
            _md5(" ".join((t or "").split(" ")[:p]))
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table({
            "pfp": pa.array(fps, pa.string()),
            id_col: batch.column(id_col),
        })

    agg = ds.map_batches(_pfp, batch_format="pyarrow").groupby(
        "pfp").aggregate(Min(id_col), Count())

    def _finish(batch: pa.Table) -> pa.Table:
        out = batch.rename_columns([
            {"pfp": "pfp", f"min({id_col})": "keep_id",
             "count()": "n_docs"}.get(c, c)
            for c in batch.column_names
        ])
        return out.filter(pc.greater(out.column("n_docs"), 1))

    return agg.map_batches(_finish, batch_format="pyarrow")


def sparse_cosine_pairs(ds, id_col: str = "doc_id",
                        text_col: str = "text", k: int = 3,
                        threshold: float = 0.8, df_cap: int = 1000,
                        n_buckets: int = 128):
    """WEIGHTED sparse-vector similarity self-join: cosine over
    k-shingle COUNT vectors ≥ threshold — the postings-based
    all-pairs cosine (Bayardo et al. WWW'07 family), complementing
    the repo's set-based Jaccard (weights ignored) and dense-embedding
    cosine (dimensionality fixed). Repetition-sensitive: a doc that
    repeats one paragraph 10× scores near a single copy under
    Jaccard but far under counted cosine.

    Scale shape — three exchanges, all carrying (hash, int) rows:

    1. tf rows: per doc, DISTINCT shingle counts + the doc's squared
       norm (row-local), shuffled by crc32(term) bucket;
    2. per-term pair partials inside whole-bucket UDFs: terms with
       global ``df > df_cap`` are EXCLUDED — an explicit semantic of
       the operator (boilerplate shared by everyone contributes
       ~nothing to cosine but O(df²) pairs), replicated exactly in
       the SQL twin, not a silent cap; survivors emit
       ``(d1, d2, tf1·tf2, n1sq, n2sq)`` via numpy triu per run;
    3. per-pair fold by crc32(pair) bucket: dot = Σ partials (int64,
       EXACT — summation order can't matter), cosine =
       dot / (sqrt(n1sq)·sqrt(n2sq)) — one float expression over
       exact integers, bit-identical to DuckDB's.

    Output: ``(d1, d2, cosine·round6)`` for pairs ≥ threshold.
    """
    from zlib import crc32

    import numpy as np

    tf_schema = pa.schema([
        ("_b", pa.int64()), ("term", pa.string()),
        ("doc", pa.int64()), ("tf", pa.int64()), ("nsq", pa.int64()),
    ])
    part_schema = pa.schema([
        ("_b", pa.int64()), ("d1", pa.int64()), ("d2", pa.int64()),
        ("part", pa.int64()), ("n1sq", pa.int64()), ("n2sq", pa.int64()),
    ])
    out_schema = pa.schema([
        ("d1", pa.int64()), ("d2", pa.int64()), ("cosine", pa.float64()),
    ])

    def _tf_rows(batch: pa.Table) -> pa.Table:
        from collections import Counter

        b_, t_, d_, f_, n_ = [], [], [], [], []
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        for rid, t in zip(ids, texts):
            counts = Counter(shingles((t or "").split(" "), k))
            if not counts:
                continue
            nsq = sum(v * v for v in counts.values())
            for term, tf in counts.items():
                b_.append(crc32(term.encode()) % n_buckets)
                t_.append(term)
                d_.append(rid)
                f_.append(tf)
                n_.append(nsq)
        return pa.table({
            "_b": pa.array(b_, pa.int64()),
            "term": pa.array(t_, pa.string()),
            "doc": pa.array(d_, pa.int64()),
            "tf": pa.array(f_, pa.int64()),
            "nsq": pa.array(n_, pa.int64()),
        }, schema=tf_schema)

    def _term_partials(group: pa.Table) -> pa.Table:
        if group.num_rows < 2:
            return part_schema.empty_table()
        g = group.sort_by([("term", "ascending"), ("doc", "ascending")])
        terms = pc.dictionary_encode(
            g.column("term").combine_chunks()
        ).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        docs = g.column("doc").combine_chunks().to_numpy()
        tfs = g.column("tf").combine_chunks().to_numpy()
        nsqs = g.column("nsq").combine_chunks().to_numpy()
        from ..functions.segments import key_segments

        seg_start, seg_len = key_segments(terms)
        d1p, d2p, pp, n1p, n2p = [], [], [], [], []
        for s, ln in zip(seg_start, seg_len):
            if ln < 2 or ln > df_cap:
                continue  # df-cap: operator semantic, SQL-mirrored
            r, c = np.triu_indices(int(ln), 1)
            d1p.append(docs[s + r])
            d2p.append(docs[s + c])
            pp.append(tfs[s + r] * tfs[s + c])
            n1p.append(nsqs[s + r])
            n2p.append(nsqs[s + c])
        if not d1p:
            return part_schema.empty_table()
        d1 = np.concatenate(d1p)
        d2 = np.concatenate(d2p)
        pb = np.fromiter(
            (crc32(f"{a}|{b}".encode()) % n_buckets
             for a, b in zip(d1, d2)), np.int64, len(d1))
        return pa.table({
            "_b": pa.array(pb, pa.int64()),
            "d1": pa.array(d1, pa.int64()),
            "d2": pa.array(d2, pa.int64()),
            "part": pa.array(np.concatenate(pp), pa.int64()),
            "n1sq": pa.array(np.concatenate(n1p), pa.int64()),
            "n2sq": pa.array(np.concatenate(n2p), pa.int64()),
        }, schema=part_schema)

    def _pair_fold(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        d1 = group.column("d1").combine_chunks().to_numpy()
        d2 = group.column("d2").combine_chunks().to_numpy()
        part = group.column("part").combine_chunks().to_numpy()
        n1sq = group.column("n1sq").combine_chunks().to_numpy()
        n2sq = group.column("n2sq").combine_chunks().to_numpy()
        order = np.lexsort((d2, d1))
        d1, d2 = d1[order], d2[order]
        part, n1sq, n2sq = part[order], n1sq[order], n2sq[order]
        starts = np.concatenate([[0], np.nonzero(
            (d1[1:] != d1[:-1]) | (d2[1:] != d2[:-1]))[0] + 1])
        ends = np.concatenate([starts[1:], [len(d1)]])
        cs = np.concatenate([[0], np.cumsum(part, dtype=np.int64)])
        dot = cs[ends] - cs[starts]
        cosine = dot / (np.sqrt(n1sq[starts].astype(np.float64))
                        * np.sqrt(n2sq[starts].astype(np.float64)))
        keep = cosine >= threshold
        c6 = np.floor(cosine[keep] * 1000000.0 + 0.5) / 1000000.0
        return pa.table({
            "d1": pa.array(d1[starts][keep], pa.int64()),
            "d2": pa.array(d2[starts][keep], pa.int64()),
            "cosine": pa.array(c6, pa.float64()),
        }, schema=out_schema)

    rows = ds.map_batches(_tf_rows, batch_format="pyarrow")
    partials = rows.groupby("_b", num_partitions=n_buckets).map_groups(
        _term_partials, batch_format="pyarrow")
    return partials.groupby("_b", num_partitions=n_buckets).map_groups(
        _pair_fold, batch_format="pyarrow")


# ------------------------------------------------------ banded minhash

def minhash_signature_salted(text: str, n_hashes: int, k: int = 3
                             ) -> List[Optional[str]]:
    """Bottom-1 minhash for ``n_hashes`` > 4 hash functions.

    Extends :func:`minhash_signature` past one digest's 4 chunks by
    SALTING: hash function ``i`` is the 4-byte chunk ``i % 4`` of
    ``md5(s)`` when ``i < 4`` and of ``md5(f"{i//4}:{s}")``
    otherwise — so the first four functions are bit-identical to the
    unsalted kernel and the DuckDB twin stays a one-line
    ``substr(md5(...), pos, 8)`` expression. One md5 per (salt,
    distinct shingle): ``ceil(n/4)`` digests per shingle.
    """
    toks = text.split(" ")
    sh = set(shingles(toks, k))
    if not sh:
        return [None] * n_hashes
    n_digests = (n_hashes + 3) // 4
    out: List[Optional[str]] = []
    for d in range(n_digests):
        if d == 0:
            digests = [hashlib.md5(s.encode("utf-8")).digest() for s in sh]
        else:
            digests = [
                hashlib.md5(f"{d}:{s}".encode("utf-8")).digest() for s in sh
            ]
        for c in range(4):
            i = 4 * d + c
            if i >= n_hashes:
                break
            out.append(min(g[4 * c: 4 * c + 4] for g in digests).hex())
    return out


def minhash_banded_signatures(ds, id_col: str = "doc_id",
                              text_col: str = "text",
                              n_hashes: int = 8, k: int = 3):
    """doc_id + h0..h{n-1} for arbitrary ``n_hashes`` (no shuffle)."""

    def _fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        sigs = [minhash_signature_salted(t or "", n_hashes, k)
                for t in texts]
        out = batch.select([id_col])
        for i in range(n_hashes):
            out = out.append_column(
                f"h{i}", pa.array([s[i] for s in sigs], pa.string()))
        return out

    return ds.map_batches(_fn, batch_format="pyarrow")


def minhash_banded_pairs(ds, id_col: str = "doc_id",
                         text_col: str = "text", b: int = 3, r: int = 2,
                         k: int = 3, max_bucket: int = 1000):
    """Candidate pairs under classic (b bands × r rows) LSH banding
    (Leskovec/Rajaraman/Ullman, "Mining of Massive Datasets" ch. 3):
    docs collide when ALL ``r`` minhashes of SOME band agree, giving
    the S-curve ``P(candidate) = 1 - (1 - J^r)^b`` — ``r > 1`` trades
    recall for precision vs the repo's default 1-row bands
    (:func:`minhash_dup_pairs` is the ``r=1`` special case; at
    b=3, r=2 the curve's midpoint sits near J≈0.63, so low-overlap
    pairs that single-hash bands propose in droves never leave the
    map side).

    Scale shape identical to the 1-row path: the band key is the
    CONCATENATION of the band's r hex minhashes, exploded to
    (band, id) rows — the only data that shuffles — then
    :func:`_pairs_from_band_rows` does the bucketed whole-bucket
    pair expansion + global pair dedup. Docs with no shingles
    (< k tokens) produce no bands.
    """
    n_hashes = b * r
    sigs = minhash_banded_signatures(ds, id_col, text_col, n_hashes, k)
    exploded = _band_explode(sigs, id_col, n_hashes, r)
    return _pairs_from_band_rows(exploded, id_col, max_bucket)


# -------------------------------------------------------------- simhash

def simhash64_batch(texts: List[str]) -> List[int]:
    """64-bit SimHash over single-space tokens (md5-derived bits) of
    each text in a batch; bit-exact to the scalar per-token loop in
    ``tests/replicas.py``.

    One md5 per DISTINCT token in the batch (cross-doc memoization),
    then numpy end to end: ``unpackbits`` turns the 64-bit digests
    into a ±1 bit matrix, ``np.add.reduceat`` sums each document's
    token rows in one pass, ``packbits`` reassembles the signature —
    no per-token × 64-bit Python loop. ~an order of magnitude faster
    than the scalar kernel on realistic batches.
    """
    import numpy as np

    tok_lists = [(t or "").split(" ") for t in texts]
    if not tok_lists:
        return []
    idx: Dict[str, int] = {}
    for toks in tok_lists:
        for tok in toks:
            if tok not in idx:
                idx[tok] = len(idx)
    digests = np.empty(len(idx), dtype=np.uint64)
    for tok, i in idx.items():
        digests[i] = int.from_bytes(
            hashlib.md5(tok.encode("utf-8")).digest()[:8], "big"
        )
    # (U, 64) ±1 matrix; column b == bit b of the digest (LSB first,
    # matching the scalar kernel's `(h >> bit) & 1`)
    signed = np.unpackbits(
        digests.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).astype(np.int32) * 2 - 1
    flat = np.fromiter(
        (idx[t] for toks in tok_lists for t in toks), np.int64
    )
    lens = np.fromiter((len(toks) for toks in tok_lists), np.int64,
                       count=len(tok_lists))
    # str.split(" ") never yields an empty list, so every segment in
    # reduceat is non-empty (equal consecutive offsets would misbehave)
    offsets = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    acc = np.add.reduceat(signed[flat], offsets, axis=0)
    packed = np.packbits(
        (acc > 0).astype(np.uint8), axis=1, bitorder="little"
    ).view(np.uint64).ravel()
    return [int(v) for v in packed]


def simhash_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    hashes = [format(v, "016x") for v in simhash64_batch(texts)]
    return batch.append_column("simhash", pa.array(hashes, pa.string()))


def simhash_signatures(ds, id_col: str = "doc_id", text_col: str = "text"):
    return ds.map_batches(
        lambda b: simhash_fn(b, text_col), batch_format="pyarrow"
    ).select_columns([id_col, "simhash"])


# ------------------------------------------------------- n-gram jaccard

_EMPTY_PAIRS = pa.table({
    "d1": pa.array([], pa.int64()),
    "d2": pa.array([], pa.int64()),
    "jaccard": pa.array([], pa.float64()),
})


# per-worker-process caches for broadcast objects (workers persist
# across tasks; deserialize from the object store once per worker,
# not once per batch)
_SH_MAP_CACHE: Dict[str, Dict] = {}
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


def _broadcast_shingle_map(refs):
    import ray

    cache_key = refs[0].hex() if refs else ""
    sh_map = _SH_MAP_CACHE.get(cache_key)
    if sh_map is None:
        sh_map = {}
        for blk in ray.get(list(refs)):
            for key, sh in zip(blk.column("key").to_pylist(),
                               blk.column("sh").to_pylist()):
                sh_map[key] = frozenset(sh)
        _SH_MAP_CACHE.clear()  # hold at most one table per worker
        _SH_MAP_CACHE[cache_key] = sh_map
    return sh_map


def _set_pair_score(sh_a, sh_b, metric: str) -> float:
    """Exact set-similarity score of two shingle sets."""
    inter = len(sh_a & sh_b)
    if metric == "containment":
        lo = min(len(sh_a), len(sh_b))
        return 1.0 if lo == 0 else inter / lo
    union = len(sh_a) + len(sh_b) - inter
    return 1.0 if union == 0 else inter / union


def _collect_pair_ids(cands) -> set:
    """Distinct doc ids of a (d1, d2) pair Dataset — driver holds the
    int id set only (small by construction: candidates, not corpus)."""
    ids = set()
    for batch in cands.iter_batches(batch_format="pyarrow"):
        ids.update(batch.column("d1").to_pylist())
        ids.update(batch.column("d2").to_pylist())
    return ids


def score_pairs_broadcast(ds, cands, id_col: str = "doc_id",
                          text_col: str = "text", k: int = 3,
                          threshold: float = 0.8,
                          metric: str = "jaccard"):
    """Exact re-score of a candidate-pair Dataset by n-gram set
    similarity — the broadcast hash-join shape shared by every
    candidate generator (MinHash LSH, prefix filtering): the
    candidate docs' DISTINCT shingle sets are computed distributed,
    materialized in the OBJECT STORE, and joined against the pair
    stream inside ``map_batches`` (deserialized once per worker,
    cached). Output: ``(d1, d2, <metric>·round6)`` for pairs scoring
    ≥ threshold."""
    import ray
    import ray.data

    score_col = metric
    cand_ids = _collect_pair_ids(cands)
    if not cand_ids:
        return ray.data.from_arrow(pa.table({
            "d1": pa.array([], pa.int64()),
            "d2": pa.array([], pa.int64()),
            score_col: pa.array([], pa.float64()),
        }))
    ids_ref = ray.put(frozenset(cand_ids))

    def _project_shingles(batch: pa.Table) -> pa.Table:
        wanted = _cached_get(ids_ref)
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        keys, shs = [], []
        for rid, t in zip(ids, texts):
            if rid in wanted:
                keys.append(rid)
                shs.append(sorted(set(shingles((t or "").split(" "), k))))
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "sh": pa.array(shs, pa.list_(pa.string())),
        })

    sh_ds = ds.map_batches(
        _project_shingles, batch_format="pyarrow"
    ).materialize()
    from .similarity import _nonempty_block_refs

    sh_refs = tuple(_nonempty_block_refs(sh_ds))

    def _score_pairs(batch: pa.Table) -> pa.Table:
        sh_map = _broadcast_shingle_map(sh_refs)
        d1 = batch.column("d1").to_pylist()
        d2 = batch.column("d2").to_pylist()
        d1s, d2s, scores = [], [], []
        for a, b in zip(d1, d2):
            sh_a = sh_map.get(a)
            sh_b = sh_map.get(b)
            if sh_a is None or sh_b is None:
                continue
            score = _set_pair_score(sh_a, sh_b, metric)
            if score >= threshold:
                d1s.append(a)
                d2s.append(b)
                scores.append(_round6(score))
        return pa.table({
            "d1": pa.array(d1s, pa.int64()),
            "d2": pa.array(d2s, pa.int64()),
            score_col: pa.array(scores, pa.float64()),
        })

    return cands.map_batches(_score_pairs, batch_format="pyarrow")


def jaccard_dup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      k: int = 3, threshold: float = 0.8,
                      n_hashes: int = 4, max_bucket: int = 1000,
                      join: str = "broadcast",
                      metric: str = "jaccard"):
    """Verified near-dup pairs: MinHash candidates re-scored by exact
    n-gram Jaccard ≥ threshold. Output: (d1, d2, jaccard·round6).

    ``metric="containment"`` scores ``|A∩B| / min(|A|, |B|)`` instead
    (asymmetric-overlap / quote-and-subset detection: a short doc
    fully quoted inside a long one scores 1.0 where Jaccard stays
    small); the output score column is named after the metric.

    Fully distributed verification — candidate pairs stay a Dataset
    and nothing content-sized lands on the driver (it holds block
    refs and the distinct candidate-id set only). Two join strategies:

    * ``join="broadcast"`` (default): the candidate docs' DISTINCT
      shingle sets are computed distributed, materialized in the
      OBJECT STORE, and hash-joined against the pair stream inside
      ``map_batches`` (deserialized once per worker, cached). One
      pass, zero extra shuffles — right whenever the candidate
      shingle table fits in a worker's heap (it is the small side by
      construction: near-dup candidates, not the corpus).
    * ``join="shuffle"``: no memory assumption — memberships and
      shingle sets are co-shuffled by a crc32 hash bucket of the doc
      id (union + groupby = repartition join; whole-bucket UDFs, not
      per-doc groups), then a second bucketed groupby on the pair key
      scores each pair. Shuffle volume = one shingle-set copy per
      pair membership.
    """
    import ray

    if join not in ("broadcast", "shuffle"):
        raise ValueError(f"join must be broadcast|shuffle, got {join!r}")
    if metric not in ("jaccard", "containment"):
        raise ValueError(
            f"metric must be jaccard|containment, got {metric!r}")
    score_col = metric

    def _pair_score(sh_a, sh_b) -> float:
        return _set_pair_score(sh_a, sh_b, metric)

    cands = minhash_dup_pairs(
        ds, id_col, text_col, n_hashes, k, max_bucket
    ).materialize()  # tiny: (int64, int64) per candidate pair

    if join == "broadcast":
        return score_pairs_broadcast(
            ds, cands, id_col=id_col, text_col=text_col, k=k,
            threshold=threshold, metric=metric)

    # broadcast the candidate id SET (small side) to prune the scan
    cand_ids = _collect_pair_ids(cands)
    if not cand_ids:
        return ray.data.from_arrow(_EMPTY_PAIRS)
    ids_ref = ray.put(frozenset(cand_ids))

    from zlib import crc32

    n_buckets = 128

    join_schema = pa.schema([
        ("bucket", pa.int64()),       # crc-bucket of the doc id
        ("key", pa.int64()),          # doc id (join key)
        ("pair", pa.string()),        # "d1|d2" for membership rows
        ("side", pa.int32()),         # 0=left, 1=right, -1=shingle row
        ("sh", pa.list_(pa.string())),
    ])

    def _doc_bucket(doc_id: int) -> int:
        return crc32(str(doc_id).encode()) % n_buckets

    def _membership(batch: pa.Table) -> pa.Table:
        d1 = batch.column("d1").to_pylist()
        d2 = batch.column("d2").to_pylist()
        buckets, keys, pair_keys, sides = [], [], [], []
        for a, b in zip(d1, d2):
            pk = f"{a}|{b}"
            buckets.extend((_doc_bucket(a), _doc_bucket(b)))
            keys.extend((a, b))
            pair_keys.extend((pk, pk))
            sides.extend((0, 1))
        return pa.table({
            "bucket": pa.array(buckets, pa.int64()),
            "key": pa.array(keys, pa.int64()),
            "pair": pa.array(pair_keys, pa.string()),
            "side": pa.array(sides, pa.int32()),
            "sh": pa.array([None] * len(keys), pa.list_(pa.string())),
        }, schema=join_schema)

    def _shingle_rows(batch: pa.Table) -> pa.Table:
        wanted = _cached_get(ids_ref)
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        buckets, keys, shs = [], [], []
        for rid, t in zip(ids, texts):
            if rid in wanted:
                buckets.append(_doc_bucket(rid))
                keys.append(rid)
                # distinct shingles: Jaccard is a SET measure, and
                # shipping the dedup'd set shrinks the shuffle
                shs.append(sorted(set(shingles((t or "").split(" "), k))))
        return pa.table({
            "bucket": pa.array(buckets, pa.int64()),
            "key": pa.array(keys, pa.int64()),
            "pair": pa.array([None] * len(keys), pa.string()),
            "side": pa.array([-1] * len(keys), pa.int32()),
            "sh": pa.array(shs, pa.list_(pa.string())),
        }, schema=join_schema)

    membership = cands.map_batches(_membership, batch_format="pyarrow")
    doc_sh = ds.map_batches(_shingle_rows, batch_format="pyarrow")

    def _attach(group: pa.Table) -> pa.Table:
        """One whole doc-bucket: dict-join shingles onto memberships."""
        sides = group.column("side").to_pylist()
        keys = group.column("key").to_pylist()
        shs = group.column("sh").to_pylist()
        pairs_in = group.column("pair").to_pylist()
        sh_by_key = {
            key: sh for key, sh, side in zip(keys, shs, sides) if side == -1
        }
        out_bucket, out_pairs, out_sides, out_shs = [], [], [], []
        for key, pair_key, side in zip(keys, pairs_in, sides):
            if side >= 0 and key in sh_by_key:
                out_bucket.append(crc32(pair_key.encode()) % n_buckets)
                out_pairs.append(pair_key)
                out_sides.append(side)
                out_shs.append(sh_by_key[key])
        return pa.table({
            "bucket": pa.array(out_bucket, pa.int64()),
            "pair": pa.array(out_pairs, pa.string()),
            "side": pa.array(out_sides, pa.int32()),
            "sh": pa.array(out_shs, pa.list_(pa.string())),
        })

    attached = membership.union(doc_sh).groupby(
        "bucket", num_partitions=n_buckets
    ).map_groups(
        _attach, batch_format="pyarrow"
    )

    def _score(group: pa.Table) -> pa.Table:
        """One whole pair-bucket: assemble both sides, score Jaccard."""
        pairs_in = group.column("pair").to_pylist()
        sides = group.column("side").to_pylist()
        shs = group.column("sh").to_pylist()
        by_pair: Dict[str, list] = {}
        for pair_key, side, sh in zip(pairs_in, sides, shs):
            by_pair.setdefault(pair_key, [None, None])[side] = sh
        d1s, d2s, scores = [], [], []
        for pair_key, (sh_a, sh_b) in by_pair.items():
            if sh_a is None or sh_b is None:
                continue  # defensive: both sides must arrive
            score = _pair_score(set(sh_a), set(sh_b))
            if score >= threshold:
                a, b = pair_key.split("|")
                d1s.append(int(a))
                d2s.append(int(b))
                scores.append(_round6(score))
        return pa.table({
            "d1": pa.array(d1s, pa.int64()),
            "d2": pa.array(d2s, pa.int64()),
            score_col: pa.array(scores, pa.float64()),
        })

    return attached.groupby("bucket", num_partitions=n_buckets).map_groups(
        _score, batch_format="pyarrow"
    )


def jaccard_all_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      k: int = 3, threshold: float = 0.8,
                      max_blocks: int = 16):
    """EXACT all-pairs n-gram Jaccard ≥ threshold — the ground-truth
    twin the LSH candidate path is measured against.

    Distributed block-pair join (same shape as
    ``similarity.embedding_near_dup_pairs``): distinct shingle sets
    materialize as B object-store blocks, one task per block pair
    scores its cross product, the driver holds refs only. Inherently
    O(N²) pair comparisons — this is the recall-measurement /
    verification operator, NOT the scale path (that is
    :func:`minhash_dup_pairs` + :func:`jaccard_dup_pairs`); run it on
    samples or buckets, never the full corpus.
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

    from .similarity import _nonempty_block_refs

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
                        # two sub-k-token docs: EXCLUDED, matching the
                        # lsh_recall oracle (SQL 0/0 -> NULL drops the
                        # pair) — the LSH path can never propose these
                        # (their bands are NULL) so counting them as
                        # true dups would deflate recall dishonestly
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


def prefix_jaccard_pairs(ds, id_col: str = "doc_id",
                         text_col: str = "text", k: int = 3,
                         threshold: float = 0.8,
                         n_buckets: int = 128):
    """EXACT set-similarity self-join, recall = 1 — AllPairs/SSJoin
    prefix filtering (Bayardo/Ma/Srikant WWW'07; Chaudhuri et al.
    ICDE'06): the scale path between :func:`jaccard_dup_pairs`
    (MinHash candidates, recall < 1) and :func:`jaccard_all_pairs`
    (O(N²) ground truth). Output ``(d1, d2, jaccard·round6)``,
    identical to the exact-all-pairs result by the prefix-filter
    theorem: two sets with Jaccard ≥ τ MUST share a token within
    their first ``s - ceil(τ·s) + 1`` tokens under ANY common total
    order.

    The order used is global document frequency ascending (ties by
    token) — the canonical AllPairs choice: prefixes then hold each
    doc's RAREST shingles, so boilerplate shared by thousands of
    docs never generates candidates. Pipeline (all exchanges carry
    (token, int) rows, never documents):

    1. distinct (doc, shingle) rows → ONE token-hash groupby; df =
       segment length (rows are doc-distinct), attached in-bucket;
    2. doc-hash groupby: per-doc vectorized (df, token) sort +
       prefix mask — ceil is computed recall-safe
       (``ceil(τ·s - 1e-9)``: float error may only LENGTHEN a
       prefix, never shorten it);
    3. token-hash groupby of prefix rows: per-segment candidate
       pairs under the size filter ``min ≥ τ·max`` (same safe
       epsilon);
    4. pair-hash groupby dedup, then exact verification via
       :func:`score_pairs_broadcast` — the same verifier the LSH
       path uses, so scores are bit-identical across paths.
    """
    from zlib import crc32

    import numpy as np

    def _tok_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        b_, t_, d_, s_ = [], [], [], []
        for rid, t in zip(ids, texts):
            sh = sorted(set(shingles((t or "").split(" "), k)))
            for tok in sh:
                b_.append(crc32(tok.encode()) % n_buckets)
                t_.append(tok)
                d_.append(rid)
                s_.append(len(sh))
        return pa.table({
            "_b": pa.array(b_, pa.int64()),
            "tok": pa.array(t_, pa.string()),
            "doc": pa.array(d_, pa.int64()),
            "sz": pa.array(s_, pa.int64()),
        })

    def _attach_df(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                "_b": pa.array([], pa.int64()),
                "tok": pa.array([], pa.string()),
                "doc": pa.array([], pa.int64()),
                "sz": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
            })
        g = group.sort_by([("tok", "ascending")])
        toks = g.column("tok").combine_chunks()
        codes = pc.dictionary_encode(toks).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        from ..functions.segments import key_segments

        seg_start, seg_len = key_segments(codes)
        df = np.repeat(seg_len, seg_len).astype(np.int64)
        docs = g.column("doc").combine_chunks().to_numpy()
        dbucket = np.fromiter(
            (crc32(str(d).encode()) % n_buckets for d in docs),
            np.int64, len(docs))
        return pa.table({
            "_b": pa.array(dbucket, pa.int64()),
            "tok": g.column("tok"),
            "doc": g.column("doc"),
            "sz": g.column("sz"),
            "df": pa.array(df, pa.int64()),
        })

    def _prefixes(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                "_b": pa.array([], pa.int64()),
                "tok": pa.array([], pa.string()),
                "doc": pa.array([], pa.int64()),
                "sz": pa.array([], pa.int64()),
            })
        g = group.sort_by([("doc", "ascending"), ("df", "ascending"),
                           ("tok", "ascending")])
        docs = g.column("doc").combine_chunks().to_numpy()
        szs = g.column("sz").combine_chunks().to_numpy()
        from ..functions.segments import key_segments, segment_ranks

        seg_start, seg_len = key_segments(docs)
        rank = segment_ranks(seg_start, seg_len)
        # recall-safe prefix length: s - ceil(τ·s) + 1, epsilon only
        # ever rounds the ceil DOWN (longer prefix, more candidates)
        need = np.ceil(threshold * szs - 1e-9).astype(np.int64)
        keep = rank < (szs - need + 1)
        kept = g.filter(pa.array(keep))
        toks = kept.column("tok").to_pylist()
        tbucket = np.fromiter(
            (crc32(tk.encode()) % n_buckets for tk in toks),
            np.int64, len(toks))
        return pa.table({
            "_b": pa.array(tbucket, pa.int64()),
            "tok": kept.column("tok"),
            "doc": kept.column("doc"),
            "sz": kept.column("sz"),
        })

    def _cand_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "_b": pa.array([], pa.int64()),
            "d1": pa.array([], pa.int64()),
            "d2": pa.array([], pa.int64()),
        })
        if group.num_rows < 2:
            return empty
        g = group.sort_by([("tok", "ascending"), ("doc", "ascending")])
        toks = g.column("tok").combine_chunks()
        codes = pc.dictionary_encode(toks).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        docs = g.column("doc").combine_chunks().to_numpy()
        szs = g.column("sz").combine_chunks().to_numpy()
        from ..functions.segments import key_segments

        seg_start, seg_len = key_segments(codes)
        d1s, d2s = [], []
        for s, ln in zip(seg_start, seg_len):
            if ln < 2:
                continue
            r, c = np.triu_indices(int(ln), 1)
            da, db = docs[s + r], docs[s + c]
            sa, sb = szs[s + r], szs[s + c]
            ok = np.minimum(sa, sb) >= (
                threshold * np.maximum(sa, sb) - 1e-9)
            ok &= da != db
            d1s.append(np.minimum(da[ok], db[ok]))
            d2s.append(np.maximum(da[ok], db[ok]))
        if not d1s:
            return empty
        d1 = np.concatenate(d1s)
        d2 = np.concatenate(d2s)
        pb = np.fromiter(
            (crc32(f"{a}|{b}".encode()) % n_buckets
             for a, b in zip(d1, d2)),
            np.int64, len(d1))
        return pa.table({
            "_b": pa.array(pb, pa.int64()),
            "d1": pa.array(d1, pa.int64()),
            "d2": pa.array(d2, pa.int64()),
        })

    def _unique_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                "d1": pa.array([], pa.int64()),
                "d2": pa.array([], pa.int64()),
            })
        d1 = group.column("d1").combine_chunks().to_numpy()
        d2 = group.column("d2").combine_chunks().to_numpy()
        order = np.lexsort((d2, d1))
        a, b = d1[order], d2[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return pa.table({
            "d1": pa.array(a[first], pa.int64()),
            "d2": pa.array(b[first], pa.int64()),
        })

    rows = ds.map_batches(_tok_rows, batch_format="pyarrow")
    with_df = rows.groupby("_b", num_partitions=n_buckets).map_groups(
        _attach_df, batch_format="pyarrow")
    prefixes = with_df.groupby(
        "_b", num_partitions=n_buckets).map_groups(
        _prefixes, batch_format="pyarrow")
    cands = prefixes.groupby(
        "_b", num_partitions=n_buckets).map_groups(
        _cand_pairs, batch_format="pyarrow")
    uniq = cands.groupby("_b", num_partitions=n_buckets).map_groups(
        _unique_pairs, batch_format="pyarrow")
    return score_pairs_broadcast(
        ds, uniq.materialize(), id_col=id_col, text_col=text_col,
        k=k, threshold=threshold, metric="jaccard")


def winnow_fingerprint_fn(batch: pa.Table, text_col: str = "text",
                          id_col: str = "doc_id",
                          window: int = 8) -> pa.Table:
    """Winnowing-style rolling-hash document fingerprint (row-local).

    Public technique (Schleimer, Wilkerson, Aiken — "Winnowing: Local
    Algorithms for Document Fingerprinting", SIGMOD 2003): each token
    hashes to a 32-bit value (md5 prefix, SQL-reproducible); every
    ``window``-token sliding window contributes its MINIMUM hash; the
    document's fingerprint set is the distinct window minima — robust
    to local edits, linear to compute, no shuffle. Emits scalar
    telemetry per doc: window count, distinct-fingerprint count and
    the global minimum (the doc's strongest fingerprint).
    """
    import numpy as np

    texts = batch.column(text_col).to_pylist()
    memo: Dict[str, int] = {}
    n_windows, n_fps, fp_min = [], [], []
    for t in texts:
        toks = (t or "").split(" ")
        n = len(toks)
        if n < window:
            n_windows.append(0)
            n_fps.append(0)
            fp_min.append(None)
            continue
        hs = np.empty(n, dtype=np.uint64)
        for i, tok in enumerate(toks):
            v = memo.get(tok)
            if v is None:
                v = int(hashlib.md5(tok.encode("utf-8")).hexdigest()[:8], 16)
                memo[tok] = v
            hs[i] = v
        mins = np.lib.stride_tricks.sliding_window_view(
            hs, window
        ).min(axis=1)
        n_windows.append(n - window + 1)
        n_fps.append(int(np.unique(mins).size))
        fp_min.append(int(mins.min()))
    return pa.table({
        id_col: batch.column(id_col),
        "n_windows": pa.array(n_windows, pa.int64()),
        "n_fps": pa.array(n_fps, pa.int64()),
        "fp_min": pa.array(fp_min, pa.int64()),
    })


# ---------------------------------------------------- bloom prefilter

def _fp_bit_indices(fp_col, n_bits: int):
    """md5-hex fp column → ``(n, 4)`` int64 Bloom bit indices.

    Fully vectorized: the 32-char hex strings are read straight out
    of the Arrow values buffer (one fancy-indexed gather), nibble-
    decoded, and folded into four uint32 words — the same four words
    ``int(fp[8i:8i+8], 16)`` would give. No per-row Python.
    """
    import numpy as np

    if isinstance(fp_col, pa.ChunkedArray):
        fp_col = fp_col.combine_chunks()
    n = len(fp_col)
    if n == 0:
        return np.empty((0, 4), dtype=np.int64)
    if fp_col.null_count or not pc.all(
        pc.equal(pc.utf8_length(fp_col), 32)
    ).as_py():
        raise ValueError("bloom key column must be 32-char md5 hex")
    offs = np.frombuffer(fp_col.buffers()[1], np.int32)[
        fp_col.offset: fp_col.offset + n
    ].astype(np.int64)
    buf = np.frombuffer(fp_col.buffers()[2], np.uint8)
    hexb = buf[offs[:, None] + np.arange(32)]
    nib = np.where(hexb >= 97, hexb - 87, hexb - 48).astype(np.uint64)
    nib = nib.reshape(n, 4, 8)
    vals = np.zeros((n, 4), np.uint64)
    for j in range(8):
        vals = vals * np.uint64(16) + nib[:, :, j]
    return (vals % np.uint64(n_bits)).astype(np.int64)


def build_bloom(fp_ds, n_bits: int = 1 << 20, fanin: int = 32):
    """Distributed Bloom bitmap over a dataset's ``fp`` column.

    Each block emits ONE partial bitmap row (``n_bits/8`` bytes);
    partials are OR-folded with a log-depth repartition tree — the
    driver only ever touches the last ``<= fanin`` rows, never one
    row per block (at 10^5 blocks × 128 KiB that difference is GBs).
    Returns the final bitmap as ``np.uint8[n_bits//8]``.
    """
    import math as _math

    import numpy as np

    nbytes = n_bits // 8

    def _partial(batch: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, np.uint8)
        idx = _fp_bit_indices(batch.column("fp"), n_bits)
        np.bitwise_or.at(
            bm, idx >> 3, (1 << (idx & 7)).astype(np.uint8)
        )
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    def _or_rows(batch: pa.Table) -> pa.Table:
        acc = np.zeros(nbytes, np.uint8)
        for b in batch.column("bm").to_pylist():
            acc |= np.frombuffer(b, np.uint8)
        return pa.table({"bm": pa.array([acc.tobytes()], pa.binary())})

    bm_ds = fp_ds.map_batches(
        _partial, batch_format="pyarrow", batch_size=None
    ).materialize()
    while bm_ds.count() > fanin:
        bm_ds = bm_ds.repartition(
            _math.ceil(bm_ds.count() / fanin)
        ).map_batches(
            _or_rows, batch_format="pyarrow", batch_size=None
        ).materialize()
    final = np.zeros(nbytes, np.uint8)
    for row in bm_ds.take_all():
        final |= np.frombuffer(row["bm"], np.uint8)
    return final


def bloom_prefilter(probe_ds, bloom_ref, n_bits: int):
    """Keep probe rows whose ``fp`` MAY be in the Bloom set.

    Semi-join reduction: no false negatives (a matching fp always
    passes), so an exact join downstream stays exact; false
    positives only add a few survivor rows to that join. The bitmap
    is ``ray.put`` ONCE and read zero-copy from the local object
    store in every task — never re-shipped per batch.
    """
    import numpy as np
    import ray

    def _filt(batch: pa.Table) -> pa.Table:
        bm = ray.get(bloom_ref)
        idx = _fp_bit_indices(batch.column("fp"), n_bits)
        hit = (bm[idx >> 3] & (1 << (idx & 7))) != 0
        return batch.filter(pa.array(hit.all(axis=1)))

    return probe_ds.map_batches(_filt, batch_format="pyarrow")


def incremental_dedup_bloom(new_fp_ds, old_fp_ds,
                            n_bits: int = 1 << 20,
                            n_buckets: int = 64):
    """Exact incremental dedup with a Bloom semi-join reduction.

    Same result as a plain fp anti join of ``new`` vs ``old`` —
    but the HUGE side (the existing corpus) is cut at scan speed:
    a Bloom bitmap over the small new batch's fps is broadcast, old
    fps that cannot match any new fp (the overwhelming majority on a
    daily ingest) are dropped before the shuffle, and only the
    survivors enter the exact ``repartition_join`` anti. At 100 TB
    the anti join's shuffle volume drops from corpus-scale to
    new-batch-scale without any loss of exactness.
    """
    import ray

    from .join import repartition_join

    bloom = build_bloom(new_fp_ds, n_bits=n_bits)
    ref = ray.put(bloom)
    old_cand = bloom_prefilter(old_fp_ds, ref, n_bits)
    return repartition_join(
        new_fp_ds, old_cand, on="fp", how="anti", n_buckets=n_buckets
    )


# ------------------------------------------------- paragraph dedup

def explode_paragraphs_fn(batch: pa.Table, id_col: str = "doc_id",
                          text_col: str = "text",
                          sep: str = "\n\n") -> pa.Table:
    """Explode docs into ``(doc_id, para_idx, para, fp)`` rows.

    Vectorized split (one Arrow kernel) + numpy repeat/arange for the
    ids; only the md5 itself is a per-paragraph loop (no Arrow md5
    kernel — same tradeoff as :func:`fingerprint_fn`).
    """
    import numpy as np

    col = pc.fill_null(batch.column(text_col), "")
    parts = pc.split_pattern(col, sep).combine_chunks()
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.chunk(0) if parts.num_chunks else pa.array(
            [], pa.list_(pa.string()))
    offsets = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = parts.values
    n_per_doc = np.diff(offsets)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    doc_ids = np.repeat(ids, n_per_doc)
    para_idx = np.arange(len(flat), dtype=np.int64) - np.repeat(
        offsets[:-1], n_per_doc)
    fps = [_md5(p) for p in flat.to_pylist()]
    return pa.table({
        id_col: pa.array(doc_ids, pa.int64()),
        "para_idx": pa.array(para_idx, pa.int64()),
        "para": flat,
        "fp": pa.array(fps, pa.string()),
    })


def paragraph_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                    sep: str = "\n\n", n_buckets: int = 64):
    """CCNet-style paragraph-level exact dedup with doc reassembly.

    Corpus-wide first-wins on md5(paragraph): the FIRST occurrence in
    ``(doc_id, para_idx)`` order survives, every later copy of the
    same paragraph (boilerplate footers, syndicated intros) is
    dropped, and documents are rebuilt from their surviving
    paragraphs (docs left with zero paragraphs disappear).

    Scale shape — exactly TWO shuffles of paragraph-sized rows:

    1. first-wins on ``fp`` via :func:`dedup_first` (bucketed
       whole-bucket sort + boundary mask — a corpus-wide footer is a
       hot key; it lands in one bucket and costs one sort, never a
       per-key UDF);
    2. reassembly co-locates each doc's survivors by
       ``crc32(doc_id) % n_buckets``; inside the bucket one Arrow
       sort + a ``ListArray``/``binary_join`` segment-concat rebuilds
       every doc vectorized.

    Content moves at paragraph granularity both times — no
    doc-sized amplification.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    paras = ds.map_batches(
        lambda b: explode_paragraphs_fn(b, id_col, text_col, sep),
        batch_format="pyarrow",
    )
    kept = dedup_first(paras, key_col="fp",
                       order_col=[id_col, "para_idx"],
                       n_buckets=n_buckets)

    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = bucket_ids(batch.column(id_col), n_buckets)
        return batch.append_column(
            "_dbucket", pa.array(buckets, pa.int64()))

    def _reassemble(group: pa.Table) -> pa.Table:
        g = group.sort_by([(id_col, "ascending"),
                           ("para_idx", "ascending")])
        ids = g.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "text_dedup": pa.array([], pa.string()),
                "n_kept": pa.array([], pa.int64()),
            })
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        offsets = np.r_[starts, len(ids)].astype(np.int32)
        paras_col = g.column("para").combine_chunks()
        la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      paras_col)
        return pa.table({
            id_col: pa.array(ids[starts], pa.int64()),
            "text_dedup": pc.binary_join(la, sep),
            "n_kept": pa.array(np.diff(offsets).astype(np.int64),
                               pa.int64()),
        })

    return (
        kept.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("_dbucket", num_partitions=n_buckets)
        .map_groups(_reassemble, batch_format="pyarrow")
    )


def window_gram_rows_fn(batch: pa.Table, id_col: str = "doc_id",
                        text_col: str = "text", w: int = 5) -> pa.Table:
    """Explode docs into ``(gram, doc_id, pos)`` rows — one row per
    ``w``-token window (``pos`` = 0-based start-token index).

    Fully vectorized: one split kernel, then the gram strings come
    from a single ``binary_join_element_wise`` over ``w`` shifted
    slices of the flat token array; windows straddling a document
    boundary are masked out. NULL texts emit no rows.
    """
    import numpy as np

    from .textstats import _token_lists

    if w < 2:
        raise ValueError(f"w must be >= 2, got {w}")
    b = batch.filter(pc.is_valid(batch.column(text_col)))
    empty = pa.table({
        "gram": pa.array([], pa.string()),
        id_col: pa.array([], batch.schema.field(id_col).type),
        "pos": pa.array([], pa.int64()),
    })
    if b.num_rows == 0:
        return empty
    flat, offsets, n_tokens = _token_lists(b, text_col)
    n_starts = int(offsets[-1]) - w + 1
    if n_starts <= 0:
        return empty
    grams = pc.binary_join_element_wise(
        *[flat.slice(i, n_starts) for i in range(w)], " ")
    doc_idx = np.repeat(np.arange(len(n_tokens), dtype=np.int64),
                        n_tokens)[:n_starts]
    pos = np.arange(n_starts, dtype=np.int64) - offsets[doc_idx]
    valid = pos + w <= n_tokens[doc_idx]
    return pa.table({
        "gram": grams.filter(pa.array(valid)),
        id_col: b.column(id_col).take(pa.array(doc_idx[valid],
                                               pa.int64())),
        "pos": pa.array(pos[valid], pa.int64()),
    })


def duplicate_span_starts(gram_rows, id_col: str = "doc_id",
                          n_buckets: int = 64):
    """``(gram, doc_id, pos)`` rows → the ``(doc_id, pos)`` starts of
    windows whose exact gram occurs ≥ 2 times corpus-wide.

    ONE gram-bucket shuffle (the bucket co-locates every occurrence
    of a gram), occurrence counts computed INSIDE the whole-bucket
    UDF (dictionary-encode + bincount) — the gram vocabulary is never
    broadcast or collected, and exact STRING identity (not a hash) is
    compared, so there are no collision false-positives.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    def _bucketize(batch: pa.Table) -> pa.Table:
        return batch.append_column("_gbucket", pa.array(
            bucket_ids(batch.column("gram"), n_buckets), pa.int64()))

    def _dups(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_gbucket"])
        if base.num_rows == 0:
            return pa.table({
                id_col: pa.array([], base.schema.field(id_col).type),
                "pos": pa.array([], pa.int64()),
            })
        codes = pc.dictionary_encode(
            base.column("gram").combine_chunks()
        ).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(codes)
        return base.filter(
            pa.array(counts[codes] >= 2)).select([id_col, "pos"])

    return gram_rows.map_batches(
        _bucketize, batch_format="pyarrow"
    ).groupby("_gbucket", num_partitions=n_buckets).map_groups(
        _dups, batch_format="pyarrow")


def substring_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                    w: int = 5, n_buckets: int = 64):
    """EXACT duplicate-substring removal at token granularity (the
    ExactSubstr operator of Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better", recast for Ray Data): every
    token covered by any ``w``-token window whose exact text occurs
    ≥ 2 times in the corpus is removed, and each document is rebuilt
    from its surviving tokens.

    Output: ``(doc_id, clean_text, n_removed)``. NULL text stays NULL
    (no windows); a fully-covered doc comes back as ``''``.

    Scale shape — two shuffles, both of window/start-sized rows:

    1. :func:`window_gram_rows_fn` explodes (vectorized) →
       :func:`duplicate_span_starts` marks duplicated windows in one
       gram-bucket exchange.
    2. Rebuild co-shuffle: docs and their duplicate starts co-locate
       by ``crc32(doc_id) % n_buckets``; inside the bucket a
       range-update diff array (``np.add.at`` at ``start`` / +1,
       ``start + w`` / −1, cumsum > 0) marks covered tokens and a
       ``ListArray`` + ``binary_join`` reassembles every doc with no
       per-doc Python loop.

    Honest cost note: the gram rows carry the exact w-token STRING,
    so stage 1 shuffles ~w× the text volume — inherent to exact
    substring dedup (the suffix-array formulation ships the whole
    corpus into the sort too). :func:`winnow_fingerprint_fn` is the
    sampled alternative when approximate span coverage is enough.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids
    from .textstats import _segment_sum, _token_lists

    schema = ds.schema()
    types = dict(zip(schema.names, schema.types))
    union_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        (id_col, types[id_col]), (text_col, types[text_col]),
        ("pos", pa.int64()),
    ])

    gram_rows = ds.map_batches(
        window_gram_rows_fn, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col, "w": w},
    )
    starts = duplicate_span_starts(gram_rows, id_col=id_col,
                                   n_buckets=n_buckets)

    def _tag(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "_bucket": pa.array(
                    bucket_ids(batch.column(id_col), n_buckets),
                    pa.int64()),
                "_side": pa.array(np.full(n, side, np.int32)),
                id_col: batch.column(id_col),
                text_col: (batch.column(text_col) if side == 0
                           else pa.nulls(n, types[text_col])),
                "pos": (batch.column("pos") if side == 1
                        else pa.nulls(n, pa.int64())),
            }, schema=union_schema)
        return _fn

    tagged = ds.select_columns([id_col, text_col]).map_batches(
        _tag(0), batch_format="pyarrow"
    ).union(starts.map_batches(_tag(1), batch_format="pyarrow"))

    def _rebuild(group: pa.Table) -> pa.Table:
        sides = group.column("_side").combine_chunks().to_numpy()
        docs = group.filter(pa.array(sides == 0))
        sts = group.filter(pa.array(sides == 1))
        if docs.num_rows == 0:
            return pa.table({
                id_col: pa.array([], types[id_col]),
                "clean_text": pa.array([], pa.string()),
                "n_removed": pa.array([], pa.int64()),
            })
        text_valid = pc.is_valid(
            docs.column(text_col)).combine_chunks()
        flat, offsets, n_tokens = _token_lists(docs, text_col)
        total = int(offsets[-1])
        diff = np.zeros(total + w, np.int64)
        if sts.num_rows:
            drow = pc.index_in(
                sts.column(id_col),
                value_set=docs.column(id_col).combine_chunks(),
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            abs_pos = offsets[drow] + sts.column(
                "pos").combine_chunks().to_numpy(
                    zero_copy_only=False).astype(np.int64)
            np.add.at(diff, abs_pos, 1)
            np.add.at(diff, abs_pos + w, -1)
        kept = np.cumsum(diff[:total]) <= 0
        kept_counts = _segment_sum(kept.astype(np.int64), offsets)
        new_offsets = np.concatenate(
            [[0], np.cumsum(kept_counts)]).astype(np.int32)
        la = pa.ListArray.from_arrays(
            pa.array(new_offsets, pa.int32()),
            flat.filter(pa.array(kept)))
        clean = pc.if_else(text_valid, pc.binary_join(la, " "),
                           pa.nulls(docs.num_rows, pa.string()))
        return pa.table({
            id_col: docs.column(id_col),
            "clean_text": clean,
            "n_removed": pa.array(
                (n_tokens - kept_counts).astype(np.int64), pa.int64()),
        })

    return tagged.groupby("_bucket", num_partitions=n_buckets).map_groups(
        _rebuild, batch_format="pyarrow")


def minhash_cross_pairs(new_ds, corpus_ds, id_col: str = "doc_id",
                        text_col: str = "text", n_hashes: int = 4,
                        k: int = 3, max_side: int = 1000):
    """Incremental NEAR-dup: candidate pairs between a NEW batch and
    an EXISTING corpus — docs sharing ANY minhash band value across
    the two sets (the near-dup twin of ``incremental_dedup_bloom``'s
    exact-fingerprint anti join; this is how a fresh crawl is deduped
    against the index without re-pairing the corpus with itself).

    Same physical plan as :func:`minhash_dup_pairs` — band explode →
    one crc32-bucketed exchange of (band, id, side) rows → per-band
    CROSS products new×corpus inside whole-bucket UDFs → global pair
    distinct. Corpus-side signatures can come from a precomputed
    signature table (pass a Dataset with ``h0..hN`` columns already
    attached — detected by schema), so the steady-state cost is one
    signature pass over the NEW batch only. ``max_side`` caps each
    side of a degenerate band run (measured, not silent — reuse
    :func:`minhash_bucket_stats` on the union to size it).

    Returns a Dataset of distinct ``(d_new, d_old)`` int64 pairs.
    """
    import numpy as np
    from zlib import crc32

    from ray.data.aggregate import Count

    n_buckets = 128

    def _sigs(ds):
        if f"h{n_hashes - 1}" in (ds.schema().names or []):
            return ds  # precomputed signature table
        return minhash_signatures(ds, id_col, text_col, n_hashes, k)

    def _tag(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "_side", pa.array([side] * batch.num_rows, pa.int32()))
        return _fn

    # explode per side, tag AFTER the explode (the shared explode
    # emits only (band, id))
    exploded = _band_explode(_sigs(new_ds), id_col, n_hashes).map_batches(
        _tag(0), batch_format="pyarrow"
    ).union(
        _band_explode(_sigs(corpus_ds), id_col, n_hashes).map_batches(
            _tag(1), batch_format="pyarrow"))

    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = [
            crc32(b.encode()) % n_buckets
            for b in batch.column("band").to_pylist()
        ]
        return batch.append_column(
            "bucket", pa.array(buckets, pa.int64()))

    def _bucket_cross(group: pa.Table) -> pa.Table:
        empty = pa.table({"d_new": pa.array([], pa.int64()),
                          "d_old": pa.array([], pa.int64())})
        if group.num_rows < 2:
            return empty
        bands = np.asarray(group.column("band").to_pylist())
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        sides = group.column("_side").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sides, bands))
        bands, ids, sides = bands[order], ids[order], sides[order]
        starts = np.concatenate(
            [[0], np.nonzero(bands[1:] != bands[:-1])[0] + 1,
             [len(bands)]])
        new_parts, old_parts = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            run_sides = sides[s:e]
            run_ids = ids[s:e]
            nids = run_ids[run_sides == 0][:max_side]
            oids = run_ids[run_sides == 1][:max_side]
            if len(nids) == 0 or len(oids) == 0:
                continue
            new_parts.append(np.repeat(nids, len(oids)))
            old_parts.append(np.tile(oids, len(nids)))
        if not new_parts:
            return empty
        return pa.table({
            "d_new": pa.array(np.concatenate(new_parts), pa.int64()),
            "d_old": pa.array(np.concatenate(old_parts), pa.int64()),
        })

    pairs = (
        exploded.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("bucket", num_partitions=n_buckets)
        .map_groups(_bucket_cross, batch_format="pyarrow")
    )
    agg = pairs.groupby(["d_new", "d_old"]).aggregate(Count())
    return agg.select_columns(["d_new", "d_old"])


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


def host_boilerplate_removal(ds, id_col: str = "doc_id",
                             host_col: str = "host",
                             text_col: str = "text", sep: str = "\n\n",
                             min_frac: float = 0.5, min_docs: int = 2,
                             n_buckets: int = 64):
    """Per-host TEMPLATE removal — the CCNet/WET boilerplate rule the
    corpus-wide first-wins :func:`paragraph_dedup` cannot express:
    a line is boilerplate for a host iff it appears in more than
    ``min_frac`` of that host's documents (and at least ``min_docs``
    of them), and then EVERY copy is removed — nav bars, footers and
    cookie banners vanish, while syndicated article text (same line,
    different hosts) survives.

    Scale shape — one small + two content-sized exchanges:

    1. count: map-side per-block distinct ``(host, fp)`` doc-counts
       plus per-host doc-total marker rows (fp='' sentinel) co-shuffle
       by ``crc32(host)``; the whole-bucket UDF resolves the
       threshold ``cnt > min_frac * total`` per host in one sorted
       pass and emits only the boilerplate set B. Only deduped
       fingerprint partials move — never line text. (A mega-host
       concentrates its DISTINCT-line partials in one bucket; they
       are dedup-compressed, not page-scale.)
    2. filter: lines anti-join B co-shuffled by ``crc32(host, fp)``
       (B is corpus-small but not assumed driver-small — no
       broadcast requirement).
    3. reassembly by ``crc32(doc_id)`` — the `paragraph_dedup`
       segment-concat rebuild; docs whose every line was template
       disappear.

    ``min_frac`` must be exactly representable in binary (0.5, 0.25,
    …) for bit parity with a SQL twin. Returns
    ``(id_col, text_clean, n_kept)``.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    def _explode(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column(text_col), "")
        parts = pc.split_pattern(col, sep).combine_chunks()
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.chunk(0) if parts.num_chunks else pa.array(
                [], pa.list_(pa.string()))
        offsets = parts.offsets.to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = parts.values
        n_per_doc = np.diff(offsets)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        hosts = batch.column(host_col).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(np.repeat(ids, n_per_doc), pa.int64()),
            host_col: pa.array(np.repeat(hosts, n_per_doc), pa.string()),
            "para_idx": pa.array(
                np.arange(len(flat), dtype=np.int64)
                - np.repeat(offsets[:-1], n_per_doc), pa.int64()),
            "para": flat,
            "fp": pa.array([_md5(p) for p in flat.to_pylist()],
                           pa.string()),
        })

    # two consumers (stage-1 counts, stage-2 anti-join): checkpoint to
    # doc_id-bucketed parquet so the explode + per-paragraph md5 pass
    # runs ONCE without pinning the exploded (corpus-plus-sized) line
    # table in the object store
    from .bucketed import checkpoint_bucketed

    lines = checkpoint_bucketed(
        ds.map_batches(_explode, batch_format="pyarrow"),
        f"hostboiler_{next(_CKPT_SEQ)}", key_col=id_col)

    # --- stage 1: per-(host, fp) doc counts + per-host totals -> B
    empty_counts = pa.table({
        host_col: pa.array([], pa.string()),
        "fp": pa.array([], pa.string()),
        "cnt": pa.array([], pa.int64()),
        "_hbucket": pa.array([], pa.int64()),
    })

    def _count_partial(batch: pa.Table) -> pa.Table:
        # a doc's lines never span blocks (explode emits per input
        # row), so block-local distinct (host, fp, doc) doc-counts sum
        # to globally exact counts. Fully vectorized: dictionary-
        # encode the three key columns, fuse to one int64 composite,
        # np.unique twice (distinct triples, then pair counts).
        if batch.num_rows == 0:
            return empty_counts
        h = batch.column(host_col).combine_chunks().dictionary_encode()
        f = batch.column("fp").combine_chunks().dictionary_encode()
        d = batch.column(id_col).combine_chunks().dictionary_encode()
        hi = np.asarray(h.indices, dtype=np.int64)
        fi = np.asarray(f.indices, dtype=np.int64)
        di = np.asarray(d.indices, dtype=np.int64)
        nf, nd = len(f.dictionary), len(d.dictionary)
        # composite fits int64 for any Arrow-sized block (n^3 < 2^63
        # up to ~2M distinct values per block key column)
        trip = np.unique((hi * nf + fi) * nd + di)
        pkeys, pcnt = np.unique(trip // nd, return_counts=True)
        ph, pf = pkeys // nf, pkeys % nf
        th, tcnt = np.unique(
            np.unique(hi * nd + di) // nd, return_counts=True)
        hosts_out = h.dictionary.take(
            pa.array(np.concatenate([ph, th]), pa.int64()))
        fps_out = pa.concat_arrays([
            f.dictionary.take(pa.array(pf, pa.int64())),
            pa.array([""] * len(th), pa.string()),
        ])
        return pa.table({
            host_col: hosts_out,
            "fp": fps_out,
            "cnt": pa.array(
                np.concatenate([pcnt, tcnt]).astype(np.int64),
                pa.int64()),
            "_hbucket": pa.array(
                bucket_ids(hosts_out, n_buckets), pa.int64()),
        })

    def _threshold_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({host_col: pa.array([], pa.string()),
                          "fp": pa.array([], pa.string())})
        n = group.num_rows
        if n == 0:
            return empty
        g = group.sort_by([(host_col, "ascending"), ("fp", "ascending")])
        hosts = g.column(host_col).combine_chunks()
        fps = g.column("fp").combine_chunks()
        cnts = g.column("cnt").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_host = np.empty(n, dtype=bool)
        new_host[0] = True
        new_pair = np.empty(n, dtype=bool)
        new_pair[0] = True
        if n > 1:
            hn = pc.not_equal(hosts.slice(1, n - 1),
                              hosts.slice(0, n - 1)).to_numpy(
                zero_copy_only=False)
            fn = pc.not_equal(fps.slice(1, n - 1),
                              fps.slice(0, n - 1)).to_numpy(
                zero_copy_only=False)
            new_host[1:] = hn
            new_pair[1:] = hn | fn
        pair_starts = np.flatnonzero(new_pair)
        pair_cnt = np.add.reduceat(cnts, pair_starts)
        host_of_pair = np.cumsum(new_host) - 1  # host ordinal per row
        pair_host = host_of_pair[pair_starts]
        pair_fp = fps.take(pa.array(pair_starts, pa.int64()))
        # totals: fp='' sorts first within each host
        is_tot = np.asarray(
            pc.equal(pair_fp, ""), dtype=bool)
        n_hosts = int(new_host.sum())
        totals = np.zeros(n_hosts, dtype=np.int64)
        totals[pair_host[is_tot]] = pair_cnt[is_tot]
        keep = (~is_tot & (pair_cnt >= min_docs)
                & (pair_cnt > min_frac * totals[pair_host]))
        idx = pa.array(pair_starts[keep], pa.int64())
        return pa.table({
            host_col: hosts.take(idx),
            "fp": fps.take(idx),
        })

    boiler = (
        lines.map_batches(_count_partial, batch_format="pyarrow")
        .groupby("_hbucket", num_partitions=n_buckets)
        .map_groups(_threshold_bucket, batch_format="pyarrow")
    )

    # --- stage 2: anti-join lines vs B, co-shuffled by (host, fp)
    def _pair_bucket(batch: pa.Table, side: int) -> pa.Table:
        joint = pc.binary_join_element_wise(
            batch.column(host_col), batch.column("fp"), "\x00")
        b = bucket_ids(joint, n_buckets)
        out = batch.append_column("_pbucket", pa.array(b, pa.int64()))
        return out.append_column(
            "_side", pa.array(np.full(len(b), side, np.int8)))

    tagged_lines = lines.map_batches(
        lambda b: _pair_bucket(b, 0), batch_format="pyarrow")
    tagged_b = boiler.map_batches(
        lambda b: _pair_bucket(pa.table({
            host_col: b.column(host_col),
            "fp": b.column("fp"),
            id_col: pa.array(np.zeros(b.num_rows, np.int64)),
            "para_idx": pa.array(np.zeros(b.num_rows, np.int64)),
            "para": pa.array([""] * b.num_rows, pa.string()),
        }), 1), batch_format="pyarrow")

    def _anti_bucket(group: pa.Table) -> pa.Table:
        side = group.column("_side")
        joint = pc.binary_join_element_wise(
            group.column(host_col), group.column("fp"), "\x00")
        if isinstance(joint, pa.ChunkedArray):
            joint = joint.combine_chunks()
        bkeys = joint.filter(
            pc.equal(side, 1).combine_chunks())
        keep = pc.and_(
            pc.equal(side, 0),
            pc.invert(pc.is_in(joint, value_set=bkeys)))
        return group.filter(keep).drop_columns(
            ["_pbucket", "_side", "fp"])

    kept = (
        tagged_lines.union(tagged_b)
        .groupby("_pbucket", num_partitions=n_buckets)
        .map_groups(_anti_bucket, batch_format="pyarrow")
    )

    # --- stage 3: reassembly by doc (paragraph_dedup shape)
    def _bucketize(batch: pa.Table) -> pa.Table:
        buckets = bucket_ids(batch.column(id_col), n_buckets)
        return batch.append_column(
            "_dbucket", pa.array(buckets, pa.int64()))

    def _reassemble(group: pa.Table) -> pa.Table:
        g = group.sort_by([(id_col, "ascending"),
                           ("para_idx", "ascending")])
        ids = g.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "text_clean": pa.array([], pa.string()),
                "n_kept": pa.array([], pa.int64()),
            })
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        offsets = np.r_[starts, len(ids)].astype(np.int32)
        la = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            g.column("para").combine_chunks())
        return pa.table({
            id_col: pa.array(ids[starts], pa.int64()),
            "text_clean": pc.binary_join(la, sep),
            "n_kept": pa.array(np.diff(offsets).astype(np.int64),
                               pa.int64()),
        })

    return (
        kept.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("_dbucket", num_partitions=n_buckets)
        .map_groups(_reassemble, batch_format="pyarrow")
    )


_POPCNT16 = None


def _popcount64(x):
    """Vectorized popcount over uint64 via a 16-bit lookup table."""
    import numpy as np

    global _POPCNT16
    if _POPCNT16 is None:
        _POPCNT16 = np.array(
            [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
    t = _POPCNT16
    x = x.astype(np.uint64)
    m = np.uint64(0xFFFF)
    return (
        t[(x & m).astype(np.int64)].astype(np.int64)
        + t[((x >> np.uint64(16)) & m).astype(np.int64)]
        + t[((x >> np.uint64(32)) & m).astype(np.int64)]
        + t[((x >> np.uint64(48)) & m).astype(np.int64)]
    )


def simhash_near_pairs(ds, id_col: str = "doc_id",
                       text_col: str = "text", max_dist: int = 3,
                       n_buckets: int = 64, max_band: int = 20000):
    """EXACT Hamming near-dup join over 64-bit SimHash (Manku,
    Jain & Sarma, WWW'07): every pair with ``popcount(xor) <=
    max_dist`` is found — pigeonhole: split the hash into
    ``max_dist+1`` bands, any pair within distance d agrees on at
    least one band, so band-equality candidate buckets are LOSSLESS
    (unlike MinHash LSH recall<1) and the in-bucket popcount check
    makes the result exact.

    ONE exchange of (band_id, band_val, id, hash) rows — 4 small rows
    per doc for the default ``max_dist=3``; text never shuffles.
    Cross-band duplicate candidates dedup ROW-LOCALLY: a pair is
    emitted only in the FIRST band on which the two hashes agree.
    Band skew (e.g. a mass of empty docs hashing to 0) concentrates
    one bucket; ``max_band`` FAILS LOUDLY instead of silently
    degrading — widen bands or pre-dedup exact duplicates first.

    Returns ``(d1, d2, dist:int64)`` with d1 < d2.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    n_bands = max_dist + 1
    # floor split: any uncovered top bits only ever REDUCE the number
    # of covered differences, so the pigeonhole guarantee is intact
    band_bits = 64 // n_bands
    shifts = [np.uint64(b * band_bits) for b in range(n_bands)]
    band_mask = np.uint64((1 << band_bits) - 1)

    def _explode(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        h = np.array(simhash64_batch(texts), dtype=np.uint64)
        n = len(ids)
        out_band, out_val, out_id, out_h = [], [], [], []
        for b in range(n_bands):
            out_band.append(np.full(n, b, np.int64))
            out_val.append(
                ((h >> shifts[b]) & band_mask).astype(np.int64))
            out_id.append(ids)
            out_h.append(h)
        band = np.concatenate(out_band)
        val = np.concatenate(out_val)
        key = band * (np.int64(1) << np.int64(band_bits)) + val
        return pa.table({
            "_band": pa.array(band, pa.int64()),
            "_val": pa.array(val, pa.int64()),
            id_col: pa.array(np.concatenate(out_id), pa.int64()),
            "_h": pa.array(
                np.concatenate(out_h).view(np.int64), pa.int64()),
            "_bbucket": pa.array(
                bucket_ids(pa.array(key, pa.int64()), n_buckets),
                pa.int64()),
        })

    empty = pa.table({
        "d1": pa.array([], pa.int64()),
        "d2": pa.array([], pa.int64()),
        "dist": pa.array([], pa.int64()),
    })

    def _pairs_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return empty
        g = group.sort_by([("_band", "ascending"), ("_val", "ascending"),
                           (id_col, "ascending")])
        band = g.column("_band").combine_chunks().to_numpy(
            zero_copy_only=False)
        val = g.column("_val").combine_chunks().to_numpy(
            zero_copy_only=False)
        ids = g.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        h = g.column("_h").combine_chunks().to_numpy(
            zero_copy_only=False).view(np.uint64)
        starts = np.flatnonzero(
            np.r_[True, (band[1:] != band[:-1]) | (val[1:] != val[:-1])])
        bounds = np.r_[starts, n]
        out1, out2, outd = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            k = e - s
            if k < 2:
                continue
            if k > max_band:
                raise ValueError(
                    f"simhash_near_pairs: band bucket of {k} rows "
                    f"exceeds max_band={max_band} (band {band[s]}, "
                    f"val {val[s]}); pre-dedup exact duplicates or "
                    f"raise max_band")
            # tiled pair enumeration: memory is O(tile^2), never the
            # dense k^2 triangle (k=15k would be ~1e8 pairs at once)
            tile = 2048
            cur = band[s]
            for ci in range(s, e, tile):
                ce = min(ci + tile, e)
                for cj in range(ci, e, tile):
                    je = min(cj + tile, e)
                    ai = np.arange(ci, ce)
                    aj = np.arange(cj, je)
                    m = ai[:, None] < aj[None, :]
                    pi, pj = np.nonzero(m)
                    if len(pi) == 0:
                        continue
                    a, bb = ai[pi], aj[pj]
                    dist = _popcount64(h[a] ^ h[bb])
                    ok = dist <= max_dist
                    if not ok.any():
                        continue
                    a, bb, dist = a[ok], bb[ok], dist[ok]
                    # first-agreeing-band dedup (row-local)
                    first = np.full(len(a), n_bands, np.int64)
                    for b2 in range(n_bands - 1, -1, -1):
                        eq = ((h[a] >> shifts[b2]) & band_mask) == \
                             ((h[bb] >> shifts[b2]) & band_mask)
                        first = np.where(eq, b2, first)
                    keep = first == cur
                    if not keep.any():
                        continue
                    a, bb, dist = a[keep], bb[keep], dist[keep]
                    out1.append(np.minimum(ids[a], ids[bb]))
                    out2.append(np.maximum(ids[a], ids[bb]))
                    outd.append(dist.astype(np.int64))
        if not out1:
            return empty
        return pa.table({
            "d1": pa.array(np.concatenate(out1), pa.int64()),
            "d2": pa.array(np.concatenate(out2), pa.int64()),
            "dist": pa.array(np.concatenate(outd), pa.int64()),
        })

    return (
        ds.map_batches(_explode, batch_format="pyarrow")
        .groupby("_bbucket", num_partitions=n_buckets)
        .map_groups(_pairs_bucket, batch_format="pyarrow")
    )


def stitch_pairs(ds, k: int = 3, id_col: str = "doc_id",
                 text_col: str = "text", n_buckets: int = 64):
    """Document STITCHING pairs: ``(a, b)`` where the last ``k``
    tokens of ``a`` equal the first ``k`` tokens of ``b`` — the
    paginated-crawl reassembly signal (one article split across
    "page 1/2/3" URLs repeats its boundary sentence on both sides of
    the cut; CC render truncation produces the same overlap). Exact
    and near dedup both miss these: the TWO HALVES of a split doc
    share almost no content, only the seam.

    Scale shape (the exact-dedup one): per doc emit two tiny rows —
    ``(md5(tail_k), side=0, id)`` and ``(md5(head_k), side=1, id)``;
    ONE crc32(seam)-bucket co-shuffle; inside each whole-bucket UDF a
    sort + run-boundary mask crosses the tail rows of every seam run
    against its head rows (self pairs excluded). Content never moves,
    and the output is pair-scale. Docs with fewer than ``k`` tokens
    cannot overlap by ``k`` and emit nothing.

    Output: ``(a_id, b_id)`` — ``a``'s tail continues into ``b``.
    """
    import numpy as np
    from zlib import crc32

    def _ends(batch: pa.Table) -> pa.Table:
        ids, keys, sides = [], [], []
        for i, t in zip(batch.column(id_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            toks = (t or "").split(" ")
            if len(toks) < k:
                continue
            ids += [i, i]
            keys.append(_md5(" ".join(toks[-k:])))
            keys.append(_md5(" ".join(toks[:k])))
            sides += [0, 1]
        return pa.table({
            "seam": pa.array(keys, pa.string()),
            "side": pa.array(sides, pa.int8()),
            id_col: pa.array(ids, pa.int64()),
            "_sbucket": pa.array(
                [crc32(x.encode()) % n_buckets for x in keys],
                pa.int32()),
        })

    def _bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"a_id": pa.array([], pa.int64()),
                          "b_id": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        sub = group.sort_by([("seam", "ascending")])
        seams = np.asarray(sub.column("seam"))
        sides = sub.column("side").to_numpy()
        ids = sub.column(id_col).to_numpy()
        starts = np.flatnonzero(
            np.concatenate(([True], seams[1:] != seams[:-1])))
        ends = np.concatenate((starts[1:], [len(seams)]))
        a_out, b_out = [], []
        for s, e in zip(starts, ends):
            tails = ids[s:e][sides[s:e] == 0]
            heads = ids[s:e][sides[s:e] == 1]
            if len(tails) == 0 or len(heads) == 0:
                continue
            aa = np.repeat(tails, len(heads))
            bb = np.tile(heads, len(tails))
            keep = aa != bb
            a_out.append(aa[keep])
            b_out.append(bb[keep])
        if not a_out:
            return empty
        return pa.table({
            "a_id": pa.array(np.concatenate(a_out), pa.int64()),
            "b_id": pa.array(np.concatenate(b_out), pa.int64()),
        })

    return (
        ds.map_batches(_ends, batch_format="pyarrow")
        .groupby("_sbucket", num_partitions=n_buckets)
        .map_groups(_bucket, batch_format="pyarrow")
    )


def intradoc_dedup_fn(batch: pa.Table, id_col: str = "doc_id",
                      text_col: str = "text", sep: str = "\n\n",
                      out_col: str = "text_dedup") -> pa.Table:
    """WITHIN-document repeated-paragraph removal (the Dolma /
    RefinedWeb "remove duplicated lines in a page" rule): keep the
    FIRST occurrence of each paragraph inside its own document,
    preserve order, rebuild the text. The row-local complement of
    corpus-wide :func:`paragraph_dedup` — no shuffle, scan speed.

    Vectorized: one ``split_pattern`` → flat paragraph values +
    offsets; ``dictionary_encode`` (C kernel) turns paragraphs into
    int codes; first-in-doc occurrence = ``np.unique`` over packed
    ``(doc, code)`` int64 keys; docs rebuilt via mask + recomputed
    offsets + ``binary_join``. NULL text behaves as '' (the
    `paragraph_dedup` coalesce contract).
    """
    import numpy as np

    text = pc.fill_null(batch.column(text_col), "")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    paras = pc.split_pattern(text, pattern=sep)
    if isinstance(paras, pa.ChunkedArray):
        paras = paras.combine_chunks()
    flat = paras.values
    offsets = paras.offsets.to_numpy(zero_copy_only=False).astype(
        np.int64)
    counts = np.diff(offsets)
    n_docs = batch.num_rows
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    codes = pc.dictionary_encode(flat).indices.to_numpy(
        zero_copy_only=False).astype(np.int64)
    n_codes = int(codes.max()) + 1 if len(codes) else 1
    packed = doc_idx * n_codes + codes
    _, first_idx = np.unique(packed, return_index=True)
    keep = np.zeros(len(flat), bool)
    keep[first_idx] = True

    kept_counts = np.bincount(doc_idx[keep], minlength=n_docs) \
        if len(flat) else np.zeros(n_docs, np.int64)
    new_offsets = np.zeros(n_docs + 1, np.int64)
    np.cumsum(kept_counts, out=new_offsets[1:])
    new_flat = flat.filter(pa.array(keep))
    new_list = pa.ListArray.from_arrays(
        pa.array(new_offsets, pa.int32())
        if new_offsets[-1] < 2**31 else
        pa.array(new_offsets, pa.int64()), new_flat)
    joined = pc.binary_join(
        pc.cast(new_list, pa.list_(pa.string())), sep)
    return pa.table({
        id_col: batch.column(id_col),
        out_col: joined,
        "n_kept": pa.array(kept_counts, pa.int64()),
        "n_dropped": pa.array(counts - kept_counts, pa.int64()),
    })
