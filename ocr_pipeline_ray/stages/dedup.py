"""Deduplication operators: exact and content-level (shingle, paragraph,
substring, boilerplate, stitching, decontamination).

Scale shape (10^12-row design notes):

* Exact dedup hash-partitions on the content fingerprint — the ONE
  shuffle — then keeps the first row per group (D1 first-wins
  semantics of the reference's ``ocr_pipeline.py:335``).
* Hash functions are md5-based so the DuckDB oracle can reproduce
  them exactly (md5 hex strings compare lexicographically the same
  in Python and SQL).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Min

# per-process sequence for checkpoint dir tags (the pid is already in
# the dir name; this disambiguates multiple calls within one process)
_CKPT_SEQ = itertools.count()


def _md5(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


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
