"""Text-analysis operators: token counts, lang-ID, quality heuristics.

All operate over a string column of a ``ray.data.Dataset`` as
vectorized-or-row-local ``map_batches`` (no shuffle). The arithmetic
is deliberately DuckDB-expressible so every operator has an exact SQL
oracle twin (see ``ocr_pipeline_ray.queries``).
"""

from __future__ import annotations

import itertools

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.quality import quality_arrays
from ..functions.text import sanitize_chars

# per-process sequence for checkpoint dir tags (the pid is already in
# the dir name; this disambiguates multiple calls within one process)
_CKPT_SEQ = itertools.count()

# stopword profiles for the n-gram/stopword language-ID heuristic
STOPWORDS_EN = frozenset({"the", "a"})
STOPWORDS_DE = frozenset({"der", "die", "das", "und"})


def token_count_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """n_tokens = single-space-split token count, fully vectorized.

    Equivalent to ``len(string_split(text, ' '))`` (DuckDB) and
    ``len(text.split(' '))`` (Python): spaces + 1.
    """
    n = pc.add(pc.count_substring(batch.column(text_col), " "), 1)
    return batch.append_column("n_tokens", pc.cast(n, pa.int64()))


def sanitize_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """QA sanitization of a single-line text column (M7 semantics)."""
    texts = batch.column(text_col).to_pylist()
    out = sanitize_chars([t or "" for t in texts])
    return batch.append_column("text_sanitized", pa.array(out, pa.string()))


def _token_lists(batch: pa.Table, text_col: str):
    """Vectorized tokenization shared by lang-ID / heuristics.

    Returns ``(flat_tokens, offsets, n_tokens)``: the single-space
    split as one flat Arrow array + int64 doc offsets — per-doc
    reductions become cumsum differences over the flat arrays (no
    Python loop over rows or tokens).
    """
    import numpy as np

    col = pc.fill_null(batch.column(text_col), "")
    parts = pc.split_pattern(col, " ").combine_chunks()
    if isinstance(parts, pa.ChunkedArray):  # single chunk after combine
        parts = parts.chunk(0)
    offsets = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = parts.values
    n_tokens = np.diff(offsets)
    return flat, offsets, n_tokens


def _segment_sum(mask, offsets):
    """Per-doc sums of a flat 0/1 array via cumsum differences
    (empty-list safe, unlike ``np.add.reduceat``)."""
    import numpy as np

    cs = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    return cs[offsets[1:]] - cs[offsets[:-1]]


def lang_id_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-profile language ID: en/de scores + argmax prediction.

    Vectorized: one split kernel, two ``is_in`` kernels over the flat
    token array, per-doc counts by cumsum difference.
    """
    import numpy as np

    flat, offsets, _ = _token_lists(batch, text_col)
    en_mask = pc.is_in(
        flat, value_set=pa.array(sorted(STOPWORDS_EN))
    ).to_numpy(zero_copy_only=False)
    de_mask = pc.is_in(
        flat, value_set=pa.array(sorted(STOPWORDS_DE))
    ).to_numpy(zero_copy_only=False)
    s_en = _segment_sum(en_mask, offsets)
    s_de = _segment_sum(de_mask, offsets)
    pred = np.where(s_en > s_de, "en", np.where(s_de > s_en, "de", "unk"))
    return (
        batch.append_column("s_en", pa.array(s_en, pa.int64()))
        .append_column("s_de", pa.array(s_de, pa.int64()))
        .append_column("lang_pred", pa.array(pred.tolist(), pa.string()))
    )


def quality_heuristics_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc quality features: length, tokens, short/stopword ratios.

    mean_token_len uses ``(len(text) - (n_tokens - 1)) / n_tokens``
    (total chars minus separator spaces) — one exact division, so the
    SQL twin is bit-identical. Fully vectorized (Arrow kernels over
    the flat token array + cumsum-difference per-doc reductions; the
    int64→float64 divisions are the same IEEE ops as Python's).
    """
    import numpy as np

    col = pc.fill_null(batch.column(text_col), "")
    flat, offsets, n_tokens = _token_lists(batch, text_col)
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    short = _segment_sum(tok_lens <= 2, offsets)
    stop = _segment_sum(
        pc.is_in(flat, value_set=pa.array(sorted(STOPWORDS_EN)))
        .to_numpy(zero_copy_only=False),
        offsets,
    )
    out = batch
    out = out.append_column("n_chars_text", pa.array(n_chars, pa.int64()))
    out = out.append_column("n_tokens", pa.array(n_tokens, pa.int64()))
    out = out.append_column("short_ratio", pa.array(short / n_tokens,
                                                   pa.float64()))
    out = out.append_column("stop_ratio", pa.array(stop / n_tokens,
                                                   pa.float64()))
    out = out.append_column(
        "mean_token_len",
        pa.array((n_chars - (n_tokens - 1)) / n_tokens, pa.float64()),
    )
    return out


def repetition_stats_fn(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Gopher-style per-document repetition signals (Rae et al. 2021,
    "Scaling Language Models: ... Gopher", App. A — the published
    duplicate-n-gram / top-n-gram filters used on MassiveWeb):

    * ``n_bigrams``       — adjacent-token bigram occurrences (n_tokens-1)
    * ``dup_bigram_frac`` — ``1 - distinct_bigrams / n_bigrams``
    * ``top_bigram_frac`` — most-frequent-bigram count / n_bigrams

    Docs with fewer than 2 tokens have no bigram and are dropped
    (the SQL twin's ``len(toks) >= 2``). Fully vectorized and
    shuffle-free: one split kernel, one element-wise join of the two
    shifted flat token arrays, one dictionary-encode, one
    ``np.unique`` over packed ``(doc, code)`` int64 keys — no Python
    loop over rows, tokens, or bigrams. Floats are single IEEE
    divisions, so the DuckDB oracle is bit-exact.
    """
    import numpy as np

    flat, offsets, n_tokens = _token_lists(batch, text_col)
    n_docs = len(n_tokens)
    total = int(offsets[-1]) if n_docs else 0
    empty = pa.table({
        id_col: pa.array([], pa.int64()),
        "n_bigrams": pa.array([], pa.int64()),
        "dup_bigram_frac": pa.array([], pa.float64()),
        "top_bigram_frac": pa.array([], pa.float64()),
    })
    if total < 2:
        return empty
    # bigram string at position p joins tokens p and p+1 of the flat
    # array; positions where p is a doc's LAST token straddle two docs
    # and are masked out (offsets are strictly increasing: even a
    # null/empty text splits to one '' token, so no -1 indexing).
    bigrams = pc.binary_join_element_wise(
        flat.slice(0, total - 1), flat.slice(1, total - 1), " "
    )
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), n_tokens)[:-1]
    valid = np.ones(total - 1, dtype=bool)
    valid[offsets[1:-1] - 1] = False
    enc = pc.dictionary_encode(bigrams)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_dict = len(enc.dictionary)
    keys = (doc_idx * n_dict + codes)[valid]
    vdoc = doc_idx[valid]
    uniq_keys, counts = np.unique(keys, return_counts=True)
    udoc = uniq_keys // n_dict
    distinct = np.bincount(udoc, minlength=n_docs)
    top = np.zeros(n_docs, dtype=np.int64)
    np.maximum.at(top, udoc, counts)
    n_bg = np.bincount(vdoc, minlength=n_docs)
    mask = n_bg > 0
    if not mask.any():
        return empty
    n_bg_kept = n_bg[mask]
    return pa.table({
        id_col: batch.column(id_col).filter(pa.array(mask)),
        "n_bigrams": pa.array(n_bg_kept, pa.int64()),
        "dup_bigram_frac": pa.array(
            1.0 - distinct[mask] / n_bg_kept, pa.float64()),
        "top_bigram_frac": pa.array(top[mask] / n_bg_kept, pa.float64()),
    })


def tf_rows_fn(batch: pa.Table, id_col: str = "doc_id",
               text_col: str = "text") -> pa.Table:
    """Per-doc term frequencies as flat ``(id, token, tf)`` rows —
    one row per DISTINCT doc-term, fully vectorized (dictionary-encode
    the flat token array, one ``np.unique`` over packed
    ``(doc, code)`` int64 keys; no Python loop over rows or tokens).

    SQL semantics for degenerate text: a NULL text emits no rows
    (``unnest(string_split(NULL))``); ``''`` emits the single token
    ``''`` — matching DuckDB on both engines.
    """
    import numpy as np

    b = batch.filter(pc.is_valid(batch.column(text_col)))
    empty = pa.table({
        id_col: pa.array([], batch.schema.field(id_col).type),
        "token": pa.array([], pa.string()),
        "tf": pa.array([], pa.int64()),
    })
    if b.num_rows == 0:
        return empty
    flat, offsets, n_tokens = _token_lists(b, text_col)
    doc_idx = np.repeat(np.arange(len(n_tokens), dtype=np.int64),
                        n_tokens)
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_dict = max(len(enc.dictionary), 1)
    uniq, counts = np.unique(doc_idx * n_dict + codes,
                             return_counts=True)
    return pa.table({
        id_col: b.column(id_col).take(pa.array(uniq // n_dict)),
        "token": enc.dictionary.take(pa.array(uniq % n_dict)),
        "tf": pa.array(counts, pa.int64()),
    })


def attach_df_by_token_bucket(tf, n_buckets: int = 64):
    """Attach document frequency to flat ``(id, token, tf)`` rows in
    ONE exchange: hash-bucket by token (so every row of a token lands
    in one group), then compute df INSIDE the whole-bucket UDF
    (dictionary-encode + bincount over the rows, which are one per
    distinct doc-term) and append it in place.

    This fuses the vocab-scale ``groupby(token).count`` and the
    token-keyed join back onto the tf rows — the tf rows move exactly
    once and the vocabulary is never broadcast (a web vocabulary does
    not fit one worker).
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    def _tok_bucketize(batch: pa.Table) -> pa.Table:
        return batch.append_column("_tbucket", pa.array(
            bucket_ids(batch.column("token"), n_buckets), pa.int64()))

    def _df_attach(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_tbucket"])
        if base.num_rows == 0:
            return base.append_column("df", pa.array([], pa.int64()))
        codes = pc.dictionary_encode(
            base.column("token").combine_chunks()
        ).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(codes)
        return base.append_column(
            "df", pa.array(counts[codes], pa.int64()))

    return (
        tf.map_batches(_tok_bucketize, batch_format="pyarrow")
        .groupby("_tbucket", num_partitions=n_buckets)
        .map_groups(_df_attach, batch_format="pyarrow")
    )


def token_rarity(ds, id_col: str = "doc_id", text_col: str = "text",
                 n_buckets: int = 64):
    """Corpus-frequency rarity signal: per-doc occurrence-weighted
    mean document frequency (the CCNet-style "how common are this
    document's words in the corpus" quality axis — Wenzek et al.
    2020 use an LM; this is the published df-based variant).

    Physical plan (all stages candidate/vocab-scale after the first,
    nothing is ever broadcast — a web vocabulary does not fit one
    worker):

    1. ``map_batches(tf_rows_fn)`` → flat ``(doc, token, tf)`` rows.
    2. df computed and attached in ONE token-bucket shuffle
       (``attach_df_by_token_bucket`` — df groupby and df join fused).
    3. per-doc sums via map-side int64 partial combine
       (``np.add.at``) → small ``groupby(doc).sum`` → one IEEE
       division ``sum(tf·df)/sum(tf)`` — bit-exact vs the SQL twin.
    """
    import numpy as np
    from ray.data.aggregate import Sum

    tf = ds.map_batches(
        tf_rows_fn, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col},
    )
    joined = attach_df_by_token_bucket(tf, n_buckets=n_buckets)

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        tfv = batch.column("tf").combine_chunks().to_numpy()
        dfv = batch.column("df").combine_chunks().to_numpy()
        uniq, inv = np.unique(ids, return_inverse=True)
        tfdf = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tfdf, inv, tfv * dfv)
        tfs = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tfs, inv, tfv)
        return pa.table({
            id_col: pa.array(uniq, batch.schema.field(id_col).type),
            "tfdf": pa.array(tfdf, pa.int64()),
            "tfs": pa.array(tfs, pa.int64()),
        })

    agg = joined.map_batches(_partial, batch_format="pyarrow").groupby(
        id_col
    ).aggregate(Sum("tfdf", alias_name="tfdf"),
                Sum("tfs", alias_name="tfs"))

    def _finish(batch: pa.Table) -> pa.Table:
        tfdf = batch.column("tfdf").combine_chunks().to_numpy()
        tfs = batch.column("tfs").combine_chunks().to_numpy()
        return pa.table({
            id_col: batch.column(id_col),
            "n_tokens": pa.array(tfs, pa.int64()),
            "mean_df": pa.array(tfdf / tfs, pa.float64()),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")


def doc_quality_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Single-line-document quality scoring (StepEstimateOCR contract).

    Treats each row's text as a one-line document through the full
    sanitize → dense filter → token validate → ratio chain; emits
    ``hit_ratio`` (with the -1 sentinel), ``n_words``, ``n_errs``.
    """
    import numpy as np

    texts = pc.fill_null(batch.column(text_col), "").combine_chunks()
    quality = quality_arrays(pa.ListArray.from_arrays(
        pa.array(np.arange(len(texts) + 1, dtype=np.int32)), texts))
    return (
        batch.append_column("hit_ratio", quality["hit_ratio"])
        .append_column("n_words", quality["n_words"].cast(pa.int64()))
        .append_column("n_errs", quality["n_errs"].cast(pa.int64()))
    )


def tfidf_top_terms(ds, id_col: str = "doc_id", text_col: str = "text",
                    k: int = 3, n_buckets: int = 64):
    """Corpus TF-IDF: top-``k`` terms per document.

    Three stages, all candidate/vocab-scale after the first:

    1. ``map_batches``: per-doc term frequencies → flat
       ``(doc_id, token, tf)`` rows (one row per DISTINCT doc-term).
    2. df computed and attached in ONE token-bucket shuffle
       (``attach_df_by_token_bucket`` — df groupby and df join fused;
       the vocabulary is never broadcast and the tf rows move exactly
       once before scoring).
    3. score = tf · ln(N/df); per-doc top-k via the standard bucketed
       shape — hash shuffle by doc bucket, per-bucket Arrow sort
       ``(doc, score desc, token)`` + vectorized segment-rank mask
       (never a per-doc UDF). Ordering uses the 1e-6-GRIDDED score
       (ties break by token) — the same grid the output carries — so
       the DuckDB twin's independently rounded ``ln`` yields the same
       selection whenever it yields the same gridded values.

    N (corpus size) is a driver-side scalar count — metadata-cheap.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids
    from ..functions.segments import key_segments, segment_ranks

    n_docs = ds.count()

    tf = ds.map_batches(
        tf_rows_fn, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col},
    )
    scored = attach_df_by_token_bucket(tf, n_buckets=n_buckets)

    def _bucketize(batch: pa.Table) -> pa.Table:
        return batch.append_column("_dbucket", pa.array(
            bucket_ids(batch.column(id_col), n_buckets), pa.int64()
        ))

    def _topk(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_dbucket"])
        if group.num_rows == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "token": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            })
        tfs = base.column("tf").combine_chunks().to_numpy().astype(
            np.float64)
        dfs = base.column("df").combine_chunks().to_numpy().astype(
            np.float64)
        score = tfs * np.log(float(n_docs) / dfs)
        score = np.floor(score * 1000000.0 + 0.5) / 1000000.0
        with_score = base.append_column(
            "score", pa.array(score, pa.float64())
        )
        g = with_score.sort_by([
            (id_col, "ascending"), ("score", "descending"),
            ("token", "ascending"),
        ])
        dids = g.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        seg_start, seg_len = key_segments(dids)
        rank = segment_ranks(seg_start, seg_len)
        top = g.filter(pa.array(rank < k))
        return top.select([id_col, "token", "score"])

    return scored.map_batches(
        _bucketize, batch_format="pyarrow"
    ).groupby(
        "_dbucket", num_partitions=n_buckets
    ).map_groups(_topk, batch_format="pyarrow")


def hash_embed(ds, dim: int = 64, id_col: str = "doc_id",
               text_col: str = "text"):
    """Feature-hashing document embedder (the "hashing trick",
    Weinberger et al., ICML 2009): token t adds ±1 to vector cell
    ``md5_32(t) % dim``, sign = bit 16 of the same hash. Deterministic,
    vocabulary-free (no model to broadcast, no shuffle — the operator
    is row-local and runs at scan speed), and inner products
    approximate token-overlap similarity, so the output column feeds
    the ANN/near-dup stack directly.

    Output: ``(id_col, embedding list<int64>)`` — one fixed-``dim``
    signed-count vector per document (NULL text -> zero vector).
    One md5 per DISTINCT token per batch (cross-doc memoization),
    then one ``np.add.at`` scatter.
    """
    import numpy as np
    import pyarrow as pa

    def _embed(batch: pa.Table) -> pa.Table:
        mat = _hash_embed_matrix(
            batch.column(text_col).to_pylist(), dim)
        n = mat.shape[0]
        offsets = pa.array(
            (np.arange(n + 1, dtype=np.int32) * dim).astype(np.int32),
            pa.int32())
        emb = pa.ListArray.from_arrays(
            offsets, pa.array(mat.ravel(), pa.int64()))
        return pa.table({id_col: batch.column(id_col),
                         "embedding": emb})

    return ds.map_batches(_embed, batch_format="pyarrow")


def _hash_embed_matrix(texts, dim: int):
    """The hashing-trick kernel shared by :func:`hash_embed` and
    :func:`linear_score`: (n_docs x dim) int64 signed-count matrix.
    Vectorized: one split kernel, ``pc.unique`` + ``pc.index_in``
    for token identity (one md5 per DISTINCT token per batch — the
    only Python loop left is over the distinct set), one
    ``np.add.at`` scatter. NULL text = zero vector (its token rows
    are masked out, NOT turned into an empty-string token)."""
    import hashlib

    import numpy as np

    col = pa.array(texts, pa.string()) if not isinstance(
        texts, (pa.Array, pa.ChunkedArray)) else texts
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    parts = pc.split_pattern(pc.fill_null(col, ""), " ")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    offsets = parts.offsets.to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = parts.values
    ntok = np.diff(offsets)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), ntok)
    keep = valid[doc_of]          # a NULL doc's fill-token vanishes
    mat = np.zeros((n, dim), dtype=np.int64)
    if keep.any():
        flat = flat.filter(pa.array(keep))
        doc_of = doc_of[keep]
        uniq = pc.unique(flat)
        hs = np.fromiter(
            (int(hashlib.md5(u.encode("utf-8")).hexdigest()[:8], 16)
             for u in uniq.to_pylist()),
            dtype=np.uint64, count=len(uniq)).astype(np.int64)
        cells = hs % dim
        signs = np.where((hs >> 16) & 1 == 1, 1, -1).astype(np.int64)
        tok_of = pc.index_in(flat, value_set=uniq).to_numpy(
            zero_copy_only=False).astype(np.int64)
        np.add.at(mat, (doc_of, cells[tok_of]), signs[tok_of])
    return mat


def linear_score(ds, weights, bias: int = 0, id_col: str = "doc_id",
                 text_col: str = "text"):
    """Deterministic linear classifier over hashed features — the
    fastText-style quality-model scoring slot as a row-local,
    integer-exact operator: ``logit = <hash_embed(doc), w> + bias``
    in pure int64 (bit-exact, summation-order-free), ``label =
    logit >= 0``. The weight vector is model-scale (``dim`` ints) —
    it ships in the task closure; no shuffle, no actor state, scan
    speed. A real trained model drops in by replacing ``weights``;
    the arithmetic contract (int64 dot over the hashing-trick
    vector) is what the oracle pins.

    Output: ``(id_col, logit int64, label bool)``; NULL text scores
    ``bias`` (zero vector), same as SQL ``COALESCE(sum, 0)``.
    """
    import numpy as np
    import pyarrow as pa

    w = np.asarray(list(weights), dtype=np.int64)
    dim = len(w)
    b = int(bias)

    def _score(batch: pa.Table) -> pa.Table:
        mat = _hash_embed_matrix(
            batch.column(text_col).to_pylist(), dim)
        logit = mat @ w + b
        return pa.table({
            id_col: batch.column(id_col),
            "logit": pa.array(logit, pa.int64()),
            "label": pa.array(logit >= 0, pa.bool_()),
        })

    return ds.map_batches(_score, batch_format="pyarrow")


def chunk_documents(batch: pa.Table, id_col: str = "doc_id",
                    text_col: str = "text", chunk_tokens: int = 64,
                    step: int = 48) -> pa.Table:
    """Overlapping fixed-size token chunking (the RAG/context-window
    splitter), fully vectorized and ROW-LOCAL — zero shuffles; call
    via ``map_batches``.

    Chunks cover token windows ``[i*step, i*step + chunk_tokens)``
    of the single-space split (the engine-wide tokenizer contract,
    = ``string_split(text, ' ')``); the last window is emitted as
    soon as it reaches the end, so no chunk is a pure suffix of its
    predecessor: ``n_chunks = 1 + (max(n - chunk, 0) + step-1) //
    step`` — integer-exact and SQL-twinnable via generate_series +
    list_slice. NULL texts emit no chunks (SQL ``WHERE text IS NOT
    NULL``); an empty string is one empty chunk (one empty token,
    same as ``token_count``).

    Unlike :func:`..stages.pack.sequence_packing` (global gapless
    windows over the concatenated corpus stream, a prefix-sum
    co-shuffle), chunking is per-document and overlap-duplicating:
    token duplication factor ≈ chunk/step is inherent and the
    operator stays embarrassingly parallel. Windows are gathered
    from the flat token array with one ``take`` + ListArray rebuild
    + ``binary_join`` — overlapping windows cannot share ListArray
    offsets, so the gather IS the copy, once.
    """
    import numpy as np

    if step < 1 or chunk_tokens < 1:
        raise ValueError("chunk_tokens and step must be >= 1")
    sub = batch.filter(pc.is_valid(batch.column(text_col)))
    flat, offsets, n = _token_lists(sub, text_col)
    over = np.maximum(n - chunk_tokens, 0)
    nc = 1 + (over + step - 1) // step
    total = int(nc.sum())
    doc_idx = np.repeat(np.arange(len(n), dtype=np.int64), nc)
    cum_nc = np.cumsum(nc)
    chunk_id = (np.arange(total, dtype=np.int64)
                - np.repeat(cum_nc - nc, nc))
    start = chunk_id * step
    lens = np.minimum(start + chunk_tokens, n[doc_idx]) - start
    base = offsets[:-1][doc_idx] + start
    cum_l = np.cumsum(lens)
    tot_tok = int(cum_l[-1]) if total else 0
    intra = (np.arange(tot_tok, dtype=np.int64)
             - np.repeat(cum_l - lens, lens))
    gathered = flat.take(
        pa.array(np.repeat(base, lens) + intra, pa.int64()))
    lists = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], cum_l]), pa.int32()),
        gathered.combine_chunks()
        if isinstance(gathered, pa.ChunkedArray) else gathered)
    return pa.table({
        id_col: sub.column(id_col).take(
            pa.array(doc_idx, pa.int64())),
        "chunk_id": pa.array(chunk_id, pa.int64()),
        "chunk_text": pc.binary_join(lists, " "),
        "n_tokens": pa.array(lens, pa.int64()),
    })


def regex_extract_fn(batch: pa.Table, col: str, pattern: str,
                     prefix: str = "") -> pa.Table:
    """Vectorized RE2 capture-group extraction over a string column
    (``pc.extract_regex`` — the C++ kernel, no Python per row), with
    SQL ``regexp_extract`` parity: a VALID input row with no match
    yields ``''`` (DuckDB's convention), a NULL input stays NULL.
    Named groups ``(?P<name>...)`` become output columns
    ``{prefix}{name}``; row-local, zero shuffles. The same RE2
    dialect runs on both engines, so extractions are oracle-exact
    (the PII operators already rely on this shared dialect).
    """
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    st = pc.extract_regex(arr, pattern)
    valid_in = pc.is_valid(arr)
    out = batch
    for field in st.type:
        vals = pc.struct_field(st, field.name)
        aligned = pc.if_else(
            valid_in,
            pc.fill_null(vals, ""),
            pa.scalar(None, pa.string()),
        )
        out = out.append_column(f"{prefix}{field.name}", aligned)
    return out


def bm25_topk(ds, query_tokens, k: int = 10, id_col: str = "doc_id",
              text_col: str = "text", k1: float = 1.2,
              b: float = 0.75):
    """Distributed BM25 top-k search (Robertson & Zaragoza 2009) —
    the lexical retrieval primitive the embedding ANN path
    complements. Two scans, no shuffle:

    1. corpus-statistics pass: per block, tiny partials — doc count,
       total token count, and per-QUERY-token document frequency
       (vectorized ``pc.equal`` masks + cumsum segment sums; the
       corpus vocabulary is never materialized, only |query| df
       cells per block). The driver folds blocks-scale partials into
       N / avgdl / df and ships the |query|-sized idf table back in
       the closure.
    2. scoring pass: per block, per-doc tf of each query token via
       the same segment sums, the BM25 formula vectorized over the
       block, scores grid-rounded to the repo-wide 1e-6 contract,
       LOCAL top-k by (score desc, id) — blocks x k candidates, one
       tiny global sort+limit.

    Only docs matching >= 1 query token score (SQL-twin parity);
    ties after grid rounding break by id. idf = ln((N-df+.5)/(df+.5)
    + 1) — the "plus one" variant that never goes negative.
    """
    import math

    import numpy as np

    toks = list(dict.fromkeys(query_tokens))  # dedup, keep order

    def _stats_partial(batch: pa.Table) -> pa.Table:
        flat, offsets, n_tokens = _token_lists(batch, text_col)
        cols = {"n_docs": pa.array([batch.num_rows], pa.int64()),
                "n_toks": pa.array([int(n_tokens.sum())], pa.int64())}
        for i, t in enumerate(toks):
            tf = _segment_sum(
                pc.cast(pc.equal(flat, t), pa.int8()).to_numpy(
                    zero_copy_only=False), offsets)
            cols[f"df{i}"] = pa.array([int((tf > 0).sum())],
                                      pa.int64())
        return pa.table(cols)

    n_docs = 0
    n_toks = 0
    df = np.zeros(len(toks), dtype=np.int64)
    for bb in ds.map_batches(
            _stats_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        if not bb.num_rows:
            continue
        n_docs += int(pc.sum(bb.column("n_docs")).as_py() or 0)
        n_toks += int(pc.sum(bb.column("n_toks")).as_py() or 0)
        for i in range(len(toks)):
            df[i] += int(pc.sum(bb.column(f"df{i}")).as_py() or 0)
    if n_docs == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    avgdl = n_toks / n_docs
    idf = np.array([
        math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0) for d in df
    ], dtype=np.float64)

    def _score_local(batch: pa.Table) -> pa.Table:
        flat, offsets, n_tokens = _token_lists(batch, text_col)
        dl = n_tokens.astype(np.float64)
        denom_len = k1 * (1.0 - b + b * dl / avgdl)
        score = np.zeros(batch.num_rows, dtype=np.float64)
        for i, t in enumerate(toks):
            tf = _segment_sum(
                pc.cast(pc.equal(flat, t), pa.int8()).to_numpy(
                    zero_copy_only=False), offsets).astype(np.float64)
            score += idf[i] * tf * (k1 + 1.0) / (tf + denom_len)
        score = np.floor(score * 1000000.0 + 0.5) / 1000000.0
        hit = score > 0.0
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)[hit]
        score = score[hit]
        order = np.lexsort((ids, -score))[:k]
        return pa.table({
            id_col: pa.array(ids[order], pa.int64()),
            "score": pa.array(score[order], pa.float64()),
            "_neg": pa.array(-score[order], pa.float64()),
        })

    cands = ds.map_batches(_score_local, batch_format="pyarrow")
    return (
        cands.sort(["_neg", id_col]).limit(k).drop_columns(["_neg"])
    )


def distinctive_terms(ds, side_col: str, text_col: str = "text",
                      k: int = 20):
    """Distinctive-terms comparison between two sub-corpora (Monroe
    et al. 2008 "Fightin' Words": log-odds with add-one Dirichlet
    prior, z-scored) — "which words characterize side A vs side B",
    the standard corpus-linguistics / source-audit operator.

    ``side_col`` is boolean (True = side A). Per token:
    ``z = (ln((ya+1)/(na+V−ya−1)) − ln((yb+1)/(nb+V−yb−1))) /
    sqrt(1/(ya+1) + 1/(yb+1))`` with V = vocabulary size. All inputs
    are exact int64 counts, so both engines evaluate the identical
    float expression; z lands on the 1e-6 grid.

    Shape: vectorized per-block token partials → ONE vocab-scale
    token groupby (never broadcast); global scalars (na, nb, V) fold
    from per-block partials of THAT table (blocks-scale driver
    state); scoring + local top-k run per block and a tiny global
    sort/limit closes — the ann_topk shape.

    Returns top-``k`` side-A-distinctive ``(token, z)`` (z desc,
    token asc).
    """
    import math

    import numpy as np
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_valid(batch.column(text_col)))
        if b.num_rows == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "ya": pa.array([], pa.int64()),
                             "yb": pa.array([], pa.int64())})
        flat, offsets, n_tokens = _token_lists(b, text_col)
        is_a = b.column(side_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(bool)
        tok_a = np.repeat(is_a, n_tokens)
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        nd = len(enc.dictionary)
        ya = np.bincount(codes[tok_a], minlength=nd)
        yb = np.bincount(codes[~tok_a], minlength=nd)
        return pa.table({
            "token": enc.dictionary,
            "ya": pa.array(ya, pa.int64()),
            "yb": pa.array(yb, pa.int64()),
        })

    vocab = ds.select_columns([text_col, side_col]).map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("token").aggregate(Sum("ya", alias_name="ya"),
                                 Sum("yb", alias_name="yb"))

    # global scalars from blocks-scale partials of the vocab table
    def _tots(batch: pa.Table) -> pa.Table:
        return pa.table({
            "na": pa.array([pc.sum(batch.column("ya")).as_py() or 0],
                           pa.int64()),
            "nb": pa.array([pc.sum(batch.column("yb")).as_py() or 0],
                           pa.int64()),
            "v": pa.array([batch.num_rows], pa.int64()),
        })

    na = nb = v = 0
    for b in vocab.map_batches(_tots, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        na += pc.sum(b.column("na")).as_py() or 0
        nb += pc.sum(b.column("nb")).as_py() or 0
        v += pc.sum(b.column("v")).as_py() or 0

    def _score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "z": pa.array([], pa.float64())})
        ya = batch.column("ya").to_pylist()
        yb = batch.column("yb").to_pylist()
        # math.log/math.sqrt (libm scalars) — identical to the SQL
        # engine's ln/sqrt; numpy's SIMD transcendentals are not
        # guaranteed bit-equal, so the vocab rows score via the
        # scalar kernels (one pass over vocab-scale rows per block)
        z = [
            math.floor(
                (math.log((a + 1) / (na + v - a - 1.0))
                 - math.log((b_ + 1) / (nb + v - b_ - 1.0)))
                / math.sqrt(1.0 / (a + 1) + 1.0 / (b_ + 1))
                * 1e6 + 0.5) / 1e6
            for a, b_ in zip(ya, yb)
        ]
        t = pa.table({"token": batch.column("token"),
                      "z": pa.array(z, pa.float64())})
        # local top-k per block bounds the global sort input
        return t.sort_by([("z", "descending"),
                          ("token", "ascending")]).slice(0, k)

    return vocab.map_batches(_score, batch_format="pyarrow").sort(
        key=["z", "token"], descending=[True, False]).limit(k)


def wordlist_gate_fn(batch: pa.Table, words, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """C4-style BAD-WORDS gate (Raffel et al. 2020 §2.2 "List of
    Dirty, Naughty ... Words"): per doc, count tokens on the
    blocklist and flag docs carrying none as kept. Vectorized: one
    split kernel, ONE ``is_in`` against the (closure-captured,
    worker-cached) word set over the flat token array, per-doc
    counts by cumsum difference — no shuffle, no per-row Python.

    Returns ``(id_col, n_blocked: int64, kept: bool)``.
    """
    import numpy as np

    value_set = pa.array(sorted(set(words)), pa.string())
    flat, offsets, _ = _token_lists(batch, text_col)
    mask = pc.is_in(flat, value_set=value_set).to_numpy(
        zero_copy_only=False)
    n_blocked = _segment_sum(mask, offsets)
    return pa.table({
        id_col: batch.column(id_col),
        "n_blocked": pa.array(n_blocked, pa.int64()),
        "kept": pa.array(n_blocked == 0),
    })


class DictionaryTagger:
    """Multi-phrase dictionary tagging — the blocklist-phrase /
    keyword-spotting primitive (spam phrase lists, policy terms,
    brand lexicons). One automaton pass per document over the WHOLE
    phrase set, not one scan per phrase.

    Actor-pool shape: the combined alternation automaton is compiled
    ONCE per actor in ``__init__`` from the (broadcast) phrase list —
    ``re`` compiles a literal alternation into a single C-speed
    scanner, the same one-pass-many-patterns idea as Aho–Corasick —
    and ``__call__`` streams batches through it. Matches are counted
    at EVERY start offset including overlaps (the lookahead wrapper
    ``(?=(p1|p2|...))`` advances one char per match), with the
    longest phrase winning at a shared start offset (alternation is
    ordered longest-first). Output: one ``(id, term, n_hits)`` row
    per matched phrase per doc — row-local, no shuffle; corpus
    totals are one small groupby downstream.
    """

    def __init__(self, terms, text_col: str = "text",
                 id_col: str = "doc_id"):
        import re

        terms = [t for t in terms if t]  # '' would match at EVERY offset
        if not terms:
            raise ValueError("empty phrase dictionary")
        self.text_col = text_col
        self.id_col = id_col
        # longest-first so a shared start offset reports the longest
        # phrase (deterministic, order-independent of the input list)
        ordered = sorted(set(terms), key=lambda t: (-len(t), t))
        alt = "|".join(re.escape(t) for t in ordered)
        self._scan = re.compile(f"(?=({alt}))").finditer

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids_out, terms_out, hits_out = [], [], []
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        for rid, t in zip(ids, texts):
            if not t:
                continue
            counts = Counter(m.group(1) for m in self._scan(t))
            for term in sorted(counts):
                ids_out.append(rid)
                terms_out.append(term)
                hits_out.append(counts[term])
        return pa.table({
            self.id_col: pa.array(ids_out, pa.int64()),
            "term": pa.array(terms_out, pa.string()),
            "n_hits": pa.array(hits_out, pa.int64()),
        })


def dictionary_tag(ds, terms, text_col: str = "text",
                   id_col: str = "doc_id", concurrency=(1, 8),
                   batch_size: int = 256):
    """Tag every document against a phrase dictionary (see
    :class:`DictionaryTagger`). ``terms`` is driver-resident and
    small (a lexicon); it ships once per ACTOR via the constructor,
    never per batch."""
    return ds.map_batches(
        DictionaryTagger,
        fn_constructor_kwargs={
            "terms": list(terms), "text_col": text_col, "id_col": id_col,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )


def char_entropy_fn(batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Per-document character-level Shannon entropy (nats) — the
    gibberish / binary-junk detector used by public curation
    pipelines (Dolma's linear filters, RefinedWeb's quality gates):
    keyboard-mash and base64 blobs sit far from natural text's
    ~2.5–4.5 nats. Rounded to the 1e-6 grid so the DuckDB twin's
    different summation order cannot surface float noise.

    Vectorized via the packed-key trick (cf. repetition_stats_fn):
    one utf-32 decode per doc (a single C call each), then ONE
    ``np.unique`` over ``doc_idx * 0x110000 + codepoint`` for the
    whole batch and per-doc entropy by a bincount fold — no Python
    loop over characters. Docs with empty/null text are dropped
    (entropy of nothing is undefined). Row-local, no shuffle.
    """
    import math

    import numpy as np

    texts = batch.column(text_col).to_pylist()
    parts, doc_rows, n_chars = [], [], []
    for row, t in enumerate(texts):
        if not t:
            continue
        cps = np.frombuffer(t.encode("utf-32-le"), np.uint32)
        parts.append(cps.astype(np.int64))
        doc_rows.append(row)
        n_chars.append(len(cps))
    if not parts:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "char_entropy": pa.array([], pa.float64()),
        })
    lens = np.array(n_chars, dtype=np.int64)
    doc_idx = np.repeat(np.arange(len(parts), dtype=np.int64), lens)
    keys = doc_idx * 0x110000 + np.concatenate(parts)
    uniq, counts = np.unique(keys, return_counts=True)
    udoc = uniq // 0x110000
    p = counts / lens[udoc]
    h = np.bincount(udoc, weights=-p * np.log(p), minlength=len(parts))
    h6 = np.floor(h * 1000000.0 + 0.5) / 1000000.0
    return pa.table({
        id_col: batch.column(id_col).take(pa.array(doc_rows, pa.int64())),
        "n_chars": pa.array(lens, pa.int64()),
        "char_entropy": pa.array(h6, pa.float64()),
    })


def oov_rate(ds, v: int = 100, id_col: str = "doc_id",
             text_col: str = "text"):
    """Per-document out-of-vocabulary rate against the corpus's own
    top-``v`` vocabulary — the tokenizer-coverage report run before
    committing a vocab size (what fraction of each doc would map to
    <unk>?).

    Two phases, both scale-safe:

    1. Global token totals: map-side partial Counters (bytes per
       DISTINCT token per block, not per occurrence) → one small
       token groupby → top-``v`` by a tiny sort+limit with the
       deterministic (count desc, token asc) tie-break.
    2. The vocab (``v`` strings) broadcasts to every task
       closure-captured; per doc ONE vectorized ``is_in`` over the
       flat token array + cumsum-diff segment sums (the
       wordlist_gate_fn kernel) gives in-vocab counts. No shuffle.

    All-integer until the final division, so the SQL twin is
    bit-exact. Output: (id, n_tokens, n_oov, oov_rate).
    """
    import numpy as np

    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        flat, _, _ = _token_lists(batch, text_col)
        vc = pc.value_counts(flat)
        return pa.table({
            "token": vc.field("values"),
            "n": pc.cast(vc.field("counts"), pa.int64()),
        })

    top = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("token").aggregate(Sum("n"))
        .sort(key=["sum(n)", "token"], descending=[True, False])
        .limit(v)
    )
    vocab = pa.array(
        sorted(r["token"] for r in top.take_all()), pa.string())

    def _rate(batch: pa.Table) -> pa.Table:
        flat, offsets, n_tokens = _token_lists(batch, text_col)
        inv = pc.is_in(flat, value_set=vocab).to_numpy(
            zero_copy_only=False)
        n_in = _segment_sum(inv, offsets)
        n_tok = np.asarray(n_tokens, dtype=np.int64)
        n_oov = n_tok - n_in
        return pa.table({
            id_col: batch.column(id_col),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "oov_rate": pa.array(n_oov / n_tok, pa.float64()),
        })

    return ds.map_batches(_rate, batch_format="pyarrow")


def rarity_dispersion(ds, id_col: str = "doc_id", text_col: str = "text",
                      n_buckets: int = 64):
    """Per-doc DISPERSION of token corpus-frequency — the
    second-moment companion to :func:`token_rarity` (same physical
    plan, one extra int64 partial). Human text mixes frequent
    function words with rare content words (high df variance);
    template/machine-generated text clusters in a narrow frequency
    band (low variance at a given mean) — the published
    "burstiness/uniformity" family of MGT heuristics.

    All sums are int64 (exact, order-free); the final
    ``var = Σtf·df²/Σtf − (Σtf·df/Σtf)²`` is the same float
    expression the SQL twin evaluates, so the oracle is bit-exact.
    Int64 bound: the df² partial overflows once df > ~3e9 — at
    10^12-doc corpus scale compute the second moment in float64
    instead (the int64 path is what buys bit-exactness at gate
    scale).
    """
    import numpy as np
    from ray.data.aggregate import Sum

    tf = ds.map_batches(
        tf_rows_fn, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col},
    )
    joined = attach_df_by_token_bucket(tf, n_buckets=n_buckets)

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        tfv = batch.column("tf").combine_chunks().to_numpy()
        dfv = batch.column("df").combine_chunks().to_numpy()
        uniq, inv = np.unique(ids, return_inverse=True)
        tfdf = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tfdf, inv, tfv * dfv)
        tfd2 = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tfd2, inv, tfv * dfv * dfv)
        tfs = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(tfs, inv, tfv)
        return pa.table({
            id_col: pa.array(uniq, batch.schema.field(id_col).type),
            "tfdf": pa.array(tfdf, pa.int64()),
            "tfd2": pa.array(tfd2, pa.int64()),
            "tfs": pa.array(tfs, pa.int64()),
        })

    agg = joined.map_batches(_partial, batch_format="pyarrow").groupby(
        id_col
    ).aggregate(Sum("tfdf", alias_name="tfdf"),
                Sum("tfd2", alias_name="tfd2"),
                Sum("tfs", alias_name="tfs"))

    def _finish(batch: pa.Table) -> pa.Table:
        tfdf = batch.column("tfdf").combine_chunks().to_numpy()
        tfd2 = batch.column("tfd2").combine_chunks().to_numpy()
        tfs = batch.column("tfs").combine_chunks().to_numpy()
        mean = tfdf / tfs
        return pa.table({
            id_col: batch.column(id_col),
            "n_tokens": pa.array(tfs, pa.int64()),
            "mean_df": pa.array(mean, pa.float64()),
            "var_df": pa.array(tfd2 / tfs - mean * mean, pa.float64()),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")


def paragraph_lang_mix_fn(batch: pa.Table, text_col: str = "text",
                          id_col: str = "doc_id",
                          sep: str = "\n\n") -> pa.Table:
    """Paragraph-level language mixing — the CCNet-style
    code-switching signal (Wenzek et al. 2020 run lang-ID per
    PARAGRAPH, not per page: navigation chrome in one language
    around content in another is the single biggest lang-label
    error source on web pages).

    Per doc: paragraph count, number of distinct predicted
    paragraph languages, the majority language (ties broken
    lexicographically) and ``mix_frac = 1 − majority/n_paras``.
    Fully vectorized and row-local (a doc's paragraphs never leave
    its row): two nested split kernels (doc→para, para→token), two
    ``is_in`` scans over the flat token array, per-para stopword
    scores by cumsum-diff, per-doc language counts via ONE
    ``np.unique`` over packed ``doc·3 + lang_code`` keys. No
    shuffle, no Python loop over rows/paras/tokens.
    """
    import numpy as np

    # lang codes ordered LEXICOGRAPHICALLY (de < en < unk) so that
    # numpy argmax's first-max tie-break == SQL ORDER BY n DESC, lp
    langs = np.array(["de", "en", "unk"])

    def _flatten(list_arr):
        if isinstance(list_arr, pa.ChunkedArray):
            list_arr = list_arr.combine_chunks()
        if isinstance(list_arr, pa.ChunkedArray):  # zero-chunk case
            list_arr = (list_arr.chunk(0) if list_arr.num_chunks
                        else pa.array([], pa.list_(pa.string())))
        return list_arr

    col = pc.fill_null(batch.column(text_col), "")
    paras = _flatten(pc.split_pattern(col, sep))
    p_offsets = paras.offsets.to_numpy(zero_copy_only=False).astype(
        np.int64)
    flat_paras = paras.values
    n_docs = batch.num_rows
    n_paras = np.diff(p_offsets)

    toks = _flatten(pc.split_pattern(flat_paras, " "))
    t_offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(
        np.int64)
    flat_toks = toks.values
    en = _segment_sum(pc.is_in(
        flat_toks, value_set=pa.array(sorted(STOPWORDS_EN))
    ).to_numpy(zero_copy_only=False), t_offsets)
    de = _segment_sum(pc.is_in(
        flat_toks, value_set=pa.array(sorted(STOPWORDS_DE))
    ).to_numpy(zero_copy_only=False), t_offsets)
    code = np.where(en > de, 1, np.where(de > en, 0, 2))  # de,en,unk

    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), n_paras)
    uniq, ucnt = np.unique(doc_idx * 3 + code, return_counts=True)
    counts = np.zeros((n_docs, 3), dtype=np.int64)
    counts[uniq // 3, uniq % 3] = ucnt
    maj_n = counts.max(axis=1)
    maj_code = counts.argmax(axis=1)
    return pa.table({
        id_col: batch.column(id_col),
        "n_paras": pa.array(n_paras, pa.int64()),
        "n_langs": pa.array((counts > 0).sum(axis=1), pa.int64()),
        "major_lang": pa.array(langs[maj_code].tolist(), pa.string()),
        "mix_frac": pa.array(1.0 - maj_n / n_paras, pa.float64()),
    })


def script_mix_fn(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Per-document Unicode SCRIPT mix — the mojibake / homoglyph-spam
    signal that complements stopword language-ID: a "Latin-language"
    page whose letters are partly Cyrillic is confusable-obfuscated
    (see stages/normalize.CONFUSABLES) or mis-encoded, and a page
    mixing scripts mid-word defeats naive tokenizers. Counts every
    codepoint into Latin letters / Cyrillic / ASCII digits / other
    (spaces and punctuation land in other — the SQL twin mirrors the
    same 4-way partition), plus ``mixed`` = both letter scripts seen.

    Vectorized via the packed batch layout (cf. char_entropy_fn): one
    utf-32 decode per doc, ONE set of range masks over the whole
    batch's concatenated codepoints, per-doc sums by ``np.bincount``
    over the repeated doc index. Row-local, no shuffle; null/empty
    text rows are kept with zero counts.
    """
    import numpy as np

    texts = batch.column(text_col).to_pylist()
    n_rows = len(texts)
    parts, lens = [], np.zeros(n_rows, np.int64)
    for row, t in enumerate(texts):
        if not t:
            continue
        cps = np.frombuffer(t.encode("utf-32-le"), np.uint32)
        parts.append(cps.astype(np.int64))
        lens[row] = len(cps)
    if parts:
        cp = np.concatenate(parts)
        doc_idx = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
        latin = ((cp >= 0x41) & (cp <= 0x5A)) | \
                ((cp >= 0x61) & (cp <= 0x7A))
        cyr = (cp >= 0x400) & (cp <= 0x4FF)
        digit = (cp >= 0x30) & (cp <= 0x39)
        other = ~(latin | cyr | digit)

        def _per_doc(mask):
            return np.bincount(doc_idx[mask], minlength=n_rows)

        n_latin, n_cyr = _per_doc(latin), _per_doc(cyr)
        n_digit, n_other = _per_doc(digit), _per_doc(other)
    else:
        n_latin = n_cyr = n_digit = n_other = np.zeros(
            n_rows, np.int64)
    return pa.table({
        id_col: batch.column(id_col),
        "n_latin": pa.array(n_latin.astype(np.int64), pa.int64()),
        "n_cyrillic": pa.array(n_cyr.astype(np.int64), pa.int64()),
        "n_digit": pa.array(n_digit.astype(np.int64), pa.int64()),
        "n_other": pa.array(n_other.astype(np.int64), pa.int64()),
        "mixed": pa.array((n_latin > 0) & (n_cyr > 0), pa.bool_()),
    })


def vocab_growth(ds, checkpoints, text_col: str = "text",
                 id_col: str = "doc_id"):
    """VOCABULARY GROWTH curve (Heaps' law diagnostic): at each
    corpus-prefix checkpoint ``cp`` (docs with id < cp), total token
    count and DISTINCT token count — the curve tokenizer vocab
    sizing and dedup-health checks read (a corpus whose distinct
    curve goes linear is template spam; one that flattens early is
    heavily duplicated). Duplicate checkpoint values are collapsed
    (each unique cp appears once in the output).

    Scale shape: ONE tokenize scan of the corpus emits BOTH partial
    kinds per batch — per-batch (token, min doc) rows for the
    distinct curve and checkpoints-scale token-total rows — into one
    materialized partial table (distinct-tokens-per-block scale,
    far smaller than the text it summarizes). The vocab shuffle
    (the `top_tokens` exchange) and the tiny checkpoint groupby both
    read those partials; raw text is scanned exactly once. Output:
    ``(cp, n_tokens, n_distinct)`` sorted by cp, all int64.
    """
    import numpy as np
    from ray.data.aggregate import Min, Sum

    cps = sorted({int(c) for c in checkpoints})
    cp_arr = np.asarray(cps, dtype=np.int64)

    def _partials(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column(text_col), "")
        parts = pc.split_pattern(col, " ")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        offsets = parts.offsets.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ntok = np.diff(offsets)
        docs = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        t = pa.table({
            "tok": parts.values,
            "doc": pa.array(np.repeat(docs, ntok), pa.int64()),
        })
        g = t.group_by(["tok"]).aggregate([("doc", "min")])
        totals = np.where(docs[None, :] < cp_arr[:, None],
                          ntok[None, :], 0).sum(axis=1)
        n_tok_rows = g.num_rows
        return pa.table({
            "_kind": pa.array(
                [0] * n_tok_rows + [1] * len(cps), pa.int64()),
            "tok": pa.concat_arrays([
                g.column("tok").combine_chunks(),
                pa.array([""] * len(cps), pa.string()),
            ]),
            "doc": pa.concat_arrays([
                pc.cast(g.column("doc_min"),
                        pa.int64()).combine_chunks(),
                pa.array([0] * len(cps), pa.int64()),
            ]),
            "cp": pa.concat_arrays([
                pa.array([0] * n_tok_rows, pa.int64()),
                pa.array(cp_arr, pa.int64()),
            ]),
            "n": pa.concat_arrays([
                pa.array([0] * n_tok_rows, pa.int64()),
                pa.array(totals.astype(np.int64), pa.int64()),
            ]),
        })

    # two consumers (first-doc groupby + token totals): the partial
    # table is vocab x blocks scale — checkpoint to parquet instead of
    # pinning it in the object store
    from .bucketed import checkpoint_bucketed

    partials = checkpoint_bucketed(
        ds.select_columns([id_col, text_col]).map_batches(
            _partials, batch_format="pyarrow"),
        f"vocabgrowth_{next(_CKPT_SEQ)}", key_col=None)

    first_doc = partials.filter(expr="_kind == 0").select_columns(
        ["tok", "doc"]
    ).groupby("tok").aggregate(Min("doc", alias_name="first_doc"))

    def _distinct_partial(batch: pa.Table) -> pa.Table:
        fd = batch.column("first_doc").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        counts = (fd[None, :] < cp_arr[:, None]).sum(axis=1)
        return pa.table({
            "cp": pa.array(cp_arr, pa.int64()),
            "n_distinct": pa.array(counts.astype(np.int64),
                                   pa.int64()),
        })

    distinct = first_doc.map_batches(
        _distinct_partial, batch_format="pyarrow"
    ).groupby("cp").aggregate(Sum("n_distinct",
                                  alias_name="n_distinct"))

    totals = partials.filter(expr="_kind == 1").select_columns(
        ["cp", "n"]
    ).groupby("cp").aggregate(Sum("n", alias_name="n_tokens"))

    # both sides are checkpoints-scale (≤ dozens of rows): zip on
    # the driver into one ordered table
    d = {r["cp"]: r["n_distinct"] for r in distinct.take_all()}
    t = {r["cp"]: r["n_tokens"] for r in totals.take_all()}
    return pa.table({
        "cp": pa.array(cps, pa.int64()),
        "n_tokens": pa.array([t.get(c, 0) for c in cps], pa.int64()),
        "n_distinct": pa.array([d.get(c, 0) for c in cps],
                               pa.int64()),
    })
