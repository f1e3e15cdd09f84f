"""CCNet-style corpus language-model scoring (bigram, integer-exact).

CCNet (Wenzek et al., LREC 2020) buckets Common-Crawl documents by
the perplexity of a KenLM n-gram model — the standard "does this
read like real text" gate in web-scale training-data pipelines. This
module reproduces that shape with an in-engine bigram model:

* :func:`train_bigram_lm` — ONE corpus pass of map-side partial
  Counters (the ``top_tokens`` shape) feeding two small groupbys:
  unigram counts (kept whole — they are the smoothing denominators)
  and bigram counts pruned at ``min_count`` (the model). Vocabulary
  size = exact distinct unigram count.
* :func:`lm_score` — per document: mean inverse conditional
  probability over its adjacent-token bigrams under add-one
  smoothing, **in pure int64** so the result is bit-exact and
  summation-order-free (the float-log perplexity would hash-diverge
  between engines; monotonicity is what the filter needs):

      ipp(w1,w2)  = ((c(w1) + V) * scale) // (c(w1,w2) + 1)
      mean_ipp(d) = sum(ipp) // n_bigrams      (-1 when no bigrams)

  High ``mean_ipp`` = improbable text (the analogue of high
  perplexity). ``n_oov`` counts bigrams absent from the pruned model.

Two scoring strategies, equivalence-tested:

* ``join="broadcast"`` (default): the trained model lands in the
  object store ONCE (``ray.put``, per-worker cached deserialization)
  and scoring is a single corpus pass — zero shuffles. Right
  whenever the pruned model fits a worker heap (min_count pruning is
  exactly the knob; document counts, not documents, so the model is
  vocabulary-scale, not corpus-scale).
* ``join="shuffle"``: no memory assumption — bigram occurrence rows
  co-shuffle against the model via two bucketed repartition joins
  (pair, then w1) and a final per-doc groupby with map-side
  combinable int sums.

Overflow note: ``(c1 + V) * scale`` must stay < 2^63 — at 10^12
tokens pick ``scale`` ≤ 1e5. The default 1e6 suits corpus sizes to
~10^12/1e6 unigram occurrences; both paths use identical arithmetic
either way.

Reference analogue: none (the reference's quality gate is the
dictionary hit-ratio, ``/root/reference/ocr_step.py:397-412``); this
extends the same M9 quality-gating slot to the corpus-LM signal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _cached_get

PAIR_SEP = " "


def train_bigram_lm(ds, text_col: str = "text", min_count: int = 1):
    """Distributed unigram + pruned-bigram counts.

    Returns ``(uni, bi, vocab_size)``: ``uni`` = Dataset
    ``(token, c)`` (unpruned), ``bi`` = Dataset ``(pair, c12)`` with
    ``c12 >= min_count`` (pair = "w1 w2"), ``vocab_size`` = exact
    distinct token count.
    """
    from ray.data.aggregate import Sum

    def _partials(batch: pa.Table) -> pa.Table:
        # vectorized: one split kernel + value_counts for unigrams;
        # shifted-slice + binary_join for bigrams (doc boundaries
        # masked), value_counts for their partial counts. NULL texts
        # are dropped BEFORE the split (they must not contribute the
        # empty-token unigram a fill_null("") would create).
        texts = batch.column(text_col)
        texts = texts.filter(pc.is_valid(texts))
        col = (texts.combine_chunks()
               if isinstance(texts, pa.ChunkedArray) else texts)
        parts = pc.split_pattern(col, " ")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        uvc = pc.value_counts(parts.values)
        _, pairs, _ = _flat_bigrams(None, parts=parts)
        pvc = pc.value_counts(pairs)
        return pa.table({
            "key": pa.concat_arrays([
                uvc.field("values").combine_chunks()
                if isinstance(uvc.field("values"), pa.ChunkedArray)
                else uvc.field("values"),
                pvc.field("values").combine_chunks()
                if isinstance(pvc.field("values"), pa.ChunkedArray)
                else pvc.field("values"),
            ]),
            "n": pa.concat_arrays([
                uvc.field("counts").cast(pa.int64()),
                pvc.field("counts").cast(pa.int64()),
            ]),
            "is_pair": pa.array(
                [False] * len(uvc) + [True] * len(pvc), pa.bool_()),
        })

    counts = (
        ds.map_batches(_partials, batch_format="pyarrow")
        # model-scale shuffle: bound the partition count (default
        # scales with input blocks; 32 is plenty for vocabulary rows
        # and cuts the all-to-all setup cost that dominates at small
        # corpus sizes)
        .groupby(["key", "is_pair"], num_partitions=32)
        .aggregate(Sum("n"))
    )

    def _split_uni(batch: pa.Table) -> pa.Table:
        m = pc.invert(batch.column("is_pair"))
        t = batch.filter(m)
        return pa.table({
            "token": t.column("key"),
            "c": pc.cast(t.column("sum(n)"), pa.int64()),
        })

    def _split_bi(batch: pa.Table) -> pa.Table:
        m = pc.and_(batch.column("is_pair"),
                    pc.greater_equal(batch.column("sum(n)"),
                                     pa.scalar(min_count)))
        t = batch.filter(m)
        return pa.table({
            "pair": t.column("key"),
            "c12": pc.cast(t.column("sum(n)"), pa.int64()),
        })

    counts = counts.materialize()  # counted once, consumed three ways
    uni = counts.map_batches(_split_uni, batch_format="pyarrow")
    bi = counts.map_batches(_split_bi, batch_format="pyarrow")
    vocab_size = uni.count()
    return uni, bi, vocab_size


def _flat_bigrams(texts, parts=None):
    """Vectorized per-doc bigram explode over a text column.

    Returns ``(w1, pairs, npair)``: the first-token array and the
    "w1 w2" pair-string array of every adjacent-token bigram (doc
    boundaries masked out — the last token of a doc pairs with
    nothing), plus per-doc bigram counts. NULL text = empty doc =
    0 bigrams. One split kernel + two shifted slices + one
    ``binary_join_element_wise`` — no Python token loop. Pass a
    precomputed ``split_pattern`` ListArray via ``parts`` to share
    the split with a caller that already has it.
    """
    if parts is None:
        col = pc.fill_null(
            texts.combine_chunks()
            if isinstance(texts, pa.ChunkedArray) else texts, "")
        parts = pc.split_pattern(col, " ")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    offsets = parts.offsets.to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = parts.values
    ntok = np.diff(offsets)
    # a NULL text became "" -> one empty token; it has 0 bigrams
    # either way, so npair needs no null special-case
    npair = np.maximum(ntok - 1, 0)
    n = len(flat)
    if n < 2:
        empty = pa.array([], pa.string())
        return empty, empty, npair
    w1 = flat.slice(0, n - 1)
    pairs = pc.binary_join_element_wise(w1, flat.slice(1, n - 1),
                                        PAIR_SEP)
    valid = np.ones(n - 1, dtype=bool)
    last = offsets[1:] - 1
    valid[last[(last >= 0) & (last < n - 1)]] = False
    vmask = pa.array(valid)
    return w1.filter(vmask), pairs.filter(vmask), npair


def lm_score(
    ds,
    uni,
    bi,
    vocab_size: int,
    scale: int = 1_000_000,
    id_col: str = "doc_id",
    text_col: str = "text",
    join: str = "broadcast",
):
    """Score every document: ``(id_col, n_bigrams, n_oov, mean_ipp)``.

    ``mean_ipp = -1`` for documents with no bigrams (NULL / empty /
    single-token text). See module docstring for the two strategies.
    """
    import ray

    if join not in ("broadcast", "shuffle"):
        raise ValueError(f"join must be broadcast|shuffle, got {join!r}")
    if join == "shuffle":
        return _lm_score_shuffle(
            ds, uni, bi, vocab_size, scale, id_col, text_col)

    # model-scale driver collection (vocabulary, not corpus), put
    # ONCE — as Arrow arrays, so scoring can use the hash-lookup
    # KERNEL (pc.index_in) instead of a per-pair Python dict get
    uni_tbl = pa.concat_tables(list(
        uni.iter_batches(batch_format="pyarrow", batch_size=None)))
    bi_tbl = pa.concat_tables(list(
        bi.iter_batches(batch_format="pyarrow", batch_size=None)))
    model_ref = ray.put((
        uni_tbl.column("token").combine_chunks(),
        uni_tbl.column("c").to_numpy(
            zero_copy_only=False).astype(np.int64),
        bi_tbl.column("pair").combine_chunks(),
        bi_tbl.column("c12").to_numpy(
            zero_copy_only=False).astype(np.int64),
    ))
    v = int(vocab_size)
    s = int(scale)

    def _score(batch: pa.Table) -> pa.Table:
        """Fully vectorized scoring: flat bigram explode (shared
        kernel), TWO pc.index_in lookups against the broadcast
        model arrays, int64 numpy ipp math, per-doc segment sums by
        cumsum difference. Arithmetic is bit-identical to the scalar
        loop: ((c1 + V) * s) // (c12 + 1), all values positive."""
        u_tok, u_c, b_pair, b_c = _cached_get(model_ref)
        w1, pairs, npair = _flat_bigrams(batch.column(text_col))
        u_idx = pc.index_in(w1, value_set=u_tok)
        c1 = np.where(
            pc.is_valid(u_idx).to_numpy(zero_copy_only=False),
            u_c[u_idx.fill_null(0).to_numpy(
                zero_copy_only=False).astype(np.int64)],
            0)
        b_idx = pc.index_in(pairs, value_set=b_pair)
        found = pc.is_valid(b_idx).to_numpy(zero_copy_only=False)
        c12 = np.where(
            found,
            b_c[b_idx.fill_null(0).to_numpy(
                zero_copy_only=False).astype(np.int64)],
            0)
        ipp = ((c1 + v) * s) // (c12 + 1)
        bounds = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum(npair)])
        css = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum(ipp, dtype=np.int64)])
        cso = np.concatenate(
            [np.zeros(1, np.int64),
             np.cumsum(~found, dtype=np.int64)])
        ssum = css[bounds[1:]] - css[bounds[:-1]]
        noov = cso[bounds[1:]] - cso[bounds[:-1]]
        means = np.where(npair > 0, ssum // np.maximum(npair, 1), -1)
        return pa.table({
            id_col: batch.column(id_col),
            "n_bigrams": pa.array(npair, pa.int64()),
            "n_oov": pa.array(noov, pa.int64()),
            "mean_ipp": pa.array(means, pa.int64()),
        })

    return ds.map_batches(_score, batch_format="pyarrow")


def _lm_score_shuffle(ds, uni, bi, vocab_size: int, scale: int,
                      id_col: str, text_col: str):
    """No-memory-assumption path: bigram rows × model via two
    bucketed repartition joins, then one per-doc groupby of
    map-side-combinable int sums. One sentinel row per document
    keeps 0-bigram docs present (NULL keys match nothing in the
    joins, SQL semantics)."""
    from ray.data.aggregate import Sum

    from .join import repartition_join

    def _explode(batch: pa.Table) -> pa.Table:
        # vectorized: shared flat-bigram kernel + one np.repeat for
        # the doc ids; the per-doc NULL sentinel rows (doc exists
        # even with 0 bigrams) are a second tiny table concatenated
        # on — no Python token loop
        ids = batch.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        w1, pairs, npair = _flat_bigrams(batch.column(text_col))
        doc_ids = ids.take(pa.array(
            np.repeat(np.arange(len(npair), dtype=np.int64), npair),
            pa.int64()))
        n = batch.num_rows
        body = pa.table({
            id_col: doc_ids.cast(pa.int64()),
            "pair": pairs,
            "w1": w1,
        })
        sentinels = pa.table({
            id_col: ids.cast(pa.int64()),
            "pair": pa.nulls(n, pa.string()),
            "w1": pa.nulls(n, pa.string()),
        })
        return pa.concat_tables([sentinels, body])

    rows = ds.map_batches(_explode, batch_format="pyarrow")
    rows = repartition_join(rows, bi, on="pair",
                            right_cols=["c12"], how="left")

    def _uni_renamed(batch: pa.Table) -> pa.Table:
        return pa.table({"w1": batch.column("token"),
                         "c1": batch.column("c")})

    uni_r = uni.map_batches(_uni_renamed, batch_format="pyarrow")
    rows = repartition_join(rows, uni_r, on="w1",
                            right_cols=["c1"], how="left")
    v = int(vocab_size)
    s = int(scale)

    def _ipp(batch: pa.Table) -> pa.Table:
        pair = batch.column("pair")
        real = pc.is_valid(pair).combine_chunks()
        real_np = np.asarray(real.to_numpy(zero_copy_only=False),
                             dtype=bool)
        c12 = np.asarray(
            batch.column("c12").combine_chunks().fill_null(0)
            .to_numpy(zero_copy_only=False), dtype=np.int64)
        c1 = np.asarray(
            batch.column("c1").combine_chunks().fill_null(0)
            .to_numpy(zero_copy_only=False), dtype=np.int64)
        ipp = ((c1 + v) * s) // (c12 + 1)
        ipp[~real_np] = 0
        oov = (real_np & (c12 == 0)).astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "nb": pa.array(real_np.astype(np.int64), pa.int64()),
            "noov": pa.array(oov, pa.int64()),
            "ssum": pa.array(ipp, pa.int64()),
        })

    agg = (
        rows.map_batches(_ipp, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("nb"), Sum("noov"), Sum("ssum"))
    )

    def _final(batch: pa.Table) -> pa.Table:
        nb = np.asarray(batch.column("sum(nb)").combine_chunks()
                        .to_numpy(zero_copy_only=False), dtype=np.int64)
        noov = np.asarray(batch.column("sum(noov)").combine_chunks()
                          .to_numpy(zero_copy_only=False), dtype=np.int64)
        ssum = np.asarray(batch.column("sum(ssum)").combine_chunks()
                          .to_numpy(zero_copy_only=False), dtype=np.int64)
        mean = np.where(nb > 0, ssum // np.maximum(nb, 1), -1)
        return pa.table({
            id_col: batch.column(id_col),
            "n_bigrams": pa.array(nb, pa.int64()),
            "n_oov": pa.array(noov, pa.int64()),
            "mean_ipp": pa.array(mean, pa.int64()),
        })

    return agg.map_batches(_final, batch_format="pyarrow")
