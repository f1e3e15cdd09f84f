"""Embedding similarity, ANN and clustering queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import hashlib
import math
import os
from typing import Dict
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..stages.similarity import (
    brute_force_topk,
    bucketed_near_dup_pairs,
    embedding_near_dup_pairs,
    lsh_bucketed_topk,
)
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_embedding_lsh_recall(sf_dir: str):
    """Recall of the hyperplane-LSH embedding near-dup path vs its
    exact block-pair twin (rows-only: the plane matmul is not
    SQL-expressible; the exact side IS oracle-checked separately via
    ``embedding_near_dup``)."""
    from ..stages.similarity import embedding_lsh_recall

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return embedding_lsh_recall(ds, threshold=0.90)
QUERIES["embedding_lsh_recall"] = q_embedding_lsh_recall
def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 query vector."""
    q = _query_vec(sf_dir, 0)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return brute_force_topk(ds, q, k=10, exclude_id=0)
ORACLE_SQL["ann_topk"] = (
"WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qv FROM embeddings "
        "WHERE vec_id = 0) "
        "SELECT e.vec_id, "
        "floor(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) "
        "* 1000000.0 + 0.5) / 1000000.0 AS sim "
        "FROM embeddings e, q WHERE e.vec_id <> 0 "
        "ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) "
        "DESC, e.vec_id LIMIT 10"
)
QUERIES["ann_topk"] = q_ann_topk
def q_ann_topk_lsh(sf_dir: str):
    """LSH-bucketed approximate top-10 (scale path; no SQL oracle)."""
    q = _query_vec(sf_dir, 0)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return lsh_bucketed_topk(ds, q, k=10, exclude_id=0, probes=4)
QUERIES["ann_topk_lsh"] = q_ann_topk_lsh
def q_ann_topk_ivf(sf_dir: str):
    """IVF-quantizer ANN (scale path #2; rows-only like the LSH
    paths — centroid math is not SQL-expressible; pytest pins the
    subset-of-exact property AND a recall@10 >= 0.7 floor vs the
    exact scan at sf0.01). nprobe=8/16 because the driver embeddings
    are near-uniform (no real cluster structure), so IVF recall
    tracks the probed fraction — 8/16 keeps 2x pruning at measured
    recall 0.8; corpora with genuine clusters get the same recall at
    far lower nprobe."""
    from ..stages.similarity import ivf_topk

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return ivf_topk(ds, _query_vec(sf_dir), k=10, nprobe=8,
                    exclude_id=0)
QUERIES["ann_topk_ivf"] = q_ann_topk_ivf
def q_embedding_near_dup(sf_dir: str):
    """All embedding pairs with cosine > threshold (v1 < v2) — exact,
    via the distributed block-pair join (stages/similarity.py).

    Returned as a concrete Arrow table so the (v1, v2) schema survives
    even when no pair crosses the threshold (the PAIR set is tiny by
    definition; the vectors themselves never leave the object store).
    """
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    pairs = embedding_near_dup_pairs(ds, threshold=NEAR_DUP_THRESHOLD)
    schema = pa.schema([("v1", pa.int64()), ("v2", pa.int64())])
    return pa.Table.from_pylist(pairs.take_all(), schema=schema)
ORACLE_SQL["embedding_near_dup"] = (
"SELECT a.vec_id AS v1, b.vec_id AS v2 "
        "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[])) > 0.5"
)
QUERIES["embedding_near_dup"] = q_embedding_near_dup
def q_embedding_near_dup_lsh(sf_dir: str):
    """Approximate near-dup pairs via hyperplane-signature buckets —
    the 10^12-scale path (recall < 1 by construction; no SQL oracle)."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    pairs = bucketed_near_dup_pairs(ds, threshold=NEAR_DUP_THRESHOLD)
    schema = pa.schema([("v1", pa.int64()), ("v2", pa.int64())])
    return pa.Table.from_pylist(pairs.take_all(), schema=schema)
QUERIES["embedding_near_dup_lsh"] = q_embedding_near_dup_lsh
def q_semantic_dedup(sf_dir: str):
    """SemDeDup (stages/similarity.py ``semantic_dedup``): k-means
    clusters the embedding space (bit-exact integer Lloyd), then
    cosine near-dups are searched WITHIN each cluster only, keeping
    the lowest-id representative per neighborhood. The pair space
    shrinks from O(N²) to per-cluster quadratic — the algorithm's own
    scale knob is k. Oracle: the chained-CTE Lloyd twin + a
    same-cluster NOT EXISTS anti-join."""
    from ..stages.similarity import semantic_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return semantic_dedup(
        ds, k=KMEANS_K, iters=KMEANS_ITERS,
        threshold=NEAR_DUP_THRESHOLD, scale=KMEANS_SCALE,
    ).sort("vec_id")
ORACLE_SQL["semantic_dedup"] = (
    "WITH km AS (" + _kmeans_sql(KMEANS_K, KMEANS_ITERS, KMEANS_SCALE)
    + "), e AS (SELECT km.vec_id, km.cluster, em.embedding "
    "FROM km JOIN embeddings em USING (vec_id)) "
    "SELECT a.vec_id, a.cluster, NOT EXISTS ("
    "SELECT 1 FROM e b WHERE b.cluster = a.cluster "
    "AND b.vec_id < a.vec_id "
    "AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) > "
    f"{NEAR_DUP_THRESHOLD}) AS keep "
    "FROM e a ORDER BY a.vec_id"
)
QUERIES["semantic_dedup"] = q_semantic_dedup
def q_doc_embed(sf_dir: str):
    """Feature-hashing document embeddings, exploded to nonzero
    cells for the oracle (the engine keeps the fixed-dim vector
    column — it feeds the ANN/near-dup stack;
    ``stages/textstats.hash_embed`` is row-local, vocabulary-free,
    zero shuffles)."""
    import numpy as np

    from ..stages.textstats import hash_embed

    vecs = hash_embed(_docs(sf_dir), dim=64)

    def _explode(batch: pa.Table) -> pa.Table:
        col = batch.column("embedding").combine_chunks()
        n = len(col)
        mat = np.asarray(col.flatten()).reshape(n, 64)
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False)
        doc, d = np.nonzero(mat)
        return pa.table({
            "doc_id": pa.array(ids[doc], pa.int64()),
            "d": pa.array(d.astype(np.int64), pa.int64()),
            "val": pa.array(mat[doc, d], pa.int64()),
        })

    return vecs.map_batches(_explode, batch_format="pyarrow")
ORACLE_SQL["doc_embed"] = (
    "WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok "
    "FROM documents), "
    "h AS (SELECT doc_id, CAST(CAST(('0x' || substr(md5(tok), 1, 8)) "
    "AS UBIGINT) AS BIGINT) AS hv FROM toks), "
    "cells AS (SELECT doc_id, hv % 64 AS d, "
    "CASE WHEN (hv // 65536) % 2 = 1 THEN 1 ELSE -1 END AS sgn FROM h) "
    "SELECT doc_id, CAST(d AS BIGINT) AS d, "
    "CAST(sum(sgn) AS BIGINT) AS val FROM cells "
    "GROUP BY doc_id, d HAVING sum(sgn) != 0"
)
QUERIES["doc_embed"] = q_doc_embed
def q_embed_infer(sf_dir: str):
    """Learned-model embedding INFERENCE as an actor-pool stage
    (stages/embedder.py): weights load once per actor in
    ``__init__``, each batch is one int64 matmul forward. The stub
    model's integer weights are generated by a Knuth multiplicative
    hash, so the full distributed forward pass — featurize, load,
    project — has a bit-exact SQL twin; exploded to nonzero cells
    for the oracle like ``doc_embed``."""
    import numpy as np

    from ..stages.embedder import embedding_inference_stage

    vecs = embedding_inference_stage(_docs(sf_dir), batch_size=256,
                                     concurrency=(1, 8))

    def _explode(batch: pa.Table) -> pa.Table:
        col = batch.column("embedding").combine_chunks()
        n = len(col)
        mat = np.asarray(col.flatten()).reshape(n, 16)
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False)
        doc, j = np.nonzero(mat)
        return pa.table({
            "doc_id": pa.array(ids[doc], pa.int64()),
            "j": pa.array(j.astype(np.int64), pa.int64()),
            "val": pa.array(mat[doc, j], pa.int64()),
        })

    return vecs.map_batches(_explode, batch_format="pyarrow")
ORACLE_SQL["embed_infer"] = (
    "WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok "
    "FROM documents), "
    "h AS (SELECT doc_id, CAST(CAST(('0x' || substr(md5(tok), 1, 8)) "
    "AS UBIGINT) AS BIGINT) AS hv FROM toks), "
    "cells AS (SELECT doc_id, hv % 64 AS i, "
    "CASE WHEN (hv // 65536) % 2 = 1 THEN 1 ELSE -1 END AS sgn FROM h), "
    "x AS (SELECT doc_id, i, SUM(sgn) AS xv FROM cells "
    "GROUP BY doc_id, i HAVING SUM(sgn) != 0), "
    "w AS (SELECT ij // 16 AS i, ij % 16 AS j, "
    "(ij * 2654435761) % 4294967296 % 7 - 3 AS wv "
    "FROM range(0, 1024) t(ij)) "
    "SELECT x.doc_id, CAST(w.j AS BIGINT) AS j, "
    "CAST(SUM(x.xv * w.wv) AS BIGINT) AS val "
    "FROM x JOIN w ON w.i = x.i GROUP BY x.doc_id, w.j "
    "HAVING SUM(x.xv * w.wv) != 0"
)
QUERIES["embed_infer"] = q_embed_infer
def q_kmeans_assign(sf_dir: str):
    """Full-corpus distributed k-means (Lloyd's) cluster assignment.

    The shuffle-free broadcast-partials shape: per iteration ONE
    map_batches pass emits k-row int64 partial sums per block, the
    driver merges k tiny rows, and the next centroid matrix is
    closure-broadcast. Pure integer arithmetic (floor-quantized
    vectors, trunc-div centroid update) makes the assignment
    bit-exact vs the chained-CTE DuckDB twin: summation order cannot
    perturb it.
    """
    from ..stages.kmeans import kmeans_int

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    assign, _ = kmeans_int(ds, k=KMEANS_K, iters=KMEANS_ITERS,
                           scale=KMEANS_SCALE)
    return assign
ORACLE_SQL["kmeans_assign"] = _kmeans_sql(KMEANS_K, KMEANS_ITERS, KMEANS_SCALE)
QUERIES["kmeans_assign"] = q_kmeans_assign
def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (grouped vector mean — the
    semantic-clustering / class-prototype primitive and the kmeans
    update step exposed as a query): per block, one zero-copy
    matrix view + `np.add.at` over label codes gives (label,
    sum-vector, n) partials; the driver folds labels-scale partials
    and emits (label, d, mean) rows on the repo-wide 1e-6 grid."""
    import numpy as np

    from ..stages.similarity import _to_matrix

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["label", "embedding"])

    def _partial(batch: pa.Table) -> pa.Table:
        labels = batch.column("label").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        mat = _to_matrix(batch.column("embedding")).astype(np.float64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(uniq))
        dim = mat.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim), pa.int64()),
            "d": pa.array(np.tile(np.arange(dim), len(uniq)),
                          pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(counts, dim).astype(np.int64),
                          pa.int64()),
        })

    sums: Dict[tuple, float] = {}
    ns: Dict[tuple, int] = {}
    for b in ds.map_batches(
            _partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for lb, d, s, n in zip(b.column("label").to_pylist(),
                               b.column("d").to_pylist(),
                               b.column("s").to_pylist(),
                               b.column("n").to_pylist()):
            sums[(lb, d)] = sums.get((lb, d), 0.0) + s
            ns[(lb, d)] = ns.get((lb, d), 0) + n
    ks = sorted(sums)
    means = [math.floor(sums[k] / ns[k] * 1000000.0 + 0.5) / 1000000.0
             for k in ks]
    return pa.table({
        "label": pa.array([k[0] for k in ks], pa.int64()),
        "d": pa.array([k[1] for k in ks], pa.int64()),
        "mean": pa.array(means, pa.float64()),
    })
ORACLE_SQL["label_centroids"] = (
    "SELECT CAST(label AS BIGINT) AS label, d, "
    "floor(avg(CAST(v AS DOUBLE)) * 1000000.0 + 0.5) / 1000000.0 "
    "AS mean FROM (SELECT label, unnest(embedding) AS v, "
    "generate_subscripts(embedding, 1) - 1 AS d FROM embeddings) "
    "GROUP BY 1, 2"
)
QUERIES["label_centroids"] = q_label_centroids
def q_embedding_quantize(sf_dir: str):
    """Int8 scalar quantization of the embeddings table, exactly
    oracle-pinned: the query reduces each code vector to digest
    columns (count, sum, position-weighted checksum, md5 of the
    comma-joined codes) so EVERY code in EVERY position is gated
    without putting list columns through the row-sort compare.
    """
    import numpy as np

    from ..stages.similarity import scalar_quantize

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    coded = scalar_quantize(ds)

    def _digest(batch: pa.Table) -> pa.Table:
        codes = batch.column("codes").combine_chunks()
        n = len(codes)
        lengths = pc.list_value_length(codes).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = np.asarray(codes.flatten(), dtype=np.int64)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offs[1:])
        starts = offs[:-1]
        # 1-based position weights within each row
        w = np.arange(1, flat.size + 1, dtype=np.int64) - np.repeat(
            starts, lengths)
        sums = np.add.reduceat(flat, starts) if flat.size else \
            np.zeros(n, dtype=np.int64)
        chks = np.add.reduceat(flat * w, starts) if flat.size else \
            np.zeros(n, dtype=np.int64)
        md5s = [
            hashlib.md5(",".join(
                str(c) for c in flat[offs[i]:offs[i + 1]].tolist()
            ).encode("ascii")).hexdigest()
            for i in range(n)
        ]
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "n_dims": pa.array(lengths, pa.int64()),
            "code_sum": pa.array(sums, pa.int64()),
            "code_chk": pa.array(chks, pa.int64()),
            "codes_md5": pa.array(md5s, pa.string()),
        })

    return coded.map_batches(_digest, batch_format="pyarrow")
ORACLE_SQL["embedding_quantize"] = """
WITH v AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS d,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000)
              AS BIGINT) AS x
  FROM embeddings
), s AS (
  SELECT d, min(x) AS mn, max(x) AS mx FROM v GROUP BY d
), c AS (
  SELECT v.vec_id, v.d,
         CASE WHEN s.mx = s.mn THEN 0
              ELSE ((v.x - s.mn) * 510 + (s.mx - s.mn))
                   // (2 * (s.mx - s.mn)) END AS code
  FROM v JOIN s USING (d)
)
SELECT vec_id,
  CAST(count(*) AS BIGINT) AS n_dims,
  CAST(sum(code) AS BIGINT) AS code_sum,
  CAST(sum(d * code) AS BIGINT) AS code_chk,
  md5(array_to_string(list(CAST(code AS VARCHAR) ORDER BY d), ','))
    AS codes_md5
FROM c GROUP BY vec_id
"""
QUERIES["embedding_quantize"] = q_embedding_quantize
def q_pq_codes(sf_dir: str):
    """PQ codebook training + encoding, bit-exact vs a chained-CTE
    SQL twin (the `kmeans_assign` oracle applied per dim-slice)."""
    from ..stages.kmeans import pq_codes

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    codes, _ = pq_codes(ds, m=PQ_M, k=PQ_K, iters=PQ_ITERS,
                        scale=KMEANS_SCALE)
    return codes
ORACLE_SQL["pq_codes"] = _pq_sql(PQ_M, PQ_K, PQ_ITERS, KMEANS_SCALE, PQ_DIM)
QUERIES["pq_codes"] = q_pq_codes
def q_ann_topk_pq(sf_dir: str):
    """PQ+ADC approximate top-10 vs the vec_id=0 query — unlike the
    LSH/IVF approximate paths this one IS exactly oracle-checkable:
    given the (bit-exact) codebooks and codes, the ADC ranking is a
    deterministic integer computation the SQL twin reproduces end to
    end (chains + query distance table + ORDER BY dist, id)."""
    from ..stages.kmeans import pq_adc_topk, pq_codes

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    codes, books = pq_codes(ds, m=PQ_M, k=PQ_K, iters=PQ_ITERS,
                            scale=KMEANS_SCALE)
    q = _query_vec(sf_dir, 0)
    return pq_adc_topk(codes, books, q, k=10, scale=KMEANS_SCALE,
                       exclude_id=0)
ORACLE_SQL["ann_topk_pq"] = _pq_adc_sql(
    PQ_M, PQ_K, PQ_ITERS, KMEANS_SCALE, PQ_DIM, qid=0, topk=10)
QUERIES["ann_topk_pq"] = q_ann_topk_pq
def q_mutual_nn_pairs(sf_dir: str):
    """Reciprocal cosine-NN pairs between the even- and odd-id halves
    of the embeddings table (stages/similarity.mutual_nn_pairs — the
    bitext-mining hub filter). Block-pair matmul fan-out with local
    argmax partials, grid-quantized BEFORE argmax so tie-breaks are
    SQL-replicable; the oracle is the double QUALIFY row_number twin
    over list_cosine_similarity."""
    from ..stages.similarity import mutual_nn_pairs

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    def _half(parity: int):
        def _f(batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id")
            return batch.filter(pc.equal(
                pc.bit_wise_and(ids, pa.scalar(1, pa.int64())),
                pa.scalar(parity, pa.int64())))
        return _f

    ds_a = emb.map_batches(_half(0), batch_format="pyarrow")
    ds_b = emb.map_batches(_half(1), batch_format="pyarrow")
    return mutual_nn_pairs(ds_a, ds_b, max_blocks=8).sort("a_id")
ORACLE_SQL["mutual_nn_pairs"] = (
    "WITH a AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
    "FROM embeddings WHERE vec_id % 2 = 0), "
    "b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
    "FROM embeddings WHERE vec_id % 2 = 1), "
    "s AS (SELECT a.vec_id AS a_id, b.vec_id AS b_id, "
    "CAST(FLOOR(list_cosine_similarity(a.v, b.v) * 1e6 + 0.5) "
    "AS BIGINT) AS sq FROM a, b), "
    "na AS (SELECT a_id, b_id, sq FROM s QUALIFY row_number() OVER "
    "(PARTITION BY a_id ORDER BY sq DESC, b_id ASC) = 1), "
    "nb AS (SELECT a_id, b_id FROM s QUALIFY row_number() OVER "
    "(PARTITION BY b_id ORDER BY sq DESC, a_id ASC) = 1) "
    "SELECT na.a_id, na.b_id, CAST(na.sq AS DOUBLE) / 1e6 AS sim "
    "FROM na JOIN nb ON na.a_id = nb.a_id AND na.b_id = nb.b_id "
    "ORDER BY na.a_id"
)
QUERIES["mutual_nn_pairs"] = q_mutual_nn_pairs
def q_coreset_select(sf_dir: str):
    """Greedy k-center coreset (stages/similarity.kcenter_select,
    k=4, Gonzalez farthest-point): diverse exemplar selection over
    the embeddings table. Per round one broadcast-centers map scan
    emits block-local candidates; sims grid-quantized BEFORE
    min/argmax so the greedy trajectory is bit-deterministic; the
    oracle replays all rounds as chained GREATEST CTEs."""
    from ..stages.similarity import kcenter_select

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    return kcenter_select(emb, k=4)
ORACLE_SQL["coreset_select"] = (
    "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
    "FROM embeddings), "
    "c0 AS (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT 1), "
    "s1 AS (SELECT e.vec_id AS id, " + _KC_SIM.format(c="c0")
    + " AS m FROM e, c0 WHERE e.vec_id <> c0.vec_id), "
    "p1 AS (SELECT id FROM s1 ORDER BY m ASC, id ASC LIMIT 1), "
    "c1 AS (SELECT e.vec_id, e.v FROM e JOIN p1 ON e.vec_id = p1.id), "
    "s2 AS (SELECT e.vec_id AS id, GREATEST("
    + _KC_SIM.format(c="c0") + ", " + _KC_SIM.format(c="c1")
    + ") AS m FROM e, c0, c1 "
    "WHERE e.vec_id NOT IN (c0.vec_id, c1.vec_id)), "
    "p2 AS (SELECT id FROM s2 ORDER BY m ASC, id ASC LIMIT 1), "
    "c2 AS (SELECT e.vec_id, e.v FROM e JOIN p2 ON e.vec_id = p2.id), "
    "s3 AS (SELECT e.vec_id AS id, GREATEST("
    + _KC_SIM.format(c="c0") + ", " + _KC_SIM.format(c="c1") + ", "
    + _KC_SIM.format(c="c2")
    + ") AS m FROM e, c0, c1, c2 "
    "WHERE e.vec_id NOT IN (c0.vec_id, c1.vec_id, c2.vec_id)), "
    "p3 AS (SELECT id FROM s3 ORDER BY m ASC, id ASC LIMIT 1), "
    "c3 AS (SELECT e.vec_id FROM e JOIN p3 ON e.vec_id = p3.id) "
    "SELECT CAST(0 AS BIGINT) AS round, vec_id FROM c0 "
    "UNION ALL SELECT 1, vec_id FROM c1 "
    "UNION ALL SELECT 2, vec_id FROM c2 "
    "UNION ALL SELECT 3, vec_id FROM c3 ORDER BY round"
)
QUERIES["coreset_select"] = q_coreset_select
def q_semantic_blocklist(sf_dir: str):
    """Seed-set semantic blocklist (stages/similarity.seed_filter):
    embedding-level DECONTAMINATION — every corpus vector scores its
    max cosine against the 5 seed embeddings (vec_id < 5, standing
    in for eval-set exemplars / unsafe-topic centroids); rows above
    0.25 are flagged dropped (the synthetic corpus's top tail).
    Paraphrase-robust, where an n-gram overlap check sees only
    verbatim leakage. Seeds broadcast once in
    the closure; one (rows × seeds) matmul per batch, NO shuffle;
    the full auditable (id, max_sim, kept) gate table is emitted."""
    from ..stages.similarity import seed_filter

    seed_rows = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .filter(expr="vec_id < 5").take(5)
    )
    seeds = [r["embedding"] for r in
             sorted(seed_rows, key=lambda r: r["vec_id"])]
    corpus = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"]
    ).filter(expr="vec_id >= 5")
    return seed_filter(corpus, seeds, threshold=0.25).sort("vec_id")
ORACLE_SQL["semantic_blocklist"] = (
    "WITH s AS (SELECT vec_id AS sid, "
    "CAST(embedding AS DOUBLE[]) AS sv FROM embeddings "
    "WHERE vec_id < 5), "
    "m AS (SELECT e.vec_id, floor(max(list_cosine_similarity("
    "CAST(e.embedding AS DOUBLE[]), s.sv)) * 1000000.0 + 0.5) "
    "/ 1000000.0 AS max_sim "
    "FROM embeddings e, s WHERE e.vec_id >= 5 GROUP BY e.vec_id) "
    "SELECT vec_id, max_sim, NOT (max_sim > 0.25) AS kept FROM m "
    "ORDER BY vec_id"
)
QUERIES["semantic_blocklist"] = q_semantic_blocklist
def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining
    (stages/similarity.hard_negatives): per anchor (vec_id 0 and 1),
    the top-5 corpus vectors with cosine in the (0.05, 0.25] band —
    confusably similar but below the near-dup line, the DPR/SimCSE
    training-pair op. Anchors ship once in the closure; one
    (rows × anchors) matmul + band mask + local top-k per batch;
    the global finish sorts blocks × anchors × 5 candidate rows.
    Sims grid-quantize BEFORE banding/ranking (ties → ascending id)
    so selection matches the QUALIFY twin bit-for-bit."""
    from ..stages.similarity import hard_negatives

    rows = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .filter(expr="vec_id < 2").take(2)
    )
    anchors = [(r["vec_id"], r["embedding"])
               for r in sorted(rows, key=lambda r: r["vec_id"])]
    corpus = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"])
    return hard_negatives(corpus, anchors, lo=0.05, hi=0.25, k=5)
ORACLE_SQL["hard_negatives"] = (
    "WITH a AS (SELECT vec_id AS anchor_id, "
    "CAST(embedding AS DOUBLE[]) AS av FROM embeddings "
    "WHERE vec_id < 2), "
    "s AS (SELECT a.anchor_id, e.vec_id, "
    "floor(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
    "a.av) * 1000000.0 + 0.5) / 1000000.0 AS sim "
    "FROM embeddings e, a WHERE e.vec_id <> a.anchor_id) "
    "SELECT anchor_id, vec_id, sim FROM s "
    "WHERE sim > 0.05 AND sim <= 0.25 "
    "QUALIFY row_number() OVER (PARTITION BY anchor_id "
    "ORDER BY sim DESC, vec_id) <= 5 "
    "ORDER BY anchor_id, sim DESC, vec_id"
)
QUERIES["hard_negatives"] = q_hard_negatives
def q_random_projection(sf_dir: str):
    """±1 random-projection codes (16 dims) over the embedding
    corpus (`stages/similarity.random_projection`): the JL
    dim-reduction front end, exact-int64 so the unnest-join twin is
    bit-exact."""
    from ..stages.similarity import random_projection

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return random_projection(ds, d_out=16).sort(["vec_id", "dim"])
ORACLE_SQL["random_projection"] = """
WITH v AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS j,
    CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000)
         AS BIGINT) AS x
  FROM embeddings
), p AS (
  SELECT j.j, k.k,
    CASE WHEN substr(md5(CAST(j.j AS VARCHAR) || ':' ||
      CAST(k.k AS VARCHAR)), 1, 1)
      IN ('0','1','2','3','4','5','6','7') THEN 1 ELSE -1 END AS s
  FROM (SELECT unnest(range(1, 65)) AS j) j,
       (SELECT unnest(range(1, 17)) AS k) k
)
SELECT v.vec_id, CAST(p.k AS BIGINT) AS dim,
  CAST(sum(v.x * p.s) AS BIGINT) AS x
FROM v JOIN p ON p.j = v.j
GROUP BY v.vec_id, p.k ORDER BY v.vec_id, p.k
"""
QUERIES["random_projection"] = q_random_projection
def q_embedding_covariance(sf_dir: str):
    """Second-moment (Gram) matrix over the embedding corpus
    (`stages/similarity.embedding_second_moment`) — the PCA /
    whitening sufficient statistic, one matrix-partial per block,
    driver fold, no shuffle; exact int64 so the unnest self-join
    twin is bit-exact."""
    from ..stages.similarity import embedding_second_moment

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding"])
    return embedding_second_moment(ds)
ORACLE_SQL["embedding_covariance"] = """
WITH v AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS d,
    CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000)
         AS BIGINT) AS x
  FROM embeddings
)
SELECT a.d AS i, b.d AS j, CAST(sum(a.x * b.x) AS BIGINT) AS s
FROM v a JOIN v b ON a.vec_id = b.vec_id AND a.d <= b.d
GROUP BY a.d, b.d ORDER BY i, j
"""
QUERIES["embedding_covariance"] = q_embedding_covariance
def q_embedding_outliers(sf_dir: str):
    """Embedding outlier detection — vectors far from their own
    label's centroid (the mislabeled/garbage-vector curation gate):
    integer centroids (trunc-div of exact sums — one blocks-scale
    partial fold, no shuffle), exact int64 squared-L2 per vector
    with the labels×dim centroid table in the closure, exact global
    p90 cut (`stages/stats.exact_quantiles` percentile_disc
    semantics), one scan-speed flag pass. Everything integer ⇒ the
    SQL twin is bit-exact."""
    import numpy as np

    from ..stages.similarity import _to_matrix
    from ..stages.stats import exact_quantiles

    scale = 1_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label", "embedding"])

    def _cent_partial(batch: pa.Table) -> pa.Table:
        labels = batch.column("label").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        q = np.floor(_to_matrix(batch.column("embedding")) * scale
                     ).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), q.shape[1]), np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=len(uniq))
        dim = q.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim), pa.int64()),
            "d": pa.array(np.tile(np.arange(dim), len(uniq)),
                          pa.int64()),
            "s": pa.array(sums.reshape(-1), pa.int64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    sums: dict = {}
    ns: dict = {}
    for b in ds.map_batches(_cent_partial,
                            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for lb, d, s, n in zip(b.column("label").to_pylist(),
                               b.column("d").to_pylist(),
                               b.column("s").to_pylist(),
                               b.column("n").to_pylist()):
            sums[(lb, d)] = sums.get((lb, d), 0) + s
            ns[(lb, d)] = ns.get((lb, d), 0) + n
    labels = sorted({lb for lb, _ in sums})
    dim = 1 + max(d for _, d in sums)
    cent = np.zeros((max(labels) + 1, dim), np.int64)
    for (lb, d), s in sums.items():
        n = ns[(lb, d)]
        # DuckDB // truncates toward zero; Python // floors
        cent[lb, d] = abs(s) // n * (1 if s >= 0 else -1)

    def _dist(batch: pa.Table) -> pa.Table:
        lb = batch.column("label").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        q = np.floor(_to_matrix(batch.column("embedding")) * scale
                     ).astype(np.int64)
        diff = q - cent[lb]
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "label": pa.array(lb, pa.int64()),
            "d2": pa.array((diff * diff).sum(axis=1), pa.int64()),
        })

    # two consumers (p90 cut + outlier filter) over a
    # corpus-row-count distance table: checkpoint, don't pin
    from ..stages.bucketed import checkpoint_bucketed
    dist = checkpoint_bucketed(
        ds.map_batches(_dist, batch_format="pyarrow"),
        f"embout_{os.path.basename(os.path.normpath(sf_dir))}",
        key_col="vec_id")
    cut = int(exact_quantiles(dist, "d2", [0.9])
              .column("value")[0].as_py())
    return dist.filter(
        expr=f"d2 > {cut}").select_columns(
        ["vec_id", "label", "d2"]).sort("vec_id")
ORACLE_SQL["embedding_outliers"] = """
WITH v AS (
  SELECT vec_id, label, generate_subscripts(embedding, 1) AS d,
    CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000)
         AS BIGINT) AS x
  FROM embeddings
), c AS (
  SELECT label, d, sum(x) // count(*) AS cx
  FROM v GROUP BY label, d
), dist AS (
  SELECT v.vec_id, CAST(v.label AS BIGINT) AS label,
    CAST(sum((v.x - c.cx) * (v.x - c.cx)) AS BIGINT) AS d2
  FROM v JOIN c ON c.label = v.label AND c.d = v.d
  GROUP BY v.vec_id, v.label
), q AS (
  SELECT percentile_disc(0.9) WITHIN GROUP (ORDER BY d2) AS t
  FROM dist
)
SELECT vec_id, label, d2 FROM dist, q WHERE d2 > t ORDER BY vec_id
"""
QUERIES["embedding_outliers"] = q_embedding_outliers
