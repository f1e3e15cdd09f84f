"""Exact / near / incremental deduplication queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import hashlib
import os
from typing import Dict
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Sum
from ..stages.dedup import (
    exact_dedup_summary,
    fingerprint_fn,
    minhash_bucket_stats,
    minhash_dup_pairs,
    minhash_signatures,
    simhash_signatures,
    jaccard_dup_pairs,
)
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_dedup_exact(sf_dir: str):
    """D1: exact dedup summary by content hash (first doc_id wins)."""
    return exact_dedup_summary(_docs(sf_dir))
ORACLE_SQL["dedup_exact"] = (
"SELECT md5(text) AS fp, CAST(min(doc_id) AS BIGINT) AS keep_id, "
        "CAST(count(*) AS BIGINT) AS n_dups FROM documents GROUP BY md5(text)"
)
QUERIES["dedup_exact"] = q_dedup_exact
def q_dedup_first_rows(sf_dir: str):
    """D1 keep-ONE-ROW dedup: first-wins per key, bucketed shape.

    Groups documents by a 2-hex md5 prefix of the content (~181
    non-trivial groups at sf0.01) and keeps the row with the minimum
    ``doc_id`` per group — the keep-row variant of D1 first-wins
    (`/root/reference/ocr_pipeline.py:335`), executed as ONE
    crc32-bucketed shuffle with a whole-bucket Arrow
    sort + key-boundary mask (no per-key UDF invocations).
    """
    from ..stages.dedup import dedup_first

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang", "n_chars"])

    def _key(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()[:2]
            for t in batch.column("text").to_pylist()
        ]
        return pa.table({
            "grp": pa.array(fps, pa.string()),
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
        })

    keyed = ds.map_batches(_key, batch_format="pyarrow")
    return dedup_first(keyed, key_col="grp", order_col="doc_id")
ORACLE_SQL["dedup_first_rows"] = (
"SELECT substr(md5(text), 1, 2) AS grp, doc_id, lang, "
        "CAST(n_chars AS BIGINT) AS n_chars FROM documents "
        "QUALIFY row_number() OVER ("
        "PARTITION BY substr(md5(text), 1, 2) ORDER BY doc_id) = 1"
)
QUERIES["dedup_first_rows"] = q_dedup_first_rows
def q_fingerprint(sf_dir: str):
    """Document fingerprinting: md5 content hash + 16-hex prefix."""

    def _fn(batch: pa.Table) -> pa.Table:
        out = fingerprint_fn(batch)
        fps = out.column("fp")
        return pa.table({
            "doc_id": out.column("doc_id"),
            "fp": fps,
            "fp16": pc.utf8_slice_codeunits(fps, 0, 16),
        })

    return _docs(sf_dir).map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["fingerprint"] = (
"SELECT doc_id, md5(text) AS fp, substr(md5(text), 1, 16) AS fp16 "
        "FROM documents"
)
QUERIES["fingerprint"] = q_fingerprint
def q_winnow_fingerprint(sf_dir: str):
    """Winnowing rolling-hash fingerprint (SIGMOD'03 technique),
    oracle-checked: 8-token sliding windows, per-window 32-bit md5
    minima, distinct-count + global min reproduced in SQL."""
    from ..stages.dedup import winnow_fingerprint_fn

    return _docs(sf_dir).map_batches(
        winnow_fingerprint_fn, batch_format="pyarrow"
    )
ORACLE_SQL["winnow_fingerprint"] = (
"WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks "
        "FROM documents), "
        "ti AS (SELECT doc_id, len(toks) AS n, list_transform(toks, "
        "x -> CAST(('0x' || substr(md5(x), 1, 8)) AS UBIGINT)) AS hs "
        "FROM t), "
        "w AS (SELECT doc_id, n, CASE WHEN n >= 8 THEN "
        "list_transform(generate_series(1, n - 7), "
        "i -> list_min(hs[i:i+7])) ELSE [] END AS mins FROM ti) "
        "SELECT doc_id, "
        "CAST(CASE WHEN n >= 8 THEN n - 7 ELSE 0 END AS BIGINT) "
        "AS n_windows, "
        "CAST(len(list_distinct(mins)) AS BIGINT) AS n_fps, "
        "CAST(CASE WHEN n >= 8 THEN list_min(mins) END AS BIGINT) "
        "AS fp_min FROM w"
)
QUERIES["winnow_fingerprint"] = q_winnow_fingerprint
def q_paragraph_dedup(sf_dir: str):
    """CCNet-style paragraph dedup with doc reassembly.

    Each doc is wrapped in synthetic boilerplate: a semi-shared
    header (one of 40) and a corpus-wide footer (the hot key — one
    md5 group holding every doc). First occurrence wins corpus-wide;
    docs are rebuilt from surviving paragraphs. Two paragraph-sized
    shuffles, no per-key UDFs.
    """
    from ..stages.dedup import paragraph_dedup

    sep = "\n\n"

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        t = pc.binary_join_element_wise(
            "shared ", pc.cast(_int_mod(ids, 40), pa.string()), sep,
            pc.fill_null(batch.column("text"), ""), sep,
            "common footer", "",
        )
        return pa.table({"doc_id": ids, "text": t})

    aug = _docs(sf_dir).map_batches(_aug, batch_format="pyarrow")
    return paragraph_dedup(aug, sep=sep).sort("doc_id")
ORACLE_SQL["paragraph_dedup"] = (
"WITH aug AS (SELECT doc_id, 'shared ' || "
        "CAST(doc_id % 40 AS VARCHAR) || chr(10) || chr(10) || "
        "coalesce(text, '') || chr(10) || chr(10) || 'common footer' "
        "AS t FROM documents), "
        "p AS (SELECT doc_id, g - 1 AS para_idx, paras[g] AS para "
        "FROM (SELECT doc_id, string_split(t, chr(10) || chr(10)) "
        "AS paras FROM aug), "
        "LATERAL unnest(range(1, len(paras) + 1)) AS r(g)), "
        "f AS (SELECT doc_id, para_idx, para, row_number() OVER "
        "(PARTITION BY md5(para) ORDER BY doc_id, para_idx) AS rn "
        "FROM p) "
        "SELECT doc_id, string_agg(para, chr(10) || chr(10) "
        "ORDER BY para_idx) AS text_dedup, "
        "CAST(count(*) AS BIGINT) AS n_kept "
        "FROM f WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id"
)
QUERIES["paragraph_dedup"] = q_paragraph_dedup
def q_substring_dedup(sf_dir: str):
    """ExactSubstr duplicate-span removal (Lee et al. 2022) at
    token granularity: every token covered by a 5-token window whose
    exact text occurs >= 2 times corpus-wide is removed; docs rebuilt
    from surviving tokens. Two window-row shuffles, rebuild fully
    vectorized (diff-array coverage + ListArray/binary_join)."""
    from ..stages.dedup import substring_dedup

    return substring_dedup(_docs(sf_dir), w=5, n_buckets=32).sort(
        "doc_id")
ORACLE_SQL["substring_dedup"] = (
"WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks "
        "FROM documents), "
        "w0 AS (SELECT doc_id, toks, unnest(range(1, len(toks) - 3)) "
        "AS i FROM t), "
        "w AS (SELECT doc_id, i, array_to_string(toks[i:i+4], ' ') "
        "AS gram FROM w0), "
        "dup AS (SELECT gram FROM w GROUP BY gram "
        "HAVING count(*) >= 2), "
        "cov AS (SELECT DISTINCT d.doc_id, d.i + o.o AS p "
        "FROM (SELECT w.doc_id, w.i FROM w JOIN dup USING (gram)) d "
        "CROSS JOIN (SELECT unnest(range(0, 5)) AS o) o), "
        "tok AS (SELECT doc_id, unnest(toks) AS tok, "
        "unnest(range(1, len(toks) + 1)) AS pos FROM t), "
        "kept AS (SELECT k.doc_id, k.tok, k.pos FROM tok k "
        "LEFT JOIN cov c ON c.doc_id = k.doc_id AND c.p = k.pos "
        "WHERE c.p IS NULL), "
        "agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY pos) "
        "AS clean_text, count(*) AS n_kept FROM kept GROUP BY doc_id) "
        "SELECT d.doc_id, CASE WHEN d.text IS NULL THEN NULL "
        "ELSE coalesce(a.clean_text, '') END AS clean_text, "
        "CAST(CASE WHEN d.text IS NULL THEN 0 "
        "ELSE len(string_split(d.text, ' ')) - coalesce(a.n_kept, 0) "
        "END AS BIGINT) AS n_removed "
        "FROM documents d LEFT JOIN agg a USING (doc_id) "
        "ORDER BY doc_id"
)
QUERIES["substring_dedup"] = q_substring_dedup
def q_minhash_signatures(sf_dir: str):
    """MinHash band values (md5-based, 4 salts, 3-token shingles)."""
    return minhash_signatures(_docs(sf_dir))
ORACLE_SQL["minhash_signatures"] = (
"WITH " + SHINGLE_CTE + " "
        "SELECT doc_id, "
        "list_min(list_transform(shingles, s -> substr(md5(s), 1, 8))) AS h0, "
        "list_min(list_transform(shingles, s -> substr(md5(s), 9, 8))) AS h1, "
        "list_min(list_transform(shingles, s -> substr(md5(s), 17, 8))) AS h2, "
        "list_min(list_transform(shingles, s -> substr(md5(s), 25, 8))) AS h3 "
        "FROM sh"
)
QUERIES["minhash_signatures"] = q_minhash_signatures
def q_minhash_dup_pairs(sf_dir: str):
    """LSH candidate pairs: docs sharing any minhash band."""
    return minhash_dup_pairs(_docs(sf_dir))
ORACLE_SQL["minhash_dup_pairs"] = "WITH " + SIG_CTE + " " + CAND_SELECT
QUERIES["minhash_dup_pairs"] = q_minhash_dup_pairs
def q_minhash_banded_pairs(sf_dir: str):
    """(b=3 bands × r=2 rows) LSH banding: candidate pairs whose BOTH
    minhashes of some band agree — the precision-tuned S-curve
    variant of ``minhash_dup_pairs`` (which is the r=1 corner)."""
    from ..stages.dedup import minhash_banded_pairs

    return minhash_banded_pairs(_docs(sf_dir), b=3, r=2)
# (b=3 × r=2) banded minhash: h0..h3 are the four chunks of md5(s)
# (identical to SIG_FRAGMENT); h4..h5 come from the salt-1 digest
# md5('1:' || s) — mirrors stages/dedup.minhash_signature_salted.
# A band matches when BOTH its r=2 hashes agree.
ORACLE_SQL["minhash_banded_pairs"] = (
    "WITH " + SHINGLE_CTE + ", "
    "sig AS (SELECT doc_id, "
    "list_min(list_transform(shingles, s -> substr(md5(s), 1, 8))) AS h0, "
    "list_min(list_transform(shingles, s -> substr(md5(s), 9, 8))) AS h1, "
    "list_min(list_transform(shingles, s -> substr(md5(s), 17, 8))) AS h2, "
    "list_min(list_transform(shingles, s -> substr(md5(s), 25, 8))) AS h3, "
    "list_min(list_transform(shingles, "
    "s -> substr(md5('1:' || s), 1, 8))) AS h4, "
    "list_min(list_transform(shingles, "
    "s -> substr(md5('1:' || s), 9, 8))) AS h5 "
    "FROM sh) "
    "SELECT d1, d2 FROM ("
    "SELECT a.doc_id AS d1, b.doc_id AS d2 FROM sig a JOIN sig b "
    "ON a.h0 = b.h0 AND a.h1 = b.h1 AND a.doc_id < b.doc_id "
    "UNION SELECT a.doc_id, b.doc_id FROM sig a JOIN sig b "
    "ON a.h2 = b.h2 AND a.h3 = b.h3 AND a.doc_id < b.doc_id "
    "UNION SELECT a.doc_id, b.doc_id FROM sig a JOIN sig b "
    "ON a.h4 = b.h4 AND a.h5 = b.h5 AND a.doc_id < b.doc_id)"
)
QUERIES["minhash_banded_pairs"] = q_minhash_banded_pairs
def q_prefix_dup(sf_dir: str):
    """Truncation-mirror groups: docs sharing the md5 of their first
    32 tokens (head-hash dedup; exact-dedup shape, (pfp, id) shuffle
    only)."""
    from ..stages.dedup import prefix_dup_groups

    return prefix_dup_groups(
        _docs(sf_dir, columns=["doc_id", "text"]), p=32)
# prefix-fingerprint dup groups: md5 of the first-32-token join;
# toks[1:32] clamps for shorter docs (prefix == full text there)
ORACLE_SQL["prefix_dup"] = (
    "WITH t AS (SELECT doc_id, "
    "md5(array_to_string("
    "string_split(coalesce(text, ''), ' ')[1:32], ' ')) AS pfp "
    "FROM documents) "
    "SELECT pfp, CAST(min(doc_id) AS BIGINT) AS keep_id, "
    "CAST(count(*) AS BIGINT) AS n_docs FROM t "
    "GROUP BY pfp HAVING count(*) > 1"
)
QUERIES["prefix_dup"] = q_prefix_dup
def q_simhash(sf_dir: str):
    """64-bit SimHash per document (hex string)."""
    return simhash_signatures(_docs(sf_dir))
ORACLE_SQL["simhash"] = (
"WITH toks AS ("
        "SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS tok "
        "FROM documents), "
        "th AS (SELECT doc_id, "
        "CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS h FROM toks), "
        "bits AS (SELECT doc_id, b.bit AS bit, "
        "sum(CASE WHEN (h >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS acc "
        "FROM th, (SELECT unnest(generate_series(0, 63)) AS bit) b "
        "GROUP BY doc_id, b.bit), "
        "docbits AS (SELECT doc_id, "
        "list(CASE WHEN acc > 0 THEN 1 ELSE 0 END ORDER BY bit) AS bv "
        "FROM bits GROUP BY doc_id) "
        "SELECT doc_id, array_to_string(list_transform(generate_series(0, 15), "
        "c -> substr('0123456789abcdef', "
        "1 + bv[64-4*c] * 8 + bv[63-4*c] * 4 + bv[62-4*c] * 2 + bv[61-4*c], 1)), "
        "'') AS simhash FROM docbits"
)
QUERIES["simhash"] = q_simhash
def q_dedup_incremental_bloom(sf_dir: str):
    """Incremental exact dedup with a Bloom semi-join reduction:
    identical result to ``dedup_incremental`` (same oracle), but the
    existing-corpus side is pre-filtered at scan speed by a Bloom
    bitmap built over the new batch's fingerprints — the shuffle
    into the exact anti join carries new-batch-scale rows, not
    corpus-scale. See stages/dedup.py incremental_dedup_bloom.
    """
    from ..stages.bucketed import checkpoint_bucketed
    from ..stages.dedup import incremental_dedup_bloom

    def _fp(batch: pa.Table) -> pa.Table:
        b = fingerprint_fn(batch)
        return pa.table({"doc_id": b.column("doc_id"),
                         "fp": b.column("fp")})

    # md5 the corpus ONCE; the fp table is narrow (id + 32-hex per
    # doc) but corpus-ROW-count scale, so checkpoint it to bucketed
    # parquet rather than pin it — both sides are then scan-speed
    # filters over the storage-backed re-read
    fps = checkpoint_bucketed(
        _docs(sf_dir).map_batches(_fp, batch_format="pyarrow"),
        f"incbloom_{os.path.basename(os.path.normpath(sf_dir))}",
        key_col="doc_id")

    def _odd(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 1))

    def _even(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 0)
        ).select(["fp"])

    new_fp = fps.map_batches(_odd, batch_format="pyarrow")
    old_fp = fps.map_batches(_even, batch_format="pyarrow")
    return incremental_dedup_bloom(new_fp, old_fp).sort("doc_id")
# Bloom semi-join reduction must be EXACT — same oracle
ORACLE_SQL["dedup_incremental_bloom"] = (
"SELECT doc_id, md5(text) AS fp FROM documents d "
        "WHERE doc_id % 2 = 1 AND NOT EXISTS "
        "(SELECT 1 FROM documents e WHERE e.doc_id % 2 = 0 "
        "AND md5(e.text) = md5(d.text)) ORDER BY doc_id"
)
QUERIES["dedup_incremental_bloom"] = q_dedup_incremental_bloom
def q_jaccard_dup_pairs(sf_dir: str):
    """MinHash candidates verified by exact n-gram Jaccard >= 0.8.

    Distributed verification (no driver-side candidate
    materialization) — see stages/dedup.py jaccard_dup_pairs.
    """
    return jaccard_dup_pairs(_docs(sf_dir))
ORACLE_SQL["jaccard_dup_pairs"] = (
"WITH " + SIG_CTE + ", "
        "cand AS (" + CAND_SELECT + "), "
        "dsh AS (SELECT doc_id, list_distinct(shingles) AS s FROM sh), "
        "j AS (SELECT c.d1, c.d2, "
        "CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / "
        "(len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS jac "
        "FROM cand c JOIN dsh a ON a.doc_id = c.d1 "
        "JOIN dsh b ON b.doc_id = c.d2) "
        "SELECT d1, d2, floor(jac * 1000000.0 + 0.5) / 1000000.0 AS jaccard "
        "FROM j WHERE jac >= 0.8"
)
QUERIES["jaccard_dup_pairs"] = q_jaccard_dup_pairs
def q_containment_pairs(sf_dir: str):
    """MinHash candidates re-scored by exact shingle CONTAINMENT
    |A∩B| / min(|A|,|B|) >= 0.9 — the asymmetric-overlap detector
    (a short doc quoted inside a long one scores 1.0 where Jaccard
    stays small). Same distributed verification machinery as
    `jaccard_dup_pairs`, metric switched."""
    return jaccard_dup_pairs(_docs(sf_dir), threshold=0.9,
                             metric="containment")
ORACLE_SQL["containment_pairs"] = (
"WITH " + SIG_CTE + ", "
        "cand AS (" + CAND_SELECT + "), "
        "dsh AS (SELECT doc_id, list_distinct(shingles) AS s FROM sh), "
        "j AS (SELECT c.d1, c.d2, "
        "CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / "
        "least(len(a.s), len(b.s)) AS cont "
        "FROM cand c JOIN dsh a ON a.doc_id = c.d1 "
        "JOIN dsh b ON b.doc_id = c.d2) "
        "SELECT d1, d2, floor(cont * 1000000.0 + 0.5) / 1000000.0 "
        "AS containment FROM j WHERE cont >= 0.9"
)
QUERIES["containment_pairs"] = q_containment_pairs
def q_dedup_incremental(sf_dir: str):
    """Incremental exact dedup: a NEW batch (odd doc_ids) kept only
    where its content fingerprint is absent from the EXISTING corpus
    (even doc_ids).

    The daily-ingest shape at 100 TB: both sides reduce to
    ``(fp[, id])`` rows before the anti join — content never moves —
    and the repartition anti join makes no memory assumption about
    the reference fingerprint store.
    """
    from ..stages.join import repartition_join

    def _odd_fp(batch: pa.Table) -> pa.Table:
        # parity filter BEFORE hashing: each scan md5s only its half
        b = fingerprint_fn(batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 1)
        ))
        return pa.table({"doc_id": b.column("doc_id"),
                         "fp": b.column("fp")})

    def _even_fp(batch: pa.Table) -> pa.Table:
        b = fingerprint_fn(batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 0)
        ))
        return pa.table({"fp": b.column("fp")})

    new_fp = _docs(sf_dir).map_batches(_odd_fp, batch_format="pyarrow")
    old_fp = _docs(sf_dir).map_batches(_even_fp, batch_format="pyarrow")
    return repartition_join(
        new_fp, old_fp, on="fp", how="anti"
    ).sort("doc_id")
ORACLE_SQL["dedup_incremental"] = (
"SELECT doc_id, md5(text) AS fp FROM documents d "
        "WHERE doc_id % 2 = 1 AND NOT EXISTS "
        "(SELECT 1 FROM documents e WHERE e.doc_id % 2 = 0 "
        "AND md5(e.text) = md5(d.text)) ORDER BY doc_id"
)
QUERIES["dedup_incremental"] = q_dedup_incremental
def q_decontaminate(sf_dir: str):
    """Benchmark DECONTAMINATION: corpus docs sharing any 3-token
    shingle with the benchmark set (here: doc_id < 10 stands in for
    the eval suite), with the distinct-overlap count.

    The 100-TB shape: the benchmark shingle set is tiny and
    broadcast ONCE through the object store; every corpus batch does
    one set intersection per doc — no shuffle, scan-speed.
    """
    import ray as ray_core

    from ..stages.dedup import _cached_get, shingles

    bench_rows = (
        _docs(sf_dir).filter(expr="doc_id < 10").take_all()
    )
    bench: set = set()
    for r in bench_rows:
        bench.update(shingles((r["text"] or "").split(" "), 3))
    ref = ray_core.put(frozenset(bench))

    def _overlap(batch: pa.Table) -> pa.Table:
        bset = _cached_get(ref)
        ids, counts = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            if did < 10 or text is None:
                continue
            n = len(set(shingles(text.split(" "), 3)) & bset)
            if n >= 1:
                ids.append(did)
                counts.append(n)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_overlap": pa.array(counts, pa.int64()),
        })

    return _docs(sf_dir).map_batches(
        _overlap, batch_format="pyarrow"
    ).sort("doc_id")
ORACLE_SQL["decontaminate"] = (
"WITH " + SHINGLE_CTE + ", "
        "bench AS (SELECT list(DISTINCT s) AS bs FROM ("
        "SELECT unnest(shingles) AS s FROM sh WHERE doc_id < 10)), "
        "corpus AS (SELECT doc_id, list_distinct(shingles) AS ds "
        "FROM sh WHERE doc_id >= 10) "
        "SELECT doc_id, CAST(len(list_intersect(ds, bs)) AS BIGINT) "
        "AS n_overlap FROM corpus, bench "
        "WHERE len(list_intersect(ds, bs)) >= 1 "
        "ORDER BY doc_id"
)
QUERIES["decontaminate"] = q_decontaminate
def q_dup_clusters(sf_dir: str):
    """Near-dup CLUSTERS: transitive closure over the MinHash
    candidate pairs, cluster id = min doc_id of the component.

    Distributed min-label propagation with pointer doubling
    (stages/cluster.py) — all shuffles are over the candidate pair
    list, never the corpus. The DuckDB oracle reproduces the closure
    with a recursive CTE over the same bit-exact pair set.
    """
    from ..stages.cluster import connected_components

    cl = connected_components(minhash_dup_pairs(_docs(sf_dir)),
                              a_col="d1", b_col="d2")

    def _fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(batch.column("node"), pa.int64()),
            "cluster_id": pc.cast(batch.column("cluster"), pa.int64()),
        })

    return cl.map_batches(_fin, batch_format="pyarrow").sort("doc_id")
ORACLE_SQL["dup_clusters"] = (
"WITH RECURSIVE " + SIG_CTE + ", cand AS (" + CAND_SELECT + "), "
        + CC_CTE +
        " SELECT node AS doc_id, cluster_id FROM clusters ORDER BY doc_id"
)
QUERIES["dup_clusters"] = q_dup_clusters
def q_dup_cluster_sizes(sf_dir: str):
    """Near-dup cluster-SIZE histogram: how many clusters of each
    size the corpus carries — the dedup-audit rollup an operator
    reads before deciding thresholds ("are dups pairs, or giant
    templates?"). Composition: connected components over the MinHash
    pairs, then a (cluster -> size -> histogram) double partial
    combine — both aggregates are cluster-member-scale, the corpus
    never moves."""
    from ray.data.aggregate import Count

    from ..stages.cluster import connected_components

    cl = connected_components(minhash_dup_pairs(_docs(sf_dir)),
                              a_col="d1", b_col="d2")
    sizes = cl.groupby("cluster").aggregate(Count())

    def _hist(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column("count()"))
        return pa.table({
            "cluster_size": pc.cast(vc.field("values"), pa.int64()),
            "n_clusters": pc.cast(vc.field("counts"), pa.int64()),
        })

    out = sizes.map_batches(_hist, batch_format="pyarrow")
    totals: Dict[int, int] = {}
    for b in out.iter_batches(batch_format="pyarrow",
                              batch_size=None):
        for s, n in zip(b.column("cluster_size").to_pylist(),
                        b.column("n_clusters").to_pylist()):
            totals[s] = totals.get(s, 0) + n
    ks = sorted(totals)
    return pa.table({
        "cluster_size": pa.array(ks, pa.int64()),
        "n_clusters": pa.array([totals[s] for s in ks], pa.int64()),
    })
ORACLE_SQL["dup_cluster_sizes"] = (
    "WITH RECURSIVE " + SIG_CTE + ", cand AS (" + CAND_SELECT + "), "
    + CC_CTE +
    ", sizes AS (SELECT cluster_id, count(*) AS s FROM clusters "
    "GROUP BY cluster_id) "
    "SELECT CAST(s AS BIGINT) AS cluster_size, "
    "CAST(count(*) AS BIGINT) AS n_clusters FROM sizes GROUP BY s"
)
QUERIES["dup_cluster_sizes"] = q_dup_cluster_sizes
def q_dedup_canonical(sf_dir: str):
    """Corpus survivors after near-dup clustering: ONE canonical
    (min-id) document per cluster, all unclustered docs kept.

    The drop set (non-canonical members) is cluster-MEMBER-scale —
    30–50% of rows on a heavily-duplicated web corpus — so the
    attach is adaptive (stages/cluster.py ``canonical_filter`` →
    ``adaptive_join`` anti): broadcast + vectorized per-batch filter
    while the drop set is small, key-hash co-shuffle above the
    measured row threshold.
    """
    from ..stages.cluster import canonical_filter, connected_components

    clusters = connected_components(minhash_dup_pairs(_docs(sf_dir)))
    docs = _docs(sf_dir, columns=["doc_id", "n_chars"])

    def _fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
        })

    kept, _strategy = canonical_filter(docs, clusters)
    return kept.map_batches(
        _fin, batch_format="pyarrow"
    ).sort("doc_id")
ORACLE_SQL["dedup_canonical"] = (
"WITH RECURSIVE " + SIG_CTE + ", cand AS (" + CAND_SELECT + "), "
        + CC_CTE +
        " SELECT d.doc_id, CAST(d.n_chars AS BIGINT) AS n_chars "
        "FROM documents d WHERE d.doc_id NOT IN "
        "(SELECT node FROM clusters WHERE node != cluster_id) "
        "ORDER BY d.doc_id"
)
QUERIES["dedup_canonical"] = q_dedup_canonical
def q_near_dup_bucket_stats(sf_dir: str):
    """Hot-bucket telemetry for the embedding-LSH cap (rows-only
    companion to the oracle-checked ``minhash_hot_buckets``)."""
    from ..stages.similarity import near_dup_bucket_stats

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return near_dup_bucket_stats(ds, max_bucket=100)
QUERIES["near_dup_bucket_stats"] = q_near_dup_bucket_stats
def q_minhash_hot_buckets(sf_dir: str):
    """Hot-bucket cap telemetry: what a max_bucket cap would drop."""
    return minhash_bucket_stats(_docs(sf_dir), max_bucket=HOT_BUCKET_CAP)
ORACLE_SQL["minhash_hot_buckets"] = (
"WITH " + SIG_CTE + ", "
        "bands AS ("
        "SELECT '0:' || h0 AS band FROM sig WHERE h0 IS NOT NULL "
        "UNION ALL SELECT '1:' || h1 FROM sig WHERE h1 IS NOT NULL "
        "UNION ALL SELECT '2:' || h2 FROM sig WHERE h2 IS NOT NULL "
        "UNION ALL SELECT '3:' || h3 FROM sig WHERE h3 IS NOT NULL), "
        "bs AS (SELECT band, count(*) AS n FROM bands GROUP BY band) "
        "SELECT CAST(count(*) AS BIGINT) AS n_buckets, "
        "CAST(count(*) FILTER (WHERE n > 3) AS BIGINT) AS n_hot_buckets, "
        "CAST(max(n) AS BIGINT) AS max_bucket_size, "
        "CAST(sum(greatest(n - 3, 0)) AS BIGINT) AS dropped_ids "
        "FROM bs"
)
QUERIES["minhash_hot_buckets"] = q_minhash_hot_buckets
def q_prefix_jaccard_pairs(sf_dir: str):
    """EXACT set-similarity self-join via AllPairs prefix filtering
    (stages/dedup.py ``prefix_jaccard_pairs``): recall 1.0 vs the
    O(N²) scan by the prefix-filter theorem, candidates generated
    only from each doc's rarest (df-ordered) prefix shingles. The
    oracle is EXACT but not O(N²): its pair universe is "pairs
    sharing >= 1 shingle" (PAIR_UNIVERSE_FRAGMENT — nothing with
    J >= 0.8 is outside it) plus the implied 0.8 length band, so it
    stays an identity claim while running as a hash join at sf1
    (the old cross-join twin ran >1 h of single-core SQL there; the
    universe is built from raw shingle sharing, NOT from the
    engine's df-ordered prefix logic, so a prefix-filter bug on the
    Ray side is still caught)."""
    from ..stages.dedup import prefix_jaccard_pairs

    return prefix_jaccard_pairs(
        _docs(sf_dir), threshold=0.8).sort(["d1", "d2"])
ORACLE_SQL["prefix_jaccard_pairs"] = (
"WITH " + SHINGLE_CTE + ", " + PAIR_UNIVERSE_FRAGMENT + ", "
        "j AS (SELECT cu.d1, cu.d2, "
        "CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / "
        "(len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS jac "
        "FROM cu JOIN dsh a ON a.doc_id = cu.d1 "
        "JOIN dsh b ON b.doc_id = cu.d2 "
        "WHERE len(b.s) * 5 >= len(a.s) * 4 "
        "AND len(a.s) * 5 >= len(b.s) * 4) "
        "SELECT d1, d2, floor(jac * 1000000.0 + 0.5) / 1000000.0 "
        "AS jaccard FROM j WHERE jac >= 0.8 ORDER BY d1, d2"
)
QUERIES["prefix_jaccard_pairs"] = q_prefix_jaccard_pairs
def q_near_dup_incremental(sf_dir: str):
    """Incremental NEAR-dup: candidate pairs between a NEW batch
    (odd doc_ids) and the EXISTING corpus (even doc_ids) — docs
    sharing ANY minhash band across the two sets
    (`stages/dedup.py minhash_cross_pairs`). The near-dup twin of
    `dedup_incremental`'s exact anti join: how a fresh crawl is
    deduped against the index without re-pairing the corpus with
    itself. One (band, id, side) exchange; per-band new×corpus cross
    products inside whole-bucket UDFs."""
    from ..stages.dedup import minhash_cross_pairs

    ds = _docs(sf_dir)

    def _half(parity: int):
        def _fn(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(
                _int_mod(batch.column("doc_id"), 2), parity))
        return ds.map_batches(_fn, batch_format="pyarrow")

    return minhash_cross_pairs(_half(1), _half(0)).sort(
        ["d_new", "d_old"])
ORACLE_SQL["near_dup_incremental"] = (
"WITH " + SIG_CTE + " "
        "SELECT n.doc_id AS d_new, c.doc_id AS d_old "
        "FROM sig n JOIN sig c ON n.doc_id % 2 = 1 "
        "AND c.doc_id % 2 = 0 AND (n.h0 = c.h0 OR n.h1 = c.h1 "
        "OR n.h2 = c.h2 OR n.h3 = c.h3) ORDER BY 1, 2"
)
QUERIES["near_dup_incremental"] = q_near_dup_incremental
def q_dedup_best_survivor(sf_dir: str):
    """QUALITY-AWARE dedup survivor: per near-dup cluster keep the
    BEST member (max n_chars, tie min doc_id) instead of
    `dedup_canonical`'s min-id convention — the curation-grade
    survivor rule (keep the longest/cleanest copy of a template).
    Composition: connected components over the bit-exact MinHash
    pairs → ADAPTIVE attach of the cluster-member-scale label table
    (stages/join.adaptive_join: broadcast into one pruned corpus
    scan while labels fit, key-hash co-shuffle above the measured
    threshold — on a 40%-dup web corpus labels are corpus-scale, so
    the broadcast must not be unconditional) →
    stages/stats.grouped_argmax (per-block partial arg-max, one
    keys×blocks exchange)."""
    from ..stages.cluster import connected_components
    from ..stages.join import adaptive_join
    from ..stages.stats import grouped_argmax

    clusters = connected_components(minhash_dup_pairs(_docs(sf_dir)))

    def _ren(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(batch.column("node"), pa.int64()),
            "cluster_id": pc.cast(batch.column("cluster"), pa.int64()),
        })

    labels = clusters.map_batches(_ren, batch_format="pyarrow")
    docs = _docs(sf_dir, columns=["doc_id", "n_chars"])
    joined, _strategy = adaptive_join(docs, labels, on="doc_id")
    best = grouped_argmax(joined, "cluster_id", "n_chars", "doc_id")

    def _fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cluster_id": batch.column("cluster_id"),
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
        })

    return best.map_batches(_fin, batch_format="pyarrow").sort(
        "cluster_id")
ORACLE_SQL["dedup_best_survivor"] = (
    "WITH RECURSIVE " + SIG_CTE + ", cand AS (" + CAND_SELECT + "), "
    + CC_CTE +
    " SELECT cluster_id, doc_id, n_chars FROM ("
    "SELECT c.cluster_id AS cluster_id, d.doc_id, "
    "CAST(d.n_chars AS BIGINT) AS n_chars, row_number() OVER ("
    "PARTITION BY c.cluster_id ORDER BY d.n_chars DESC, d.doc_id ASC) "
    "AS rk FROM clusters c JOIN documents d ON d.doc_id = c.node) "
    "WHERE rk = 1 ORDER BY cluster_id"
)
QUERIES["dedup_best_survivor"] = q_dedup_best_survivor
def q_minhash_jaccard_estimate(sf_dir: str):
    """Signature-based Jaccard ESTIMATE per candidate pair (matching
    minhash fraction — the estimation step between LSH candidacy and
    exact verification in the standard near-dup chain). Scale shape:
    the pair-scale candidate id set broadcasts into the signature
    scan (is_in filter), and the candidates-only signature table —
    small by construction, same argument as the verified-Jaccard
    chain — broadcasts into two vectorized hash-joins over the pair
    list. Bit-exact: signatures are bit-exact vs SQL, the estimate is
    a single division."""
    from ..stages.bucketed import checkpoint_bucketed
    from ..stages.join import broadcast_join

    # hash the corpus ONCE: the signature table feeds both the
    # candidate-pair plan (precomputed-sig branch of
    # minhash_dup_pairs) and the estimate joins — corpus-row-count
    # rows, so checkpoint to bucketed parquet instead of pinning
    all_sigs = checkpoint_bucketed(
        minhash_signatures(_docs(sf_dir)),
        f"mhest_{os.path.basename(os.path.normpath(sf_dir))}",
        key_col="doc_id")
    pairs = minhash_dup_pairs(all_sigs)
    cand_ids = set()
    for b in pairs.iter_batches(batch_format="pyarrow",
                                batch_size=None):
        cand_ids.update(b.column("d1").to_pylist())
        cand_ids.update(b.column("d2").to_pylist())
    id_set = pa.array(sorted(cand_ids), pa.int64())

    def _cand_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("doc_id"),
                                     value_set=id_set))

    sigs = all_sigs.map_batches(_cand_only, batch_format="pyarrow")

    def _ren(side: str):
        def _fn(batch: pa.Table) -> pa.Table:
            cols = {side: batch.column("doc_id")}
            for i in range(4):
                cols[f"{side}_h{i}"] = batch.column(f"h{i}")
            return pa.table(cols)
        return _fn

    a = sigs.map_batches(_ren("d1"), batch_format="pyarrow")
    b = sigs.map_batches(_ren("d2"), batch_format="pyarrow")
    joined = broadcast_join(broadcast_join(pairs, a, on="d1"), b,
                            on="d2")

    def _est(batch: pa.Table) -> pa.Table:
        import numpy as np

        match = np.zeros(batch.num_rows, dtype=np.int64)
        for i in range(4):
            match += pc.equal(
                batch.column(f"d1_h{i}"), batch.column(f"d2_h{i}")
            ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "d1": batch.column("d1"),
            "d2": batch.column("d2"),
            "est_jaccard": pa.array(match / 4.0, pa.float64()),
        })

    return joined.map_batches(_est, batch_format="pyarrow").sort(
        ["d1", "d2"])
ORACLE_SQL["minhash_jaccard_estimate"] = (
    "WITH " + SIG_CTE + ", cand AS (" + CAND_SELECT + ") "
    "SELECT c.d1, c.d2, "
    "((CASE WHEN a.h0 = b.h0 THEN 1 ELSE 0 END) + "
    "(CASE WHEN a.h1 = b.h1 THEN 1 ELSE 0 END) + "
    "(CASE WHEN a.h2 = b.h2 THEN 1 ELSE 0 END) + "
    "(CASE WHEN a.h3 = b.h3 THEN 1 ELSE 0 END)) / 4.0 AS est_jaccard "
    "FROM cand c JOIN sig a ON a.doc_id = c.d1 "
    "JOIN sig b ON b.doc_id = c.d2 ORDER BY c.d1, c.d2"
)
QUERIES["minhash_jaccard_estimate"] = q_minhash_jaccard_estimate
def q_host_boilerplate(sf_dir: str):
    """Per-host template-line removal (CCNet/WET boilerplate rule).

    Every doc gets a host-wide NAV line (removed: 100% > 50%), an
    alternating HALF line (exactly half the host's docs — pins the
    STRICT-> threshold: kept), a 20% PROMO line (kept) and its own
    unique text (kept). The ORACLE recomputes the whole semantics
    independently (count distinct docs per (host, line), threshold
    against per-host totals, anti join, ordered reassembly).
    """
    from ..stages.dedup import host_boilerplate_removal

    sep = "<p>"
    aug = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: _boilerplate_aug_fn(b, sep), batch_format="pyarrow")
    return host_boilerplate_removal(aug, sep=sep)
ORACLE_SQL["host_boilerplate"] = """
WITH aug AS (
  SELECT doc_id, 'h' || CAST(doc_id % 25 AS VARCHAR) AS host,
    'NAV h' || CAST(doc_id % 25 AS VARCHAR) || '<p>' ||
    CASE WHEN (doc_id // 25) % 2 = 0
         THEN 'HALF h' || CAST(doc_id % 25 AS VARCHAR) || '<p>'
         ELSE '' END ||
    COALESCE(text, '') ||
    CASE WHEN (doc_id // 25) % 5 = 0
         THEN '<p>' || 'PROMO h' || CAST(doc_id % 25 AS VARCHAR)
         ELSE '' END AS text
  FROM documents
), lines AS (
  SELECT doc_id, host,
         generate_subscripts(string_split(text, '<p>'), 1) AS idx,
         unnest(string_split(text, '<p>')) AS line
  FROM aug
), cnt AS (
  SELECT host, line, count(DISTINCT doc_id) AS c
  FROM lines GROUP BY host, line
), tot AS (
  SELECT host, count(*) AS t FROM aug GROUP BY host
), bp AS (
  SELECT host, line FROM cnt JOIN tot USING (host)
  WHERE c >= 2 AND c > 0.5 * t
), kept AS (
  SELECT l.doc_id, l.idx, l.line FROM lines l
  ANTI JOIN bp b ON l.host = b.host AND l.line = b.line
)
SELECT doc_id,
  array_to_string(list(line ORDER BY idx), '<p>') AS text_clean,
  CAST(count(*) AS BIGINT) AS n_kept
FROM kept GROUP BY doc_id
"""
QUERIES["host_boilerplate"] = q_host_boilerplate
def q_simhash_near_pairs(sf_dir: str):
    """EXACT SimHash Hamming join (pigeonhole banding, Manku WWW'07):
    corpus ∪ perturbed copies of every 5th doc (one appended token →
    small nonzero distances); the oracle is the brute-force O(n²)
    bit_count(xor) join over the bit-exact simhash CTE, so BOTH the
    lossless candidate generation and the popcount verify are gated.
    """
    import numpy as np

    from ..stages.dedup import simhash_near_pairs

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        texts = batch.column("text").to_pylist()
        mask = ids % 5 == 0
        cp_ids = ids[mask] + 100000
        cp_texts = [(t or "") + " xx1"
                    for t, m in zip(texts, mask.tolist()) if m]
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([ids, cp_ids]), pa.int64()),
            "text": pa.array(list(texts) + cp_texts, pa.string()),
        })

    aug = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _aug, batch_format="pyarrow")
    return simhash_near_pairs(aug, max_dist=3)
ORACLE_SQL["simhash_near_pairs"] = _simhash_near_sql(3)
QUERIES["simhash_near_pairs"] = q_simhash_near_pairs
def q_stitch_pairs(sf_dir: str):
    """Paginated-crawl stitching (stages/dedup.stitch_pairs): pairs
    whose k=3-token seam matches (tail of A == head of B) — the
    split-article reassembly signal both exact and near dedup miss.
    The corpus is deterministically augmented so every ``doc_id % 10
    == 1`` doc's tail continues into ``doc_id + 1`` (seam tokens
    carry the pair id); the oracle replays the augmentation and joins
    head/tail slices directly."""
    from ..stages.dedup import stitch_pairs

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out = []
        for i, t in zip(ids, batch.column("text").to_pylist()):
            t = t or ""
            if i % 10 == 1:
                t = f"{t} stitch pg{i} marker"
            elif i % 10 == 2:
                t = f"stitch pg{i - 1} marker {t}"
            out.append(t)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(out, pa.string()),
        })

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _aug, batch_format="pyarrow")
    return stitch_pairs(ds, k=3).sort(["a_id", "b_id"])
ORACLE_SQL["stitch_pairs"] = (
    "WITH aug AS (SELECT doc_id, CASE "
    "WHEN doc_id % 10 = 1 THEN coalesce(text, '') || ' stitch pg' || "
    "CAST(doc_id AS VARCHAR) || ' marker' "
    "WHEN doc_id % 10 = 2 THEN 'stitch pg' || "
    "CAST(doc_id - 1 AS VARCHAR) || ' marker ' || coalesce(text, '') "
    "ELSE coalesce(text, '') END AS text FROM documents), "
    "t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM aug), "
    "ht AS (SELECT doc_id, array_to_string(toks[1:3], ' ') AS head, "
    "array_to_string(toks[-3:], ' ') AS tail FROM t "
    "WHERE len(toks) >= 3) "
    "SELECT a.doc_id AS a_id, b.doc_id AS b_id "
    "FROM ht a JOIN ht b ON a.tail = b.head AND a.doc_id <> b.doc_id"
)
QUERIES["stitch_pairs"] = q_stitch_pairs
def q_canonical_dup_groups(sf_dir: str):
    """Alias groups: canonical keys claimed by more than one raw url
    — what exact URL dedup MISSES without canonicalization. Map-side
    partial combine, one canonical-key groupby."""
    from ..stages.web import canonical_url_fn

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aliased_urls, batch_format="pyarrow").map_batches(
        lambda b: canonical_url_fn(b), batch_format="pyarrow")

    def _partial(batch: pa.Table) -> pa.Table:
        agg = batch.select(["canonical", "doc_id"]).group_by(
            ["canonical"]).aggregate([("doc_id", "count"),
                                      ("doc_id", "min")])
        return pa.table({
            "canonical": agg.column("canonical"),
            "n": pc.cast(agg.column("doc_id_count"), pa.int64()),
            "m": pc.cast(agg.column("doc_id_min"), pa.int64()),
        })

    agg = (ds.map_batches(_partial, batch_format="pyarrow")
           .groupby("canonical")
           .aggregate(Sum("n"), ray.data.aggregate.Min("m")))

    def _finish(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "canonical": batch.column("canonical"),
            "n_docs": pc.cast(batch.column("sum(n)"), pa.int64()),
            "min_doc": pc.cast(batch.column("min(m)"), pa.int64()),
        })
        return t.filter(pc.greater(t.column("n_docs"), 1))

    return agg.map_batches(
        _finish, batch_format="pyarrow").sort("canonical")
ORACLE_SQL["canonical_dup_groups"] = (
    "WITH c AS (" + _CANONICAL_SQL + ") "
    "SELECT canonical, CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(min(doc_id) AS BIGINT) AS min_doc FROM c "
    "GROUP BY canonical HAVING count(*) > 1 ORDER BY canonical"
)
QUERIES["canonical_dup_groups"] = q_canonical_dup_groups
def q_intradoc_dedup(sf_dir: str):
    """Within-doc repeated-paragraph removal
    (`stages/dedup.intradoc_dedup_fn` — the Dolma/RefinedWeb page-
    internal dedup rule, row-local complement of `paragraph_dedup`).
    Plant: every doc gets a promo paragraph twice, and every third
    doc repeats its own body."""
    from ..stages.dedup import intradoc_dedup_fn

    sep = "\n\n"

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        body = pc.fill_null(batch.column("text"), "")
        rep = pc.if_else(
            pc.equal(_int_mod(ids, 3), 0),
            pc.binary_join_element_wise(sep, body, ""),
            pa.scalar(""))
        t = pc.binary_join_element_wise(
            "promo", sep, body, sep, "promo", rep, sep,
            "tail ", pc.cast(_int_mod(ids, 5), pa.string()), "")
        return pa.table({"doc_id": ids, "text": t})

    return _docs(sf_dir).map_batches(
        _aug, batch_format="pyarrow"
    ).map_batches(
        lambda b: intradoc_dedup_fn(b), batch_format="pyarrow"
    ).sort("doc_id")
ORACLE_SQL["intradoc_dedup"] = """
WITH aug AS (
  SELECT doc_id, 'promo' || chr(10) || chr(10) ||
    coalesce(text, '') || chr(10) || chr(10) || 'promo' ||
    CASE WHEN doc_id % 3 = 0
         THEN chr(10) || chr(10) || coalesce(text, '')
         ELSE '' END ||
    chr(10) || chr(10) || 'tail ' || CAST(doc_id % 5 AS VARCHAR)
    AS t
  FROM documents
), p AS (
  SELECT doc_id, g - 1 AS para_idx, paras[g] AS para
  FROM (SELECT doc_id, string_split(t, chr(10) || chr(10)) AS paras
        FROM aug),
  LATERAL unnest(range(1, len(paras) + 1)) AS r(g)
), f AS (
  SELECT doc_id, para_idx, para, row_number() OVER
    (PARTITION BY doc_id, para ORDER BY para_idx) AS rn,
    count(*) OVER (PARTITION BY doc_id) AS n_paras
  FROM p
)
SELECT doc_id,
  string_agg(para, chr(10) || chr(10) ORDER BY para_idx)
    AS text_dedup,
  CAST(count(*) AS BIGINT) AS n_kept,
  CAST(any_value(n_paras) - count(*) AS BIGINT) AS n_dropped
FROM f WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
"""
QUERIES["intradoc_dedup"] = q_intradoc_dedup
