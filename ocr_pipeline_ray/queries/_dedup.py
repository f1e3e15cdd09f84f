"""Exact, content-level and incremental deduplication queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import hashlib
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum
from ..stages.dedup import exact_dedup_summary, fingerprint_fn
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
