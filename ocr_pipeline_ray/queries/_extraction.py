"""Extraction, normalization, quality and PII queries (SURVEY §2 core) (split from queries.py; keys unchanged)."""
from __future__ import annotations

from typing import Dict
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum
from ..functions.text import replace_chars_regex, round3
from ..stages.textstats import (
    doc_quality_fn,
    quality_heuristics_fn,
    sanitize_fn,
    token_count_fn,
)
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_replace_chars(sf_dir: str):
    """M2: ordered literal substitution (all occurrences, dict order)."""

    def _fn(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        for key, val in REPL_KEYS:
            col = pc.replace_substring(col, key, val)
        return pa.table({"doc_id": batch.column("doc_id"), "text_norm": col})

    return _docs(sf_dir).map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["replace_chars"] = (
"SELECT doc_id, replace(replace(text, 'spark', 'ray'), "
        "'table', 'tbl') AS text_norm FROM documents"
)
QUERIES["replace_chars"] = q_replace_chars
def q_replace_chars_stats(sf_dir: str):
    """M2 statistics: once-per-doc-per-key counts, sequential keys.

    Partial counts per batch (vectorized contains), merged by a tiny
    groupby — the A3 pattern.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        ks, ns = [], []
        for key, val in REPL_KEYS:
            hits = pc.sum(pc.match_substring(col, key)).as_py() or 0
            ks.append(key)
            ns.append(hits)
            col = pc.replace_substring(col, key, val)
        return pa.table({"k": pa.array(ks, pa.string()),
                         "n_docs": pa.array(ns, pa.int64())})

    partials = _docs(sf_dir).map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("k").aggregate(Sum("n_docs"))
    return agg.map_batches(
        lambda b: b.rename_columns(
            ["k" if c == "k" else "n_docs" for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
ORACLE_SQL["replace_chars_stats"] = (
"SELECT 'spark' AS k, CAST(count(*) FILTER (WHERE "
        "contains(text, 'spark')) AS BIGINT) AS n_docs FROM documents "
        "UNION ALL "
        "SELECT 'table' AS k, CAST(count(*) FILTER (WHERE "
        "contains(replace(text, 'spark', 'ray'), 'table')) AS BIGINT) "
        "AS n_docs FROM documents"
)
QUERIES["replace_chars_stats"] = q_replace_chars_stats
def q_replace_regex(sf_dir: str):
    """M3: first regex match per doc, replace that literal everywhere."""

    def _fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        out, _stats = replace_chars_regex(
            [t or "" for t in texts], REGEX_PATTERN, REGEX_OLD, REGEX_NEW
        )
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text_regexed": pa.array(out, pa.string()),
        })

    return _docs(sf_dir).map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["replace_regex"] = (
"SELECT doc_id, CASE WHEN m = '' THEN text ELSE "
        "replace(text, m, replace(m, 'ar', 'er')) END AS text_regexed "
        "FROM (SELECT doc_id, text, "
        "regexp_extract(text, 's[a-z]*k', 0) AS m FROM documents)"
)
QUERIES["replace_regex"] = q_replace_regex
def q_sanitize_chars(sf_dir: str):
    """M7: QA character sanitization projection."""
    ds = _docs(sf_dir).map_batches(sanitize_fn, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "text_sanitized"])
ORACLE_SQL["sanitize_chars"] = (
"SELECT doc_id, "
        + SANITIZE_SQL.format(col="text")
        + " AS text_sanitized FROM documents"
)
QUERIES["sanitize_chars"] = q_sanitize_chars
def q_token_count(sf_dir: str):
    """Token counting (single-space split), vectorized."""
    ds = _docs(sf_dir).map_batches(token_count_fn, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_tokens"])
ORACLE_SQL["token_count"] = (
"SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) "
        "AS n_tokens FROM documents"
)
QUERIES["token_count"] = q_token_count
def q_quality_report(sf_dir: str):
    """M8+M9: per-doc quality record (ratio/words/errs, -1 sentinel)."""
    ds = _docs(sf_dir).map_batches(doc_quality_fn, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "hit_ratio", "n_words", "n_errs"])
ORACLE_SQL["quality_report"] = QUALITY_SQL
QUERIES["quality_report"] = q_quality_report
def q_quality_bins(sf_dir: str):
    """A1: 5-bin histogram, bin = min(4, ratio // 15), valid docs only."""

    def _partial(batch: pa.Table) -> pa.Table:
        ratios = batch.column("hit_ratio").to_pylist()
        counts: Dict[int, int] = {}
        for r in ratios:
            if r == -1.0:
                continue
            b = min(4, int(r // 15))
            counts[b] = counts.get(b, 0) + 1
        return pa.table({
            "bin": pa.array(list(counts.keys()), pa.int64()),
            "n_docs": pa.array(list(counts.values()), pa.int64()),
        })

    ds = _docs(sf_dir).map_batches(doc_quality_fn, batch_format="pyarrow")
    partials = ds.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("bin").aggregate(Sum("n_docs"))
    return agg.map_batches(
        lambda b: b.rename_columns(
            ["bin" if c == "bin" else "n_docs" for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
ORACLE_SQL["quality_bins"] = (
"WITH q AS (" + QUALITY_SQL + ") "
        "SELECT LEAST(4, CAST(floor(hit_ratio / 15) AS BIGINT)) AS bin, "
        "CAST(count(*) AS BIGINT) AS n_docs FROM q "
        "WHERE hit_ratio <> -1.0 GROUP BY 1"
)
QUERIES["quality_bins"] = q_quality_bins
def q_corpus_quality_summary(sf_dir: str):
    """A1+A2: corpus mean (round3) + valid/invalid counts, one row."""

    def _partial(batch: pa.Table) -> pa.Table:
        ratios = batch.column("hit_ratio").to_pylist()
        valid = [r for r in ratios if r != -1.0]
        return pa.table({
            "sum_ratio": pa.array([sum(valid)], pa.float64()),
            "n_valid": pa.array([len(valid)], pa.int64()),
            "n_invalid": pa.array([len(ratios) - len(valid)], pa.int64()),
        })

    ds = _docs(sf_dir).map_batches(doc_quality_fn, batch_format="pyarrow")
    total, n_valid, n_invalid = 0.0, 0, 0
    for row in ds.map_batches(_partial, batch_format="pyarrow").iter_rows():
        total += row["sum_ratio"]
        n_valid += row["n_valid"]
        n_invalid += row["n_invalid"]
    mean = round3(total / n_valid) if n_valid else -1.0
    return pa.table({
        "n_valid": pa.array([n_valid], pa.int64()),
        "n_invalid": pa.array([n_invalid], pa.int64()),
        "mean_ratio": pa.array([mean], pa.float64()),
    })
ORACLE_SQL["corpus_quality_summary"] = (
"WITH q AS (" + QUALITY_SQL + ") "
        "SELECT CAST(count(*) FILTER (WHERE hit_ratio <> -1.0) AS BIGINT) AS n_valid, "
        "CAST(count(*) FILTER (WHERE hit_ratio = -1.0) AS BIGINT) AS n_invalid, "
        "floor(avg(hit_ratio) FILTER (WHERE hit_ratio <> -1.0) * 1000.0 + 0.5) / 1000.0 AS mean_ratio "
        "FROM q"
)
QUERIES["corpus_quality_summary"] = q_corpus_quality_summary
def q_quality_heuristics(sf_dir: str):
    """Quality-scoring features (length/short/stopword/mean-token-len)."""
    ds = _docs(sf_dir).map_batches(
        quality_heuristics_fn, batch_format="pyarrow"
    )
    return ds.select_columns(
        ["doc_id", "n_chars_text", "n_tokens", "short_ratio",
         "stop_ratio", "mean_token_len"]
    )
ORACLE_SQL["quality_heuristics"] = (
"WITH t AS (SELECT doc_id, text, string_split(text, ' ') AS toks "
        "FROM documents) "
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars_text, "
        "CAST(len(toks) AS BIGINT) AS n_tokens, "
        "CAST(len(list_filter(toks, x -> length(x) <= 2)) AS DOUBLE) / len(toks) AS short_ratio, "
        "CAST(len(list_filter(toks, x -> x = 'the' OR x = 'a')) AS DOUBLE) / len(toks) AS stop_ratio, "
        "CAST(length(text) - (len(toks) - 1) AS DOUBLE) / len(toks) AS mean_token_len "
        "FROM t"
)
QUERIES["quality_heuristics"] = q_quality_heuristics
def q_pii_redact(sf_dir: str):
    """PII scrub: typed placeholders + per-doc hit counts.

    Vectorized RE2 kernels (Arrow and DuckDB share the dialect), one
    count+replace pass per pattern in contract order.
    """
    from ..stages.pii import pii_redact_fn

    def _fn(batch: pa.Table) -> pa.Table:
        return pii_redact_fn(_pii_augment(batch)).drop_columns(["text"])

    return _docs(sf_dir).map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["pii_redact"] = (
"WITH " + _PII_AUG_CTE + ", " + _PII_CHAIN_CTE +
        " SELECT doc_id, CAST(n_email AS BIGINT) AS n_email, "
        "CAST(n_ip AS BIGINT) AS n_ip, "
        "CAST(n_phone AS BIGINT) AS n_phone, x AS text_redacted FROM r3"
)
QUERIES["pii_redact"] = q_pii_redact
def q_pii_summary(sf_dir: str):
    """Corpus-level PII totals (ONE row, map-side partial combine)."""
    from ..stages.pii import pii_summary

    aug = _docs(sf_dir).map_batches(_pii_augment, batch_format="pyarrow")
    return pii_summary(aug)
ORACLE_SQL["pii_summary"] = (
"WITH " + _PII_AUG_CTE + ", " + _PII_CHAIN_CTE +
        " SELECT CAST(sum(n_email) AS BIGINT) AS n_email, "
        "CAST(sum(n_ip) AS BIGINT) AS n_ip, "
        "CAST(sum(n_phone) AS BIGINT) AS n_phone, "
        "CAST(sum(CASE WHEN n_email + n_ip + n_phone > 0 THEN 1 "
        "ELSE 0 END) AS BIGINT) AS n_docs_hit FROM r3"
)
QUERIES["pii_summary"] = q_pii_summary
def q_nfc_normalize(sf_dir: str):
    """Unicode NFC normalization with a vectorized ASCII fast path.

    The synthetic corpus text is pure ASCII (NFC by definition), so the
    query first plants decomposed accents deterministically ('e' ->
    'e' + U+0301 combining acute) and then normalizes: rows containing
    'e' exercise the Python compose path, the rest ride the zero-copy
    ASCII identity path. The ORACLE applies DuckDB's independent
    ``nfc_normalize`` implementation to the same decomposed input, so
    the compose table itself is load-bearing.
    """
    from ..stages.normalize import nfc_normalize_fn

    def _decompose(batch: pa.Table) -> pa.Table:
        txt = pc.replace_substring(batch.column("text"), "e", "e\u0301")
        return pa.table({"doc_id": batch.column("doc_id"), "text": txt})

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _decompose, batch_format="pyarrow")
    ds = ds.map_batches(nfc_normalize_fn, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "text_nfc"])
ORACLE_SQL["nfc_normalize"] = (
"SELECT doc_id, "
        "nfc_normalize(replace(text, 'e', 'e' || chr(769))) AS text_nfc "
        "FROM documents"
)
QUERIES["nfc_normalize"] = q_nfc_normalize
def q_extraction_flagship(sf_dir: str):
    """FLAGSHIP: the full extraction pipeline, oracle-checked.

    Wraps each document's text into a deterministic HTML page (nav +
    footer boilerplate around one main paragraph), runs the COMPLETE
    chain (DOM parse + boilerplate strip → ordered char/regex
    normalization → finalize → quality scoring) and returns per-url
    extracted text + quality. Because the embedded main content is the
    single-spaced document text (html-escaped in, entity-decoded out)
    and the default replacement tables don't fire on it, the oracle is
    expressible in SQL: extracted_text == text, quality == the
    single-line scoring formula.
    """
    import html as html_mod

    from ..pipelines.extraction import build_pipeline

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls = [f"doc://{i}" for i in ids]
        htmls = [
            (
                "<html><head><title>d</title></head><body>"
                "<nav><ul><li><a href='/x'>Start</a></li></ul></nav>"
                f"<p>{html_mod.escape(t or '')}</p>"
                "<footer><p>Impressum Kontakt</p></footer>"
                "</body></html>"
            ).encode("utf-8")
            for t in texts
        ]
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "lang": batch.column("lang"),
        })

    pages = ds.map_batches(_to_pages, batch_format="pyarrow")
    out = build_pipeline(pages)

    def _cast(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch.column("url"),
            "extracted_text": batch.column("extracted_text"),
            "hit_ratio": batch.column("hit_ratio"),
            "n_words": pc.cast(batch.column("n_words"), pa.int64()),
            "n_errs": pc.cast(batch.column("n_errs"), pa.int64()),
        })

    return out.map_batches(_cast, batch_format="pyarrow")
ORACLE_SQL["extraction_flagship"] = (
"WITH q AS (" + QUALITY_SQL + ") "
        "SELECT 'doc://' || CAST(d.doc_id AS VARCHAR) AS url, "
        "d.text AS extracted_text, q.hit_ratio, q.n_words, q.n_errs "
        "FROM documents d JOIN q USING (doc_id)"
)
QUERIES["extraction_flagship"] = q_extraction_flagship
def q_extraction_wraps(sf_dir: str):
    """M6 dehyphenation, ORACLE-CHECKED end to end.

    Each document's page carries a CONSTRUCTED hyphen wrap: the main
    paragraph is ``tok0-<br>rest`` — so extraction yields two lines,
    the first ending in ``-``. The quality chain merges the wrap
    (``sanitize_wraps``: pop the next line's first token, append sans
    hyphen — `/root/reference/lib/ocr_step.py:472-494`), so
    ``n_wraps=1`` and the scored word string starts with the FUSED
    token ``tok0tok1``; ``extracted_text`` keeps the raw hyphen (M6
    feeds scoring only). The DuckDB twin rebuilds both lines, the
    merge, sanitization and scoring from the original token stream —
    every M6 semantic is load-bearing in the hash.
    """
    import html as html_mod

    from ..pipelines.extraction import build_pipeline

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls = [f"doc://{i}" for i in ids]
        htmls = []
        for t in texts:
            toks = (t or "").split(" ")
            first, rest = toks[0], " ".join(toks[1:])
            htmls.append((
                "<html><body>"
                "<nav><ul><li><a href='/x'>Start</a></li></ul></nav>"
                f"<p>{html_mod.escape(first)}-<br>{html_mod.escape(rest)}</p>"
                "<footer><p>Impressum Kontakt</p></footer>"
                "</body></html>"
            ).encode("utf-8"))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "lang": batch.column("lang"),
        })

    out = build_pipeline(ds.map_batches(_to_pages, batch_format="pyarrow"))

    def _cast(batch: pa.Table) -> pa.Table:
        cols = {"url": batch.column("url"),
                "extracted_text": batch.column("extracted_text"),
                "hit_ratio": batch.column("hit_ratio")}
        for name in ("n_words", "n_errs", "n_lines_in", "n_wraps",
                     "n_shorts", "n_lines_out"):
            cols[name] = pc.cast(batch.column(name), pa.int64())
        return pa.table(cols)

    return out.map_batches(_cast, batch_format="pyarrow")
ORACLE_SQL["extraction_wraps"] = (
"WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks "
        "FROM documents), "
        "l AS (SELECT doc_id, toks, toks[1] || toks[2] AS l1, "
        "array_to_string(toks[3:], ' ') AS l2 FROM t), "
        "s AS (SELECT doc_id, toks, "
        + SANITIZE_SQL.format(col="l1") + " AS s1, "
        + SANITIZE_SQL.format(col="l2") + " AS s2 FROM l), "
        "w AS (SELECT doc_id, toks, s1, s2, array_to_string("
        "list_filter([s1, s2], x -> length(x) > 2), ' ') AS ws FROM s), "
        "q AS (SELECT doc_id, toks, s1, s2, ws, "
        "CASE WHEN ws = '' THEN 0 ELSE len(string_split(ws, ' ')) END AS nw, "
        "CASE WHEN ws = '' THEN 0 ELSE len(list_filter(string_split(ws, ' '), "
        "x -> NOT regexp_matches(x, '^[A-Za-zÄÖÜäöüß]+$'))) END AS ne "
        "FROM w) "
        "SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url, "
        "toks[1] || '-' || chr(10) || array_to_string(toks[2:], ' ') "
        "AS extracted_text, "
        "CASE WHEN nw = 0 THEN -1.0 WHEN nw <= ne THEN 0.0 ELSE "
        "floor(((nw - ne) / CAST(nw AS DOUBLE) * 100.0) * 1000.0 + 0.5) "
        "/ 1000.0 END AS hit_ratio, "
        "CAST(CASE WHEN nw = 0 THEN 0 ELSE nw END AS BIGINT) AS n_words, "
        "CAST(CASE WHEN nw = 0 THEN 0 ELSE ne END AS BIGINT) AS n_errs, "
        "CAST(CASE WHEN nw = 0 THEN 0 ELSE 2 END AS BIGINT) AS n_lines_in, "
        "CAST(CASE WHEN nw = 0 THEN 0 ELSE 1 END AS BIGINT) AS n_wraps, "
        "CAST(CASE WHEN nw = 0 THEN 0 ELSE "
        "2 - len(list_filter([s1, s2], x -> length(x) > 2)) END AS BIGINT) "
        "AS n_shorts, "
        "CAST(CASE WHEN nw = 0 THEN 0 ELSE "
        "len(list_filter([s1, s2], x -> length(x) > 2)) END AS BIGINT) "
        "AS n_lines_out "
        "FROM q"
)
QUERIES["extraction_wraps"] = q_extraction_wraps
def q_quality_rank(sf_dir: str):
    """Global ``ROW_NUMBER`` + ``NTILE(4)`` over the whole corpus by
    ``(n_chars, doc_id)`` — the window function a curriculum /
    percentile-gate pipeline needs. Physical plan = the distributed
    zipWithIndex shape (`stages/rank.py`): one range-partitioned
    sort, block offsets from METADATA only, one task per block to
    attach ranks; NTILE derived from the rank in exact integer
    arithmetic (ANSI semantics)."""
    from ..stages.rank import global_rank

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    ranked = global_rank(ds, ["n_chars", "doc_id"], ntile_k=4,
                         rank_col="rnk", ntile_col="tile")

    def _shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
            "rnk": batch.column("rnk"),
            "tile": batch.column("tile"),
        })

    # no display sort: the output is corpus-sized, already in a
    # deterministic (score, doc_id) order, and the gate's compare is
    # order-insensitive — a second full exchange would be pure waste
    return ranked.map_batches(_shape, batch_format="pyarrow")
ORACLE_SQL["quality_rank"] = (
"SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
        "CAST(row_number() OVER (ORDER BY n_chars, doc_id) AS BIGINT) "
        "AS rnk, "
        "CAST(ntile(4) OVER (ORDER BY n_chars, doc_id) AS BIGINT) "
        "AS tile FROM documents ORDER BY doc_id"
)
QUERIES["quality_rank"] = q_quality_rank
def q_source_extract(sf_dir: str):
    """Vectorized RE2 field extraction (stages/textstats.py
    ``regex_extract_fn``): numeric suffix of the source tag + first
    b-word of the text, both via the C++ extract_regex kernel with
    DuckDB regexp_extract parity ('' on no-match, NULL on NULL) —
    the log/URL field-parsing operator, row-local."""
    from ..stages.textstats import regex_extract_fn

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        out = regex_extract_fn(batch, "source",
                               r"^src(?P<src_num>\d+)$")
        out = regex_extract_fn(out, "text",
                               r"\b(?P<first_b>b[a-z]+)")
        return out.select(["doc_id", "src_num", "first_b"])

    return docs.map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["source_extract"] = (
"SELECT doc_id, "
        "regexp_extract(source, '^src(\\d+)$', 1) AS src_num, "
        "regexp_extract(text, '\\b(b[a-z]+)', 1) AS first_b "
        "FROM documents"
)
QUERIES["source_extract"] = q_source_extract
def q_extraction_boilerplate(sf_dir: str):
    """Boilerplate-stripping oracle: every drop rule is LOAD-BEARING.

    Wraps each document in HTML where the extractor must (a) drop a
    class-matched sidebar (``class="sidebar promo"``), (b) drop a
    pure-link nav list via link density, (c) drop a 1-char line via
    ``min_len``, (d) reverse an ``dir="rtl"`` line's token order, and
    keep exactly three content lines. Unlike the flagship identity
    oracle, a regression in ANY of those classifiers changes
    ``extracted_text`` and fails the DuckDB hash.
    """
    import html as html_mod

    from ..pipelines.extraction import build_pipeline

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls = [f"doc://{i}" for i in ids]
        htmls = [
            (
                "<html><body>"
                "<div class='sidebar promo'><p>Best offers here now</p></div>"
                "<ul><li><a href='/1'>Home</a></li>"
                "<li><a href='/2'>Kontakt hier</a></li></ul>"
                f"<p>{html_mod.escape(t or '')}</p>"
                "<p>x</p>"
                f"<p>doc {i} end</p>"
                "<p dir='rtl'>aleph bet gimel</p>"
                "<footer><p>Impressum</p></footer>"
                "</body></html>"
            ).encode("utf-8")
            for i, t in zip(ids, texts)
        ]
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "lang": batch.column("lang"),
        })

    pages = ds.map_batches(_to_pages, batch_format="pyarrow")
    out = build_pipeline(pages)
    return out.select_columns(["url", "extracted_text"])
ORACLE_SQL["extraction_boilerplate"] = (
"SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url, "
        "(CASE WHEN text = '' THEN '' ELSE text || chr(10) END) || "
        "'doc ' || CAST(doc_id AS VARCHAR) || ' end' || chr(10) || "
        "'gimel bet aleph' AS extracted_text "
        "FROM documents"
)
QUERIES["extraction_boilerplate"] = q_extraction_boilerplate
def q_extraction_alto_roundtrip(sf_dir: str):
    """XML-dialect extraction, ORACLE-CHECKED: each document is
    serialized to ALTO v4 with the engine's own S4 emitter, then the
    FULL pipeline must sniff the dialect, parse it back and reproduce
    the text byte-identically — pinning the ALTO reader (namespace
    sniff, String/TextLine traversal) under the DuckDB gate, not just
    pytest."""
    from ..functions.xmlout import doc_to_alto_xml
    from ..pipelines.extraction import build_pipeline

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls = [f"doc://{i}" for i in ids]
        payloads = [
            doc_to_alto_xml(
                str(i), f"p{i}",
                [{"line_id": "l00000", "text": t or "",
                  "hpos": 80, "vpos": 100,
                  "width": 12 * len(t or ""), "height": 24}],
            )
            for i, t in zip(ids, texts)
        ]
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "lang": batch.column("lang"),
        })

    pages = ds.map_batches(_to_pages, batch_format="pyarrow")
    out = build_pipeline(pages)
    return out.select_columns(["url", "extracted_text"])
ORACLE_SQL["extraction_alto_roundtrip"] = (
"SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url, "
        "text AS extracted_text FROM documents"
)
QUERIES["extraction_alto_roundtrip"] = q_extraction_alto_roundtrip
def q_extraction_page_roundtrip(sf_dir: str):
    """PAGE-dialect extraction, ORACLE-CHECKED: documents wrapped in
    PAGE 2019 XML (TextLine/TextEquiv/Unicode, no Word elements — the
    whole text is ONE token per reference parity) must sniff, parse
    and reproduce the text byte-identically."""
    from xml.sax.saxutils import escape

    from ..pipelines.extraction import build_pipeline

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls = [f"doc://{i}" for i in ids]
        payloads = [
            (
                f'<?xml version="1.0"?><PcGts xmlns="{PAGE_NS}">'
                "<Page><TextRegion>"
                f'<TextLine id="l{i}">'
                '<Coords points="80,100 500,100 500,124 80,124"/>'
                f"<TextEquiv><Unicode>{escape(t or '')}</Unicode></TextEquiv>"
                "</TextLine></TextRegion></Page></PcGts>"
            ).encode("utf-8")
            for i, t in zip(ids, texts)
        ]
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "lang": batch.column("lang"),
        })

    pages = ds.map_batches(_to_pages, batch_format="pyarrow")
    out = build_pipeline(pages)
    return out.select_columns(["url", "extracted_text"])
ORACLE_SQL["extraction_page_roundtrip"] = (
"SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url, "
        "text AS extracted_text FROM documents"
)
QUERIES["extraction_page_roundtrip"] = q_extraction_page_roundtrip
def q_extraction_pdf_roundtrip(sf_dir: str):
    """PDF-dialect extraction, ORACLE-CHECKED: each document's text
    is typeset into a REAL multi-page PDF (FlateDecode content
    streams, page tree, xref) with the engine's own writer
    (``functions/pdf.py``), then the FULL pipeline must sniff the
    ``%PDF-`` header, walk the page tree, decompress and interpret
    the content streams (BT/Tf/TL/Td/T*/Tj) and reproduce the text
    byte-identically — pinning the "PDF/layout parse" leg under the
    DuckDB gate exactly like the ALTO/PAGE roundtrips. Lines are 8
    tokens each (4 per page → most docs span 2-4 pages); the parsed
    lines re-join with spaces to reconstruct the original text."""
    from ..functions.pdf import doc_to_pdf
    from ..pipelines.extraction import build_pipeline

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        payloads = []
        for t in texts:
            toks = (t or "").split(" ")
            lines = [" ".join(toks[i:i + 8])
                     for i in range(0, len(toks), 8)]
            # a tail line shorter than min_len would be dropped by
            # the extractor's line filter — merge it back instead
            if len(lines) > 1 and len(lines[-1]) < 2:
                lines[-2:] = [lines[-2] + " " + lines[-1]]
            payloads.append(doc_to_pdf(lines, lines_per_page=4))
        return pa.table({
            "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "lang": batch.column("lang"),
        })

    def _rejoin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch.column("url"),
            "extracted_text": pc.replace_substring(
                batch.column("extracted_text"), "\n", " "),
        })

    pages = ds.map_batches(_to_pages, batch_format="pyarrow")
    out = build_pipeline(pages)
    return out.select_columns(["url", "extracted_text"]).map_batches(
        _rejoin, batch_format="pyarrow")
ORACLE_SQL["extraction_pdf_roundtrip"] = (
"SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url, "
        "text AS extracted_text FROM documents"
)
QUERIES["extraction_pdf_roundtrip"] = q_extraction_pdf_roundtrip
def q_deobfuscate(sf_dir: str):
    """Homoglyph de-obfuscation: Cyrillic look-alikes planted into
    every doc whose id % 4 == 0 ('a'→'а', 'e'→'е'); the cleaner must
    restore them (and leave pure-ASCII rows on the zero-copy path).
    Oracle: DuckDB translate() over the full confusable alphabet."""
    from ..stages.normalize import CONFUSABLES, deobfuscate_fn

    def _plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        t = pc.fill_null(batch.column("text"), "")
        dirty = pc.replace_substring(
            pc.replace_substring(t, "a", "а"), "e", "е")
        text = pc.if_else(pc.equal(_int_mod(ids, 4), 0), dirty, t)
        return pa.table({"doc_id": ids, "text": text})

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _plant, batch_format="pyarrow")
    out = ds.map_batches(deobfuscate_fn, batch_format="pyarrow")
    return out.select_columns(["doc_id", "text_clean"])
ORACLE_SQL["deobfuscate"] = _confusable_sql()
QUERIES["deobfuscate"] = q_deobfuscate
def q_meta_extract(sf_dir: str):
    """HTML metadata extraction: title (entity decode load-bearing),
    meta description (both attribute orders), canonical link and
    og:title, with per-variant missing fields → NULL. Oracle derives
    every expected value from the planting formulas."""
    from ..stages.web import meta_extract_fn

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        htmls = []
        for i in ids:
            v = i % 4
            title = f"T{i} &amp; Co" if v == 2 else f"T{i}"
            parts = [f"<html><head><title> {title} </title>"]
            if v == 0:
                parts.append(f'<meta name="description" content="D{i % 7}">')
            elif v == 2:
                parts.append(f'<meta content="D{i % 7}" name="description">')
            if v in (0, 1):
                parts.append(
                    f'<link rel="canonical" '
                    f'href="https://c{i % 5}.example.com/p">')
            if v in (0, 3):
                parts.append(f'<meta property="og:title" content="OG{i % 3}">')
            parts.append("</head><body><p>x</p></body></html>")
            htmls.append("".join(parts).encode("utf-8"))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "html": pa.array(htmls, pa.binary()),
        })

    pages = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aug, batch_format="pyarrow")
    return pages.map_batches(meta_extract_fn, batch_format="pyarrow")
ORACLE_SQL["meta_extract"] = """
SELECT doc_id,
  'T' || CAST(doc_id AS VARCHAR)
    || CASE WHEN doc_id % 4 = 2 THEN ' & Co' ELSE '' END AS title,
  CASE WHEN doc_id % 4 IN (0, 2)
       THEN 'D' || CAST(doc_id % 7 AS VARCHAR) END AS description,
  CASE WHEN doc_id % 4 IN (0, 1)
       THEN 'https://c' || CAST(doc_id % 5 AS VARCHAR)
            || '.example.com/p' END AS canonical,
  CASE WHEN doc_id % 4 IN (0, 3)
       THEN 'OG' || CAST(doc_id % 3 AS VARCHAR) END AS og_title
FROM documents
"""
QUERIES["meta_extract"] = q_meta_extract
def q_html_tables(sf_dir: str):
    """Table extraction: formula-planted tables (doc_id % 3 tables of
    (1 + doc_id % 3) rows × (2 + doc_id % 2) cols; every 5th doc's
    cells wrap their text in an <a> tag — the strip is load-bearing);
    oracle regenerates every cell from the formulas."""
    from ..stages.web import table_cells_fn

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        htmls = []
        for i in ids:
            n_t, n_r, n_c = i % 3, 1 + i % 3, 2 + i % 2
            parts = ["<html><body><p>text</p>"]
            for t in range(n_t):
                parts.append("<table>")
                for r in range(n_r):
                    parts.append("<tr>")
                    for c in range(n_c):
                        v = f"c{t}_{r}_{c}_{i % 10}"
                        if i % 5 == 0:
                            v = f'<a href="/x"> {v} </a>'
                        tag = "th" if r == 0 else "td"
                        parts.append(f"<{tag}>{v}</{tag}>")
                    parts.append("</tr>")
                parts.append("</table>")
            parts.append("</body></html>")
            htmls.append("".join(parts).encode("utf-8"))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "html": pa.array(htmls, pa.binary()),
        })

    pages = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aug, batch_format="pyarrow")
    return pages.map_batches(table_cells_fn, batch_format="pyarrow")
ORACLE_SQL["html_tables"] = """
SELECT d.doc_id, t.t AS tbl, r.r AS row, c.c AS col,
  'c' || CAST(t.t AS VARCHAR) || '_' || CAST(r.r AS VARCHAR)
    || '_' || CAST(c.c AS VARCHAR) || '_'
    || CAST(d.doc_id % 10 AS VARCHAR) AS cell
FROM documents d,
  LATERAL unnest(generate_series(0, d.doc_id % 3 - 1)) AS t(t),
  LATERAL unnest(generate_series(0, d.doc_id % 3)) AS r(r),
  LATERAL unnest(generate_series(0, 1 + d.doc_id % 2)) AS c(c)
"""
QUERIES["html_tables"] = q_html_tables
def q_fix_mojibake(sf_dir: str):
    """Mojibake repair (stages/normalize.fix_mojibake_fn):
    double-encoded UTF-8 — text written as UTF-8 but read back as
    cp1252 ('Ã©' for 'é', 'â€™' for the right single quote) — is
    repaired by the ordered literal replace chain over the COMPUTED
    digraph table (every pair derived from target.utf8→cp1252, not
    hand-typed). Every 5th doc gets two planted digraphs; the oracle
    replays the identical plant + the identical repair chain, so a
    wrong pair, wrong order, or partial table cannot pass.
    Row-local, no shuffle."""
    from ..stages.normalize import fix_mojibake_fn

    def _plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        t = pc.fill_null(batch.column("text"), "")
        dirty = pc.replace_substring(
            pc.replace_substring(t, "a", "Ã¡"), "o", "Ã³")
        text = pc.if_else(pc.equal(_int_mod(ids, 5), 0), dirty, t)
        return pa.table({"doc_id": ids, "text": text})

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _plant, batch_format="pyarrow")
    return ds.map_batches(
        fix_mojibake_fn, batch_format="pyarrow"
    ).select_columns(["doc_id", "text_fixed"])
ORACLE_SQL["fix_mojibake"] = _mojibake_sql()
QUERIES["fix_mojibake"] = q_fix_mojibake
