"""End-to-end composite pipelines, splits, curation gates and the
``--audit`` host rollups (split from queries.py; keys unchanged)."""
from __future__ import annotations

import hashlib
import os
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum
from ..stages.dedup import fingerprint_fn
from ..stages.textstats import quality_heuristics_fn
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_mix_sample(sf_dir: str):
    """Deterministic data-mix rebalance: downsample the skewed lang
    distribution (~40% en) toward an even 5-way mix. One exact group
    count + one row-local integer hash-coin filter — zero shuffles
    (``stages/stats.mix_sample``).
    """
    from ..stages.stats import mix_sample

    docs = _docs(sf_dir, columns=["doc_id", "lang"])
    return mix_sample(
        docs, group_col="lang",
        weights={"en": 1, "de": 1, "fr": 1, "es": 1, "zh": 1},
        key_col="doc_id")
ORACLE_SQL["mix_sample"] = (
    "WITH n AS (SELECT lang, CAST(count(*) AS BIGINT) AS c "
    "FROM documents GROUP BY lang), "
    "t AS (SELECT min(c * 5) AS t FROM n), "
    "r AS (SELECT n.lang, (t.t * 4294967296) // (5 * n.c) AS rate "
    "FROM n, t), "
    "h AS (SELECT doc_id, lang, "
    "CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) "
    "AS UBIGINT) AS BIGINT) AS hv FROM documents) "
    "SELECT h.doc_id, h.lang FROM h JOIN r USING (lang) "
    "WHERE h.hv < r.rate"
)
QUERIES["mix_sample"] = q_mix_sample
def q_lm_score(sf_dir: str):
    """CCNet-style bigram-LM document scoring (integer-exact).

    Train = one corpus pass of map-side Counters into two small
    groupbys (unigram counts + min_count-pruned bigram model); score
    = one broadcast-model corpus pass, zero shuffles. ``mean_ipp``
    is the add-one-smoothed mean inverse conditional probability
    ×1e6 in pure int64 — the perplexity-gate signal without the
    float-log hash hazard (see stages/lm.py; a no-memory-assumption
    ``join="shuffle"`` twin is equivalence-tested in pytest).
    """
    from ..stages.lm import lm_score, train_bigram_lm

    ds = _docs(sf_dir)
    uni, bi, vocab = train_bigram_lm(ds, min_count=LM_MIN_COUNT)
    return lm_score(ds, uni, bi, vocab, scale=LM_SCALE)
ORACLE_SQL["lm_score"] = _lm_score_sql(LM_MIN_COUNT, LM_SCALE)
QUERIES["lm_score"] = q_lm_score
def q_lm_buckets(sf_dir: str):
    """CCNet's head/middle/tail corpus partition, end to end: bigram
    LM scoring -> exact tercile cuts over the scored docs -> row-local
    bucket map. The full chain is one oracle (train + score + exact
    quantiles + bucketing all load-bearing in the SQL twin)."""
    from ..stages.bucketed import checkpoint_bucketed
    from ..stages.lm import lm_score, train_bigram_lm
    from ..stages.stats import exact_quantiles

    ds = _docs(sf_dir)
    uni, bi, vocab = train_bigram_lm(ds, min_count=LM_MIN_COUNT)
    # score the corpus ONCE; the per-doc score table has two
    # consumers (tercile cuts + bucket map), so checkpoint it to
    # bucketed parquet instead of pinning corpus-row-count rows
    scored = checkpoint_bucketed(
        lm_score(ds, uni, bi, vocab, scale=LM_SCALE),
        f"lmbuckets_{os.path.basename(os.path.normpath(sf_dir))}",
        key_col="doc_id")

    def _scored_only(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("mean_ipp"), pa.scalar(0)))

    ok = scored.map_batches(_scored_only, batch_format="pyarrow")
    qt = exact_quantiles(ok, "mean_ipp", [0.33, 0.66])
    cuts = dict(zip(qt.column("q").to_pylist(),
                    qt.column("value").to_pylist()))
    c1, c2 = cuts[0.33], cuts[0.66]

    def _bucket(batch: pa.Table) -> pa.Table:
        import numpy as np

        m = batch.column("mean_ipp").combine_chunks().to_numpy() \
            .astype(np.int64)
        lab = np.where(
            m < 0, "unscored",
            np.where(m <= c1, "head",
                     np.where(m <= c2, "middle", "tail")))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "mean_ipp": batch.column("mean_ipp"),
            "bucket": pa.array(lab.tolist(), pa.string()),
        })

    return scored.map_batches(_bucket, batch_format="pyarrow")
ORACLE_SQL["lm_buckets"] = (
    "WITH scored AS (SELECT * FROM ("
    + _lm_score_sql(LM_MIN_COUNT, LM_SCALE) +
    ") s0), cuts AS (SELECT "
    "quantile_disc(mean_ipp, 0.33) AS c1, "
    "quantile_disc(mean_ipp, 0.66) AS c2 "
    "FROM scored WHERE mean_ipp >= 0) "
    "SELECT s.doc_id, s.mean_ipp, "
    "CASE WHEN s.mean_ipp < 0 THEN 'unscored' "
    "WHEN s.mean_ipp <= cuts.c1 THEN 'head' "
    "WHEN s.mean_ipp <= cuts.c2 THEN 'middle' "
    "ELSE 'tail' END AS bucket FROM scored s, cuts"
)
QUERIES["lm_buckets"] = q_lm_buckets
def q_corpus_filter(sf_dir: str):
    """C4-style training-corpus quality FILTER, oracle-checked: keep
    documents passing vectorized heuristic gates (min length, token
    count, bounded short-token ratio, bounded mean token length) —
    the canonical cleaning step ahead of dedup/split in a web-scale
    data pipeline. Pure row-local predicate: no shuffle, prunes at
    full scan speed."""
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])

    def _fn(batch: pa.Table) -> pa.Table:
        feats = quality_heuristics_fn(batch)
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(feats.column("n_tokens"), 30),
                pc.greater_equal(feats.column("n_chars_text"), 200),
            ),
            pc.and_(
                pc.less_equal(feats.column("short_ratio"), 0.30),
                pc.less_equal(feats.column("mean_token_len"), 12.0),
            ),
        )
        f = feats.filter(keep)
        return pa.table({
            "doc_id": f.column("doc_id"),
            "lang": f.column("lang"),
            "n_tokens": f.column("n_tokens"),
            "n_chars_text": f.column("n_chars_text"),
        })

    return ds.map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["corpus_filter"] = (
"WITH t AS (SELECT doc_id, lang, text, string_split(text, ' ') "
        "AS toks FROM documents), "
        "f AS (SELECT doc_id, lang, "
        "CAST(length(text) AS BIGINT) AS n_chars_text, "
        "CAST(len(toks) AS BIGINT) AS n_tokens, "
        "CAST(len(list_filter(toks, x -> length(x) <= 2)) AS DOUBLE) "
        "/ len(toks) AS short_ratio, "
        "CAST(length(text) - (len(toks) - 1) AS DOUBLE) / len(toks) "
        "AS mean_token_len FROM t) "
        "SELECT doc_id, lang, n_tokens, n_chars_text FROM f "
        "WHERE n_tokens >= 30 AND n_chars_text >= 200 "
        "AND short_ratio <= 0.30 AND mean_token_len <= 12.0"
)
QUERIES["corpus_filter"] = q_corpus_filter
def q_quality_classifier(sf_dir: str):
    """fastText-style linear quality scoring (stages/textstats.py
    ``linear_score``): integer logit = <hashing-trick vector,
    fixed int weights> + bias, row-local at scan speed. The weights
    here are a deterministic surrogate (w[d] = (d*37) % 21 - 10) so
    the full model-scoring arithmetic is oracle-pinned bit-for-bit;
    a trained model drops into the same operator."""
    from ..stages.textstats import linear_score

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    w = [((d * 37) % 21) - 10 for d in range(64)]
    return linear_score(docs, w, bias=3)
ORACLE_SQL["quality_classifier"] = (
"WITH toks AS (SELECT doc_id, "
        "unnest(string_split(text, ' ')) AS tok FROM documents), "
        "h AS (SELECT doc_id, CAST(CAST(('0x' || substr(md5(tok), 1, "
        "8)) AS UBIGINT) AS BIGINT) AS hv FROM toks), "
        "cells AS (SELECT doc_id, hv % 64 AS d, CASE WHEN "
        "(hv // 65536) % 2 = 1 THEN 1 ELSE -1 END AS sgn FROM h), "
        "dots AS (SELECT doc_id, sum(sgn * (((d * 37) % 21) - 10)) "
        "AS dot FROM cells GROUP BY doc_id) "
        "SELECT d.doc_id, CAST(COALESCE(dt.dot, 0) + 3 AS BIGINT) "
        "AS logit, (COALESCE(dt.dot, 0) + 3 >= 0) AS label "
        "FROM documents d LEFT JOIN dots dt ON d.doc_id = dt.doc_id"
)
QUERIES["quality_classifier"] = q_quality_classifier
def q_training_pipeline(sf_dir: str):
    """END-TO-END training-data pipeline, ORACLE-CHECKED as one chain:

    extraction (full HTML chain, byte-identical text) → C4-style
    quality filter → exact dedup (first-wins by content hash) →
    deterministic content-hash train/val/test split. Every stage is
    load-bearing in the single DuckDB hash. The dedup and the split
    are the rules the CLI's ``--training-data`` tail runs; its gate
    is the ``hit_ratio`` threshold instead of this quality filter.
    """
    import html as html_mod

    from ..config import StepSpec
    from ..pipelines.extraction import build_pipeline
    from ..stages.dedup import dedup_first

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def _to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({
            "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "html": pa.array([
                (
                    "<html><body>"
                    "<nav><ul><li><a href='/x'>Start</a></li></ul></nav>"
                    f"<p>{html_mod.escape(t or '')}</p>"
                    "<footer><p>Impressum Kontakt</p></footer>"
                    "</body></html>"
                ).encode("utf-8")
                for t in texts
            ], pa.binary()),
            "lang": batch.column("lang"),
        })

    # replace-free step chain: extraction must be IDENTITY on the
    # embedded text for the oracle to chain from documents.text — the
    # default ReplaceChars/regex tables would rewrite any text that
    # happens to contain their triggers ('<', 'ic)', letter+'3'+'"')
    extracted = build_pipeline(
        ds.map_batches(_to_pages, batch_format="pyarrow"),
        steps=[StepSpec("HtmlExtract", {}), StepSpec("FinalizeText", {}),
               StepSpec("QualityEstimate", {})],
    )

    def _project_and_filter(batch: pa.Table) -> pa.Table:
        ids = [int(u[len("doc://"):])
               for u in batch.column("url").to_pylist()]
        tbl = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": batch.column("extracted_text"),
        })
        feats = quality_heuristics_fn(tbl)
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(feats.column("n_tokens"), 30),
                pc.greater_equal(feats.column("n_chars_text"), 200),
            ),
            pc.and_(
                pc.less_equal(feats.column("short_ratio"), 0.30),
                pc.less_equal(feats.column("mean_token_len"), 12.0),
            ),
        )
        return tbl.filter(keep)

    filtered = extracted.map_batches(_project_and_filter,
                                     batch_format="pyarrow")

    deduped = dedup_first(
        filtered.map_batches(fingerprint_fn, batch_format="pyarrow"),
        key_col="fp", order_col="doc_id")

    def _finish(batch: pa.Table) -> pa.Table:
        buckets = [int(fp[:8], 16) % 100
                   for fp in batch.column("fp").to_pylist()]
        splits = ["train" if b < 90 else ("val" if b < 95 else "test")
                  for b in buckets]
        n_tokens = [len((t or "").split(" "))
                    for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "split": pa.array(splits, pa.string()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
        })

    return deduped.map_batches(_finish, batch_format="pyarrow")
ORACLE_SQL["training_pipeline"] = (
"WITH q AS (SELECT doc_id, text, string_split(text, ' ') AS tk "
        "FROM documents), "
        "f AS (SELECT doc_id, text FROM q "
        "WHERE len(tk) >= 30 AND length(text) >= 200 "
        "AND CAST(len(list_filter(tk, x -> length(x) <= 2)) AS DOUBLE) "
        "/ len(tk) <= 0.30 "
        "AND CAST(length(text) - (len(tk) - 1) AS DOUBLE) / len(tk) "
        "<= 12.0), "
        "d AS (SELECT doc_id, text FROM f QUALIFY row_number() OVER ("
        "PARTITION BY md5(text) ORDER BY doc_id) = 1) "
        "SELECT doc_id, "
        "CASE WHEN CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) "
        "% 100 < 90 THEN 'train' "
        "WHEN CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) "
        "% 100 < 95 THEN 'val' ELSE 'test' END AS split, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens "
        "FROM d"
)
QUERIES["training_pipeline"] = q_training_pipeline
def q_dataset_split(sf_dir: str):
    """Deterministic content-hash train/val/test split (90/5/5).

    The split key is md5 of the CONTENT (not the id), so exact
    duplicates always land in the same split — no train/test leakage
    through duplicated documents; fully reproducible with no RNG
    state. Bucket = first 8 md5 hex chars as an integer, mod 100.
    """

    def _fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        buckets = [
            int(hashlib.md5((t or "").encode("utf-8")).hexdigest()[:8], 16)
            % 100
            for t in texts
        ]
        splits = [
            "train" if b < 90 else ("val" if b < 95 else "test")
            for b in buckets
        ]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "bucket": pa.array(buckets, pa.int64()),
            "split": pa.array(splits, pa.string()),
        })

    return _docs(sf_dir).map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["dataset_split"] = (
"SELECT doc_id, "
        "CAST(CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) % 100 "
        "AS BIGINT) AS bucket, "
        "CASE WHEN CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) % 100 "
        "< 90 THEN 'train' "
        "WHEN CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) % 100 "
        "< 95 THEN 'val' ELSE 'test' END AS split "
        "FROM documents"
)
QUERIES["dataset_split"] = q_dataset_split
def q_dsir_weights(sf_dir: str):
    """DSIR importance scores (stages/dsir.py, Xie et al. 2023):
    hashed-unigram target-vs-raw log-likelihood ratio per doc, target
    = lang 'en'. Two streaming passes (bincount partials driver-fold
    → broadcast 256-bucket int64 micro-nat weight table → vectorized
    per-doc sums); NO shuffle. Bit-exact vs the DuckDB twin because
    per-doc sums are int64."""
    from ..stages.dsir import dsir_scores

    def _mark(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "is_target",
            pc.equal(pc.fill_null(batch.column("lang"), ""), "en"),
        )

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"]).map_batches(
        _mark, batch_format="pyarrow")
    return dsir_scores(ds, dim=256).sort("doc_id")
ORACLE_SQL["dsir_weights"] = (
    "WITH tok AS (SELECT doc_id, CAST(CAST(('0x' || substr(md5(t), 1, 8))"
    " AS UBIGINT) % 256 AS BIGINT) AS bucket, is_tgt FROM ("
    "SELECT doc_id, lang = 'en' AS is_tgt, "
    "unnest(string_split(text, ' ')) AS t "
    "FROM documents WHERE text IS NOT NULL)), "
    "cnt AS (SELECT bucket, count(*) AS n_raw, "
    "coalesce(count(*) FILTER (is_tgt), 0) AS n_tgt "
    "FROM tok GROUP BY bucket), "
    "tot AS (SELECT sum(n_raw) AS t_raw, sum(n_tgt) AS t_tgt FROM cnt), "
    "w AS (SELECT bucket, CAST(floor((ln((n_tgt + 1) / (t_tgt + 256.0)) "
    "- ln((n_raw + 1) / (t_raw + 256.0))) * 1e6 + 0.5) AS BIGINT) AS wt "
    "FROM cnt CROSS JOIN tot) "
    "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
    "CAST(sum(wt) AS BIGINT) AS dsir_micro_nats "
    "FROM tok JOIN w USING (bucket) GROUP BY doc_id ORDER BY doc_id"
)
QUERIES["dsir_weights"] = q_dsir_weights
def q_filter_cascade(sf_dir: str):
    """Curation filter-funnel audit (stages/profile.filter_cascade):
    per-gate n_in/n_kept with first-fail attribution over a 3-gate
    cascade (language allowlist → min chars → min tokens) — one
    streaming pass, (k+1)-row partials, no data shuffle. The oracle
    reproduces the funnel with a first-fail CASE + window-free
    count arithmetic."""
    from ..stages.profile import filter_cascade

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars", "text"])

    def _lang(batch):
        return pc.is_in(
            batch.column("lang"),
            value_set=pa.array(["en", "de", "fr"])
        ).to_numpy(zero_copy_only=False)

    def _chars(batch):
        return pc.greater_equal(
            batch.column("n_chars"), 120
        ).to_numpy(zero_copy_only=False)

    def _tokens(batch):
        n_tok = pc.add(pc.count_substring(
            batch.column("text"), " "), 1)
        return pc.greater_equal(n_tok, 25).to_numpy(
            zero_copy_only=False)

    return filter_cascade(ds, [
        ("lang_gate", _lang),
        ("min_chars", _chars),
        ("min_tokens", _tokens),
    ])
ORACLE_SQL["filter_cascade"] = (
    "WITH ff AS (SELECT CASE "
    "WHEN NOT (lang IN ('en', 'de', 'fr')) THEN 0 "
    "WHEN NOT (n_chars >= 120) THEN 1 "
    "WHEN NOT (len(string_split(text, ' ')) >= 25) THEN 2 "
    "ELSE 3 END AS f FROM documents), "
    "c AS (SELECT f, CAST(count(*) AS BIGINT) AS n FROM ff "
    "GROUP BY 1), "
    "tot AS (SELECT CAST(count(*) AS BIGINT) AS t FROM documents), "
    "s AS (SELECT unnest(generate_series(0, 2)) AS stage) "
    "SELECT CAST(s.stage AS BIGINT) AS stage, "
    "CASE s.stage WHEN 0 THEN 'lang_gate' WHEN 1 THEN 'min_chars' "
    "ELSE 'min_tokens' END AS stage_name, "
    "CAST(tot.t - COALESCE((SELECT sum(n) FROM c "
    "WHERE f < s.stage), 0) AS BIGINT) AS n_in, "
    "CAST(tot.t - COALESCE((SELECT sum(n) FROM c "
    "WHERE f <= s.stage), 0) AS BIGINT) AS n_kept "
    "FROM s, tot ORDER BY s.stage"
)
QUERIES["filter_cascade"] = q_filter_cascade
def q_frontier_pipeline(sf_dir: str):
    """END-TO-END crawl-frontier build, every stage load-bearing and
    checked as ONE oracle hash: augmented urls (deep paths + query
    strings) → robots disallow gate (web.robots_filter, broadcast
    rules) → URL features (web.url_features_fn) → per-host crawl
    budget of 3, shallowest-first (dedup.group_cap) → politeness-
    preserving fetcher placement (hashing.rendezvous_pick on the
    HOST, so one host never splits across fetchers)."""
    from ..functions.hashing import rendezvous_pick
    from ..stages.dedup import group_cap
    from ..stages.web import robots_filter, url_features_fn, url_host_fn

    hosts, prefixes = [], []
    for h in range(97):
        host = f"host{h}.example.com"
        if h % 3 == 0:
            hosts.append(host)
            prefixes.append("/p/1")
        if h % 5 == 0:
            hosts.append(host)
            prefixes.append("/p/2")
        if h % 7 == 0:
            hosts.append(host)
            prefixes.append("/p/33")
    rules = pa.table({"host": pa.array(hosts, pa.string()),
                      "prefix": pa.array(prefixes, pa.string())})

    def _extend(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        url = batch.column("url")
        deep = pc.equal(_int_mod(ids, 5), 2)
        url = pc.if_else(
            deep,
            pc.binary_join_element_wise(url, "/long/tail/seg", ""),
            url)
        q = pc.equal(_int_mod(ids, 4), 1)
        url = pc.if_else(
            q,
            pc.binary_join_element_wise(
                url, "?utm_source=feed&ref=rss", ""),
            url)
        return pa.table({"doc_id": ids, "url": url})

    nodes = [f"fetcher-{i}" for i in range(4)]

    def _place(batch: pa.Table) -> pa.Table:
        host = batch.column("host").to_pylist()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "host": batch.column("host"),
            "node": pa.array(rendezvous_pick(host, nodes),
                             pa.string()),
        })

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(_extend, batch_format="pyarrow")
    ds = robots_filter(ds, rules)
    ds = ds.map_batches(lambda b: url_features_fn(b),
                        batch_format="pyarrow")
    ds = ds.map_batches(lambda b: url_host_fn(b),
                        batch_format="pyarrow")
    ds = group_cap(ds, "host", order_col=["path_depth", "doc_id"],
                   k=3)
    return ds.map_batches(_place, batch_format="pyarrow").sort(
        "doc_id")
ORACLE_SQL["frontier_pipeline"] = (
    "WITH hs AS (SELECT unnest(range(0, 97)) AS h), "
    "rules AS ("
    "SELECT 'host' || CAST(h AS VARCHAR) || '.example.com' AS host, "
    "'/p/1' AS prefix FROM hs WHERE h % 3 = 0 "
    "UNION ALL SELECT 'host' || CAST(h AS VARCHAR) || '.example.com', "
    "'/p/2' FROM hs WHERE h % 5 = 0 "
    "UNION ALL SELECT 'host' || CAST(h AS VARCHAR) || '.example.com', "
    "'/p/33' FROM hs WHERE h % 7 = 0), "
    "u AS (SELECT doc_id, "
    "'host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) || '.example.com' "
    "AS host, '/p/' || CAST(doc_id AS VARCHAR) AS path_head, "
    "'http://host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) || "
    "'.example.com/p/' || CAST(doc_id AS VARCHAR) || "
    "CASE WHEN doc_id % 5 = 2 THEN '/long/tail/seg' ELSE '' END "
    "AS base FROM documents), "
    "allowed AS (SELECT * FROM u WHERE NOT EXISTS ("
    "SELECT 1 FROM rules r WHERE r.host = u.host "
    "AND starts_with(u.path_head, r.prefix))), "
    "feats AS (SELECT doc_id, host, "
    "length(base) - length(replace(base, '/', '')) - 2 AS path_depth "
    "FROM allowed), "
    "budget AS (SELECT doc_id, host FROM feats QUALIFY row_number() "
    "OVER (PARTITION BY host ORDER BY path_depth ASC, doc_id ASC) "
    "<= 3), "
    "nodes AS (SELECT unnest(['fetcher-0','fetcher-1','fetcher-2',"
    "'fetcher-3']) AS node) "
    "SELECT b.doc_id, b.host, n.node FROM budget b, nodes n "
    "QUALIFY row_number() OVER (PARTITION BY b.doc_id ORDER BY "
    "CAST(('0x' || substr(md5(b.host || '|' || n.node), 1, 16)) "
    "AS UBIGINT) DESC, n.node ASC) = 1 ORDER BY b.doc_id"
)
QUERIES["frontier_pipeline"] = q_frontier_pipeline
def q_calibration_bins(sf_dir: str):
    """Quality-classifier CALIBRATION audit
    (stages/profile.score_calibration): the reliability diagram's
    exact sufficient statistics for the fastText-style linear scorer
    (same weights/bias as `quality_classifier`), against the
    independent ground label ``lang = 'en'``. Fixed-width logit bins
    (floor division, width 16) × integer (n_docs, n_pos, sum_score)
    — bit-exact, the ECE fold happens downstream. One row-local
    scoring pass fused with binning partials, one tiny groupby."""
    from ..stages.profile import score_calibration
    from ..stages.textstats import _hash_embed_matrix

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang"])
    import numpy as np
    w = np.array([((d * 37) % 21) - 10 for d in range(64)], np.int64)

    def _score(batch: pa.Table) -> pa.Table:
        mat = _hash_embed_matrix(batch.column("text"), 64)
        logit = mat @ w + 3
        return pa.table({
            "logit": pa.array(logit, pa.int64()),
            "label_true": pc.equal(batch.column("lang"), "en"),
        })

    return score_calibration(
        docs.map_batches(_score, batch_format="pyarrow"), width=16)
ORACLE_SQL["calibration_bins"] = (
    "WITH toks AS (SELECT doc_id, "
    "unnest(string_split(text, ' ')) AS tok FROM documents), "
    "h AS (SELECT doc_id, CAST(CAST(('0x' || substr(md5(tok), 1, "
    "8)) AS UBIGINT) AS BIGINT) AS hv FROM toks), "
    "cells AS (SELECT doc_id, hv % 64 AS d, CASE WHEN "
    "(hv // 65536) % 2 = 1 THEN 1 ELSE -1 END AS sgn FROM h), "
    "dots AS (SELECT doc_id, sum(sgn * (((d * 37) % 21) - 10)) "
    "AS dot FROM cells GROUP BY doc_id), "
    "scored AS (SELECT d.doc_id, "
    "CAST(COALESCE(dt.dot, 0) + 3 AS BIGINT) AS logit, "
    "(d.lang = 'en') AS pos FROM documents d "
    "LEFT JOIN dots dt ON d.doc_id = dt.doc_id) "
    "SELECT CAST(floor(logit / 16.0) AS BIGINT) AS bin, "
    "CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(sum(CASE WHEN pos THEN 1 ELSE 0 END) AS BIGINT) AS n_pos, "
    "CAST(sum(logit) AS BIGINT) AS sum_score "
    "FROM scored GROUP BY 1 ORDER BY bin"
)
QUERIES["calibration_bins"] = q_calibration_bins
def q_inference_buckets(sf_dir: str):
    """Length-bucketed inference batching plan: docs bin to the
    smallest power-of-2 token-length cap and the plan reports per
    bucket the doc count, real token total and PADDING WASTE
    (cap·n − tokens) — the batch-shaping economics of padded model
    inference/training (pad-to-bucket beats pad-to-global-max; this
    table says by how much). Map-side Arrow partials per (cap) key,
    one tiny groupby; all-integer output."""
    import numpy as np

    CAPS = np.array([1 << k for k in range(1, 17)], np.int64)

    def _partial(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column("text"), "")
        parts = pc.split_pattern(col, " ")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        ntok = np.diff(parts.offsets.to_numpy(
            zero_copy_only=False).astype(np.int64))
        # clamp to the top cap (SQL coalesce twin) so a
        # beyond-range outlier doc cannot crash the plan
        caps = CAPS[np.minimum(np.searchsorted(CAPS, ntok),
                               len(CAPS) - 1)]
        t = pa.table({
            "bucket_cap": pa.array(caps, pa.int64()),
            "ntok": pa.array(ntok, pa.int64()),
            "one": pa.array(np.ones(len(ntok), np.int64)),
        })
        g = t.group_by(["bucket_cap"]).aggregate(
            [("one", "sum"), ("ntok", "sum")])
        return pa.table({
            "bucket_cap": g.column("bucket_cap"),
            "n_docs": pc.cast(g.column("one_sum"), pa.int64()),
            "n_tokens": pc.cast(g.column("ntok_sum"), pa.int64()),
        })

    agg = _docs(sf_dir, columns=["text"]).map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("bucket_cap").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("n_tokens", alias_name="n_tokens"))

    def _waste(batch: pa.Table) -> pa.Table:
        waste = pc.subtract(
            pc.multiply(batch.column("bucket_cap"),
                        batch.column("n_docs")),
            batch.column("n_tokens"))
        return batch.append_column("padding_waste", waste)

    return agg.map_batches(_waste, batch_format="pyarrow").sort(
        "bucket_cap")
ORACLE_SQL["inference_buckets"] = (
    "WITH caps AS (SELECT CAST(power(2, k) AS BIGINT) AS cap "
    "FROM (SELECT unnest(range(1, 17)) AS k)), "
    "lens AS (SELECT len(string_split(coalesce(text, ''), ' ')) "
    "AS ntok FROM documents), "
    "b AS (SELECT ntok, coalesce((SELECT min(cap) FROM caps "
    "WHERE cap >= ntok), 65536) AS bucket_cap FROM lens) "
    "SELECT bucket_cap, CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(sum(ntok) AS BIGINT) AS n_tokens, "
    "CAST(bucket_cap * count(*) - sum(ntok) AS BIGINT) "
    "AS padding_waste FROM b GROUP BY bucket_cap ORDER BY bucket_cap"
)
QUERIES["inference_buckets"] = q_inference_buckets
def q_domain_holdout_split(sf_dir: str):
    """Domain-grouped train/test split: EVERY doc of a host lands in
    the same split (md5 of the host, 90/10) — the domain-
    generalization eval protocol (`dataset_split` hashes content;
    this one holds out whole DOMAINS so eval measures transfer to
    unseen hosts).
    Row-local, no shuffle, dup-safe and deterministic."""

    from ..stages.web import url_host_fn

    def _fn(batch: pa.Table) -> pa.Table:
        b = url_host_fn(_url_augment(batch))
        splits = []
        for host in b.column("host").to_pylist():
            hv = int(hashlib.md5(host.encode()).hexdigest()[:8], 16)
            splits.append("train" if hv % 10 < 9 else "test")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "split": pa.array(splits, pa.string()),
        })

    return _docs(sf_dir, columns=["doc_id"]).map_batches(
        _fn, batch_format="pyarrow")
ORACLE_SQL["domain_holdout_split"] = (
    "WITH h AS (SELECT doc_id, 'host' || CAST(" + _HOST_ID_SQL
    + " AS VARCHAR) || '.example.com' AS host FROM documents) "
    "SELECT doc_id, CASE WHEN CAST(('0x' || substr(md5(host), 1, 8)) "
    "AS UBIGINT) % 10 < 9 THEN 'train' ELSE 'test' END AS split "
    "FROM h ORDER BY doc_id"
)
QUERIES["domain_holdout_split"] = q_domain_holdout_split
def q_seed_pipeline(sf_dir: str):
    """END-TO-END crawl SEED ingestion, every stage load-bearing
    under ONE oracle: per-host sitemap.xml documents → real XML
    parse (web.parse_sitemap) → full REP robots gate over the parsed
    locs (web.robots_rep_filter: longest match, Allow beats Disallow
    on ties) → politeness-preserving
    fetcher placement (hashing.rendezvous_pick on the HOST). The
    publisher ASK side (sitemaps) meeting the DENY side (robots) —
    the front half of a crawler's frontier; `frontier_pipeline`
    owns the budget/features back half."""
    from ..functions.hashing import rendezvous_pick
    from ..stages.web import (
        parse_sitemap,
        robots_rep_filter,
        url_host_fn,
    )

    seeds = ray.data.range(97).map_batches(
        _sitemap_fixture, batch_format="pyarrow"
    ).map_batches(lambda b: parse_sitemap(b), batch_format="pyarrow")

    def _as_url(batch: pa.Table) -> pa.Table:
        # url only: robots_rep_filter derives its own host column
        return pa.table({"url": batch.column("loc")})

    seeds = seeds.map_batches(_as_url, batch_format="pyarrow")

    # the rule set: disallow /p/1, allow /p/12,
    # even hosts disallow /p/4, host0 disallow /p/123
    hosts, dirs, prefixes = [], [], []
    for h in range(97):
        host = f"host{h}.example.com"
        hosts += [host, host]
        dirs += ["disallow", "allow"]
        prefixes += ["/p/1", "/p/12"]
        if h % 2 == 0:
            hosts.append(host)
            dirs.append("disallow")
            prefixes.append("/p/4")
    hosts.append("host0.example.com")
    dirs.append("disallow")
    prefixes.append("/p/123")
    rules = pa.table({"host": pa.array(hosts, pa.string()),
                      "directive": pa.array(dirs, pa.string()),
                      "prefix": pa.array(prefixes, pa.string())})

    allowed = robots_rep_filter(seeds, rules, url_col="url")
    nodes = [f"fetcher-{i}" for i in range(4)]

    def _place(batch: pa.Table) -> pa.Table:
        b = url_host_fn(batch)
        host = b.column("host").to_pylist()
        return pa.table({
            "host": b.column("host"),
            "loc": batch.column("url"),
            "node": pa.array(rendezvous_pick(host, nodes),
                             pa.string()),
        })

    return allowed.map_batches(_place, batch_format="pyarrow").sort(
        "loc")
ORACLE_SQL["seed_pipeline"] = (
    "WITH hs AS (SELECT unnest(range(0, 97)) AS h), "
    "e AS (SELECT h, unnest(range(1, 2 + h % 4)) AS j FROM hs), "
    "s AS (SELECT 'host' || CAST(h AS VARCHAR) || '.example.com' "
    "AS host, '/p/' || CAST(j AS VARCHAR) AS path, "
    "'http://host' || CAST(h AS VARCHAR) || '.example.com/p/' || "
    "CAST(j AS VARCHAR) AS loc FROM e), "
    "rules AS ("
    "SELECT 'host' || CAST(h AS VARCHAR) || '.example.com' AS host, "
    "'disallow' AS d, '/p/1' AS p FROM hs "
    "UNION ALL SELECT 'host' || CAST(h AS VARCHAR) || '.example.com',"
    " 'allow', '/p/12' FROM hs "
    "UNION ALL SELECT 'host' || CAST(h AS VARCHAR) || '.example.com',"
    " 'disallow', '/p/4' FROM hs WHERE h % 2 = 0 "
    "UNION ALL SELECT 'host0.example.com', 'disallow', '/p/123'), "
    "ok AS (SELECT host, loc FROM s WHERE COALESCE(("
    "SELECT r.d = 'allow' FROM rules r WHERE r.host = s.host "
    "AND starts_with(s.path, r.p) "
    "ORDER BY length(r.p) DESC, r.d LIMIT 1), TRUE)), "
    "nd AS (SELECT unnest(['fetcher-0','fetcher-1','fetcher-2',"
    "'fetcher-3']) AS node) "
    "SELECT host, loc, node FROM (SELECT ok.host, ok.loc, nd.node, "
    "row_number() OVER (PARTITION BY ok.loc ORDER BY "
    "CAST(('0x' || substr(md5(ok.host || '|' || nd.node), 1, 16)) "
    "AS UBIGINT) DESC, nd.node ASC) AS rk FROM ok, nd) "
    "WHERE rk = 1 ORDER BY loc"
)
QUERIES["seed_pipeline"] = q_seed_pipeline
def q_host_stats(sf_dir: str):
    """Per-host rollup over the skewed synthetic crawl.

    Map-side partial combine per block, then ONE small groupby —
    the hot host (``host0``, a third of the corpus) enters the
    shuffle as one row per block, not one per document.
    """
    from ..stages.web import host_stats

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        _url_augment, batch_format="pyarrow"
    )
    return host_stats(ds, size_col="n_chars")
ORACLE_SQL["host_stats"] = (
    "SELECT 'host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) || "
    "'.example.com' AS host, CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(sum(n_chars) AS BIGINT) AS total_n_chars "
    "FROM documents GROUP BY 1"
)
QUERIES["host_stats"] = q_host_stats
def q_host_gini(sf_dir: str):
    """Crawl concentration: Gini coefficient of docs over hosts
    (stages/web.host_gini) — hosts-scale driver fold of the map-side-
    combined host_stats counts; all-integer numerator, one terminal
    division on the 1e-6 grid."""
    from ..stages.web import host_gini

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow")
    return host_gini(ds)
ORACLE_SQL["host_gini"] = (
    "WITH h AS (SELECT " + _HOST_ID_SQL + " AS hid, count(*) AS n "
    "FROM documents GROUP BY 1), "
    "r AS (SELECT n, row_number() OVER (ORDER BY n, hid) AS i, "
    "count(*) OVER () AS cnt, sum(n) OVER () AS tot FROM h) "
    "SELECT CAST(max(cnt) AS BIGINT) AS n_hosts, "
    "floor(sum((2 * i - cnt - 1) * n) / (max(cnt) * max(tot)) * 1e6 "
    "+ 0.5) / 1e6 AS gini FROM r"
)
QUERIES["host_gini"] = q_host_gini
