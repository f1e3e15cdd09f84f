"""Sampling, sketches, drift and statistics queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import hashlib
import math
import os
from typing import Dict
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_heavy_hitters(sf_dir: str):
    """EXACT frequent tokens (>= 3.3% of all corpus tokens).

    Candidates from a per-block local threshold (shuffle carries only
    locally-heavy tokens — never the vocabulary), exact counts from a
    second candidate-only pass, integer threshold arithmetic.
    """
    from ..stages.stats import heavy_hitters

    ds = heavy_hitters(
        _docs(sf_dir), min_frac_num=33, min_frac_den=1000
    ).sort(["n", "token"], descending=[True, False])
    # concrete Arrow table: the result is candidate-bounded (driver-
    # small by construction) and the (token, n) schema must survive
    # the legitimately-empty case — at 10x scale with disjoint
    # universe vocabularies NO token clears a global 3.3% bar, and a
    # 0-row Dataset loses its schema through to_pandas()
    schema = pa.schema([("token", pa.string()), ("n", pa.int64())])
    tbls = [b for b in ds.iter_batches(batch_format="pyarrow",
                                       batch_size=None) if b.num_rows]
    if not tbls:
        return schema.empty_table()
    return pa.concat_tables(t.select(["token", "n"]) for t in tbls)
ORACLE_SQL["heavy_hitters"] = (
"WITH t AS (SELECT unnest(string_split(text, ' ')) AS token "
        "FROM documents WHERE text IS NOT NULL), "
        "tot AS (SELECT count(*) AS nt FROM t) "
        "SELECT token, CAST(count(*) AS BIGINT) AS n "
        "FROM t, tot GROUP BY token, tot.nt "
        "HAVING count(*) * 1000 >= 33 * tot.nt "
        "ORDER BY n DESC, token"
)
QUERIES["heavy_hitters"] = q_heavy_hitters
def q_corpus_quantiles(sf_dir: str):
    """EXACT percentile_disc quantiles of doc length, distributed.

    Map-side value_counts partial combine → one groupby over the
    DISTINCT-VALUE histogram → driver cumsum (histogram-scale only;
    the corpus streams through once). Matches DuckDB
    ``quantile_disc`` bit-for-bit — see stages/stats.py.
    """
    from ..stages.stats import exact_quantiles

    t = exact_quantiles(
        _docs(sf_dir, columns=["n_chars"]), "n_chars", QUANTILE_QS
    )
    return pa.table({
        "q": t.column("q"),
        "value": pc.cast(t.column("value"), pa.int64()),
    })
ORACLE_SQL["corpus_quantiles"] = (
"SELECT unnest([0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) AS q, "
        "CAST(unnest(quantile_disc(n_chars, "
        "[0.1, 0.25, 0.5, 0.75, 0.9, 0.99])) AS BIGINT) AS value "
        "FROM documents"
)
QUERIES["corpus_quantiles"] = q_corpus_quantiles
def q_stratified_sample(sf_dir: str):
    """Deterministic ~20% stratified sample per language: hash-based
    (md5 of doc content), no RNG, reproducible across runs and block
    layouts — the sampling primitive for eval-set carving. Row-local
    predicate, no shuffle."""
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])

    def _fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        keep = [
            int(hashlib.md5((t or "").encode("utf-8")).hexdigest()[:8], 16)
            % 100 < 20
            for t in texts
        ]
        f = batch.filter(pa.array(keep))
        return pa.table({
            "doc_id": f.column("doc_id"),
            "lang": f.column("lang"),
        })

    return ds.map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["stratified_sample"] = (
"SELECT doc_id, lang FROM documents "
        "WHERE CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT) "
        "% 100 < 20"
)
QUERIES["stratified_sample"] = q_stratified_sample
def q_source_overlap(sf_dir: str):
    """Cross-SOURCE contamination audit: for every pair of corpus
    sources, the count of distinct 3-token shingles they share —
    the governance matrix that decides "source B is contained in A"
    before any per-document dedup. One deduped
    ``(shingle, source-bitmask)`` exchange, whole-bucket OR-reduceat,
    output bounded by distinct source COMBINATIONS (`stages/overlap.py`)."""
    from ..stages.overlap import source_overlap

    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    return source_overlap(ds, group_col="source", text_col="text", k=3)
ORACLE_SQL["source_overlap"] = (
"WITH t AS (SELECT source, string_split(text, ' ') AS toks "
        "FROM documents), "
        "sh AS (SELECT source, CASE WHEN len(toks) >= 3 THEN "
        "list_transform(generate_series(1, len(toks) - 2), "
        "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) "
        "ELSE [] END AS shingles FROM t), "
        "ss AS (SELECT DISTINCT source, unnest(shingles) AS s FROM sh) "
        "SELECT a.source AS source_a, b.source AS source_b, "
        "CAST(count(*) AS BIGINT) AS n_shared "
        "FROM ss a JOIN ss b ON a.s = b.s AND a.source < b.source "
        "GROUP BY 1, 2 ORDER BY 1, 2"
)
QUERIES["source_overlap"] = q_source_overlap
def q_sample_exact_k(sf_dir: str):
    """Deterministic uniform sample of EXACTLY 100 docs — distributed
    "ORDER BY md5(key) LIMIT k": vectorized local top-k per block,
    tiny global sort+limit over blocks×k candidates
    (`stages/stats.py hash_sample_exact`). Complements the threshold
    samplers (stratified/weighted), whose output size is only
    approximate."""
    from ..stages.stats import hash_sample_exact

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    out = hash_sample_exact(ds, k=100, key_col="doc_id")

    def _shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
        })

    return out.map_batches(_shape, batch_format="pyarrow")
ORACLE_SQL["sample_exact_k"] = (
"SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars "
        "FROM documents "
        "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT 100"
)
QUERIES["sample_exact_k"] = q_sample_exact_k
def q_priority_sample(sf_dir: str):
    """Weighted exact-k sampling (stages/stats.py
    ``priority_sample_k``): 100 documents drawn with probability
    proportional to length via Efraimidis-Spirakis hash-coin
    priorities — deterministic, dup-safe, layout-independent; local
    per-block top-k then one tiny candidates sort."""
    from ..stages.stats import priority_sample_k

    docs = _docs(sf_dir, columns=["doc_id", "n_chars"])
    return priority_sample_k(docs, 100, "doc_id", "n_chars")
ORACLE_SQL["priority_sample"] = (
    "WITH p AS (SELECT doc_id, n_chars, "
    "-ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))"
    " AS UBIGINT) + 1.0) / 1152921504606846976.0) / n_chars AS pri "
    "FROM documents WHERE n_chars > 0) "
    "SELECT doc_id, n_chars FROM p ORDER BY pri, doc_id LIMIT 100"
)
QUERIES["priority_sample"] = q_priority_sample
def q_value_outliers(sf_dir: str):
    """Robust outlier detection (median/MAD, the
    breakdown-point-0.5 alternative to z-scores): per event_type,
    how many values deviate from the median by more than 3x the
    median absolute deviation. Two exact grouped-median passes
    (`grouped_quantiles` — per-key distinct-value histograms, never
    a value sort), a materialized deviation set shared by the MAD
    pass and the count pass, and a driver fold of types-scale count
    partials. Medians are DATA VALUES (percentile_disc), so every
    float op is bit-identical to the SQL twin."""
    import numpy as np

    from ..stages.stats import grouped_quantiles

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    med_tbl = grouped_quantiles(events, "event_type", "value", [0.5])
    med = {k: v for k, v in zip(med_tbl.column("key").to_pylist(),
                                med_tbl.column("value").to_pylist())}

    keys = pa.array(sorted(med), pa.string())
    meds = np.array([med[k] for k in sorted(med)], dtype=np.float64)

    def _dev(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch.column("value")))
        idx = pc.index_in(t.column("event_type"), value_set=keys)
        t = t.filter(pc.is_valid(idx))
        pos = pc.index_in(t.column("event_type"),
                          value_set=keys).to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = t.column("value").combine_chunks().to_numpy(
            zero_copy_only=False)
        return pa.table({
            "event_type": t.column("event_type"),
            "dev": pa.array(np.abs(v - meds[pos]), pa.float64()),
        })

    # two consumers (MAD quantiles + outlier count) over an
    # events-row-count table: checkpoint, don't pin
    from ..stages.bucketed import checkpoint_bucketed
    devs = checkpoint_bucketed(
        events.map_batches(_dev, batch_format="pyarrow"),
        f"valout_{os.path.basename(os.path.normpath(sf_dir))}",
        key_col=None)
    mad_tbl = grouped_quantiles(devs, "event_type", "dev", [0.5])
    mad = {k: v for k, v in zip(mad_tbl.column("key").to_pylist(),
                                mad_tbl.column("value").to_pylist())}
    mads = np.array([mad[k] for k in sorted(med)], dtype=np.float64)

    def _count(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch.column("event_type"),
                          value_set=keys).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dev = batch.column("dev").combine_chunks().to_numpy(
            zero_copy_only=False)
        out = dev > 3.0 * mads[pos]
        n = np.bincount(pos, minlength=len(meds))
        n_out = np.bincount(pos[out], minlength=len(meds))
        return pa.table({
            "i": pa.array(np.arange(len(meds)), pa.int64()),
            "n": pa.array(n.astype(np.int64), pa.int64()),
            "n_out": pa.array(n_out.astype(np.int64), pa.int64()),
        })

    tot_n = np.zeros(len(meds), dtype=np.int64)
    tot_o = np.zeros(len(meds), dtype=np.int64)
    for b in devs.map_batches(
            _count, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        # a yielded batch may CONCATENATE several per-block partials,
        # so the index vector carries repeats — np.add.at accumulates
        # every occurrence (fancy `+=` silently keeps only one per
        # index; bug surfaced at sf1 where blocks coalesce)
        i = b.column("i").to_numpy(zero_copy_only=False)
        np.add.at(tot_n, i, b.column("n").to_numpy(zero_copy_only=False))
        np.add.at(tot_o, i,
                  b.column("n_out").to_numpy(zero_copy_only=False))
    return pa.table({
        "event_type": keys,
        "n": pa.array(tot_n, pa.int64()),
        "n_outliers": pa.array(tot_o, pa.int64()),
    })
ORACLE_SQL["value_outliers"] = (
    "WITH med AS (SELECT event_type, quantile_disc(value, 0.5) AS m "
    "FROM events WHERE value IS NOT NULL GROUP BY event_type), "
    "d AS (SELECT e.event_type, abs(e.value - med.m) AS dev "
    "FROM events e JOIN med USING (event_type) "
    "WHERE e.value IS NOT NULL), "
    "mad AS (SELECT event_type, quantile_disc(dev, 0.5) AS mad "
    "FROM d GROUP BY event_type) "
    "SELECT d.event_type, CAST(count(*) AS BIGINT) AS n, "
    "CAST(count(*) FILTER (dev > 3.0 * mad.mad) AS BIGINT) "
    "AS n_outliers FROM d JOIN mad USING (event_type) "
    "GROUP BY d.event_type"
)
QUERIES["value_outliers"] = q_value_outliers
def q_ks_drift(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov drift statistic between the
    old/new corpus snapshots' doc-length distributions — the
    distribution-shift gauge a pipeline checks before concluding
    "the new crawl looks like the old one". Exact: per-side
    (value, count) histogram partials fold on the driver
    (distinct-length scale), CDFs are integer cumsums over one
    merged value axis, D = max |F_a - F_b|. Integer cumsum /
    integer total keeps every float op bit-identical to the SQL
    window twin; grid-rounded."""
    import numpy as np

    def _old(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.not_equal(_int_mod(batch.column("doc_id"), 11),
                         pa.scalar(3, pa.int64())))

    def _new(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.not_equal(_int_mod(batch.column("doc_id"), 7),
                         pa.scalar(2, pa.int64())))

    def _hist(fn, side):
        def _p(batch: pa.Table) -> pa.Table:
            t = fn(batch)
            vc = pc.value_counts(t.column("n_chars"))
            return pa.table({
                "v": pc.cast(vc.field("values"), pa.int64()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
                "side": pa.array([side] * len(vc), pa.int8()),
            })
        return _p

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    hist: Dict[tuple, int] = {}
    for b in docs.map_batches(
            _hist(_old, 0), batch_format="pyarrow").union(
            docs.map_batches(_hist(_new, 1),
                             batch_format="pyarrow")).iter_batches(
            batch_format="pyarrow", batch_size=None):
        for v, n, s in zip(b.column("v").to_pylist(),
                           b.column("n").to_pylist(),
                           b.column("side").to_pylist()):
            hist[(v, s)] = hist.get((v, s), 0) + n
    vals = sorted({v for v, _ in hist})
    na = np.array([hist.get((v, 0), 0) for v in vals], dtype=np.int64)
    nb = np.array([hist.get((v, 1), 0) for v in vals], dtype=np.int64)
    ta, tb = int(na.sum()), int(nb.sum())
    fa = np.cumsum(na) / ta
    fb = np.cumsum(nb) / tb
    d = float(np.max(np.abs(fa - fb))) if len(vals) else 0.0
    d = math.floor(d * 1000000.0 + 0.5) / 1000000.0
    return pa.table({
        "n_old": pa.array([ta], pa.int64()),
        "n_new": pa.array([tb], pa.int64()),
        "ks_d": pa.array([d], pa.float64()),
    })
ORACLE_SQL["ks_drift"] = (
    "WITH a AS (SELECT n_chars AS v FROM documents "
    "WHERE doc_id % 11 <> 3), "
    "b AS (SELECT n_chars AS v FROM documents "
    "WHERE doc_id % 7 <> 2), "
    "pts AS (SELECT v, CAST(sum(na) AS BIGINT) AS na, "
    "CAST(sum(nb) AS BIGINT) AS nb FROM ("
    "SELECT v, 1 AS na, 0 AS nb FROM a "
    "UNION ALL SELECT v, 0, 1 FROM b) GROUP BY v), "
    "c AS (SELECT v, "
    "CAST(sum(na) OVER (ORDER BY v) AS DOUBLE) "
    "/ (SELECT sum(na) FROM pts) AS fa, "
    "CAST(sum(nb) OVER (ORDER BY v) AS DOUBLE) "
    "/ (SELECT sum(nb) FROM pts) AS fb FROM pts) "
    "SELECT (SELECT CAST(count(*) AS BIGINT) FROM a) AS n_old, "
    "(SELECT CAST(count(*) AS BIGINT) FROM b) AS n_new, "
    "floor((SELECT max(abs(fa - fb)) FROM c) * 1000000.0 + 0.5) "
    "/ 1000000.0 AS ks_d"
)
QUERIES["ks_drift"] = q_ks_drift
def q_chi2_drift(sf_dir: str):
    """Categorical drift between the old/new snapshots' LANGUAGE
    distributions: Pearson chi-square over the lang contingency
    table (the categorical twin of `ks_drift`). Per-side (lang,
    count) partials fold on the driver (languages-scale); the chi2
    terms are computed in deterministic sorted-category order and
    the SQL twin mirrors the identical expected-count arithmetic;
    grid-rounded."""

    def _old(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.not_equal(_int_mod(batch.column("doc_id"), 11),
                         pa.scalar(3, pa.int64())))

    def _new(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.not_equal(_int_mod(batch.column("doc_id"), 7),
                         pa.scalar(2, pa.int64())))

    def _hist(fn, side):
        def _p(batch: pa.Table) -> pa.Table:
            t = fn(batch)
            vc = pc.value_counts(t.column("lang"))
            return pa.table({
                "lang": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
                "side": pa.array([side] * len(vc), pa.int8()),
            })
        return _p

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    hist: Dict[tuple, int] = {}
    for b in docs.map_batches(
            _hist(_old, 0), batch_format="pyarrow").union(
            docs.map_batches(_hist(_new, 1),
                             batch_format="pyarrow")).iter_batches(
            batch_format="pyarrow", batch_size=None):
        for v, n, s in zip(b.column("lang").to_pylist(),
                           b.column("n").to_pylist(),
                           b.column("side").to_pylist()):
            hist[(v, s)] = hist.get((v, s), 0) + n
    langs = sorted({v for v, _ in hist})
    na = [hist.get((v, 0), 0) for v in langs]
    nb = [hist.get((v, 1), 0) for v in langs]
    ta, tb = sum(na), sum(nb)
    tot = ta + tb
    chi2 = 0.0
    for a, b2 in zip(na, nb):
        row = a + b2
        ea = row * ta / tot
        eb = row * tb / tot
        chi2 += (a - ea) * (a - ea) / ea + (b2 - eb) * (b2 - eb) / eb
    chi2 = math.floor(chi2 * 1000000.0 + 0.5) / 1000000.0
    return pa.table({
        "n_cats": pa.array([len(langs)], pa.int64()),
        "chi2": pa.array([chi2], pa.float64()),
    })
ORACLE_SQL["chi2_drift"] = (
    "WITH a AS (SELECT lang, CAST(count(*) AS BIGINT) AS na "
    "FROM documents WHERE doc_id % 11 <> 3 GROUP BY lang), "
    "b AS (SELECT lang, CAST(count(*) AS BIGINT) AS nb "
    "FROM documents WHERE doc_id % 7 <> 2 GROUP BY lang), "
    "j AS (SELECT coalesce(a.lang, b.lang) AS lang, "
    "coalesce(na, 0) AS na, coalesce(nb, 0) AS nb "
    "FROM a FULL JOIN b USING (lang)), "
    "t AS (SELECT CAST(sum(na) AS DOUBLE) AS ta, "
    "CAST(sum(nb) AS DOUBLE) AS tb, "
    "CAST(sum(na) + sum(nb) AS DOUBLE) AS tot FROM j), "
    "terms AS (SELECT "
    "(na - (na + nb) * ta / tot) * (na - (na + nb) * ta / tot) "
    "/ ((na + nb) * ta / tot) + "
    "(nb - (na + nb) * tb / tot) * (nb - (na + nb) * tb / tot) "
    "/ ((na + nb) * tb / tot) AS term FROM j, t) "
    "SELECT (SELECT CAST(count(*) AS BIGINT) FROM j) AS n_cats, "
    "floor((SELECT sum(term) FROM terms) * 1000000.0 + 0.5) "
    "/ 1000000.0 AS chi2"
)
QUERIES["chi2_drift"] = q_chi2_drift
def q_doc_novelty(sf_dir: str):
    """Per-doc n-gram novelty (stages/dedup.py ``doc_novelty``):
    fraction of each doc's distinct 3-shingles occurring in no other
    document — one shingle-hash co-shuffle, run-length df inside
    whole-bucket UDFs, per-doc partial combine before the tiny doc
    groupby."""
    from ..stages.dedup import doc_novelty

    return doc_novelty(_docs(sf_dir), n_buckets=32)
ORACLE_SQL["doc_novelty"] = (
    "WITH " + SHINGLE_CTE + ", "
    "dsh AS (SELECT doc_id, unnest(list_distinct(shingles)) AS s "
    "FROM sh), "
    "df AS (SELECT s, CAST(count(*) AS BIGINT) AS df FROM dsh "
    "GROUP BY s), "
    "x AS (SELECT d.doc_id, "
    "CAST(count(*) FILTER (df.df = 1) AS BIGINT) AS nu, "
    "CAST(count(*) AS BIGINT) AS nt "
    "FROM dsh d JOIN df USING (s) GROUP BY d.doc_id) "
    "SELECT doc_id, nu AS n_unique, nt AS n_shingles, "
    "floor(CAST(nu AS DOUBLE) / CAST(nt AS DOUBLE) * 1000000.0 "
    "+ 0.5) / 1000000.0 AS novelty FROM x"
)
QUERIES["doc_novelty"] = q_doc_novelty
def q_hll_users_by_type(sf_dir: str):
    """Per-key HyperLogLog distinct sketch (stages/stats.py
    ``grouped_hll``, m=64) — the fixed-size mergeable sketch beside
    KMV: the shuffle carries <= keys x 64 register rows per block
    and merge is plain max. Registers AND the estimate are
    oracle-pinned bit-for-bit (md5 hashes, exact dyadic register
    sum, identical float ops, 1e-6 grid)."""
    from ..stages.stats import grouped_hll

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id"],
    )
    return grouped_hll(events, "event_type", "user_id",
                       n_buckets=32).sort("event_type")
ORACLE_SQL["hll_users_by_type"] = (
    "WITH pairs AS (SELECT DISTINCT event_type, user_id FROM events "
    "WHERE user_id IS NOT NULL), "
    "h AS (SELECT event_type, "
    "CAST(CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 8)) "
    "AS UBIGINT) AS BIGINT) AS h1, "
    "CAST(CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 9, 8)) "
    "AS UBIGINT) AS BIGINT) AS h2 FROM pairs), "
    "r AS (SELECT event_type, h1 % 64 AS reg, "
    "CASE WHEN h2 = 0 THEN 33 ELSE "
    "CAST(floor(log2(CAST((h2 & -h2) AS DOUBLE))) AS BIGINT) + 1 "
    "END AS rho FROM h), "
    "m AS (SELECT event_type, reg, max(rho) AS mr FROM r "
    "GROUP BY event_type, reg), "
    "agg AS (SELECT event_type, CAST(count(*) AS BIGINT) AS nset, "
    "sum(power(2.0, -mr)) AS s FROM m GROUP BY event_type), "
    "est AS (SELECT event_type, nset, "
    "0.709 * 4096.0 / (s + (64 - nset)) AS raw FROM agg) "
    "SELECT event_type, nset AS n_registers_set, "
    "floor((CASE WHEN raw <= 160.0 AND nset < 64 "
    "THEN 64.0 * ln(64.0 / (64.0 - nset)) ELSE raw END) "
    "* 1000000.0 + 0.5) / 1000000.0 AS hll_estimate "
    "FROM est ORDER BY event_type"
)
QUERIES["hll_users_by_type"] = q_hll_users_by_type
def q_cms_sketch(sf_dir: str):
    """Count-Min sketch of corpus token counts (stages/stats.py
    ``cms_sketch``): 4x1024 counters from one md5 per distinct token
    per block (four 8-hex digest chunks = the four row hashes);
    shuffle bounded by depth*width partial rows per block. The
    sketch itself is oracle-pinned BIT-FOR-BIT — approximate in
    estimate semantics, deterministic in construction."""
    from ..stages.stats import cms_sketch

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"])
    return cms_sketch(docs, width=1024, depth=4)
ORACLE_SQL["cms_sketch"] = (
    "WITH tok AS (SELECT unnest(string_split(text, ' ')) AS t "
    "FROM documents WHERE text IS NOT NULL), "
    "rows AS (SELECT r, CAST(CAST(('0x' || substr(md5(t), "
    "1 + 8 * r, 8)) AS UBIGINT) % 1024 AS BIGINT) AS b "
    "FROM tok CROSS JOIN (VALUES (0), (1), (2), (3)) AS d(r)) "
    "SELECT CAST(r AS BIGINT) AS r, b, "
    "CAST(count(*) AS BIGINT) AS c FROM rows GROUP BY r, b"
)
QUERIES["cms_sketch"] = q_cms_sketch
def q_weighted_sample(sf_dir: str):
    """Length-proportional deterministic sample: keep a doc with
    probability min(1, n_chars/4000), coin = md5(doc_id) — pure
    integer comparison so the threshold reproduces bit-for-bit in
    SQL. Row-local, prunes at scan speed, no shuffle."""
    from ..stages.stats import weighted_sample

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    return weighted_sample(ds, key_col="doc_id",
                           weight_col="n_chars", scale=4000)
ORACLE_SQL["weighted_sample"] = (
"SELECT doc_id, n_chars FROM documents "
        "WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), "
        "1, 8)) AS UBIGINT) * 4000 < n_chars * 4294967296"
)
QUERIES["weighted_sample"] = q_weighted_sample
def q_profile_table(sf_dir: str):
    """One-pass per-column profile of the documents table — counts,
    nulls, min/max, numeric mean, md5-KMV distinct estimate — every
    statistic (including the sketch VALUE) oracle-checked against a
    per-column SQL twin. One streaming pass, driver merges only
    blocks × columns tiny partial rows."""
    from ..stages.profile import profile_table

    ds = _docs(sf_dir, columns=["doc_id", "n_chars", "lang", "source"])
    return profile_table(ds, numeric_cols=["doc_id", "n_chars"],
                         string_cols=["lang", "source"], kmv_k=64)
ORACLE_SQL["profile_table"] = PROFILE_SQL
QUERIES["profile_table"] = q_profile_table
def q_stratified_priority_sample(sf_dir: str):
    """Per-language weighted exact-k sample
    (`stages/stats.grouped_priority_sample`, k=7 per lang, weight =
    n_chars): the training-mix stratified sampler — hash coins, no
    RNG, layout-independent."""
    from ..stages.stats import grouped_priority_sample

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    return grouped_priority_sample(
        ds, k=7, group_col="lang", key_col="doc_id",
        weight_col="n_chars").select_columns(
        ["doc_id", "lang", "n_chars"]).sort("doc_id")
ORACLE_SQL["stratified_priority_sample"] = (
    "WITH p AS (SELECT doc_id, lang, n_chars, "
    "-ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))"
    " AS UBIGINT) + 1.0) / 1152921504606846976.0) / n_chars AS pri "
    "FROM documents WHERE lang IS NOT NULL AND n_chars > 0) "
    "SELECT doc_id, lang, n_chars FROM p "
    "QUALIFY row_number() OVER (PARTITION BY lang "
    "ORDER BY pri, doc_id) <= 7 ORDER BY doc_id"
)
QUERIES["stratified_priority_sample"] = q_stratified_priority_sample
