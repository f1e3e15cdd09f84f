"""Shared helpers, constants and SQL fragments for the query family modules.

Driver-facing operator queries + their DuckDB oracle SQL twins.

Each entry in :data:`QUERIES` is one operator from SURVEY.md §2 (or a
training-data-pipeline extension: dedup / similarity / text analysis)
expressed as a Ray Data pipeline over the driver's parquet tables
(``documents``, ``embeddings``, ``events``, ``orders``);
:data:`ORACLE_SQL` holds the exact ANSI-SQL twin DuckDB runs on the
same tables.

Parity rules baked in everywhere:

* identical column NAMES and types (BIGINT↔int64, DOUBLE↔float64);
* floats only through deterministic formulas shared by both sides —
  ``floor(x*1000+0.5)/1000`` rounding (see ``functions.text.round3``),
  single-division ratios, md5 hex (Python hashlib == DuckDB md5);
* no wall-clock, no randomness.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..stages.pii import PII_PATTERNS as _PII_PATTERNS

from ._registry import ORACLE_SQL, QUERIES  # noqa: F401

# ordered replacement table used by the replace_chars demo queries
REPL_KEYS = [("spark", "ray"), ("table", "tbl")]
REGEX_PATTERN, REGEX_OLD, REGEX_NEW = "(s[a-z]*k)", "ar", "er"
# SQL fragment: the M7 sanitize chain (matches functions.text.sanitize_chars
# for single-line text: strip → bad-char removal → '..' → single-pass
# '  '→' ' → ſ→s → drop tokens of length <= 1)
SANITIZE_SQL = (
    "array_to_string(list_filter(string_split("
    "replace(replace(replace(regexp_replace(trim({col}), "
    "'[0-9“„\"''?!*.;:=\\[\\]()|-]', '', 'g'), '..', ''), '  ', ' '), "
    "'ſ', 's'), ' '), x -> length(x) > 1), ' ')"
)
# SQL fragment: single-line-doc quality scoring (doc_quality_fn twin)
QUALITY_SQL = """
WITH s AS (
  SELECT doc_id, {sanitize} AS st FROM documents
), w AS (
  SELECT doc_id, CASE WHEN length(st) > 2 THEN st ELSE '' END AS ws FROM s
), t AS (
  SELECT doc_id,
    CASE WHEN ws = '' THEN 0 ELSE len(string_split(ws, ' ')) END AS nw,
    CASE WHEN ws = '' THEN 0 ELSE len(list_filter(string_split(ws, ' '),
      x -> NOT regexp_matches(x, '^[A-Za-zÄÖÜäöüß]+$'))) END AS ne
  FROM w
)
SELECT doc_id,
  CASE WHEN nw = 0 THEN -1.0
       WHEN nw <= ne THEN 0.0
       ELSE floor(((nw - ne) / CAST(nw AS DOUBLE) * 100.0) * 1000.0 + 0.5) / 1000.0
  END AS hit_ratio,
  CAST(nw AS BIGINT) AS n_words,
  CAST(ne AS BIGINT) AS n_errs
FROM t
""".format(sanitize=SANITIZE_SQL.format(col="text"))
def _docs(sf_dir: str, columns=None):
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=columns or ["doc_id", "text"],
    )
def _pii_augment(batch: pa.Table) -> pa.Table:
    """Deterministically embed one email / phone / IPv4 per doc.

    The synthetic documents contain no PII, so the redaction queries
    plant it: doc_id-derived, reproducible in SQL with the same
    string concatenation (bit_and == % for the non-negative ids).
    """
    ids = batch.column("doc_id")
    ids_s = pc.cast(ids, pa.string())
    x = pc.binary_join_element_wise(
        pc.fill_null(batch.column("text"), ""),
        " contact user", ids_s,
        "@mail.example.com or +1-555-",
        pc.cast(pc.add(ids, 1000000), pa.string()),
        " at 10.",
        pc.cast(pc.bit_wise_and(ids, 255), pa.string()),
        ".0.",
        pc.cast(pc.bit_wise_and(ids, 63), pa.string()),
        "",
    )
    return pa.table({"doc_id": ids, "text": x})
def _url_augment(batch: pa.Table) -> pa.Table:
    """Deterministic skewed url per doc: every 3rd doc lands on
    ``host0`` (the hot host of the synthetic crawl), the rest spread
    over 96 more hosts — mirrors the SQL CASE in the oracles."""
    ids = batch.column("doc_id")
    hot = pc.equal(_int_mod(ids, 3), 0)
    host_id = pc.if_else(
        hot, pa.scalar(0, pa.int64()), _int_mod(ids, 97)
    )
    url = pc.binary_join_element_wise(
        "http://host", pc.cast(host_id, pa.string()),
        ".example.com/p/", pc.cast(ids, pa.string()), "",
    )
    return batch.append_column("url", url)
def _int_mod(col, d: int):
    """Non-negative int64 modulo via truncating divide (Arrow has no
    modulo kernel) — equals SQL ``%`` for the non-negative ids."""
    q = pc.divide(col, pa.scalar(d, pa.int64()))
    return pc.subtract(col, pc.multiply(q, pa.scalar(d, pa.int64())))
# SQL twin of _url_augment's host id
_HOST_ID_SQL = ("CASE WHEN doc_id % 3 = 0 THEN 0 "
                "ELSE doc_id % 97 END")
# Multi-phrase dictionary for dictionary_tag — drawn from the
# synthetic corpus vocabulary; NO phrase is a prefix of another, so
# the tagger's longest-first tiebreak never fires and the SQL twin
# is a plain per-term overlap count.
TAG_TERMS = (
    "batch batch", "slow join", "merge data",
    "window window", "sort merge", "data row",
)
def _query_vec(sf_dir: str, vec_id: int = 0):
    rows = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
        .filter(expr=f"vec_id == {vec_id}")
        .take(1)
    )
    return rows[0]["embedding"]
NEAR_DUP_THRESHOLD = 0.5
PACK_SEQ_LEN = 512
LM_MIN_COUNT = 2
LM_SCALE = 1_000_000
def _lm_score_sql(min_count: int, scale: int) -> str:
    return (
        "WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t "
        "FROM documents), "
        "big AS (SELECT doc_id, t[i] AS w1, t[i+1] AS w2 FROM toks, "
        "LATERAL unnest(generate_series(1, len(t) - 1)) AS r(i)), "
        "uni AS (SELECT token, CAST(count(*) AS BIGINT) AS c FROM "
        "(SELECT unnest(string_split(text, ' ')) AS token "
        "FROM documents) GROUP BY token), "
        "v AS (SELECT count(*) AS vs FROM uni), "
        "bic AS (SELECT w1 || ' ' || w2 AS pair, "
        "CAST(count(*) AS BIGINT) AS c12 FROM big GROUP BY w1, w2 "
        f"HAVING count(*) >= {min_count}), "
        "scored AS (SELECT b.doc_id, "
        f"((u.c + v.vs) * {scale}) // (COALESCE(bc.c12, 0) + 1) AS ipp, "
        "CASE WHEN bc.c12 IS NULL THEN 1 ELSE 0 END AS oov "
        "FROM big b "
        "LEFT JOIN bic bc ON bc.pair = b.w1 || ' ' || b.w2 "
        "JOIN uni u ON u.token = b.w1 CROSS JOIN v), "
        "per_doc AS (SELECT doc_id, count(*) AS nb, sum(oov) AS noov, "
        "sum(ipp) AS ssum FROM scored GROUP BY doc_id) "
        "SELECT d.doc_id, CAST(COALESCE(p.nb, 0) AS BIGINT) AS n_bigrams, "
        "CAST(COALESCE(p.noov, 0) AS BIGINT) AS n_oov, "
        "CAST(CASE WHEN p.nb IS NULL THEN -1 ELSE p.ssum // p.nb END "
        "AS BIGINT) AS mean_ipp "
        "FROM documents d LEFT JOIN per_doc p USING (doc_id)"
    )
KMEANS_K = 8
KMEANS_ITERS = 3
KMEANS_SCALE = 1_000_000
def _kmeans_sql(k: int, iters: int, scale: int) -> str:
    """Chained-CTE Lloyd twin: v = floor-quantized exploded vectors;
    per iteration an argmin-assign CTE (row_number over summed int
    squared-L2, ties -> lowest cluster) and a trunc-div centroid
    CTE (empty clusters COALESCE to the previous centroid)."""

    def _it(i: int) -> str:
        return (
            f"a{i} AS (SELECT vec_id, cluster FROM ("
            f"SELECT v.vec_id, c.cluster, row_number() OVER ("
            f"PARTITION BY v.vec_id "
            f"ORDER BY sum((v.x - c.x)*(v.x - c.x)), c.cluster) AS rn "
            f"FROM v JOIN c{i} c USING (d) "
            f"GROUP BY v.vec_id, c.cluster) WHERE rn = 1), "
            f"c{i + 1} AS (SELECT c.cluster, c.d, COALESCE(m.x, c.x) AS x "
            f"FROM c{i} c LEFT JOIN ("
            f"SELECT a.cluster, v.d, sum(v.x) // count(*) AS x "
            f"FROM a{i} a JOIN v USING (vec_id) "
            f"GROUP BY a.cluster, v.d) m "
            f"ON m.cluster = c.cluster AND m.d = c.d)"
        )

    chain = ", ".join(_it(i) for i in range(iters))
    return (
        "WITH v AS (SELECT vec_id, "
        "generate_subscripts(embedding, 1) AS d, "
        f"CAST(floor(CAST(unnest(embedding) AS DOUBLE) * {scale}) "
        "AS BIGINT) AS x FROM embeddings), "
        "init AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 "
        "AS cluster FROM (SELECT DISTINCT vec_id FROM v "
        f"ORDER BY vec_id LIMIT {k})), "
        "c0 AS (SELECT i.cluster, v.d, v.x FROM init i "
        f"JOIN v USING (vec_id)), {chain} "
        "SELECT vec_id, cluster FROM ("
        "SELECT v.vec_id, c.cluster, row_number() OVER ("
        "PARTITION BY v.vec_id "
        "ORDER BY sum((v.x - c.x)*(v.x - c.x)), c.cluster) AS rn "
        f"FROM v JOIN c{iters} c USING (d) "
        "GROUP BY v.vec_id, c.cluster) WHERE rn = 1"
    )
QUANTILE_QS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
def _docs_half(sf_dir: str, first: bool):
    """(lang, source) projection of one snapshot half. The split is
    ``doc_id % 7 < 3`` — deliberately NOT doc_id parity, which the
    synthetic generator anti-correlates with (lang, source) so
    perfectly that the halves share zero combinations."""
    def _fn(batch: pa.Table) -> pa.Table:
        lt = pc.less(_int_mod(batch.column("doc_id"), 7),
                     pa.scalar(3, pa.int64()))
        f = batch.filter(lt if first else pc.invert(lt))
        return pa.table({"lang": f.column("lang"),
                         "source": f.column("source")})

    return _docs(sf_dir, columns=["doc_id", "lang", "source"]).map_batches(
        _fn, batch_format="pyarrow")
def _schema_stable(ds, schema: pa.Schema) -> pa.Table:
    """Collect a SMALL (audit-scale) result into an Arrow table that
    keeps its schema even when EMPTY — Ray Data's ``to_pandas()``
    drops all columns from a 0-row Dataset, so any query whose
    result can legitimately be empty (EXCEPT over converged
    snapshots) must hand the driver a schema-pinned table instead.
    Only for outputs bounded by distinct-combination counts — never
    corpus-scale data."""
    batches = [
        b for b in ds.iter_batches(batch_format="pyarrow",
                                   batch_size=None)
        if b.num_rows
    ]
    if not batches:
        return schema.empty_table()
    return pa.concat_tables([b.select(schema.names) for b in batches])
_LANG_SOURCE_SCHEMA = pa.schema([("lang", pa.string()),
                                 ("source", pa.string())])
def _diff_snapshots(sf_dir: str):
    """The deterministic old/new snapshot pair the diff queries
    reconcile: old drops ``doc_id%11=3`` (those become 'added'),
    new drops ``doc_id%7=2`` ('removed') and rewrites text for
    ``doc_id%5=0`` ('changed')."""

    def _old(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.not_equal(_int_mod(batch.column("doc_id"), 11),
                         pa.scalar(3, pa.int64())))

    def _new(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.not_equal(_int_mod(batch.column("doc_id"), 7),
                         pa.scalar(2, pa.int64())))
        changed = pc.equal(_int_mod(t.column("doc_id"), 5),
                           pa.scalar(0, pa.int64()))
        text = t.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        rewritten = pc.binary_join_element_wise(text, "!", "")
        return t.set_column(
            t.schema.get_field_index("text"), "text",
            pc.if_else(changed, rewritten, text))

    cols = ["doc_id", "text", "lang"]
    old = _docs(sf_dir, columns=cols).map_batches(
        _old, batch_format="pyarrow")
    new = _docs(sf_dir, columns=cols).map_batches(
        _new, batch_format="pyarrow")
    return old, new
BM25_QUERY = ["window", "merge", "stream"]
HYBRID_LEG_K = 20  # candidates per retrieval leg before fusion
PAGE_NS = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2019-07-15"
# the 3-token shingle CTE over documents (doc_id, text) — mirrors
# stages/dedup.py shingling exactly
SHINGLE_CTE = (
    "t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents), "
    "sh AS (SELECT doc_id, CASE WHEN len(toks) >= 3 THEN "
    "list_transform(generate_series(1, len(toks) - 2), "
    "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) "
    "ELSE [] END AS shingles FROM t)"
)
_PII_AUG_CTE = (
    "aug AS (SELECT doc_id, coalesce(text, '') || ' contact user' || "
    "CAST(doc_id AS VARCHAR) || '@mail.example.com or +1-555-' || "
    "CAST(doc_id + 1000000 AS VARCHAR) || ' at 10.' || "
    "CAST(doc_id % 256 AS VARCHAR) || '.0.' || "
    "CAST(doc_id % 64 AS VARCHAR) AS x FROM documents)"
)
def _pii_chain_cte() -> str:
    frags, prev, carried = [], "aug", []
    for i, (name, pat, repl) in enumerate(_PII_PATTERNS, 1):
        keep = ", ".join(f"n_{c}" for c in carried)
        keep = keep + ", " if keep else ""
        frags.append(
            f"r{i} AS (SELECT doc_id, {keep}"
            f"len(regexp_extract_all(x, '{pat}')) AS n_{name}, "
            f"regexp_replace(x, '{pat}', '{repl}', 'g') AS x "
            f"FROM {prev})"
        )
        prev = f"r{i}"
        carried.append(name)
    return ", ".join(frags)
_PII_CHAIN_CTE = _pii_chain_cte()
def _profile_sql_col(col: str, numeric: bool) -> str:
    """One UNION-ALL arm of the profile_table oracle: the SQL twin of
    stages/profile.profile_table for a single column, including the
    md5-KMV distinct sketch (k=64) computed bit-for-bit."""
    kmv = (
        "(WITH h AS (SELECT DISTINCT CAST(('0x' || "
        "substr(md5(CAST({c} AS VARCHAR)), 1, 8)) AS UBIGINT) AS hv "
        "FROM documents WHERE {c} IS NOT NULL), "
        "kmin AS (SELECT hv FROM h ORDER BY hv LIMIT 64) "
        "SELECT CASE WHEN count(*) < 64 "
        "THEN CAST(count(*) AS DOUBLE) "
        "ELSE floor(63.0 / (CAST(max(hv) AS DOUBLE) / 4294967296.0) "
        "* 1000000.0 + 0.5) / 1000000.0 END FROM kmin)"
    ).format(c=col)
    if numeric:
        stats = (
            "CAST(min({c}) AS DOUBLE) AS vmin, "
            "CAST(max({c}) AS DOUBLE) AS vmax, "
            "floor(avg({c}) * 1000000.0 + 0.5) / 1000000.0 AS mean, "
            "CAST(NULL AS VARCHAR) AS smin, "
            "CAST(NULL AS VARCHAR) AS smax"
        ).format(c=col)
    else:
        stats = (
            "CAST(NULL AS DOUBLE) AS vmin, CAST(NULL AS DOUBLE) AS "
            "vmax, CAST(NULL AS DOUBLE) AS mean, "
            "min({c}) AS smin, max({c}) AS smax"
        ).format(c=col)
    return (
        f"SELECT '{col}' AS col, CAST(count(*) AS BIGINT) AS n_rows, "
        f"CAST(count(*) FILTER (WHERE {col} IS NULL) AS BIGINT) "
        f"AS n_nulls, " + stats
        + f", {kmv} AS n_distinct_kmv FROM documents"
    )
PROFILE_SQL = " UNION ALL ".join(
    [_profile_sql_col(c, True) for c in ("doc_id", "n_chars")]
    + [_profile_sql_col(c, False) for c in ("lang", "source")]
)
_DIFF_SNAPSHOTS_SQL = (
    "WITH oldsnap AS (SELECT doc_id, text, lang FROM documents "
    "WHERE doc_id % 11 <> 3), "
    "newsnap AS (SELECT doc_id, CASE WHEN doc_id % 5 = 0 "
    "THEN text || '!' ELSE text END AS text, lang FROM documents "
    "WHERE doc_id % 7 <> 2), "
    "d AS (SELECT coalesce(o.doc_id, n.doc_id) AS doc_id, "
    "CASE WHEN o.doc_id IS NULL THEN 'added' "
    "WHEN n.doc_id IS NULL THEN 'removed' "
    "WHEN (o.text IS DISTINCT FROM n.text) "
    "OR (o.lang IS DISTINCT FROM n.lang) THEN 'changed' "
    "ELSE 'unchanged' END AS status "
    "FROM oldsnap o FULL JOIN newsnap n ON o.doc_id = n.doc_id) "
)
# --- product quantization -------------------------------------------------
PQ_M, PQ_K, PQ_ITERS = 4, 4, 2
PQ_DIM = 64  # testdata embeddings are fixed 64-d (corpus generator)
def _pq_sql(m: int, k: int, iters: int, scale: int, dim: int) -> str:
    """Per-subspace `_kmeans_sql` chains sharing one flattened-vector
    CTE and one smallest-ids init CTE; final select joins the m
    assignment CTEs into (vec_id, code_0..code_{m-1})."""
    w = dim // m

    def _chain(j: int) -> str:
        lo = j * w
        ctes = [
            f"v{j} AS (SELECT vec_id, d - {lo} AS d, x FROM v "
            f"WHERE d > {lo} AND d <= {lo + w})",
            f"c0_{j} AS (SELECT i.cluster, v.d, v.x FROM init i "
            f"JOIN v{j} v USING (vec_id))",
        ]
        for i in range(iters):
            ctes.append(
                f"a{i}_{j} AS (SELECT vec_id, cluster FROM ("
                f"SELECT v.vec_id, c.cluster, row_number() OVER ("
                f"PARTITION BY v.vec_id "
                f"ORDER BY sum((v.x - c.x)*(v.x - c.x)), c.cluster) AS rn "
                f"FROM v{j} v JOIN c{i}_{j} c USING (d) "
                f"GROUP BY v.vec_id, c.cluster) WHERE rn = 1)")
            ctes.append(
                f"c{i + 1}_{j} AS (SELECT c.cluster, c.d, "
                f"COALESCE(mm.x, c.x) AS x FROM c{i}_{j} c LEFT JOIN ("
                f"SELECT a.cluster, v.d, sum(v.x) // count(*) AS x "
                f"FROM a{i}_{j} a JOIN v{j} v USING (vec_id) "
                f"GROUP BY a.cluster, v.d) mm "
                f"ON mm.cluster = c.cluster AND mm.d = c.d)")
        ctes.append(
            f"f{j} AS (SELECT vec_id, cluster FROM ("
            f"SELECT v.vec_id, c.cluster, row_number() OVER ("
            f"PARTITION BY v.vec_id "
            f"ORDER BY sum((v.x - c.x)*(v.x - c.x)), c.cluster) AS rn "
            f"FROM v{j} v JOIN c{iters}_{j} c USING (d) "
            f"GROUP BY v.vec_id, c.cluster) WHERE rn = 1)")
        return ", ".join(ctes)

    chains = ", ".join(_chain(j) for j in range(m))
    code_cols = ", ".join(
        f"f{j}.cluster AS code_{j}" for j in range(m))
    joins = " ".join(
        f"JOIN f{j} USING (vec_id)" for j in range(1, m))
    return (
        "WITH v AS (SELECT vec_id, "
        "generate_subscripts(embedding, 1) AS d, "
        f"CAST(floor(CAST(unnest(embedding) AS DOUBLE) * {scale}) "
        "AS BIGINT) AS x FROM embeddings), "
        "init AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 "
        "AS cluster FROM (SELECT DISTINCT vec_id FROM v "
        f"ORDER BY vec_id LIMIT {k})), "
        f"{chains} "
        f"SELECT f0.vec_id, {code_cols} FROM f0 {joins}"
    )
def _pq_adc_sql(m: int, k: int, iters: int, scale: int, dim: int,
                qid: int, topk: int) -> str:
    """ADC twin: reuse the `_pq_sql` chain text (same codebooks and
    codes by construction), add per-subspace query slices qv{j} and
    distance tables dt{j}, rank by summed table lookups."""
    w = dim // m
    base = _pq_sql(m, k, iters, scale, dim)
    chains = base[:base.rindex(" SELECT f0.vec_id")]
    extra = []
    for j in range(m):
        lo = j * w
        extra.append(
            f"qv{j} AS (SELECT d - {lo} AS d, x FROM v "
            f"WHERE vec_id = {qid} AND d > {lo} AND d <= {lo + w})")
        extra.append(
            f"dt{j} AS (SELECT c.cluster, "
            f"sum((c.x - q.x)*(c.x - q.x)) AS dd "
            f"FROM c{iters}_{j} c JOIN qv{j} q USING (d) "
            f"GROUP BY c.cluster)")
    dist_sum = " + ".join(f"d{j}.dd" for j in range(m))
    joins = " ".join(
        f"JOIN f{j} USING (vec_id)" for j in range(1, m)) + " " + " ".join(
        f"JOIN dt{j} d{j} ON d{j}.cluster = f{j}.cluster"
        for j in range(m))
    return (
        f"{chains}, {', '.join(extra)} "
        f"SELECT vec_id, CAST({dist_sum} AS BIGINT) AS adc_dist "
        f"FROM f0 {joins} WHERE vec_id <> {qid} "
        f"ORDER BY adc_dist, vec_id LIMIT {topk}"
    )
def _confusable_sql() -> str:
    from ..stages.normalize import CONFUSABLES

    src = "".join(CONFUSABLES)
    dst = "".join(CONFUSABLES.values())
    return (
        "SELECT doc_id, translate(CASE WHEN doc_id % 4 = 0 THEN "
        "replace(replace(COALESCE(text, ''), 'a', 'а'), 'e', 'е') "
        f"ELSE COALESCE(text, '') END, '{src}', '{dst}') AS text_clean "
        "FROM documents"
    )
_RVZ_W = ("CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || '|' "
          "|| n.node), 1, 16)) AS UBIGINT)")
_KC_SIM = ("CAST(FLOOR(list_cosine_similarity(e.v, {c}.v) * 1e6 "
           "+ 0.5) AS BIGINT)")
def _sitemap_fixture(batch: pa.Table) -> pa.Table:
    """97-host sitemap.xml corpus of `seed_pipeline`: host h lists
    pages /p/1 .. /p/(1 + h % 4)."""
    hs = batch.column("id").to_pylist()
    hosts, xmls = [], []
    for h in hs:
        parts = ['<urlset xmlns='
                 '"http://www.sitemaps.org/schemas/sitemap/0.9">']
        for j in range(1, 2 + h % 4):
            parts.append(f"<url><loc>http://host{h}.example.com"
                         f"/p/{j}</loc></url>")
        parts.append("</urlset>")
        hosts.append(f"host{h}.example.com")
        xmls.append("".join(parts))
    return pa.table({
        "host": pa.array(hosts, pa.string()),
        "sitemap_xml": pa.array(xmls, pa.string()),
    })
def _mojibake_sql() -> str:
    from ..stages.normalize import MOJIBAKE, MOJIBAKE_ORDER

    expr = "text"
    for moji in MOJIBAKE_ORDER:
        m = moji.replace("'", "''")
        t = MOJIBAKE[moji].replace("'", "''")
        expr = f"replace({expr}, '{m}', '{t}')"
    return (
        "WITH aug AS (SELECT doc_id, CASE WHEN doc_id % 5 = 0 THEN "
        "replace(replace(coalesce(text, ''), 'a', 'Ã¡'), 'o', 'Ã³') "
        "ELSE coalesce(text, '') END AS text FROM documents) "
        f"SELECT doc_id, {expr} AS text_fixed FROM aug "
        "ORDER BY doc_id"
    )
_BUCKET_CHECKSUM_SQL = (
    "SELECT o_orderkey % 32 AS bucket, "
    "CAST(count(*) AS BIGINT) AS n, "
    "CAST(sum(CAST(('0x' || substr(md5("
    "COALESCE(CAST(o_orderkey AS VARCHAR), chr(30)) || chr(31) || "
    "COALESCE(CAST(o_custkey AS VARCHAR), chr(30)) || chr(31) || "
    "COALESCE(o_orderstatus, chr(30)) || chr(31) || "
    "COALESCE(o_orderpriority, chr(30)) || chr(31)), 1, 15)) "
    "AS UBIGINT)) % 9223372036854775808 AS BIGINT) AS cs "
    "FROM {src} GROUP BY o_orderkey % 32"
)


__all__ = [
    "REPL_KEYS",
    "REGEX_PATTERN",
    "REGEX_OLD",
    "REGEX_NEW",
    "SANITIZE_SQL",
    "QUALITY_SQL",
    "_docs",
    "_pii_augment",
    "_url_augment",
    "_int_mod",
    "_HOST_ID_SQL",
    "TAG_TERMS",
    "_query_vec",
    "NEAR_DUP_THRESHOLD",
    "PACK_SEQ_LEN",
    "LM_MIN_COUNT",
    "LM_SCALE",
    "_lm_score_sql",
    "KMEANS_K",
    "KMEANS_ITERS",
    "KMEANS_SCALE",
    "_kmeans_sql",
    "QUANTILE_QS",
    "_docs_half",
    "_schema_stable",
    "_LANG_SOURCE_SCHEMA",
    "_diff_snapshots",
    "BM25_QUERY",
    "HYBRID_LEG_K",
    "PAGE_NS",
    "SHINGLE_CTE",
    "_PII_AUG_CTE",
    "_PII_CHAIN_CTE",
    "PROFILE_SQL",
    "_DIFF_SNAPSHOTS_SQL",
    "PQ_M",
    "PQ_K",
    "PQ_ITERS",
    "PQ_DIM",
    "_pq_sql",
    "_pq_adc_sql",
    "_confusable_sql",
    "_RVZ_W",
    "_KC_SIM",
    "_sitemap_fixture",
    "_mojibake_sql",
    "_BUCKET_CHECKSUM_SQL",
]
