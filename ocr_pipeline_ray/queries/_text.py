"""Text analysis, tokenization and search queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import math
from typing import Dict
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Sum
from ..stages.similarity import brute_force_topk
from ..stages.textstats import (
    lang_id_fn,
    repetition_stats_fn,
    token_count_fn,
    token_rarity,
)
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_lang_stats(sf_dir: str):
    """Per-language corpus stats (groupby + partial-friendly aggs)."""
    ds = _docs(sf_dir, ["lang", "n_chars"])
    agg = ds.groupby("lang").aggregate(Count(), Sum("n_chars"))

    def _finish(batch: pa.Table) -> pa.Table:
        names = {"count()": "n_docs", "sum(n_chars)": "sum_chars"}
        batch = batch.rename_columns(
            [names.get(c, c) for c in batch.column_names]
        )
        n_docs = batch.column("n_docs").to_pylist()
        sum_chars = batch.column("sum_chars").to_pylist()
        avg = [s / n for s, n in zip(sum_chars, n_docs)]
        return (
            pa.table({
                "lang": batch.column("lang"),
                "n_docs": pc.cast(batch.column("n_docs"), pa.int64()),
                "sum_chars": pc.cast(batch.column("sum_chars"), pa.int64()),
                "avg_chars": pa.array(avg, pa.float64()),
            })
        )

    return agg.map_batches(_finish, batch_format="pyarrow")
ORACLE_SQL["lang_stats"] = (
"SELECT lang, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS sum_chars, "
        "CAST(sum(n_chars) AS DOUBLE) / count(*) AS avg_chars "
        "FROM documents GROUP BY lang"
)
QUERIES["lang_stats"] = q_lang_stats
def q_lang_id(sf_dir: str):
    """Stopword-profile language identification."""
    ds = _docs(sf_dir).map_batches(lang_id_fn, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "s_en", "s_de", "lang_pred"])
ORACLE_SQL["lang_id"] = (
"SELECT doc_id, "
        "CAST(len(list_filter(string_split(text, ' '), "
        "x -> x = 'the' OR x = 'a')) AS BIGINT) AS s_en, "
        "CAST(len(list_filter(string_split(text, ' '), "
        "x -> x = 'der' OR x = 'die' OR x = 'das' OR x = 'und')) AS BIGINT) AS s_de, "
        "CASE WHEN len(list_filter(string_split(text, ' '), "
        "x -> x = 'the' OR x = 'a')) > len(list_filter(string_split(text, ' '), "
        "x -> x = 'der' OR x = 'die' OR x = 'das' OR x = 'und')) THEN 'en' "
        "WHEN len(list_filter(string_split(text, ' '), "
        "x -> x = 'der' OR x = 'die' OR x = 'das' OR x = 'und')) > "
        "len(list_filter(string_split(text, ' '), x -> x = 'the' OR x = 'a')) "
        "THEN 'de' ELSE 'unk' END AS lang_pred "
        "FROM documents"
)
QUERIES["lang_id"] = q_lang_id
def q_lang_confusion(sf_dir: str):
    """Label-quality audit: confusion matrix of the DECLARED lang
    column vs the stopword-profile detector — the "how dirty are my
    labels" rollup. Map-side (declared, predicted) partial counts,
    one tiny groupby (languages² cells)."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"]).map_batches(
        lang_id_fn, batch_format="pyarrow")

    def _partial(batch: pa.Table) -> pa.Table:
        sub = pa.table({
            "lang_declared": batch.column("lang"),
            "lang_pred": batch.column("lang_pred"),
        })
        agg = sub.group_by(
            ["lang_declared", "lang_pred"]).aggregate([([],
                                                        "count_all")])
        return pa.table({
            "lang_declared": agg.column("lang_declared"),
            "lang_pred": agg.column("lang_pred"),
            "n": pc.cast(agg.column("count_all"), pa.int64()),
        })

    out = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        ["lang_declared", "lang_pred"]).aggregate(Sum("n"))
    return out.map_batches(
        lambda b: pa.table({
            "lang_declared": b.column("lang_declared"),
            "lang_pred": b.column("lang_pred"),
            "n": pc.cast(b.column("sum(n)"), pa.int64()),
        }), batch_format="pyarrow")
ORACLE_SQL["lang_confusion"] = (
    "WITH p AS (SELECT lang AS lang_declared, "
    "CASE WHEN len(list_filter(string_split(text, ' '), "
    "x -> x = 'the' OR x = 'a')) > len(list_filter("
    "string_split(text, ' '), x -> x = 'der' OR x = 'die' "
    "OR x = 'das' OR x = 'und')) THEN 'en' "
    "WHEN len(list_filter(string_split(text, ' '), "
    "x -> x = 'der' OR x = 'die' OR x = 'das' OR x = 'und')) > "
    "len(list_filter(string_split(text, ' '), "
    "x -> x = 'the' OR x = 'a')) THEN 'de' ELSE 'unk' END "
    "AS lang_pred FROM documents) "
    "SELECT lang_declared, lang_pred, CAST(count(*) AS BIGINT) AS n "
    "FROM p GROUP BY 1, 2"
)
QUERIES["lang_confusion"] = q_lang_confusion
def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals: duplicate/top bigram fractions."""
    return _docs(sf_dir).map_batches(
        repetition_stats_fn, batch_format="pyarrow"
    )
ORACLE_SQL["repetition_stats"] = (
"WITH t AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') "
        "AS toks FROM documents), "
        "b AS (SELECT doc_id, toks[g] || ' ' || toks[g + 1] AS bg "
        "FROM t, LATERAL unnest(range(1, len(toks))) AS r(g) "
        "WHERE len(toks) >= 2), "
        "g AS (SELECT doc_id, bg, count(*) AS c FROM b "
        "GROUP BY doc_id, bg) "
        "SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_bigrams, "
        "1.0 - CAST(count(*) AS DOUBLE) / CAST(sum(c) AS BIGINT) "
        "AS dup_bigram_frac, "
        "CAST(max(c) AS DOUBLE) / CAST(sum(c) AS BIGINT) "
        "AS top_bigram_frac FROM g GROUP BY doc_id"
)
QUERIES["repetition_stats"] = q_repetition_stats
def q_token_rarity(sf_dir: str):
    """CCNet-style corpus-frequency rarity: per-doc mean df."""
    return token_rarity(_docs(sf_dir))
ORACLE_SQL["token_rarity"] = (
"WITH t AS (SELECT doc_id, unnest(string_split(text, ' ')) "
        "AS tok FROM documents WHERE text IS NOT NULL), "
        "tf AS (SELECT doc_id, tok, count(*) AS tf FROM t "
        "GROUP BY doc_id, tok), "
        "df AS (SELECT tok, count(*) AS df FROM tf GROUP BY tok) "
        "SELECT tf.doc_id, CAST(sum(tf.tf) AS BIGINT) AS n_tokens, "
        "CAST(sum(tf.tf * df.df) AS DOUBLE) / "
        "CAST(sum(tf.tf) AS BIGINT) AS mean_df "
        "FROM tf JOIN df USING (tok) GROUP BY tf.doc_id"
)
QUERIES["token_rarity"] = q_token_rarity
def q_inverted_index(sf_dir: str):
    """Exact inverted index: token → (df, doc_ids, tfs) postings.

    Map-side (token, doc_id, tf) combine, bucketed whole-bucket
    posting-list build (one sort + ListArray per bucket — never a
    per-token UDF), deterministic 16-posting cap with the full df
    and a truncated flag (no silent loss).
    """
    from ..stages.index import inverted_index

    idx = inverted_index(_docs(sf_dir), max_postings=16)

    def _csv(batch: pa.Table) -> pa.Table:
        # the driver's value-hash compares scalars — CSV-encode the
        # posting lists (the operator itself emits real list columns)
        def _join(col):
            return pc.binary_join(
                pc.cast(col, pa.list_(pa.string())), ",")
        return pa.table({
            "token": batch.column("token"),
            "df": batch.column("df"),
            "doc_ids_csv": _join(batch.column("doc_ids")),
            "tfs_csv": _join(batch.column("tfs")),
            "truncated": batch.column("truncated"),
        })

    return idx.map_batches(_csv, batch_format="pyarrow").sort("token")
ORACLE_SQL["inverted_index"] = (
"WITH t AS (SELECT doc_id, unnest(string_split(text, ' ')) "
        "AS token FROM documents WHERE text IS NOT NULL), "
        "tf AS (SELECT token, doc_id, count(*) AS tf FROM t "
        "GROUP BY token, doc_id) "
        "SELECT token, CAST(count(*) AS BIGINT) AS df, "
        "array_to_string((list(doc_id ORDER BY doc_id))[1:16], ',') "
        "AS doc_ids_csv, "
        "array_to_string((list(tf ORDER BY doc_id))[1:16], ',') "
        "AS tfs_csv, "
        "count(*) > 16 AS truncated "
        "FROM tf GROUP BY token ORDER BY token"
)
QUERIES["inverted_index"] = q_inverted_index
def q_dictionary_tag(sf_dir: str):
    """Phrase-dictionary tagging: (doc_id, term, n_hits) for every
    dictionary phrase occurring in the doc, overlaps counted (one
    automaton pass per doc across the whole lexicon; actor pool)."""
    from ..stages.textstats import dictionary_tag

    return dictionary_tag(
        _docs(sf_dir, columns=["doc_id", "text"]), TAG_TERMS)
# dictionary_tag: per-term OVERLAPPING occurrence counts — every
# char offset i where the phrase starts. No dictionary phrase is a
# prefix of another (see TAG_TERMS), so no tiebreak term is needed.
ORACLE_SQL["dictionary_tag"] = "WITH hits AS (" + " UNION ALL ".join(
    "SELECT doc_id, '" + t + "' AS term, "
    "CAST(len(list_filter(generate_series(1, len(text) - "
    + str(len(t)) + " + 1), i -> substr(text, i, " + str(len(t))
    + ") = '" + t + "')) AS BIGINT) AS n_hits FROM documents"
    for t in TAG_TERMS
) + ") SELECT doc_id, term, n_hits FROM hits WHERE n_hits > 0"
QUERIES["dictionary_tag"] = q_dictionary_tag
def q_char_entropy(sf_dir: str):
    """Per-doc character-level Shannon entropy (nats, round6) — the
    gibberish/binary-junk curation signal; row-local, no shuffle."""
    from ..stages.textstats import char_entropy_fn

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        char_entropy_fn, batch_format="pyarrow")
# char-level Shannon entropy, both sides rounded to the 1e-6 grid
# (summation order differs; the grid absorbs last-ulp noise)
ORACLE_SQL["char_entropy"] = (
    "WITH c AS (SELECT doc_id, unnest(string_split(text, '')) AS ch "
    "FROM documents WHERE len(coalesce(text, '')) > 0), "
    "cc AS (SELECT doc_id, ch, count(*) AS n FROM c GROUP BY doc_id, ch), "
    "tot AS (SELECT doc_id, CAST(sum(n) AS BIGINT) AS nn FROM cc "
    "GROUP BY doc_id) "
    "SELECT cc.doc_id, CAST(max(nn) AS BIGINT) AS n_chars, "
    "floor(-sum((n / CAST(nn AS DOUBLE)) * ln(n / CAST(nn AS DOUBLE))) "
    "* 1000000.0 + 0.5) / 1000000.0 AS char_entropy "
    "FROM cc JOIN tot USING (doc_id) GROUP BY cc.doc_id"
)
QUERIES["char_entropy"] = q_char_entropy
def q_oov_rate(sf_dir: str):
    """Tokenizer-coverage report: per-doc OOV fraction against the
    corpus's own top-100 vocabulary (global token totals → tiny
    top-V sort → broadcast is_in scan; all-integer until the final
    division)."""
    from ..stages.textstats import oov_rate

    return oov_rate(_docs(sf_dir, columns=["doc_id", "text"]), v=100)
# OOV rate vs the corpus top-100 vocab (count desc, token asc ties)
ORACLE_SQL["oov_rate"] = (
    "WITH tok AS (SELECT doc_id, "
    "unnest(string_split(coalesce(text, ''), ' ')) AS t "
    "FROM documents), "
    "vocab AS (SELECT t FROM tok GROUP BY t "
    "QUALIFY row_number() OVER (ORDER BY count(*) DESC, t) <= 100), "
    "flags AS (SELECT doc_id, CAST(t IN (SELECT t FROM vocab) AS INT) "
    "AS in_v FROM tok) "
    "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
    "CAST(count(*) - sum(in_v) AS BIGINT) AS n_oov, "
    "CAST(count(*) - sum(in_v) AS DOUBLE) / count(*) AS oov_rate "
    "FROM flags GROUP BY doc_id"
)
QUERIES["oov_rate"] = q_oov_rate
def q_packed_windows(sf_dir: str):
    """Materialized packed training windows, exploded to (seq_id,
    pos, tok) rows for the oracle. The engine emits the loader-ready
    ``(seq_id, n_filled, tokens list<int64>)`` windows
    (``stages/pack.pack_windows``: tokenize once, token hashes ride
    the packing plan's band exchange, token rows co-shuffle by window
    bucket, whole-bucket lexsort assembly)."""
    import numpy as np

    from ..stages.pack import pack_windows

    wins = pack_windows(_docs(sf_dir), seq_len=PACK_SEQ_LEN)

    def _explode(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens").combine_chunks()
        lens = np.asarray(pc.list_value_length(col), dtype=np.int64)
        flat = np.asarray(col.flatten(), dtype=np.int64)
        seq = batch.column("seq_id").combine_chunks().to_numpy() \
            .astype(np.int64)
        pos = (np.arange(len(flat), dtype=np.int64)
               - np.repeat(np.concatenate(([0], np.cumsum(lens)))[:-1],
                           lens))
        return pa.table({
            "seq_id": pa.array(np.repeat(seq, lens), pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "tok": pa.array(flat, pa.int64()),
        })

    return wins.map_batches(_explode, batch_format="pyarrow")
ORACLE_SQL["packed_windows"] = (
    "WITH toks AS (SELECT doc_id, CASE WHEN text IS NULL THEN "
    "CAST([] AS VARCHAR[]) ELSE string_split(text, ' ') END AS t "
    "FROM documents), "
    "cum AS (SELECT doc_id, t, COALESCE(sum(len(t)) OVER "
    "(ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
    "1 PRECEDING), 0) AS cb FROM toks), "
    "tok AS (SELECT cb + i - 1 AS g, "
    "CAST(CAST(('0x' || substr(md5(t[i]), 1, 8)) AS UBIGINT) "
    "AS BIGINT) AS th FROM cum, "
    "LATERAL unnest(generate_series(1, len(t))) AS r(i)) "
    f"SELECT CAST(g // {PACK_SEQ_LEN} AS BIGINT) AS seq_id, "
    f"CAST(g % {PACK_SEQ_LEN} AS BIGINT) AS pos, th AS tok FROM tok"
)
QUERIES["packed_windows"] = q_packed_windows
def q_top_tokens(sf_dir: str):
    """Corpus top-50 vocabulary — partial Counters, tiny shuffle,
    deterministic tie-break (count desc, token asc)."""

    def _partial(batch: pa.Table) -> pa.Table:
        counts: Dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            for tok in (text or "").split(" "):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table({
            "token": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    ds = _docs(sf_dir, ["text"])
    agg = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "token"
    ).aggregate(Sum("n"))

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "token": batch.column("token"),
            "n": pc.cast(batch.column("sum(n)"), pa.int64()),
        })

    return (
        agg.map_batches(_rename, batch_format="pyarrow")
        .sort(key=["n", "token"], descending=[True, False])
        .limit(50)
    )
ORACLE_SQL["top_tokens"] = (
"SELECT token, CAST(count(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(string_split(text, ' ')) AS token FROM documents"
        ") GROUP BY token ORDER BY count(*) DESC, token ASC LIMIT 50"
)
QUERIES["top_tokens"] = q_top_tokens
def q_token_pair_counts(sf_dir: str):
    """Corpus top-20 adjacent token pairs — the statistic behind a
    BPE tokenizer's first merge choice. Same shape as top_tokens:
    map-side partial Counters over per-doc pair streams, one small
    groupby, deterministic (count desc, pair asc) top-k."""

    def _partial(batch: pa.Table) -> pa.Table:
        counts: Dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            if text is None:
                continue
            toks = text.split(" ")
            for a, b in zip(toks, toks[1:]):
                p = a + " " + b
                counts[p] = counts.get(p, 0) + 1
        return pa.table({
            "pair": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    agg = (
        _docs(sf_dir, ["text"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("pair").aggregate(Sum("n"))
    )
    return (
        agg.map_batches(
            lambda b: pa.table({
                "pair": b.column("pair"),
                "n": pc.cast(b.column("sum(n)"), pa.int64()),
            }),
            batch_format="pyarrow",
        )
        .sort(key=["n", "pair"], descending=[True, False])
        .limit(20)
    )
ORACLE_SQL["token_pair_counts"] = (
"SELECT pair, CAST(count(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(list_transform("
        "generate_series(1, len(toks) - 1), "
        "i -> toks[i] || ' ' || toks[i+1])) AS pair FROM ("
        "SELECT string_split(text, ' ') AS toks FROM documents)) "
        "GROUP BY pair ORDER BY count(*) DESC, pair ASC LIMIT 20"
)
QUERIES["token_pair_counts"] = q_token_pair_counts
def q_tfidf_top_terms(sf_dir: str):
    """Corpus TF-IDF, top-3 terms per doc — flat tf rows, one
    vocab-scale df groupby, token-keyed repartition join (a web
    vocabulary is never broadcast), bucketed per-doc top-k. See
    stages/textstats.tfidf_top_terms."""
    from ..stages.textstats import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir), k=3).sort(["doc_id", "token"])
ORACLE_SQL["tfidf_top_terms"] = (
"WITH tk AS (SELECT doc_id, unnest(string_split(text, ' ')) "
        "AS token FROM documents), "
        "tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf "
        "FROM tk GROUP BY doc_id, token), "
        "df AS (SELECT token, count(*) AS df FROM tf GROUP BY token), "
        "s AS (SELECT doc_id, token, "
        "floor(tf * ln(CAST((SELECT count(*) FROM documents) "
        "AS DOUBLE) / df) * 1000000.0 + 0.5) / 1000000.0 AS score "
        "FROM tf JOIN df USING (token)) "
        "SELECT doc_id, token, score FROM s "
        "QUALIFY row_number() OVER (PARTITION BY doc_id "
        "ORDER BY score DESC, token ASC) <= 3 "
        "ORDER BY doc_id, token"
)
QUERIES["tfidf_top_terms"] = q_tfidf_top_terms
def q_lang_quantiles(sf_dir: str):
    """Exact per-language doc-length quantiles (grouped
    percentile_disc — stages/stats.grouped_quantiles)."""
    from ..stages.stats import grouped_quantiles

    t = grouped_quantiles(
        _docs(sf_dir, columns=["lang", "n_chars"]), "lang", "n_chars",
        [0.25, 0.5, 0.9],
    )
    return pa.table({
        "lang": t.column("key"),
        "q": t.column("q"),
        "value": pc.cast(t.column("value"), pa.int64()),
    })
ORACLE_SQL["lang_quantiles"] = (
"SELECT lang, unnest([0.25, 0.5, 0.9]) AS q, "
        "CAST(unnest(quantile_disc(n_chars, [0.25, 0.5, 0.9])) "
        "AS BIGINT) AS value FROM documents GROUP BY lang "
        "HAVING count(n_chars) > 0"
)
QUERIES["lang_quantiles"] = q_lang_quantiles
def q_top_docs_per_lang(sf_dir: str):
    """Group-wise top-k (top 3 docs per language by n_chars, doc_id
    tie-break) — computed the scalable way: vectorized PARTIAL top-k
    per block (argsort + head inside map_batches), then one tiny
    global groupby over blocks×k candidate rows. The full dataset
    never sorts."""
    import numpy as np

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    k = 3

    def _partial_topk(batch: pa.Table) -> pa.Table:
        langs = np.asarray(batch.column("lang").to_pylist())
        ids = batch.column("doc_id").combine_chunks().to_numpy()
        chars = batch.column("n_chars").combine_chunks().to_numpy()
        keep_idx = []
        for lang in np.unique(langs):
            sel = np.flatnonzero(langs == lang)
            # top-k by (-n_chars, doc_id): lexsort last key primary
            order = np.lexsort((ids[sel], -chars[sel]))
            keep_idx.extend(sel[order[:k]])
        f = batch.take(pa.array(sorted(keep_idx), pa.int64()))
        return pa.table({
            "lang": f.column("lang"),
            "doc_id": f.column("doc_id"),
            "n_chars": pc.cast(f.column("n_chars"), pa.int64()),
        })

    def _final_topk(group: pa.Table) -> pa.Table:
        g = group.sort_by([("lang", "ascending"),
                           ("n_chars", "descending"),
                           ("doc_id", "ascending")])
        langs = g.column("lang").to_pylist()
        rank_in_lang, seen = [], {}
        for lang in langs:
            seen[lang] = seen.get(lang, 0) + 1
            rank_in_lang.append(seen[lang])
        mask = pa.array([r <= k for r in rank_in_lang])
        return g.filter(mask)

    cands = ds.map_batches(_partial_topk, batch_format="pyarrow")
    # candidates = blocks × langs × k rows — tiny; one single-group
    # pass finishes the selection
    return (
        cands.map_batches(
            lambda b: b.append_column(
                "_g", pa.nulls(b.num_rows, pa.int64()).fill_null(0)
            ),
            batch_format="pyarrow",
        )
        .groupby("_g")
        .map_groups(
            lambda g: _final_topk(g.drop_columns(["_g"])),
            batch_format="pyarrow",
        )
    )
ORACLE_SQL["top_docs_per_lang"] = (
"SELECT lang, doc_id, CAST(n_chars AS BIGINT) AS n_chars "
        "FROM documents "
        "QUALIFY row_number() OVER (PARTITION BY lang "
        "ORDER BY n_chars DESC, doc_id ASC) <= 3"
)
QUERIES["top_docs_per_lang"] = q_top_docs_per_lang
def q_bm25_search(sf_dir: str):
    """BM25 lexical top-10 (stages/textstats.py ``bm25_topk``): two
    shuffle-free scans — query-token corpus stats folded on the
    driver, then vectorized per-block scoring + local top-k. The
    SQL twin computes the identical formula (grid-rounded scores,
    id tie-break)."""
    from ..stages.textstats import bm25_topk

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    return bm25_topk(docs, BM25_QUERY, k=10)
ORACLE_SQL["bm25_search"] = (
    "WITH tok AS (SELECT doc_id, unnest(string_split("
    "coalesce(text, ''), ' ')) AS t FROM documents), "
    "dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS len "
    "FROM tok GROUP BY doc_id), "
    "st AS (SELECT CAST(count(*) AS DOUBLE) AS nd, avg(len) AS avgdl "
    "FROM dl), "
    "tf AS (SELECT doc_id, t, CAST(count(*) AS DOUBLE) AS tf "
    "FROM tok WHERE t IN ('window', 'merge', 'stream') "
    "GROUP BY doc_id, t), "
    "df AS (SELECT t, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df "
    "FROM tf GROUP BY t), "
    "sc AS (SELECT tf.doc_id, sum("
    "ln((st.nd - df.df + 0.5) / (df.df + 0.5) + 1.0) "
    "* tf.tf * (1.2 + 1.0) "
    "/ (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.len / st.avgdl))"
    ") AS score "
    "FROM tf JOIN df USING (t) JOIN dl ON dl.doc_id = tf.doc_id, st "
    "GROUP BY tf.doc_id) "
    "SELECT doc_id, floor(score * 1000000.0 + 0.5) / 1000000.0 "
    "AS score FROM sc "
    "ORDER BY floor(score * 1000000.0 + 0.5) / 1000000.0 DESC, "
    "doc_id LIMIT 10"
)
QUERIES["bm25_search"] = q_bm25_search
def q_hybrid_search(sf_dir: str):
    """Hybrid retrieval (stages/rank.py ``rrf_fuse``): reciprocal-
    rank fusion of the BM25 lexical top-20 and the dense cosine
    top-20 over the SAME id space (doc_id == vec_id in the corpus) —
    the standard RAG-curation retrieval shape where neither lexical
    nor embedding recall alone suffices. Both legs are the existing
    distributed operators (two scans each, no shuffle); the fuse
    itself folds 2xK candidate rows on the driver. The SQL twin
    recomputes both legs with the leg oracles' own ORDER BY rules,
    ranks via row_number(), and COALESCE-sums 1/(60+rank)."""
    from ..stages.rank import rrf_fuse
    from ..stages.similarity import brute_force_topk
    from ..stages.textstats import bm25_topk

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    lex = bm25_topk(docs, BM25_QUERY, k=HYBRID_LEG_K)
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    dense = brute_force_topk(emb, _query_vec(sf_dir, 0),
                             k=HYBRID_LEG_K, exclude_id=0)
    return rrf_fuse(
        {"lex": (lex, "doc_id", "score"),
         "dense": (dense, "vec_id", "sim")},
        k=10)
# hybrid_search: both legs reuse their own proven oracle shapes
# (bm25_search / ann_topk above) with LIMIT 20; ranks come from
# row_number() over the grid-rounded scores (id tie-break), and the
# fused score is the leg-ordered COALESCE sum of 1/(60+rank),
# grid-rounded at 1e-9.
ORACLE_SQL["hybrid_search"] = (
    "WITH tok AS (SELECT doc_id, unnest(string_split("
    "coalesce(text, ''), ' ')) AS t FROM documents), "
    "dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS len "
    "FROM tok GROUP BY doc_id), "
    "st AS (SELECT CAST(count(*) AS DOUBLE) AS nd, avg(len) AS avgdl "
    "FROM dl), "
    "tf AS (SELECT doc_id, t, CAST(count(*) AS DOUBLE) AS tf "
    "FROM tok WHERE t IN ('window', 'merge', 'stream') "
    "GROUP BY doc_id, t), "
    "df AS (SELECT t, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df "
    "FROM tf GROUP BY t), "
    "sc AS (SELECT tf.doc_id, sum("
    "ln((st.nd - df.df + 0.5) / (df.df + 0.5) + 1.0) "
    "* tf.tf * (1.2 + 1.0) "
    "/ (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.len / st.avgdl))"
    ") AS score "
    "FROM tf JOIN df USING (t) JOIN dl ON dl.doc_id = tf.doc_id, st "
    "GROUP BY tf.doc_id), "
    "lex_top AS (SELECT doc_id, "
    "floor(score * 1000000.0 + 0.5) / 1000000.0 AS s FROM sc "
    "ORDER BY floor(score * 1000000.0 + 0.5) / 1000000.0 DESC, "
    "doc_id LIMIT 20), "
    "lex_rank AS (SELECT doc_id, "
    "row_number() OVER (ORDER BY s DESC, doc_id) AS r FROM lex_top), "
    "q AS (SELECT CAST(embedding AS DOUBLE[]) AS qv "
    "FROM embeddings WHERE vec_id = 0), "
    "dense_top AS (SELECT e.vec_id AS doc_id, "
    "floor(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
    "q.qv) * 1000000.0 + 0.5) / 1000000.0 AS s "
    "FROM embeddings e, q WHERE e.vec_id <> 0 "
    "ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
    "q.qv) DESC, e.vec_id LIMIT 20), "
    "dense_rank AS (SELECT doc_id, "
    "row_number() OVER (ORDER BY s DESC, doc_id) AS r "
    "FROM dense_top), "
    "fused AS (SELECT COALESCE(l.doc_id, d.doc_id) AS doc_id, "
    "COALESCE(1.0 / (60 + l.r), 0.0) + "
    "COALESCE(1.0 / (60 + d.r), 0.0) AS rrf_raw, "
    "COALESCE(l.r, 0) AS lex_rank, COALESCE(d.r, 0) AS dense_rank "
    "FROM lex_rank l FULL OUTER JOIN dense_rank d "
    "ON l.doc_id = d.doc_id) "
    "SELECT doc_id, "
    "floor(rrf_raw * 1000000000.0 + 0.5) / 1000000000.0 AS rrf, "
    "lex_rank, dense_rank FROM fused "
    "ORDER BY floor(rrf_raw * 1000000000.0 + 0.5) / 1000000000.0 "
    "DESC, doc_id LIMIT 10"
)
QUERIES["hybrid_search"] = q_hybrid_search
def q_collocations(sf_dir: str):
    """PMI collocations: top-20 adjacent token pairs by pointwise
    mutual information (pair count >= 5) — the statistic behind
    multi-word-expression mining. One pairs exchange (map-side
    Counter partials -> groupby sum, the token_pair_counts shape);
    totals fold from tiny per-block partials; the qualifying pairs
    (count >= 5) are collection-scale by construction, so their
    unigram counts come from a second filtered scan (qualifying
    token set broadcast in the closure) and the PMI math runs on the
    driver over qualifying-pairs rows only."""
    import math

    from ray.data.aggregate import Sum

    MIN_PAIR = 5
    docs = _docs(sf_dir, ["text"])

    def _pair_partial(batch: pa.Table) -> pa.Table:
        counts: Dict[str, int] = {}
        n_pairs = 0
        n_toks = 0
        for text in batch.column("text").to_pylist():
            toks = (text or "").split(" ")
            n_toks += len(toks)
            n_pairs += max(0, len(toks) - 1)
            for a, b in zip(toks, toks[1:]):
                key = a + "\x1f" + b
                counts[key] = counts.get(key, 0) + 1
        # sentinel row (no \x1f, n=0) carries the block totals even
        # when the block produced no pairs; MIN_PAIR filters it out
        keys = list(counts.keys()) + ["\x1e"]
        ns = list(counts.values()) + [0]
        np_col = [0] * (len(keys) - 1) + [n_pairs]
        nu_col = [0] * (len(keys) - 1) + [n_toks]
        return pa.table({
            "pair": pa.array(keys, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "np_": pa.array(np_col, pa.int64()),
            "nu_": pa.array(nu_col, pa.int64()),
        })

    agg = docs.map_batches(
        _pair_partial, batch_format="pyarrow"
    ).groupby("pair").aggregate(Sum("n"), Sum("np_"), Sum("nu_"))

    pairs: Dict[str, int] = {}
    n_pairs_total = 0
    n_toks_total = 0
    for b in agg.iter_batches(batch_format="pyarrow",
                              batch_size=None):
        for p, n in zip(b.column("pair").to_pylist(),
                        pc.cast(b.column("sum(n)"),
                                pa.int64()).to_pylist()):
            if n >= MIN_PAIR:
                pairs[p] = n
        n_pairs_total += int(pc.sum(b.column("sum(np_)")).as_py() or 0)
        n_toks_total += int(pc.sum(b.column("sum(nu_)")).as_py() or 0)

    qual_tokens = set()
    for p in pairs:
        a, b2 = p.split("\x1f", 1)
        qual_tokens.add(a)
        qual_tokens.add(b2)

    def _uni_partial(batch: pa.Table) -> pa.Table:
        counts: Dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            for t in (text or "").split(" "):
                if t in qual_tokens:
                    counts[t] = counts.get(t, 0) + 1
        return pa.table({
            "t": pa.array(list(counts.keys()), pa.string()),
            "c": pa.array(list(counts.values()), pa.int64()),
        })

    uni: Dict[str, int] = {}
    for b in docs.map_batches(
            _uni_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for t, c in zip(b.column("t").to_pylist(),
                        b.column("c").to_pylist()):
            uni[t] = uni.get(t, 0) + c

    np_f = float(n_pairs_total)
    nu_f = float(n_toks_total)
    rows = []
    for p, c_ab in pairs.items():
        a, b2 = p.split("\x1f", 1)
        pmi = math.log(
            (c_ab / np_f) / ((uni[a] / nu_f) * (uni[b2] / nu_f)))
        pmi = math.floor(pmi * 1000000.0 + 0.5) / 1000000.0
        rows.append((a, b2, c_ab, pmi))
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    rows = rows[:20]
    return pa.table({
        "a": pa.array([r[0] for r in rows], pa.string()),
        "b": pa.array([r[1] for r in rows], pa.string()),
        "n_pair": pa.array([r[2] for r in rows], pa.int64()),
        "pmi": pa.array([r[3] for r in rows], pa.float64()),
    })
ORACLE_SQL["collocations"] = (
    "WITH toks AS (SELECT string_split(coalesce(text, ''), ' ') "
    "AS toks FROM documents), "
    "uni AS (SELECT t, CAST(count(*) AS BIGINT) AS c FROM "
    "(SELECT unnest(toks) AS t FROM toks) GROUP BY t), "
    "nu AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM uni), "
    "pr AS (SELECT unnest(list_transform("
    "generate_series(1, len(toks) - 1), i -> toks[i])) AS a, "
    "unnest(list_transform(generate_series(1, len(toks) - 1), "
    "i -> toks[i+1])) AS b FROM toks), "
    "pairs AS (SELECT a, b, CAST(count(*) AS BIGINT) AS c FROM pr "
    "GROUP BY a, b), "
    "np AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM pairs), "
    "sc AS (SELECT p.a, p.b, p.c AS n_pair, "
    "floor(ln((p.c / np.n) / ((ua.c / nu.n) * (ub.c / nu.n))) "
    "* 1000000.0 + 0.5) / 1000000.0 AS pmi "
    "FROM pairs p JOIN uni ua ON ua.t = p.a "
    "JOIN uni ub ON ub.t = p.b, np, nu WHERE p.c >= 5) "
    "SELECT a, b, n_pair, pmi FROM sc "
    "ORDER BY pmi DESC, a, b LIMIT 20"
)
QUERIES["collocations"] = q_collocations
def q_lang_doc_rank(sf_dir: str):
    """Per-language window numbering (stages/rank.py
    ``grouped_rank``): row_number/rank/dense_rank OVER (PARTITION BY
    lang ORDER BY n_chars DESC, doc_id) in one key-hash shuffle —
    whole-bucket Arrow sort + change-mask cumsums, never a per-key
    UDF. dense ties group on n_chars alone (n_dense=1)."""
    from ..stages.rank import grouped_rank

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    out = grouped_rank(
        docs, "lang",
        [("n_chars", "descending"), ("doc_id", "ascending")],
        n_dense=1, n_buckets=32,
    )
    return out.select_columns(
        ["doc_id", "lang", "row_number", "rank", "dense_rank"])
ORACLE_SQL["lang_doc_rank"] = (
    "SELECT doc_id, lang, "
    "CAST(row_number() OVER (PARTITION BY lang ORDER BY n_chars "
    "DESC, doc_id) AS BIGINT) AS row_number, "
    "CAST(rank() OVER (PARTITION BY lang ORDER BY n_chars DESC) "
    "AS BIGINT) AS rank, "
    "CAST(dense_rank() OVER (PARTITION BY lang ORDER BY n_chars "
    "DESC) AS BIGINT) AS dense_rank FROM documents"
)
QUERIES["lang_doc_rank"] = q_lang_doc_rank
def q_lang_doc_rank_dist(sf_dir: str):
    """SQL distribution windows (stages/rank.py
    ``grouped_rank(distribution=True)``): percent_rank + cume_dist
    OVER (PARTITION BY lang ORDER BY n_chars DESC) — same one-shuffle
    change-mask kernel, two extra integer divisions (bit-identical
    to the SQL twin; ties on n_chars alone, n_dense=1)."""
    from ..stages.rank import grouped_rank

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    out = grouped_rank(
        docs, "lang",
        [("n_chars", "descending"), ("doc_id", "ascending")],
        n_dense=1, n_buckets=32, distribution=True,
    )
    return out.select_columns(
        ["doc_id", "lang", "percent_rank", "cume_dist"])
ORACLE_SQL["lang_doc_rank_dist"] = (
    "SELECT doc_id, lang, "
    "percent_rank() OVER (PARTITION BY lang ORDER BY n_chars DESC) "
    "AS percent_rank, "
    "cume_dist() OVER (PARTITION BY lang ORDER BY n_chars DESC) "
    "AS cume_dist FROM documents"
)
QUERIES["lang_doc_rank_dist"] = q_lang_doc_rank_dist
def q_doc_chunks(sf_dir: str):
    """Overlapping token chunking (stages/textstats.py
    ``chunk_documents``): 64-token windows, stride 48, row-local
    vectorized explode — zero shuffles, the RAG/window splitter.
    Chunk content is pinned by md5 so the oracle compares window
    EXTRACTION byte-for-byte without hauling chunk text through the
    compare."""
    from ..stages.dedup import _md5
    from ..stages.textstats import chunk_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        out = chunk_documents(batch, chunk_tokens=64, step=48)
        md5s = [_md5(t) for t in
                out.column("chunk_text").to_pylist()]
        return pa.table({
            "doc_id": out.column("doc_id"),
            "chunk_id": out.column("chunk_id"),
            "n_tokens": out.column("n_tokens"),
            "chunk_md5": pa.array(md5s, pa.string()),
        })

    return docs.map_batches(_fn, batch_format="pyarrow")
ORACLE_SQL["doc_chunks"] = (
    "WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks, "
    "CAST(len(string_split(text, ' ')) AS BIGINT) AS n "
    "FROM documents WHERE text IS NOT NULL), "
    "e AS (SELECT doc_id, toks, n, "
    "unnest(range(0, 1 + (greatest(n - 64, 0) + 47) // 48)) AS g "
    "FROM t) "
    "SELECT doc_id, CAST(g AS BIGINT) AS chunk_id, "
    "CAST(least(g * 48 + 64, n) - g * 48 AS BIGINT) AS n_tokens, "
    "md5(array_to_string(list_slice(toks, g * 48 + 1, "
    "least(g * 48 + 64, n)), ' ')) AS chunk_md5 FROM e"
)
QUERIES["doc_chunks"] = q_doc_chunks
def q_bpe_merges(sf_dir: str):
    """First 6 BPE merges learned over the corpus (rows-only: the
    trainer is iterative — round 1's statistic is oracle-pinned by
    ``token_pair_counts``; rounds 2+ are pinned to a sequential
    reference trainer in pytest). The corpus streams ONCE into the
    word histogram; every round runs over the bounded histogram."""
    from ..stages.bpe import bpe_train

    return bpe_train(_docs(sf_dir, columns=["text"]), n_merges=6)
QUERIES["bpe_merges"] = q_bpe_merges
def q_sequence_packing(sf_dir: str):
    """Training-data sequence packing plan, oracle-checked against a
    DuckDB global-window cumsum: each doc's coordinates in the
    contiguous 512-token packing stream (cum_before / seq_id /
    seq_offset / windows straddled), ordered by doc_id.

    Engine shape is the distributed prefix-sum: per-band partial sums
    → tiny driver prefix over the band histogram → one co-shuffle by
    band bucket with whole-bucket rebased cumsums. The oracle's
    ``sum() OVER (ORDER BY doc_id)`` is the sequential twin.
    """
    from ..stages.pack import sequence_packing
    from ..stages.textstats import token_count_fn

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        token_count_fn, batch_format="pyarrow"
    ).select_columns(["doc_id", "n_tokens"])
    packed = sequence_packing(ds, seq_len=512, band_size=64,
                              n_buckets=16)
    return packed.select_columns(
        ["doc_id", "n_tokens", "cum_before", "seq_id", "seq_offset",
         "n_windows"])
ORACLE_SQL["sequence_packing"] = (
"WITH t AS (SELECT doc_id, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens "
        "FROM documents), "
        "c AS (SELECT doc_id, n_tokens, "
        "CAST(COALESCE(sum(n_tokens) OVER (ORDER BY doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS BIGINT) AS cum_before FROM t) "
        "SELECT doc_id, n_tokens, cum_before, "
        "cum_before // 512 AS seq_id, "
        "cum_before % 512 AS seq_offset, "
        "CAST(CASE WHEN n_tokens = 0 THEN 0 ELSE "
        "(cum_before + n_tokens - 1) // 512 - cum_before // 512 + 1 "
        "END AS BIGINT) AS n_windows FROM c"
)
QUERIES["sequence_packing"] = q_sequence_packing
def q_distinctive_terms(sf_dir: str):
    """Fightin'-Words distinctive terms (Monroe et al. 2008;
    stages/textstats.distinctive_terms): top-20 tokens
    characterizing 'en' vs 'de' docs by add-one-prior log-odds
    z-score. One vocab-scale token groupby (never broadcast),
    blocks-scale scalar fold, per-block local top-k + tiny global
    sort — exact int64 counts drive the identical float expression
    on both engines (1e-6 grid)."""
    from ..stages.textstats import distinctive_terms

    def _mark(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "is_a", pc.equal(pc.fill_null(batch.column("lang"), ""),
                             "en"))

    ds = _docs(sf_dir, columns=["text", "lang"]).filter(
        expr="lang == 'en' or lang == 'de'"
    ).map_batches(_mark, batch_format="pyarrow")
    return distinctive_terms(ds, side_col="is_a", k=20)
ORACLE_SQL["distinctive_terms"] = (
    "WITH tok AS (SELECT lang = 'en' AS a, "
    "unnest(string_split(text, ' ')) AS token FROM documents "
    "WHERE lang IN ('en', 'de') AND text IS NOT NULL), "
    "c AS (SELECT token, coalesce(count(*) FILTER (a), 0) AS ya, "
    "coalesce(count(*) FILTER (NOT a), 0) AS yb FROM tok "
    "GROUP BY token), "
    "t AS (SELECT sum(ya) AS na, sum(yb) AS nb, count(*) AS v FROM c) "
    "SELECT token, floor((ln((ya + 1) / (na + v - ya - 1.0)) "
    "- ln((yb + 1) / (nb + v - yb - 1.0))) "
    "/ sqrt(1.0 / (ya + 1) + 1.0 / (yb + 1)) * 1e6 + 0.5) / 1e6 AS z "
    "FROM c CROSS JOIN t ORDER BY z DESC, token ASC LIMIT 20"
)
QUERIES["distinctive_terms"] = q_distinctive_terms
def q_lang_top_tokens(sf_dir: str):
    """Per-language top-5 vocabulary (stages/stats.grouped_topk —
    grouped heavy hitters):
    vectorized per-block (lang, token) partial counts, one key
    co-shuffle of the pair partials, whole-bucket rank kernel."""
    from ..stages.stats import grouped_topk
    from ..stages.textstats import _token_lists

    def _pairs(batch: pa.Table) -> pa.Table:
        import numpy as np

        b = batch.filter(pc.is_valid(batch.column("text")))
        flat, offsets, n_tokens = _token_lists(b, "text")
        langs = b.column("lang").combine_chunks()
        return pa.table({
            "lang": langs.take(pa.array(np.repeat(
                np.arange(b.num_rows, dtype=np.int64), n_tokens))),
            "token": flat,
        })

    pairs = _docs(sf_dir, columns=["text", "lang"]).map_batches(
        _pairs, batch_format="pyarrow")
    return grouped_topk(pairs, "lang", "token", k=5).sort(["lang", "rk"])
ORACLE_SQL["lang_top_tokens"] = (
    "SELECT lang, token, n, rk FROM ("
    "SELECT lang, token, CAST(count(*) AS BIGINT) AS n, "
    "row_number() OVER (PARTITION BY lang "
    "ORDER BY count(*) DESC, token ASC) AS rk FROM ("
    "SELECT lang, unnest(string_split(text, ' ')) AS token "
    "FROM documents WHERE text IS NOT NULL) GROUP BY lang, token) "
    "WHERE rk <= 5 ORDER BY lang, rk"
)
QUERIES["lang_top_tokens"] = q_lang_top_tokens
def q_wordlist_gate(sf_dir: str):
    """C4-style bad-words gate (stages/textstats.wordlist_gate_fn):
    per-doc blocklisted-token count + kept flag — one is_in kernel
    over the flat token array per block, no shuffle. The blocklist
    here is corpus-vocabulary words so the gate is load-bearing."""
    from ..stages.textstats import wordlist_gate_fn

    words = ["join", "merge", "query"]
    return _docs(sf_dir).map_batches(
        lambda b: wordlist_gate_fn(b, words), batch_format="pyarrow"
    ).sort("doc_id")
ORACLE_SQL["wordlist_gate"] = (
    "SELECT doc_id, CAST(coalesce(len(list_filter("
    "string_split(text, ' '), t -> t IN ('join', 'merge', 'query'))), "
    "0) AS BIGINT) AS n_blocked, "
    "coalesce(len(list_filter(string_split(text, ' '), "
    "t -> t IN ('join', 'merge', 'query'))), 0) = 0 AS kept "
    "FROM documents ORDER BY doc_id"
)
QUERIES["wordlist_gate"] = q_wordlist_gate
def q_phrase_match(sf_dir: str):
    """Positional phrase search for the planted 3-token phrase:
    docs get 0/1/2 occurrences (plus a near-miss decoy with a gap)
    by doc_id % 6; the oracle recomputes matches by position
    arithmetic over the split tokens."""
    from ..stages.index import phrase_match

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        r = _int_mod(ids, 6)
        suffix = pc.if_else(
            pc.equal(r, 0), " zq1 zq2 zq3",
            pc.if_else(
                pc.equal(r, 1), " zq1 zq2 zq3 zq1 zq2 zq3",
                pc.if_else(pc.equal(r, 2), " zq1 zq2 x zq3", "")))
        text = pc.binary_join_element_wise(
            pc.fill_null(batch.column("text"), ""), suffix, "")
        return pa.table({"doc_id": ids, "text": text})

    aug = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _aug, batch_format="pyarrow")
    return phrase_match(aug, ["zq1", "zq2", "zq3"])
ORACLE_SQL["phrase_match"] = """
WITH aug AS (
  SELECT doc_id, COALESCE(text, '') || CASE doc_id % 6
    WHEN 0 THEN ' zq1 zq2 zq3'
    WHEN 1 THEN ' zq1 zq2 zq3 zq1 zq2 zq3'
    WHEN 2 THEN ' zq1 zq2 x zq3'
    ELSE '' END AS text
  FROM documents
), tk AS (
  SELECT doc_id,
         generate_subscripts(string_split(text, ' '), 1) AS pos,
         unnest(string_split(text, ' ')) AS token
  FROM aug
), m AS (
  SELECT a.doc_id, a.pos FROM tk a
  JOIN tk b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tk c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
  WHERE a.token = 'zq1' AND b.token = 'zq2' AND c.token = 'zq3'
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_matches,
       CAST(min(pos) AS BIGINT) AS first_pos
FROM m GROUP BY doc_id
"""
QUERIES["phrase_match"] = q_phrase_match
def q_rarity_dispersion(sf_dir: str):
    """Second-moment rarity: per-doc variance of token document
    frequency (MGT/template "burstiness" heuristic — narrow-band
    frequency profiles score low at a given mean). Same plan as
    token_rarity + one extra int64 partial."""
    from ..stages.textstats import rarity_dispersion

    return rarity_dispersion(_docs(sf_dir, columns=["doc_id", "text"]))
ORACLE_SQL["rarity_dispersion"] = (
    "WITH t AS (SELECT doc_id, unnest(string_split(text, ' ')) "
    "AS tok FROM documents WHERE text IS NOT NULL), "
    "tf AS (SELECT doc_id, tok, count(*) AS tf FROM t "
    "GROUP BY doc_id, tok), "
    "df AS (SELECT tok, count(*) AS df FROM tf GROUP BY tok) "
    "SELECT tf.doc_id, CAST(sum(tf.tf) AS BIGINT) AS n_tokens, "
    "CAST(sum(tf.tf * df.df) AS DOUBLE) / CAST(sum(tf.tf) AS BIGINT) "
    "AS mean_df, "
    "CAST(sum(tf.tf * df.df * df.df) AS DOUBLE) / "
    "CAST(sum(tf.tf) AS BIGINT) - "
    "(CAST(sum(tf.tf * df.df) AS DOUBLE) / CAST(sum(tf.tf) AS BIGINT)) "
    "* (CAST(sum(tf.tf * df.df) AS DOUBLE) / CAST(sum(tf.tf) AS BIGINT)) "
    "AS var_df "
    "FROM tf JOIN df USING (tok) GROUP BY tf.doc_id"
)
QUERIES["rarity_dispersion"] = q_rarity_dispersion
def q_paragraph_lang_mix(sf_dir: str):
    """Paragraph-level code-switching detection (CCNet runs lang-ID
    per paragraph): docs augmented with a second paragraph in a
    rotating language + an unk-profile third, then one row-local
    vectorized pass computes per-doc paragraph-language mixing."""
    from ..stages.textstats import paragraph_lang_mix_fn

    sep = "\n\n"

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        second = pc.if_else(
            pc.equal(_int_mod(ids, 3), pa.scalar(0, pa.int64())),
            pa.scalar("der die das und"), pa.scalar("the a the"))
        t = pc.binary_join_element_wise(
            pc.fill_null(batch.column("text"), ""), sep,
            second, sep, "keine stopwords hier", "",
        )
        return pa.table({"doc_id": ids, "text": t})

    aug = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _aug, batch_format="pyarrow")
    return aug.map_batches(
        paragraph_lang_mix_fn, batch_format="pyarrow",
        fn_kwargs={"sep": sep})
ORACLE_SQL["paragraph_lang_mix"] = (
    "WITH aug AS (SELECT doc_id, coalesce(text, '') || chr(10) || "
    "chr(10) || CASE WHEN doc_id % 3 = 0 THEN 'der die das und' "
    "ELSE 'the a the' END || chr(10) || chr(10) || "
    "'keine stopwords hier' AS text FROM documents), "
    "p AS (SELECT doc_id, unnest(string_split(text, "
    "chr(10) || chr(10))) AS para FROM aug), "
    "sc AS (SELECT doc_id, "
    "len(list_filter(string_split(para, ' '), "
    "x -> x = 'the' OR x = 'a')) AS s_en, "
    "len(list_filter(string_split(para, ' '), "
    "x -> x = 'der' OR x = 'die' OR x = 'das' OR x = 'und')) AS s_de "
    "FROM p), "
    "l AS (SELECT doc_id, CASE WHEN s_en > s_de THEN 'en' "
    "WHEN s_de > s_en THEN 'de' ELSE 'unk' END AS lp FROM sc), "
    "c AS (SELECT doc_id, lp, count(*) AS n FROM l GROUP BY doc_id, lp), "
    "sel AS (SELECT doc_id, lp AS major_lang, n AS maj_n FROM c "
    "QUALIFY row_number() OVER (PARTITION BY doc_id "
    "ORDER BY n DESC, lp) = 1), "
    "tot AS (SELECT doc_id, CAST(sum(n) AS BIGINT) AS n_paras, "
    "CAST(count(*) AS BIGINT) AS n_langs FROM c GROUP BY doc_id) "
    "SELECT tot.doc_id, n_paras, n_langs, major_lang, "
    "1.0 - CAST(maj_n AS DOUBLE) / n_paras AS mix_frac "
    "FROM tot JOIN sel ON sel.doc_id = tot.doc_id"
)
QUERIES["paragraph_lang_mix"] = q_paragraph_lang_mix
def q_script_mix(sf_dir: str):
    """Unicode-script mix audit (stages/textstats.script_mix_fn):
    per-doc Latin / Cyrillic / digit / other codepoint counts plus a
    ``mixed`` flag — the mojibake and homoglyph-spam detector that
    catches what stopword language-ID cannot (a 'Latin' page whose
    letters are partly Cyrillic confusables). The same homoglyph
    plant as `deobfuscate` (every 4th doc gets 'a'→'а', 'e'→'е')
    makes the signal load-bearing. Row-local, no shuffle."""
    from ..stages.textstats import script_mix_fn

    def _plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        t = pc.fill_null(batch.column("text"), "")
        dirty = pc.replace_substring(
            pc.replace_substring(t, "a", "а"), "e", "е")
        text = pc.if_else(pc.equal(_int_mod(ids, 4), 0), dirty, t)
        return pa.table({"doc_id": ids, "text": text})

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _plant, batch_format="pyarrow"
    ).map_batches(script_mix_fn, batch_format="pyarrow")
ORACLE_SQL["script_mix"] = (
    "WITH aug AS (SELECT doc_id, CASE WHEN doc_id % 4 = 0 THEN "
    "replace(replace(coalesce(text, ''), 'a', 'а'), 'e', 'е') "
    "ELSE coalesce(text, '') END AS text FROM documents), "
    "ch AS (SELECT doc_id, unicode(unnest(string_split(text, ''))) "
    "AS cp FROM aug WHERE text != ''), "
    "agg AS (SELECT doc_id, "
    "sum(CASE WHEN (cp BETWEEN 65 AND 90) OR (cp BETWEEN 97 AND 122) "
    "THEN 1 ELSE 0 END) AS n_latin, "
    "sum(CASE WHEN cp BETWEEN 1024 AND 1279 THEN 1 ELSE 0 END) "
    "AS n_cyrillic, "
    "sum(CASE WHEN cp BETWEEN 48 AND 57 THEN 1 ELSE 0 END) "
    "AS n_digit, "
    "sum(CASE WHEN NOT ((cp BETWEEN 65 AND 90) OR "
    "(cp BETWEEN 97 AND 122) OR (cp BETWEEN 1024 AND 1279) OR "
    "(cp BETWEEN 48 AND 57)) THEN 1 ELSE 0 END) AS n_other "
    "FROM ch GROUP BY doc_id) "
    "SELECT d.doc_id, CAST(coalesce(a.n_latin, 0) AS BIGINT) "
    "AS n_latin, CAST(coalesce(a.n_cyrillic, 0) AS BIGINT) "
    "AS n_cyrillic, CAST(coalesce(a.n_digit, 0) AS BIGINT) "
    "AS n_digit, CAST(coalesce(a.n_other, 0) AS BIGINT) AS n_other, "
    "(coalesce(a.n_latin, 0) > 0 AND coalesce(a.n_cyrillic, 0) > 0) "
    "AS mixed FROM documents d LEFT JOIN agg a "
    "ON d.doc_id = a.doc_id ORDER BY d.doc_id"
)
QUERIES["script_mix"] = q_script_mix
def q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth (stages/textstats.vocab_growth):
    total vs DISTINCT token counts at 8 corpus-prefix checkpoints —
    the tokenizer-sizing / dedup-health curve. Distinct-at-cp folds
    from each token's FIRST document (one vocab-scale exchange, the
    top_tokens shape); totals fold from block partials; only
    checkpoints × blocks rows move after the map side."""
    import pyarrow.parquet as pq_

    from ..stages.textstats import vocab_growth

    n = pq_.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    cps = [n * k // 8 for k in range(1, 9)]
    return vocab_growth(_docs(sf_dir), cps)
ORACLE_SQL["vocab_growth"] = (
    "WITH tot AS (SELECT CAST(count(*) AS BIGINT) AS n "
    "FROM documents), "
    "toks AS (SELECT doc_id, unnest(string_split(coalesce(text, "
    "''), ' ')) AS tok FROM documents), "
    "fd AS (SELECT tok, min(doc_id) AS first_doc FROM toks "
    "GROUP BY tok), "
    "cps AS (SELECT CAST((tot.n * k) // 8 AS BIGINT) AS cp "
    "FROM (SELECT unnest(range(1, 9)) AS k), tot) "
    "SELECT cp, "
    "(SELECT CAST(count(*) AS BIGINT) FROM toks WHERE doc_id < cp) "
    "AS n_tokens, "
    "(SELECT CAST(count(*) AS BIGINT) FROM fd WHERE first_doc < cp) "
    "AS n_distinct FROM cps ORDER BY cp"
)
QUERIES["vocab_growth"] = q_vocab_growth
