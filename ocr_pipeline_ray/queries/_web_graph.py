"""Web/host/URL and link-graph queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import hashlib
import math
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum
from ..stages.dedup import minhash_dup_pairs
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_host_entropy(sf_dir: str):
    """Corpus source-diversity index: Shannon entropy (nats) of the
    host distribution over the synthetic crawl — the one-number
    "how concentrated is my crawl" gauge (a single mega-host drives
    entropy toward 0). Host counts come from the existing map-side
    partial combine; the entropy math runs on the driver over the
    hosts-scale count table, mirrored term-for-term in SQL and
    grid-rounded."""
    from ..stages.web import host_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    urls = docs.map_batches(_url_augment, batch_format="pyarrow")
    counts = host_stats(urls, url_col="url")
    ns = []
    for b in counts.iter_batches(batch_format="pyarrow",
                                 batch_size=None):
        ns.extend(b.column("n_docs").to_pylist())
    total = float(sum(ns))
    ent = -sum((n / total) * math.log(n / total) for n in sorted(ns))
    ent = math.floor(ent * 1000000.0 + 0.5) / 1000000.0
    return pa.table({
        "n_hosts": pa.array([len(ns)], pa.int64()),
        "entropy_nats": pa.array([ent], pa.float64()),
    })
ORACLE_SQL["host_entropy"] = (
    "WITH h AS (SELECT 'host' || CAST(" + _HOST_ID_SQL
    + " AS VARCHAR) || '.example.com' AS host FROM documents), "
    "c AS (SELECT host, CAST(count(*) AS DOUBLE) AS n FROM h "
    "GROUP BY host), t AS (SELECT sum(n) AS tot FROM c) "
    "SELECT (SELECT CAST(count(*) AS BIGINT) FROM c) AS n_hosts, "
    "floor((SELECT -sum((n / tot) * ln(n / tot)) FROM c, t) "
    "* 1000000.0 + 0.5) / 1000000.0 AS entropy_nats"
)
QUERIES["host_entropy"] = q_host_entropy
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
def q_host_blocklist(sf_dir: str):
    """Blocklist hygiene gate: drop docs on blocked hosts.

    Broadcast ANTI join against a 10-host blocklist — the corpus
    never shuffles; the blocklist ships once via the object store.
    """
    from ..stages.web import blocklist_filter

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    )
    blocked = [f"host{h}.example.com" for h in range(0, 97, 10)]
    return blocklist_filter(ds, blocked).sort("doc_id")
ORACLE_SQL["host_blocklist"] = (
"SELECT doc_id, 'http://host' || "
        "CAST(" + _HOST_ID_SQL + " AS VARCHAR) || "
        "'.example.com/p/' || CAST(doc_id AS VARCHAR) AS url "
        "FROM documents WHERE (" + _HOST_ID_SQL + ") % 10 <> 0 "
        "ORDER BY doc_id"
)
QUERIES["host_blocklist"] = q_host_blocklist
def q_host_cap(sf_dir: str):
    """Domain balancing: keep at most 5 docs per host (smallest
    doc_id wins) over the skewed synthetic crawl — the hot host
    (1/3 of the corpus) is cut to 5 like everyone else. One
    key-hash-bucketed shuffle, whole-bucket sort + rank mask; oracle
    is the ``row_number() OVER (PARTITION BY host)`` twin."""
    from ..stages.dedup import group_cap
    from ..stages.web import url_host_fn

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(url_host_fn, batch_format="pyarrow")
    capped = group_cap(ds, key_col="host", order_col="doc_id", k=5,
                       n_buckets=32)
    return capped.select_columns(["doc_id", "host"])
ORACLE_SQL["host_cap"] = (
"SELECT doc_id, host FROM ("
        "SELECT doc_id, 'host' || CAST(" + _HOST_ID_SQL
        + " AS VARCHAR) || '.example.com' AS host FROM documents) "
        "QUALIFY row_number() OVER "
        "(PARTITION BY host ORDER BY doc_id) <= 5"
)
QUERIES["host_cap"] = q_host_cap
def q_pagerank(sf_dir: str):
    """Distributed integer PageRank (3 power iterations, d=0.85) over
    a deterministic synthetic link graph on the documents table
    (doc i links to (7i+1)%N, plus (13i+2)%N when i%3>=1, plus
    (29i+5)%N when i%3==2 — 1..3 outlinks, parallel edges possible).

    All-int64 arithmetic (scaled ranks, integer division) makes the
    fixed-iteration result bit-exact vs the DuckDB join-chain twin —
    summation order cannot perturb it. Per iteration: rank join +
    out-degree fused into ONE src-bucket exchange, then one
    contribution-sum groupby with map-side partial combine.
    """
    import numpy as np

    from ..stages.graph import pagerank_int

    docs = _docs(sf_dir, columns=["doc_id"])
    n = docs.count()

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        m1, m2 = ids % 3 >= 1, ids % 3 == 2
        src = np.concatenate([ids, ids[m1], ids[m2]])
        dst = np.concatenate([(ids * 7 + 1) % n,
                              (ids[m1] * 13 + 2) % n,
                              (ids[m2] * 29 + 5) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def _as_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id")})

    nodes = docs.map_batches(_as_node, batch_format="pyarrow")
    edges = docs.map_batches(_edges, batch_format="pyarrow")
    ranks = pagerank_int(nodes, edges, iters=3, n_buckets=32)

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "rank_score": batch.column("rank")})

    return ranks.map_batches(_rename, batch_format="pyarrow").sort(
        "doc_id")
ORACLE_SQL["pagerank"] = (
"WITH nn AS (SELECT count(*) AS c FROM documents), "
        "nodes AS (SELECT doc_id AS node FROM documents), "
        "edges AS ("
        "SELECT node AS src, (node*7+1) % nn.c AS dst FROM nodes, nn "
        "UNION ALL SELECT node, (node*13+2) % nn.c FROM nodes, nn "
        "WHERE node % 3 >= 1 "
        "UNION ALL SELECT node, (node*29+5) % nn.c FROM nodes, nn "
        "WHERE node % 3 = 2), "
        "deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src), "
        "r0 AS (SELECT node, CAST(1000000000 AS BIGINT) AS r "
        "FROM nodes), "
        "s1 AS (SELECT e.dst AS node, sum(r.r // g.d) AS s "
        "FROM edges e JOIN r0 r ON r.node = e.src "
        "JOIN deg g ON g.src = e.src GROUP BY e.dst), "
        "r1 AS (SELECT n2.node, 150000000 + 85 * coalesce(s1.s, 0) "
        "// 100 AS r FROM nodes n2 LEFT JOIN s1 USING (node)), "
        "s2 AS (SELECT e.dst AS node, sum(r.r // g.d) AS s "
        "FROM edges e JOIN r1 r ON r.node = e.src "
        "JOIN deg g ON g.src = e.src GROUP BY e.dst), "
        "r2 AS (SELECT n2.node, 150000000 + 85 * coalesce(s2.s, 0) "
        "// 100 AS r FROM nodes n2 LEFT JOIN s2 USING (node)), "
        "s3 AS (SELECT e.dst AS node, sum(r.r // g.d) AS s "
        "FROM edges e JOIN r2 r ON r.node = e.src "
        "JOIN deg g ON g.src = e.src GROUP BY e.dst), "
        "r3 AS (SELECT n2.node, 150000000 + 85 * coalesce(s3.s, 0) "
        "// 100 AS r FROM nodes n2 LEFT JOIN s3 USING (node)) "
        "SELECT node AS doc_id, CAST(r AS BIGINT) AS rank_score "
        "FROM r3 ORDER BY node"
)
QUERIES["pagerank"] = q_pagerank
def q_hits(sf_dir: str):
    """Integer fixed-point HITS hub/authority scores (2 iterations)
    over the same deterministic synthetic link graph as q_pagerank
    (stages/graph.py ``hits_int``). All-int64 arithmetic with
    int-division L1 renormalization per half-step makes the result
    bit-exact vs the unrolled DuckDB join-chain twin. Per half-step:
    ONE bucket exchange (edges cached pre-tagged per key side) plus a
    blocks-scale driver fold of the normalization total."""
    import numpy as np

    from ..stages.graph import hits_int

    docs = _docs(sf_dir, columns=["doc_id"])
    n = docs.count()

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        m1, m2 = ids % 3 >= 1, ids % 3 == 2
        src = np.concatenate([ids, ids[m1], ids[m2]])
        dst = np.concatenate([(ids * 7 + 1) % n,
                              (ids[m1] * 13 + 2) % n,
                              (ids[m2] * 29 + 5) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def _as_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id")})

    nodes = docs.map_batches(_as_node, batch_format="pyarrow")
    edges = docs.map_batches(_edges, batch_format="pyarrow")
    scores = hits_int(nodes, edges, iters=2, n_buckets=32)

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "auth": batch.column("auth"),
                         "hub": batch.column("hub")})

    return scores.map_batches(_rename, batch_format="pyarrow").sort(
        "doc_id")
# hits: same synthetic edge multiset as pagerank; two unrolled
# authority/hub half-steps in pure BIGINT arithmetic — sum of the
# opposite score over the edge multiset, then // greatest(total //
# scale, 1) renormalization, missing nodes COALESCE to 0.
ORACLE_SQL["hits"] = (
    "WITH nn AS (SELECT count(*) AS c FROM documents), "
    "nodes AS (SELECT doc_id AS node FROM documents), "
    "edges AS (SELECT node AS src, (node*7+1) % nn.c AS dst "
    "FROM nodes, nn "
    "UNION ALL SELECT node, (node*13+2) % nn.c FROM nodes, nn "
    "WHERE node % 3 >= 1 "
    "UNION ALL SELECT node, (node*29+5) % nn.c FROM nodes, nn "
    "WHERE node % 3 = 2), "
    "h0 AS (SELECT node, CAST(1000000000 AS BIGINT) AS v FROM nodes), "
    "a1r AS (SELECT e.dst AS node, sum(h.v) AS s FROM edges e "
    "JOIN h0 h ON h.node = e.src GROUP BY e.dst), "
    "a1d AS (SELECT CAST(greatest(sum(s) // 1000000000, 1) AS BIGINT)"
    " AS d FROM a1r), "
    "a1 AS (SELECT n.node, "
    "CAST(coalesce(a1r.s, 0) // a1d.d AS BIGINT) AS v "
    "FROM nodes n LEFT JOIN a1r USING (node), a1d), "
    "h1r AS (SELECT e.src AS node, sum(a.v) AS s FROM edges e "
    "JOIN a1 a ON a.node = e.dst GROUP BY e.src), "
    "h1d AS (SELECT CAST(greatest(sum(s) // 1000000000, 1) AS BIGINT)"
    " AS d FROM h1r), "
    "h1 AS (SELECT n.node, "
    "CAST(coalesce(h1r.s, 0) // h1d.d AS BIGINT) AS v "
    "FROM nodes n LEFT JOIN h1r USING (node), h1d), "
    "a2r AS (SELECT e.dst AS node, sum(h.v) AS s FROM edges e "
    "JOIN h1 h ON h.node = e.src GROUP BY e.dst), "
    "a2d AS (SELECT CAST(greatest(sum(s) // 1000000000, 1) AS BIGINT)"
    " AS d FROM a2r), "
    "a2 AS (SELECT n.node, "
    "CAST(coalesce(a2r.s, 0) // a2d.d AS BIGINT) AS v "
    "FROM nodes n LEFT JOIN a2r USING (node), a2d), "
    "h2r AS (SELECT e.src AS node, sum(a.v) AS s FROM edges e "
    "JOIN a2 a ON a.node = e.dst GROUP BY e.src), "
    "h2d AS (SELECT CAST(greatest(sum(s) // 1000000000, 1) AS BIGINT)"
    " AS d FROM h2r), "
    "h2 AS (SELECT n.node, "
    "CAST(coalesce(h2r.s, 0) // h2d.d AS BIGINT) AS v "
    "FROM nodes n LEFT JOIN h2r USING (node), h2d) "
    "SELECT n.node AS doc_id, a2.v AS auth, h2.v AS hub "
    "FROM nodes n JOIN a2 ON a2.node = n.node "
    "JOIN h2 ON h2.node = n.node ORDER BY n.node"
)
QUERIES["hits"] = q_hits
def q_redirect_resolve(sf_dir: str):
    """Redirect-chain resolution (stages/graph.py
    ``resolve_chains``): every url follows its 3xx chain to the
    FINAL target — pointer doubling, so a length-L chain resolves in
    ceil(log2 L) exchanges (chains here reach ~log2(N) hops: doc i
    with i%7 != 0 redirects to i//2; multiples of 7 and 0 are
    terminal). The oracle follows the same chains with a recursive
    CTE; the engine's per-round plan is two scans of the current
    mapping into one (key,ptr)-bucket co-shuffle."""
    import numpy as np

    from ..stages.graph import resolve_chains

    docs = _docs(sf_dir, columns=["doc_id"])

    def _mapping(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 7 != 0]
        return pa.table({"src": pa.array(ids, pa.int64()),
                         "dst": pa.array(ids // 2, pa.int64())})

    # n_buckets sizes the per-round co-shuffle fan-out; 8 matches
    # the toy mapping here (at real scale pass ~cluster cores)
    resolved = resolve_chains(
        docs.map_batches(_mapping, batch_format="pyarrow"),
        n_buckets=8)

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("src"),
                         "final_id": batch.column("final")})

    return resolved.map_batches(_rename, batch_format="pyarrow").sort(
        "doc_id")
# redirect_resolve: follow each chain to its terminal (a node with
# no outgoing mapping row, i.e. doc_id % 7 = 0 — which includes 0,
# the halving fixpoint) with a recursive CTE.
ORACLE_SQL["redirect_resolve"] = (
    "WITH RECURSIVE m AS (SELECT doc_id AS src, doc_id // 2 AS dst "
    "FROM documents WHERE doc_id % 7 <> 0), "
    "r AS (SELECT src, dst AS cur FROM m "
    "UNION ALL SELECT r.src, m2.dst FROM r "
    "JOIN m m2 ON m2.src = r.cur) "
    "SELECT src AS doc_id, cur AS final_id FROM r "
    "WHERE cur % 7 = 0 ORDER BY src"
)
QUERIES["redirect_resolve"] = q_redirect_resolve
def q_pagerank_pregel(sf_dir: str):
    """Same graph, same int64 PageRank semantics and oracle as
    q_pagerank, Pregel physical plan: edges partitioned once into
    shard actors (never re-shuffled); per iteration only node-scale
    contribution partials flow point-to-point between shards — no
    sort barrier per iteration."""
    import numpy as np

    from ..stages.graph import pagerank_pregel

    docs = _docs(sf_dir, columns=["doc_id"])
    n = docs.count()

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        m1, m2 = ids % 3 >= 1, ids % 3 == 2
        src = np.concatenate([ids, ids[m1], ids[m2]])
        dst = np.concatenate([(ids * 7 + 1) % n,
                              (ids[m1] * 13 + 2) % n,
                              (ids[m2] * 29 + 5) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def _as_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id")})

    nodes = docs.map_batches(_as_node, batch_format="pyarrow")
    edges = docs.map_batches(_edges, batch_format="pyarrow")
    ranks = pagerank_pregel(nodes, edges, iters=3, n_shards=8)

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "rank_score": batch.column("rank")})

    return ranks.map_batches(_rename, batch_format="pyarrow").sort(
        "doc_id")
# same graph, same semantics, different physical plan — one SQL twin
ORACLE_SQL["pagerank_pregel"] = ORACLE_SQL["pagerank"]
QUERIES["pagerank_pregel"] = q_pagerank_pregel
def q_url_canonicalize(sf_dir: str):
    """URL canonicalization over five messy variants per doc.

    Uppercase scheme/host, default ports, fragments, utm_* params and
    bare root slashes are planted by doc_id formula; the ORACLE
    derives the expected canonical url INDEPENDENTLY from the same
    formulas (not by re-running the regex chain), so a rewrite bug
    cannot cancel out.
    """
    from ..stages.web import canonicalize_url_fn

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        ids_s = pc.cast(ids, pa.string())
        hid = pc.cast(_int_mod(ids, 97), pa.string())
        v = _int_mod(ids, 5)

        def _join(*parts):
            return pc.binary_join_element_wise(*parts, "")

        u0 = _join("HTTP://Host", hid, ".Example.COM:80/p/", ids_s,
                   "#sec")
        u1 = _join("https://host", hid, ".example.com:443/")
        u2 = _join("https://host", hid, ".example.com/p/", ids_s,
                   "?utm_source=feed&utm_medium=rss")
        u3 = _join("http://host", hid, ".example.com/p/", ids_s,
                   "?a=1&utm_x=2")
        u4 = _join("http://host", hid, ".example.com/p/", ids_s)
        url = pc.if_else(
            pc.equal(v, 0), u0,
            pc.if_else(pc.equal(v, 1), u1,
                       pc.if_else(pc.equal(v, 2), u2,
                                  pc.if_else(pc.equal(v, 3), u3, u4))))
        return pa.table({"doc_id": ids, "url": url})

    aug = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aug, batch_format="pyarrow")
    return aug.map_batches(canonicalize_url_fn, batch_format="pyarrow")
ORACLE_SQL["url_canonicalize"] = (
"WITH b AS (SELECT doc_id, doc_id % 5 AS v, "
        "CAST(doc_id AS VARCHAR) AS ids, "
        "CAST(doc_id % 97 AS VARCHAR) AS hid FROM documents) "
        "SELECT doc_id, "
        "CASE v WHEN 0 THEN 'HTTP://Host' || hid || "
        "'.Example.COM:80/p/' || ids || '#sec' "
        "WHEN 1 THEN 'https://host' || hid || '.example.com:443/' "
        "WHEN 2 THEN 'https://host' || hid || '.example.com/p/' || ids "
        "|| '?utm_source=feed&utm_medium=rss' "
        "WHEN 3 THEN 'http://host' || hid || '.example.com/p/' || ids "
        "|| '?a=1&utm_x=2' "
        "ELSE 'http://host' || hid || '.example.com/p/' || ids "
        "END AS url, "
        "CASE v WHEN 1 THEN 'https://host' || hid || '.example.com' "
        "WHEN 2 THEN 'https://host' || hid || '.example.com/p/' || ids "
        "WHEN 3 THEN 'http://host' || hid || '.example.com/p/' || ids "
        "|| '?a=1' "
        "ELSE 'http://host' || hid || '.example.com/p/' || ids "
        "END AS url_canon FROM b"
)
QUERIES["url_canonicalize"] = q_url_canonicalize
def q_approx_distinct_tokens(sf_dir: str):
    """KMV (k-minimum-values) distinct-count sketch, ORACLE-CHECKED
    including the ESTIMATE itself.

    Classic sketch (Bar-Yossef et al. 2002): keep the k smallest
    md5-derived hash values over the distinct tokens; estimate
    distinct ≈ (k−1) / max-of-k-normalized. Because the hash is md5
    (deterministic, SQL-reproducible) the DuckDB twin recomputes the
    exact same estimate — a sketch whose approximation error is
    itself oracle-pinned. Distributed shape: each block emits its k
    smallest distinct hashes (bytes per block), the driver-side merge
    is one tiny groupby; the EXACT side is a distinct-count groupby
    for comparison. One output row: (n_exact, k, kmv_estimate).
    """
    import numpy as np

    from ..stages.dedup import _round6

    k = 16
    ds = _docs(sf_dir)

    def _partial_hashes(batch: pa.Table) -> pa.Table:
        seen = set()
        for t in batch.column("text").to_pylist():
            for tok in (t or "").split(" "):
                if tok not in seen:
                    seen.add(tok)
        hs = np.unique(np.fromiter(
            (int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
             for t in seen),
            dtype=np.uint64, count=len(seen),
        ))[:k]
        return pa.table({"hv": pa.array(hs, pa.uint64())})

    partials = ds.map_batches(_partial_hashes, batch_format="pyarrow")
    merged = np.unique(np.concatenate([
        b.column("hv").to_numpy(zero_copy_only=False)
        for b in partials.iter_batches(batch_format="pyarrow")
    ] + [np.empty(0, dtype=np.uint64)]))[:k]

    # exact twin: distributed distinct count (groupby on the token)
    def _toks(batch: pa.Table) -> pa.Table:
        toks = sorted({
            tok
            for t in batch.column("text").to_pylist()
            for tok in (t or "").split(" ")
        })
        return pa.table({"tok": pa.array(toks, pa.string())})

    n_exact = ds.map_batches(_toks, batch_format="pyarrow") \
        .groupby("tok").count().count()

    if len(merged) < k:
        estimate = float(len(merged))
    else:
        estimate = _round6((k - 1) / (float(merged[-1]) / 4294967296.0))
    return pa.table({
        "n_exact": pa.array([n_exact], pa.int64()),
        "k": pa.array([k], pa.int64()),
        "kmv_estimate": pa.array([estimate], pa.float64()),
    })
ORACLE_SQL["approx_distinct_tokens"] = (
"WITH toks AS (SELECT DISTINCT unnest(string_split(text, ' ')) "
        "AS tok FROM documents), "
        "h AS (SELECT DISTINCT CAST(('0x' || substr(md5(tok), 1, 8)) "
        "AS UBIGINT) AS hv FROM toks), "
        "kmin AS (SELECT hv FROM h ORDER BY hv LIMIT 16) "
        "SELECT CAST((SELECT count(*) FROM toks) AS BIGINT) AS n_exact, "
        "CAST(16 AS BIGINT) AS k, "
        "CASE WHEN (SELECT count(*) FROM kmin) < 16 "
        "THEN CAST((SELECT count(*) FROM kmin) AS DOUBLE) "
        "ELSE floor(15.0 / (CAST((SELECT max(hv) FROM kmin) AS DOUBLE) "
        "/ 4294967296.0) * 1000000.0 + 0.5) / 1000000.0 "
        "END AS kmv_estimate"
)
QUERIES["approx_distinct_tokens"] = q_approx_distinct_tokens
def q_approx_quantiles(sf_dir: str):
    """Fixed-bin quantile SKETCH over n_chars (`stages/stats.py
    binned_quantiles`) — the scale path when `corpus_quantiles`'s
    bounded-cardinality contract fails: integer binning, one
    bincount partial per block folded on the driver, NO shuffle;
    mergeable across corpora; error ≤ bin width. The estimate
    itself is deterministic, so the oracle reproduces the sketch
    math bit-exactly."""
    from ..stages.stats import binned_quantiles

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    return binned_quantiles(ds, "n_chars", [0.1, 0.5, 0.9, 0.99],
                            lo=0, bin_width=100, n_bins=100)
ORACLE_SQL["approx_quantiles"] = (
"WITH h AS (SELECT LEAST(GREATEST((n_chars - 0) // 100, 0), 99)"
        " AS b, count(*) AS n FROM documents "
        "WHERE n_chars IS NOT NULL GROUP BY 1), "
        "c AS (SELECT b, CAST(sum(n) OVER (ORDER BY b) AS BIGINT) "
        "AS cum FROM h), "
        "tot AS (SELECT max(cum) AS n FROM c), "
        "qs AS (SELECT CAST(unnest([0.1, 0.5, 0.9, 0.99]) AS DOUBLE) "
        "AS q) "
        "SELECT q, CAST(((SELECT min(b) FROM c WHERE cum >= "
        "GREATEST(CAST(ceil(q * tot.n) AS BIGINT) - 1, 0) + 1) + 1) "
        "* 100 - 1 AS BIGINT) AS value_est "
        "FROM qs, tot ORDER BY q"
)
QUERIES["approx_quantiles"] = q_approx_quantiles
def q_host_skew_stats(sf_dir: str):
    """Skew diagnostics (stages/stats.py ``key_skew_stats``) over
    the synthetic crawl's per-host counts (1/3 of docs on host0 by
    construction): n_keys / n_rows / max / exact count percentiles /
    hot-key ppm share — the pre-shuffle skew probe that tells a
    pipeline whether a key needs salting or `group_cap` BEFORE the
    groupby runs. All passes over the
    key-cardinality table."""
    from ..stages.stats import key_skew_stats
    from ..stages.web import host_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    urls = docs.map_batches(_url_augment, batch_format="pyarrow")
    counts = host_stats(urls, url_col="url")
    return key_skew_stats(counts, count_col="n_docs")
ORACLE_SQL["host_skew_stats"] = (
"WITH h AS (SELECT 'host' || CAST(" + _HOST_ID_SQL
        + " AS VARCHAR) || '.example.com' AS host FROM documents), "
        "c AS (SELECT host, CAST(count(*) AS BIGINT) AS n FROM h "
        "GROUP BY host) "
        "SELECT 'n_keys' AS stat, CAST(count(*) AS BIGINT) AS value "
        "FROM c "
        "UNION ALL SELECT 'n_rows', CAST(sum(n) AS BIGINT) FROM c "
        "UNION ALL SELECT 'max_count', max(n) FROM c "
        "UNION ALL SELECT 'p50_count', quantile_disc(n, 0.5) FROM c "
        "UNION ALL SELECT 'p90_count', quantile_disc(n, 0.9) FROM c "
        "UNION ALL SELECT 'p99_count', quantile_disc(n, 0.99) FROM c "
        "UNION ALL SELECT 'top_share_ppm', "
        "CAST(max(n) * 1000000 // sum(n) AS BIGINT) FROM c"
)
QUERIES["host_skew_stats"] = q_host_skew_stats
def q_triangle_count(sf_dir: str):
    """Exact triangle count (stages/graph.py ``triangle_count``,
    compact-forward with (degree, id) orientation — the skew fix
    that bounds every out-neighborhood by O(sqrt(m))) over a
    deterministic synthetic link graph on documents: doc i links to
    (i+1)%N, (i+2)%N and (7i+3)%N. Four bounded exchanges; count is
    exact and matched by the DuckDB triple-join twin."""
    import numpy as np

    from ..stages.graph import triangle_count

    docs = _docs(sf_dir, columns=["doc_id"])
    n = docs.count()

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate([(ids + 1) % n, (ids + 2) % n,
                              (ids * 7 + 3) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return triangle_count(
        docs.map_batches(_edges, batch_format="pyarrow"),
        n_buckets=32)
ORACLE_SQL["triangle_count"] = (
"WITH ids AS (SELECT doc_id AS i, "
        "(SELECT count(*) FROM documents) AS n FROM documents), "
        "e0 AS (SELECT i AS src, (i + 1) % n AS dst FROM ids "
        "UNION ALL SELECT i, (i + 2) % n FROM ids "
        "UNION ALL SELECT i, (7 * i + 3) % n FROM ids), "
        "e AS (SELECT DISTINCT least(src, dst) AS u, "
        "greatest(src, dst) AS v FROM e0 WHERE src != dst) "
        "SELECT CAST(count(*) AS BIGINT) AS n_triangles "
        "FROM e a JOIN e b ON a.v = b.u "
        "JOIN e c ON c.u = a.u AND c.v = b.v"
)
QUERIES["triangle_count"] = q_triangle_count
def q_approx_users_by_type(sf_dir: str):
    """Per-key KMV distinct sketch (stages/stats.py ``grouped_kmv``)
    — the scale path beside the exact ``distinct_users_by_type``:
    shuffle carries <= keys x k hash rows per block regardless of
    user cardinality. The ESTIMATE itself is oracle-pinned (md5
    hashes, identical float ops, 1e-6 grid)."""
    from ..stages.stats import grouped_kmv

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id"],
    )
    return grouped_kmv(events, "event_type", "user_id", k=16,
                       n_buckets=32)
ORACLE_SQL["approx_users_by_type"] = (
    "WITH pairs AS (SELECT DISTINCT event_type, user_id FROM events "
    "WHERE user_id IS NOT NULL), "
    "h AS (SELECT DISTINCT event_type, "
    "CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 8)) "
    "AS UBIGINT) AS hv FROM pairs), "
    "rk AS (SELECT event_type, hv, row_number() OVER "
    "(PARTITION BY event_type ORDER BY hv) AS rn FROM h), "
    "km AS (SELECT event_type, max(hv) AS mx, "
    "CAST(count(*) AS BIGINT) AS nk FROM rk WHERE rn <= 16 "
    "GROUP BY event_type) "
    "SELECT event_type, nk AS k_used, "
    "CASE WHEN nk < 16 THEN CAST(nk AS DOUBLE) "
    "ELSE floor(15.0 / (CAST(mx AS DOUBLE) / 4294967296.0) "
    "* 1000000.0 + 0.5) / 1000000.0 END AS kmv_estimate FROM km"
)
QUERIES["approx_users_by_type"] = q_approx_users_by_type
def q_link_graph(sf_dir: str):
    """Host-level link graph from the raw HTML (stages/web.py
    ``link_graph``): the CC-webgraph construction. Pages are
    synthesized from the documents table with deterministic absolute
    outlinks (``doc_id % 4`` anchors to hosts ``(doc_id*7+j) % 97``)
    plus a relative nav link that the graph drops by design; href
    extraction is one compiled findall per doc, edges combine
    map-side per block, and ONE small (src,dst) groupby sums them —
    the html payloads never shuffle."""
    from ..stages.web import link_graph

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    )
    pages = ds.map_batches(_synth_link_pages, batch_format="pyarrow")
    return link_graph(pages)
ORACLE_SQL["link_graph"] = (
    "SELECT 'host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) || "
    "'.example.com' AS src_host, "
    "'host' || CAST((doc_id * 7 + j) % 97 AS VARCHAR) || "
    "'.example.com' AS dst_host, "
    "count(*) AS n_links "
    "FROM (SELECT doc_id, unnest(range(1, doc_id % 4 + 1)) AS j "
    "FROM documents) "
    "GROUP BY 1, 2"
)
QUERIES["link_graph"] = q_link_graph
def q_anchor_texts(sf_dir: str):
    """Per-destination-host anchor-text aggregation
    (stages/web.anchor_stats) over the same deterministic synthetic
    pages as `link_graph`: total mentions, distinct anchor strings,
    and the arg-max anchor per host (ties → lexicographic). Payloads
    never shuffle; only (host, anchor, n) partials move."""
    from ..stages.web import anchor_stats

    pages = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(_synth_link_pages, batch_format="pyarrow")
    return anchor_stats(pages).sort("dst_host")
ORACLE_SQL["anchor_texts"] = (
    "WITH l AS (SELECT (doc_id * 7 + j) % 97 AS hid, "
    "'ref ' || CAST(j AS VARCHAR) AS anchor FROM ("
    "SELECT doc_id, unnest(range(1, doc_id % 4 + 1)) AS j "
    "FROM documents)), "
    "c AS (SELECT hid, anchor, count(*) AS n FROM l GROUP BY 1, 2), "
    "r AS (SELECT hid, anchor, row_number() OVER (PARTITION BY hid "
    "ORDER BY n DESC, anchor ASC) AS rk, "
    "sum(n) OVER (PARTITION BY hid) AS tot, "
    "count(*) OVER (PARTITION BY hid) AS nd FROM c) "
    "SELECT 'host' || CAST(hid AS VARCHAR) || '.example.com' AS dst_host, "
    "CAST(tot AS BIGINT) AS n_mentions, "
    "CAST(nd AS BIGINT) AS n_distinct_anchors, anchor AS top_anchor "
    "FROM r WHERE rk = 1 ORDER BY dst_host"
)
QUERIES["anchor_texts"] = q_anchor_texts
def q_robots_allowed(sf_dir: str):
    """Robots-style disallow-prefix URL filtering
    (stages/web.robots_filter): per-host Disallow rules broadcast
    once, probed with O(distinct prefix lengths) vectorized is_in
    kernels per batch — the crawl-politeness / takedown gate. Rules
    here derive from the host id (h%3→'/p/1', h%5→'/p/2',
    h%7→'/p/33') so the DuckDB NOT EXISTS twin reproduces them."""
    from ..stages.web import robots_filter

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
    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow")
    return robots_filter(ds, rules).select_columns(
        ["doc_id", "url"]).sort("doc_id")
ORACLE_SQL["robots_allowed"] = (
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
    "AS host, '/p/' || CAST(doc_id AS VARCHAR) AS path, "
    "'http://host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) || "
    "'.example.com/p/' || CAST(doc_id AS VARCHAR) AS url "
    "FROM documents) "
    "SELECT doc_id, url FROM u WHERE NOT EXISTS ("
    "SELECT 1 FROM rules r WHERE r.host = u.host "
    "AND starts_with(u.path, r.prefix)) ORDER BY doc_id"
)
QUERIES["robots_allowed"] = q_robots_allowed
def q_robots_rep(sf_dir: str):
    """Full REP (RFC 9309) robots evaluation
    (stages/web.robots_rep_filter): longest-prefix rule wins, Allow
    beats Disallow on length ties, no match allows — the semantics
    the plain disallow gate can't express (``Disallow: /p/1`` +
    ``Allow: /p/12`` re-opens /p/12*; host0 re-blocks /p/123*).
    Rules derive from host-id formulas so the SQL twin rebuilds them
    and picks each url's verdict with a longest-match LIMIT 1."""
    from ..stages.web import robots_rep_filter

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
    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow")
    return robots_rep_filter(ds, rules).select_columns(
        ["doc_id", "url"]).sort("doc_id")
ORACLE_SQL["robots_rep"] = (
    "WITH hs AS (SELECT unnest(range(0, 97)) AS h), "
    "rules AS ("
    "SELECT 'host' || CAST(h AS VARCHAR) || '.example.com' AS host, "
    "'disallow' AS d, '/p/1' AS p FROM hs "
    "UNION ALL SELECT 'host' || CAST(h AS VARCHAR) || '.example.com',"
    " 'allow', '/p/12' FROM hs "
    "UNION ALL SELECT 'host' || CAST(h AS VARCHAR) || '.example.com',"
    " 'disallow', '/p/4' FROM hs WHERE h % 2 = 0 "
    "UNION ALL SELECT 'host0.example.com', 'disallow', '/p/123'), "
    "u AS (SELECT doc_id, "
    "'host' || CAST(CASE WHEN doc_id % 3 = 0 THEN 0 "
    "ELSE doc_id % 97 END AS VARCHAR) || '.example.com' AS host, "
    "'/p/' || CAST(doc_id AS VARCHAR) AS path, "
    "'http://host' || CAST(CASE WHEN doc_id % 3 = 0 THEN 0 "
    "ELSE doc_id % 97 END AS VARCHAR) || '.example.com/p/' || "
    "CAST(doc_id AS VARCHAR) AS url FROM documents) "
    "SELECT doc_id, url FROM u WHERE COALESCE(("
    "SELECT r.d = 'allow' FROM rules r WHERE r.host = u.host "
    "AND starts_with(u.path, r.p) "
    "ORDER BY length(r.p) DESC, r.d LIMIT 1), TRUE) "
    "ORDER BY doc_id"
)
QUERIES["robots_rep"] = q_robots_rep
def q_host_components(sf_dir: str):
    """Connected components over the HOST link graph — the
    string-keyed reuse of the distributed block-fold union-find
    (stages/cluster.connected_components, cluster = lexicographic
    min host): pages → link_graph edges → (host, component)."""
    from ..stages.cluster import connected_components
    from ..stages.web import link_graph

    pages = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(_synth_link_pages, batch_format="pyarrow")
    edges = link_graph(pages)
    return connected_components(
        edges, a_col="src_host", b_col="dst_host"
    ).sort("node")
ORACLE_SQL["host_components"] = (
    "WITH RECURSIVE e0 AS (SELECT "
    "'host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) || '.example.com' "
    "AS src, 'host' || CAST((doc_id * 7 + j) % 97 AS VARCHAR) || "
    "'.example.com' AS dst FROM (SELECT doc_id, "
    "unnest(range(1, doc_id % 4 + 1)) AS j FROM documents)), "
    "edges AS (SELECT src AS u, dst AS v FROM e0 "
    "UNION ALL SELECT dst, src FROM e0), "
    "lbl(node, lab) AS ("
    "SELECT u, u FROM (SELECT DISTINCT u FROM edges) "
    "UNION SELECT e.u, l.lab FROM edges e JOIN lbl l ON l.node = e.v) "
    "SELECT node, MIN(lab) AS cluster FROM lbl GROUP BY node "
    "ORDER BY node"
)
QUERIES["host_components"] = q_host_components
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
def q_mirror_hosts(sf_dir: str):
    """Template-syndication report: UNORDERED host pairs linked by
    near-dup content (the MinHash candidate pairs), with pair counts
    — the mirror/content-farm detection rollup. Pair-scale all the
    way: hosts derive per side, least/greatest normalizes the pair,
    map-side partial combine feeds one tiny groupby."""
    from ray.data.aggregate import Sum

    pairs = minhash_dup_pairs(_docs(sf_dir))

    def _hosts(batch: pa.Table) -> pa.Table:
        def hid(col):
            hot = pc.equal(_int_mod(col, 3), 0)
            return pc.if_else(hot, pa.scalar(0, pa.int64()),
                              _int_mod(col, 97))

        h1, h2 = hid(batch.column("d1")), hid(batch.column("d2"))
        lo = pc.min_element_wise(h1, h2)
        hi = pc.max_element_wise(h1, h2)

        def name(c):
            return pc.binary_join_element_wise(
                "host", pc.cast(c, pa.string()), ".example.com", "")

        t = pa.table({"host_a": name(lo), "host_b": name(hi)})
        g = t.group_by(["host_a", "host_b"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "host_a": g.column("host_a"),
            "host_b": g.column("host_b"),
            "n_pairs": pc.cast(g.column("count_all"), pa.int64()),
        })

    return pairs.map_batches(_hosts, batch_format="pyarrow").groupby(
        ["host_a", "host_b"]
    ).aggregate(Sum("n_pairs", alias_name="n_pairs")).sort(
        ["host_a", "host_b"])
ORACLE_SQL["mirror_hosts"] = (
    "WITH " + SIG_CTE + ", cand AS (" + CAND_SELECT + "), "
    "hp AS (SELECT "
    "least(CASE WHEN d1 % 3 = 0 THEN 0 ELSE d1 % 97 END, "
    "CASE WHEN d2 % 3 = 0 THEN 0 ELSE d2 % 97 END) AS lo, "
    "greatest(CASE WHEN d1 % 3 = 0 THEN 0 ELSE d1 % 97 END, "
    "CASE WHEN d2 % 3 = 0 THEN 0 ELSE d2 % 97 END) AS hi FROM cand) "
    "SELECT 'host' || CAST(lo AS VARCHAR) || '.example.com' AS host_a, "
    "'host' || CAST(hi AS VARCHAR) || '.example.com' AS host_b, "
    "CAST(count(*) AS BIGINT) AS n_pairs FROM hp "
    "GROUP BY 1, 2 ORDER BY host_a, host_b"
)
QUERIES["mirror_hosts"] = q_mirror_hosts
def q_cocitation_pairs(sf_dir: str):
    """Host co-citation (stages/web.cocitation_pairs): distinct
    unordered host pairs linked together by the same page, summed
    over the corpus — the webgraph relatedness signal. Pair-scale
    map-side combine + one groupby; the pair is normalized by host
    NAME (lexicographic), matching the SQL least/greatest twin."""
    from ..stages.web import cocitation_pairs

    pages = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(_synth_link_pages, batch_format="pyarrow")
    return cocitation_pairs(pages).sort(["host_a", "host_b"])
ORACLE_SQL["cocitation_pairs"] = (
    "WITH e AS (SELECT doc_id, 'host' || CAST((doc_id * 7 + j) % 97 "
    "AS VARCHAR) || '.example.com' AS h, j FROM ("
    "SELECT doc_id, unnest(range(1, doc_id % 4 + 1)) AS j "
    "FROM documents)), "
    "p AS (SELECT DISTINCT a.doc_id, least(a.h, b.h) AS host_a, "
    "greatest(a.h, b.h) AS host_b FROM e a JOIN e b "
    "ON a.doc_id = b.doc_id AND a.j < b.j AND a.h != b.h) "
    "SELECT host_a, host_b, CAST(count(*) AS BIGINT) AS n_pages "
    "FROM p GROUP BY 1, 2 ORDER BY host_a, host_b"
)
QUERIES["cocitation_pairs"] = q_cocitation_pairs
def q_polyglot_hosts(sf_dir: str):
    """Mixed-language hosts (stages/web.polyglot_hosts): hosts
    serving ≥ 2 languages with doc counts and dominant language —
    the MT-spam curation signal. One (host, lang) partial co-shuffle,
    whole-bucket rollup."""
    from ..stages.web import polyglot_hosts, url_host_fn

    ds = _docs(sf_dir, columns=["doc_id", "lang"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(lambda b: url_host_fn(b), batch_format="pyarrow")
    return polyglot_hosts(ds).sort("host")
ORACLE_SQL["polyglot_hosts"] = (
    "WITH d AS (SELECT 'host' || CAST(" + _HOST_ID_SQL + " AS VARCHAR) "
    "|| '.example.com' AS host, lang FROM documents), "
    "c AS (SELECT host, lang, count(*) AS n FROM d GROUP BY 1, 2), "
    "r AS (SELECT host, lang, n, row_number() OVER (PARTITION BY host "
    "ORDER BY n DESC, lang ASC) AS rk, sum(n) OVER (PARTITION BY host) "
    "AS tot, count(*) OVER (PARTITION BY host) AS nl FROM c) "
    "SELECT host, CAST(tot AS BIGINT) AS n_docs, "
    "CAST(nl AS BIGINT) AS n_langs, lang AS top_lang FROM r "
    "WHERE rk = 1 AND nl >= 2 ORDER BY host"
)
QUERIES["polyglot_hosts"] = q_polyglot_hosts
def q_lang_approx_quantiles(sf_dir: str):
    """Per-language n_chars quantile SKETCH (grouped fixed-bin
    histogram, driver-folded, no shuffle) — deterministic estimate
    pinned by the same-rule SQL twin."""
    from ..stages.stats import grouped_binned_quantiles

    ds = _docs(sf_dir, columns=["lang", "n_chars"])
    return grouped_binned_quantiles(
        ds, "lang", "n_chars", qs=[0.25, 0.5, 0.9],
        lo=0, bin_width=100, n_bins=100)
ORACLE_SQL["lang_approx_quantiles"] = """
WITH h AS (
  SELECT lang, LEAST(GREATEST((n_chars - 0) // 100, 0), 99) AS b,
         count(*) AS n
  FROM documents
  WHERE n_chars IS NOT NULL AND lang IS NOT NULL GROUP BY 1, 2
), c AS (
  SELECT lang, b, CAST(sum(n) OVER (
      PARTITION BY lang ORDER BY b) AS BIGINT) AS cum FROM h
), tot AS (
  SELECT lang, max(cum) AS n FROM c GROUP BY lang
), qs AS (
  SELECT CAST(unnest([0.25, 0.5, 0.9]) AS DOUBLE) AS q
)
SELECT t.lang, q.q,
  CAST(((SELECT min(b) FROM c WHERE c.lang = t.lang AND cum >=
         GREATEST(CAST(ceil(q.q * t.n) AS BIGINT) - 1, 0) + 1) + 1)
       * 100 - 1 AS BIGINT) AS value_est
FROM tot t, qs q
"""
QUERIES["lang_approx_quantiles"] = q_lang_approx_quantiles
def q_crawl_depth(sf_dir: str):
    """BFS crawl-depth labeling over the formula link graph
    (src = doc_id % 200 → dst = doc_id*7 % 200) from seeds {0, 1};
    oracle = bounded recursive-CTE shortest hop count."""
    from ..stages.graph import bfs_levels

    edges = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _formula_edges_fn, batch_format="pyarrow")
    return bfs_levels(edges, seeds=[0, 1], max_iters=6)
ORACLE_SQL["crawl_depth"] = """
WITH RECURSIVE e AS (
  SELECT doc_id % 200 AS src, (doc_id * 7) % 200 AS dst FROM documents
  UNION ALL
  SELECT doc_id % 200, (doc_id % 200 + 3) % 200 FROM documents
), walk(node, dist) AS (
  SELECT unnest([0, 1]) AS node, 0 AS dist
  UNION
  SELECT e.dst, w.dist + 1 FROM walk w
  JOIN e ON e.src = w.node WHERE w.dist < 6
)
SELECT CAST(node AS BIGINT) AS node, CAST(min(dist) AS BIGINT) AS dist
FROM walk GROUP BY node
"""
QUERIES["crawl_depth"] = q_crawl_depth
def q_kcore(sf_dir: str):
    """Iterated 3-core pruning (3 fixed rounds) over the formula
    link graph; chained-CTE SQL twin replays the identical rounds."""
    from ..stages.graph import kcore_prune

    edges = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _formula_edges_fn, batch_format="pyarrow")
    return kcore_prune(edges, k=3, rounds=3)
ORACLE_SQL["kcore"] = _kcore_sql(3, 3)
QUERIES["kcore"] = q_kcore
def q_url_path_rollup(sf_dir: str):
    """Path-hierarchy page counts over formula urls
    (host = doc_id % 10, two path segments from doc_id) at depths
    0..2; oracle regenerates each ancestor prefix row in SQL."""
    from ..stages.web import url_path_rollup

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        h = pc.cast(_int_mod(ids, 10), pa.string())
        s1 = pc.cast(_int_mod(ids, 4), pa.string())
        s2 = pc.cast(ids, pa.string())
        url = pc.binary_join_element_wise(
            "https://h", h, ".example.com/sec", s1, "/p", s2, "")
        return pa.table({"url": url})

    pages = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aug, batch_format="pyarrow")
    return url_path_rollup(pages, max_depth=3)
ORACLE_SQL["url_path_rollup"] = """
WITH u AS (
  SELECT 'h' || CAST(doc_id % 10 AS VARCHAR) || '.example.com' AS host,
         'sec' || CAST(doc_id % 4 AS VARCHAR) AS s1,
         'p' || CAST(doc_id AS VARCHAR) AS s2
  FROM documents
), expanded AS (
  SELECT host AS prefix, 0 AS depth FROM u
  UNION ALL
  SELECT host || '/' || s1, 1 FROM u
  UNION ALL
  SELECT host || '/' || s1 || '/' || s2, 2 FROM u
)
SELECT prefix, CAST(depth AS BIGINT) AS depth,
       CAST(count(*) AS BIGINT) AS n_pages
FROM expanded GROUP BY prefix, depth
"""
QUERIES["url_path_rollup"] = q_url_path_rollup
def q_url_features(sf_dir: str):
    """URL-only spam/quality features (stages/web.url_features_fn):
    length, host length, path depth, digit density, query-param
    count — the crawl-frontier classifier inputs, computed before
    any fetch. Urls are the skewed synthetic crawl's, deterministically
    extended so deep paths (doc_id % 5 == 2) and query strings
    (doc_id % 4 == 1) both occur; the oracle rebuilds the same urls
    and derives every feature with string arithmetic."""
    from ..stages.web import url_features_fn

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

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(_extend, batch_format="pyarrow")
    return ds.map_batches(
        lambda b: url_features_fn(b), batch_format="pyarrow"
    ).select_columns(["doc_id", "url_len", "host_len", "path_depth",
                      "n_digits", "n_params"]).sort("doc_id")
ORACLE_SQL["url_features"] = (
    "WITH u AS (SELECT doc_id, 'http://host' || CAST("
    + _HOST_ID_SQL + " AS VARCHAR) || '.example.com/p/' || "
    "CAST(doc_id AS VARCHAR) || "
    "CASE WHEN doc_id % 5 = 2 THEN '/long/tail/seg' ELSE '' END || "
    "CASE WHEN doc_id % 4 = 1 THEN '?utm_source=feed&ref=rss' "
    "ELSE '' END AS url FROM documents), "
    "b AS (SELECT doc_id, url, string_split(url, '?')[1] AS base "
    "FROM u) "
    "SELECT doc_id, CAST(length(url) AS BIGINT) AS url_len, "
    "CAST(length(string_split(base, '/')[3]) AS BIGINT) AS host_len, "
    "CAST(length(base) - length(replace(base, '/', '')) - 2 "
    "AS BIGINT) AS path_depth, "
    "CAST(length(regexp_replace(url, '[^0-9]', '', 'g')) AS BIGINT) "
    "AS n_digits, "
    "CAST(CASE WHEN contains(url, '?') THEN length(url) - "
    "length(replace(url, '&', '')) + 1 ELSE 0 END AS BIGINT) "
    "AS n_params "
    "FROM b ORDER BY doc_id"
)
QUERIES["url_features"] = q_url_features
def q_communities(sf_dir: str):
    """Label-propagation communities (stages/graph.label_propagation,
    2 synchronous rounds, smallest-label ties) over the same
    deterministic synthetic link graph as q_pagerank — the density
    clustering that connected components can't express (one bridge
    edge merges components but not communities). Two exchanges per
    round; the oracle replays both rounds as chained CTEs."""
    import numpy as np

    from ..stages.graph import label_propagation

    docs = _docs(sf_dir, columns=["doc_id"])
    n = docs.count()

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        m1, m2 = ids % 3 >= 1, ids % 3 == 2
        src = np.concatenate([ids, ids[m1], ids[m2]])
        dst = np.concatenate([(ids * 7 + 1) % n,
                              (ids[m1] * 13 + 2) % n,
                              (ids[m2] * 29 + 5) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def _as_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id")})

    labels = label_propagation(
        docs.map_batches(_as_node, batch_format="pyarrow"),
        docs.map_batches(_edges, batch_format="pyarrow"),
        rounds=2)

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "community": batch.column("label")})

    return labels.map_batches(_rename, batch_format="pyarrow").sort(
        "doc_id")
ORACLE_SQL["communities"] = (
    "WITH nn AS (SELECT count(*) AS c FROM documents), "
    "nodes AS (SELECT doc_id AS node FROM documents), "
    "e AS (SELECT node AS src, (node*7+1) % nn.c AS dst "
    "FROM nodes, nn "
    "UNION ALL SELECT node, (node*13+2) % nn.c FROM nodes, nn "
    "WHERE node % 3 >= 1 "
    "UNION ALL SELECT node, (node*29+5) % nn.c FROM nodes, nn "
    "WHERE node % 3 = 2), "
    "sym AS (SELECT src, dst FROM e UNION ALL SELECT dst, src FROM e), "
    "l0 AS (SELECT node, node AS lbl FROM nodes), "
    "m1 AS (SELECT s.dst AS node, l.lbl, count(*) AS c FROM sym s "
    "JOIN l0 l ON l.node = s.src GROUP BY 1, 2), "
    "w1 AS (SELECT node, lbl FROM m1 QUALIFY row_number() OVER "
    "(PARTITION BY node ORDER BY c DESC, lbl ASC) = 1), "
    "l1 AS (SELECT l.node, COALESCE(w.lbl, l.lbl) AS lbl FROM l0 l "
    "LEFT JOIN w1 w ON w.node = l.node), "
    "m2 AS (SELECT s.dst AS node, l.lbl, count(*) AS c FROM sym s "
    "JOIN l1 l ON l.node = s.src GROUP BY 1, 2), "
    "w2 AS (SELECT node, lbl FROM m2 QUALIFY row_number() OVER "
    "(PARTITION BY node ORDER BY c DESC, lbl ASC) = 1), "
    "l2 AS (SELECT l.node, COALESCE(w.lbl, l.lbl) AS lbl FROM l1 l "
    "LEFT JOIN w2 w ON w.node = l.node) "
    "SELECT node AS doc_id, CAST(lbl AS BIGINT) AS community "
    "FROM l2 ORDER BY node"
)
QUERIES["communities"] = q_communities
def q_ppr_scores(sf_dir: str):
    """PERSONALIZED PageRank (stages/graph.pagerank_int with
    seed_ids — TrustRank-style crawl prioritization): teleport mass
    lands only on the seed set (doc_id % 50 == 0), same all-int64
    exchange plan as q_pagerank, bit-exact vs the seeded join-chain
    twin. Documents unreachable from seeds score 0 — the
    spam-demotion property uniform PageRank lacks."""
    import numpy as np

    from ..stages.graph import pagerank_int

    docs = _docs(sf_dir, columns=["doc_id"])
    n = docs.count()

    def _edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        m1, m2 = ids % 3 >= 1, ids % 3 == 2
        src = np.concatenate([ids, ids[m1], ids[m2]])
        dst = np.concatenate([(ids * 7 + 1) % n,
                              (ids[m1] * 13 + 2) % n,
                              (ids[m2] * 29 + 5) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def _as_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id")})

    seeds = np.arange(0, n, 50, dtype=np.int64)
    ranks = pagerank_int(
        docs.map_batches(_as_node, batch_format="pyarrow"),
        docs.map_batches(_edges, batch_format="pyarrow"),
        iters=3, n_buckets=32, seed_ids=seeds)

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "ppr_score": batch.column("rank")})

    return ranks.map_batches(_rename, batch_format="pyarrow").sort(
        "doc_id")
ORACLE_SQL["ppr_scores"] = (
    "WITH nn AS (SELECT count(*) AS c FROM documents), "
    "nodes AS (SELECT doc_id AS node FROM documents), "
    "edges AS ("
    "SELECT node AS src, (node*7+1) % nn.c AS dst FROM nodes, nn "
    "UNION ALL SELECT node, (node*13+2) % nn.c FROM nodes, nn "
    "WHERE node % 3 >= 1 "
    "UNION ALL SELECT node, (node*29+5) % nn.c FROM nodes, nn "
    "WHERE node % 3 = 2), "
    "deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src), "
    "r0 AS (SELECT node, CAST(CASE WHEN node % 50 = 0 "
    "THEN 1000000000 ELSE 0 END AS BIGINT) AS r FROM nodes), "
    "s1 AS (SELECT e.dst AS node, sum(r.r // g.d) AS s "
    "FROM edges e JOIN r0 r ON r.node = e.src "
    "JOIN deg g ON g.src = e.src GROUP BY e.dst), "
    "r1 AS (SELECT n2.node, CASE WHEN n2.node % 50 = 0 "
    "THEN 150000000 ELSE 0 END + 85 * coalesce(s1.s, 0) // 100 AS r "
    "FROM nodes n2 LEFT JOIN s1 USING (node)), "
    "s2 AS (SELECT e.dst AS node, sum(r.r // g.d) AS s "
    "FROM edges e JOIN r1 r ON r.node = e.src "
    "JOIN deg g ON g.src = e.src GROUP BY e.dst), "
    "r2 AS (SELECT n2.node, CASE WHEN n2.node % 50 = 0 "
    "THEN 150000000 ELSE 0 END + 85 * coalesce(s2.s, 0) // 100 AS r "
    "FROM nodes n2 LEFT JOIN s2 USING (node)), "
    "s3 AS (SELECT e.dst AS node, sum(r.r // g.d) AS s "
    "FROM edges e JOIN r2 r ON r.node = e.src "
    "JOIN deg g ON g.src = e.src GROUP BY e.dst), "
    "r3 AS (SELECT n2.node, CASE WHEN n2.node % 50 = 0 "
    "THEN 150000000 ELSE 0 END + 85 * coalesce(s3.s, 0) // 100 AS r "
    "FROM nodes n2 LEFT JOIN s3 USING (node)) "
    "SELECT node AS doc_id, CAST(r AS BIGINT) AS ppr_score "
    "FROM r3 ORDER BY node"
)
QUERIES["ppr_scores"] = q_ppr_scores
def q_robots_parse(sf_dir: str):
    """robots.txt PARSING (stages/web.parse_robots): raw per-host
    robots text — with a badbot group that must be scoped OUT,
    comments, blank lines, Crawl-delay noise and an empty Disallow —
    parsed into the (host, rule_idx, allow, prefix) rows the REP
    evaluators consume. The text derives from host-id formulas, so
    the oracle rebuilds the expected rules directly: a parser that
    mis-scopes groups or miscounts rules cannot pass. Host count
    follows the corpus' 97-host layout; row-local, no shuffle."""
    from ..stages.web import parse_robots

    def _mk(batch: pa.Table) -> pa.Table:
        hs = batch.column("id").to_pylist()
        hosts, texts = [], []
        for h in hs:
            lines = [
                "# synthetic robots for tests",
                "User-agent: badbot",
                "Disallow: /",
                "",
                "User-agent: *",
            ]
            if h % 3 == 0:
                lines.append("Disallow: /p/1")
                lines.append("Allow: /p/12")
            if h % 5 == 0:
                lines.append("Disallow: /p/2")
            lines.append("Crawl-delay: 5")
            lines.append("Disallow:")  # empty value: allow-all noop
            lines.append("Disallow: /tmp")
            hosts.append(f"host{h}.example.com")
            texts.append("\n".join(lines))
        return pa.table({
            "host": pa.array(hosts, pa.string()),
            "robots_txt": pa.array(texts, pa.string()),
        })

    ds = ray.data.range(97).map_batches(_mk, batch_format="pyarrow")
    return ds.map_batches(
        lambda b: parse_robots(b), batch_format="pyarrow"
    ).sort(["host", "rule_idx"])
ORACLE_SQL["robots_parse"] = (
    "WITH hs AS (SELECT unnest(range(0, 97)) AS h), "
    "rules AS ("
    "SELECT h, 0 AS pos, FALSE AS allow, '/p/1' AS prefix FROM hs "
    "WHERE h % 3 = 0 "
    "UNION ALL SELECT h, 1, TRUE, '/p/12' FROM hs WHERE h % 3 = 0 "
    "UNION ALL SELECT h, 2, FALSE, '/p/2' FROM hs WHERE h % 5 = 0 "
    "UNION ALL SELECT h, 3, FALSE, '/tmp' FROM hs) "
    "SELECT 'host' || CAST(h AS VARCHAR) || '.example.com' AS host, "
    "CAST(row_number() OVER (PARTITION BY h ORDER BY pos) - 1 "
    "AS BIGINT) AS rule_idx, allow, prefix "
    "FROM rules ORDER BY host, rule_idx"
)
QUERIES["robots_parse"] = q_robots_parse
def q_lang_host_mi(sf_dir: str):
    """Dataset-bias audit: MUTUAL INFORMATION between language and
    host over the crawl — near-zero MI means languages spread evenly
    across hosts; high MI flags host-language lock-in (single-lang
    mirror farms), the selection-bias companion to host_entropy /
    host_gini. One (lang,host) pair exchange (pairs-scale, tiny);
    MI folded from exact integer counts in a single final task,
    compared on the 1e-6 grid."""
    import numpy as np

    from ..stages.web import url_host_fn

    ds = _docs(sf_dir, columns=["doc_id", "lang"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(lambda b: url_host_fn(b), batch_format="pyarrow")

    def _pairs(batch: pa.Table) -> pa.Table:
        g = batch.select(["lang", "host"]).group_by(
            ["lang", "host"]).aggregate([([], "count_all")])
        key = pc.binary_join_element_wise(
            g.column("lang"), g.column("host"), "\x00")
        return pa.table({
            "lh": key,
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })

    agg = ds.map_batches(_pairs, batch_format="pyarrow").groupby(
        "lh").aggregate(Sum("n", alias_name="n"))

    def _mi(batch: pa.Table) -> pa.Table:
        keys = batch.column("lh").to_pylist()
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(
            np.float64)
        langs = np.array([k.split("\x00")[0] for k in keys])
        hosts = np.array([k.split("\x00")[1] for k in keys])
        total = n.sum()
        ul, li = np.unique(langs, return_inverse=True)
        uh, hi = np.unique(hosts, return_inverse=True)
        nl = np.zeros(len(ul)); np.add.at(nl, li, n)
        nh = np.zeros(len(uh)); np.add.at(nh, hi, n)
        mi = float(np.sum(
            (n / total) * np.log((n * total) / (nl[li] * nh[hi]))))
        mi = math.floor(mi * 1e6 + 0.5) / 1e6
        return pa.table({
            "n_docs": pa.array([int(total)], pa.int64()),
            "n_langs": pa.array([len(ul)], pa.int64()),
            "n_hosts": pa.array([len(uh)], pa.int64()),
            "mi": pa.array([mi], pa.float64()),
        })

    return agg.repartition(1).map_batches(
        _mi, batch_format="pyarrow", batch_size=None)
ORACLE_SQL["lang_host_mi"] = (
    "WITH d AS (SELECT lang, 'host' || CAST(" + _HOST_ID_SQL
    + " AS VARCHAR) || '.example.com' AS host FROM documents), "
    "c AS (SELECT lang, host, CAST(count(*) AS BIGINT) AS n FROM d "
    "GROUP BY 1, 2), "
    "tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM c), "
    "ml AS (SELECT lang, CAST(sum(n) AS BIGINT) AS nl FROM c "
    "GROUP BY 1), "
    "mh AS (SELECT host, CAST(sum(n) AS BIGINT) AS nh FROM c "
    "GROUP BY 1) "
    "SELECT tot.nn AS n_docs, "
    "(SELECT CAST(count(*) AS BIGINT) FROM ml) AS n_langs, "
    "(SELECT CAST(count(*) AS BIGINT) FROM mh) AS n_hosts, "
    "FLOOR(SUM((CAST(c.n AS DOUBLE) / tot.nn) * "
    "ln((CAST(c.n AS DOUBLE) * tot.nn) / "
    "(CAST(ml.nl AS DOUBLE) * mh.nh))) * 1e6 + 0.5) / 1e6 AS mi "
    "FROM c JOIN ml USING (lang) JOIN mh USING (host), tot "
    "GROUP BY tot.nn"
)
QUERIES["lang_host_mi"] = q_lang_host_mi
def q_syndication_sources(sf_dir: str):
    """Copy-direction provenance over the near-dup graph: orient
    every bit-exact MinHash candidate pair by crawl TIMESTAMP
    (deterministic scrambled ts so direction isn't the id order) —
    the earlier side is the SOURCE, the later side the copy; ties
    break to the smaller doc_id. Output: per-source copy counts,
    the "who gets syndicated" ranking feeding canonical-document
    election and crawl-priority boosts. Pair-scale all the way:
    orientation is row-local on the pair set, map-side combine
    feeds one tiny groupby."""
    pairs = minhash_dup_pairs(_docs(sf_dir))

    def _orient(batch: pa.Table) -> pa.Table:
        d1, d2 = batch.column("d1"), batch.column("d2")
        t1 = _int_mod(pc.multiply(d1, pa.scalar(131, pa.int64())),
                      10007)
        t2 = _int_mod(pc.multiply(d2, pa.scalar(131, pa.int64())),
                      10007)
        # d1 < d2 by pair construction, so the tie rule is "ties
        # keep d1" — mirrored in the SQL CASE
        src = pc.if_else(
            pc.or_(pc.less(t1, t2),
                   pc.and_(pc.equal(t1, t2), pc.less(d1, d2))),
            d1, d2)
        g = pa.table({"doc_id": src}).group_by(["doc_id"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "doc_id": g.column("doc_id"),
            "n_copies": pc.cast(g.column("count_all"), pa.int64()),
        })

    return pairs.map_batches(_orient, batch_format="pyarrow").groupby(
        "doc_id"
    ).aggregate(Sum("n_copies", alias_name="n_copies")).sort("doc_id")
ORACLE_SQL["syndication_sources"] = (
    "WITH " + SIG_CTE + ", cand AS (" + CAND_SELECT + "), "
    "o AS (SELECT CASE WHEN (d1 * 131) % 10007 < (d2 * 131) % 10007 "
    "OR ((d1 * 131) % 10007 = (d2 * 131) % 10007 AND d1 < d2) "
    "THEN d1 ELSE d2 END AS doc_id FROM cand) "
    "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_copies FROM o "
    "GROUP BY doc_id ORDER BY doc_id"
)
QUERIES["syndication_sources"] = q_syndication_sources
def q_sitemap_parse(sf_dir: str):
    """sitemap.xml PARSING (stages/web.parse_sitemap): per-host
    urlset documents — default-namespace XML with optional
    lastmod/priority per entry and one no-loc entry that must be
    skipped — parsed into (host, entry_idx, loc, lastmod, priority)
    seed rows. Entry fields derive from host-id formulas, so the
    oracle rebuilds the expected rows directly: a parser that
    drops the namespace handling, misorders entries or keeps
    loc-less rows cannot pass. 97-host layout; row-local."""
    from ..stages.web import parse_sitemap

    ds = ray.data.range(97).map_batches(
        lambda b: _sitemap_fixture(b, with_optional=True),
        batch_format="pyarrow")
    return ds.map_batches(
        lambda b: parse_sitemap(b), batch_format="pyarrow"
    ).sort(["host", "entry_idx"])
ORACLE_SQL["sitemap_parse"] = (
    "WITH h AS (SELECT unnest(range(0, 97)) AS hid), "
    "e AS (SELECT hid, unnest(range(1, 2 + hid % 4)) AS j FROM h) "
    "SELECT 'host' || CAST(hid AS VARCHAR) || '.example.com' AS host, "
    "CAST(j - 1 AS BIGINT) AS entry_idx, "
    "'http://host' || CAST(hid AS VARCHAR) || '.example.com/p/' || "
    "CAST(j AS VARCHAR) AS loc, "
    "CASE WHEN (hid + j) % 2 = 0 THEN '2024-01-' || "
    "lpad(CAST((hid + j) % 28 + 1 AS VARCHAR), 2, '0') END "
    "AS lastmod, "
    "CASE WHEN (hid + j) % 3 = 0 THEN '0.' || "
    "CAST((hid + j) % 10 AS VARCHAR) END AS priority "
    "FROM e ORDER BY host, entry_idx"
)
QUERIES["sitemap_parse"] = q_sitemap_parse
def q_homoglyph_hosts(sf_dir: str):
    """Homoglyph-SPAM host detection: the per-host rollup of the
    script-mix signal — hosts whose pages systematically mix Latin
    and Cyrillic letters are confusable-obfuscation farms (the plant
    is HOST-correlated here: every doc of hosts with id % 7 == 3 is
    obfuscated, so the report discriminates hosts, not docs).
    Row-local script classification (textstats.script_mix_fn), then
    map-side (host, n, n_mixed) partials into ONE tiny groupby —
    the host_stats shape; content never shuffles."""
    from ..stages.textstats import script_mix_fn
    from ..stages.web import url_host_fn

    def _plant(batch: pa.Table) -> pa.Table:
        b = url_host_fn(_url_augment(batch))
        ids = b.column("doc_id")
        hot = pc.equal(_int_mod(pc.if_else(
            pc.equal(_int_mod(ids, 3), 0),
            pa.scalar(0, pa.int64()), _int_mod(ids, 97)), 7), 3)
        t = pc.fill_null(b.column("text"), "")
        dirty = pc.replace_substring(
            pc.replace_substring(t, "a", "а"), "e", "е")
        return pa.table({
            "doc_id": ids,
            "host": b.column("host"),
            "text": pc.if_else(hot, dirty, t),
        })

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _plant, batch_format="pyarrow")

    def _partial(batch: pa.Table) -> pa.Table:
        mix = script_mix_fn(batch)
        t = pa.table({
            "host": batch.column("host"),
            "one": pa.array([1] * batch.num_rows, pa.int64()),
            "mixed": pc.cast(mix.column("mixed"), pa.int64()),
        })
        g = t.group_by(["host"]).aggregate(
            [("one", "sum"), ("mixed", "sum")])
        return pa.table({
            "host": g.column("host"),
            "n_docs": pc.cast(g.column("one_sum"), pa.int64()),
            "n_mixed": pc.cast(g.column("mixed_sum"), pa.int64()),
        })

    agg = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "host"
    ).aggregate(Sum("n_docs", alias_name="n_docs"),
                Sum("n_mixed", alias_name="n_mixed"))

    def _flag(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch.column("n_mixed"), 0))

    return agg.map_batches(_flag, batch_format="pyarrow").sort("host")
ORACLE_SQL["homoglyph_hosts"] = (
    "WITH d AS (SELECT doc_id, " + _HOST_ID_SQL + " AS hid, "
    "coalesce(text, '') AS text FROM documents), "
    "p AS (SELECT doc_id, 'host' || CAST(hid AS VARCHAR) || "
    "'.example.com' AS host, CASE WHEN hid % 7 = 3 THEN "
    "replace(replace(text, 'a', 'а'), 'e', 'е') ELSE text END "
    "AS text FROM d), "
    "ch AS (SELECT doc_id, unicode(unnest(string_split(text, ''))) "
    "AS cp FROM p WHERE text != ''), "
    "m AS (SELECT doc_id, "
    "sum(CASE WHEN (cp BETWEEN 65 AND 90) OR (cp BETWEEN 97 AND "
    "122) THEN 1 ELSE 0 END) > 0 AND "
    "sum(CASE WHEN cp BETWEEN 1024 AND 1279 THEN 1 ELSE 0 END) > 0 "
    "AS mixed FROM ch GROUP BY doc_id) "
    "SELECT p.host, CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(sum(CASE WHEN coalesce(m.mixed, FALSE) THEN 1 ELSE 0 "
    "END) AS BIGINT) AS n_mixed FROM p LEFT JOIN m "
    "ON p.doc_id = m.doc_id GROUP BY p.host "
    "HAVING sum(CASE WHEN coalesce(m.mixed, FALSE) THEN 1 ELSE 0 "
    "END) > 0 ORDER BY p.host"
)
QUERIES["homoglyph_hosts"] = q_homoglyph_hosts
def q_sssp(sf_dir: str):
    """Weighted SSSP (8 Bellman-Ford rounds) over the shared formula
    link graph with deterministic integer weights
    ``w = (src*3 + dst*5) % 9 + 1`` from seeds {0, 1}.

    `stages/graph.sssp_int`: after k rounds every reached node holds
    the exact min weight over <=k-edge paths — all-int64, so the
    depth-bounded recursive-CTE oracle is bit-exact (the weighted
    generalization of `crawl_depth`).
    """
    import numpy as np

    from ..stages.graph import sssp_int

    def _weighted_edges(batch: pa.Table) -> pa.Table:
        t = _formula_edges_fn(batch)
        src = t.column("src").combine_chunks().to_numpy(
            zero_copy_only=False)
        dst = t.column("dst").combine_chunks().to_numpy(
            zero_copy_only=False)
        return t.append_column(
            "w", pa.array((src * 3 + dst * 5) % 9 + 1, pa.int64()))

    edges = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _weighted_edges, batch_format="pyarrow")
    return sssp_int(edges, seeds=[0, 1], rounds=8).sort("node")
ORACLE_SQL["sssp"] = """
WITH RECURSIVE e AS (
  SELECT doc_id % 200 AS src, (doc_id * 7) % 200 AS dst FROM documents
  UNION ALL
  SELECT doc_id % 200, (doc_id % 200 + 3) % 200 FROM documents
), we AS (
  SELECT DISTINCT src, dst, (src * 3 + dst * 5) % 9 + 1 AS w FROM e
), walk(node, dist, depth) AS (
  SELECT unnest([0, 1]) AS node, 0 AS dist, 0 AS depth
  UNION
  SELECT we.dst, w.dist + we.w, w.depth + 1 FROM walk w
  JOIN we ON we.src = w.node WHERE w.depth < 8
)
SELECT CAST(node AS BIGINT) AS node, CAST(min(dist) AS BIGINT) AS dist
FROM walk GROUP BY node ORDER BY node
"""
QUERIES["sssp"] = q_sssp
def q_canonical_url(sf_dir: str):
    """URL canonicalization (`stages/web.canonical_url_fn`): the
    alias-collapsing dedup key over a crawl with planted fragment /
    www / port / case / tracking-param / trailing-slash variants."""
    from ..stages.web import canonical_url_fn

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aliased_urls, batch_format="pyarrow")
    return ds.map_batches(
        lambda b: canonical_url_fn(b), batch_format="pyarrow"
    ).select_columns(["doc_id", "canonical"]).sort("doc_id")
ORACLE_SQL["canonical_url"] = (
    "WITH c AS (" + _CANONICAL_SQL + ") "
    "SELECT doc_id, canonical FROM c ORDER BY doc_id"
)
QUERIES["canonical_url"] = q_canonical_url
def q_politeness_plan(sf_dir: str):
    """Per-host rate-limited fetch-slot scheduling
    (`stages/web.politeness_plan`, rate 3/slot) over the skewed
    synthetic crawl — the dispatch-plan load curve whose tail slot
    count is the hot host's makespan."""
    from ..stages.web import politeness_plan, url_host_fn

    ds = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _url_augment, batch_format="pyarrow"
    ).map_batches(lambda b: url_host_fn(b), batch_format="pyarrow")
    return politeness_plan(
        ds, rate=3).sort("slot")
ORACLE_SQL["politeness_plan"] = (
    "WITH u AS (SELECT doc_id, 'host' || CAST(" + _HOST_ID_SQL +
    " AS VARCHAR) || '.example.com' AS host FROM documents), "
    "r AS (SELECT doc_id, host, row_number() OVER "
    "(PARTITION BY host ORDER BY doc_id) - 1 AS rn FROM u), "
    "s AS (SELECT host, rn // 3 AS slot, count(*) AS n FROM r "
    "GROUP BY host, rn // 3) "
    "SELECT CAST(slot AS BIGINT) AS slot, "
    "CAST(sum(n) AS BIGINT) AS n_fetches, "
    "CAST(count(*) AS BIGINT) AS n_hosts "
    "FROM s GROUP BY slot ORDER BY slot"
)
QUERIES["politeness_plan"] = q_politeness_plan
