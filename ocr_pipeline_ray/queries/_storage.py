"""Storage-layout, snapshot/CDC and maintenance queries (split from queries.py; keys unchanged)."""
from __future__ import annotations

import math
import os
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_shuffle_shards(sf_dir: str):
    """Deterministic hash-shuffle into 16 training shards.

    The 100-TB substitute for ``random_shuffle``: shard and
    within-shard order derive from md5(doc_id) — uniform like a
    random permutation, but bit-reproducible, layout-independent,
    resumable per shard, and exactly one content move
    (``stages/pack.shuffle_shards``).
    """
    from ..stages.pack import shuffle_shards

    return shuffle_shards(_docs(sf_dir, columns=["doc_id"]),
                          n_shards=16)
ORACLE_SQL["shuffle_shards"] = (
    "WITH h AS (SELECT doc_id, "
    "CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) "
    "AS UBIGINT) AS BIGINT) AS hv FROM documents) "
    "SELECT doc_id, CAST(hv % 16 AS BIGINT) AS shard_id, "
    "CAST(row_number() OVER (PARTITION BY hv % 16 "
    "ORDER BY hv, doc_id) - 1 AS BIGINT) AS shard_pos FROM h"
)
QUERIES["shuffle_shards"] = q_shuffle_shards
def q_docs_except(sf_dir: str):
    """SQL ``EXCEPT`` (set, not bag): distinct (lang, source)
    combinations present in the even-doc_id snapshot but absent from
    the odd one — the snapshot-diff audit. One co-shuffle of both
    sides by composite-row-key bucket, whole-bucket boundary-mask
    distinctness (`stages/setops.py`). Result is combo-scale and can
    be EMPTY on converged snapshots, so it returns a schema-pinned
    Arrow table."""
    from ..stages.setops import except_distinct

    return _schema_stable(
        except_distinct(_docs_half(sf_dir, True),
                        _docs_half(sf_dir, False)),
        _LANG_SOURCE_SCHEMA)
ORACLE_SQL["docs_except"] = (
"SELECT lang, source FROM documents WHERE doc_id % 7 < 3 "
        "EXCEPT "
        "SELECT lang, source FROM documents WHERE doc_id % 7 >= 3"
)
QUERIES["docs_except"] = q_docs_except
def q_docs_intersect(sf_dir: str):
    """SQL ``INTERSECT``: distinct (lang, source) combinations in
    BOTH snapshot halves — same one-exchange plan as `docs_except`,
    same schema-pinned combo-scale return (empty-safe)."""
    from ..stages.setops import intersect_distinct

    return _schema_stable(
        intersect_distinct(_docs_half(sf_dir, True),
                           _docs_half(sf_dir, False)),
        _LANG_SOURCE_SCHEMA)
ORACLE_SQL["docs_intersect"] = (
"SELECT lang, source FROM documents WHERE doc_id % 7 < 3 "
        "INTERSECT "
        "SELECT lang, source FROM documents WHERE doc_id % 7 >= 3"
)
QUERIES["docs_intersect"] = q_docs_intersect
def q_snapshot_diff(sf_dir: str):
    """Keyed two-snapshot reconciliation (stages/diff.py
    ``snapshot_diff``): added / removed / changed / unchanged per
    doc_id between an old and a new corpus snapshot. Content diffs
    by digest: only (key, 15-hex md5, side) enters the one
    co-shuffle — the compared text column never moves."""
    from ..stages.diff import snapshot_diff

    old, new = _diff_snapshots(sf_dir)
    return snapshot_diff(old, new, "doc_id", ["text", "lang"],
                         n_buckets=32)
ORACLE_SQL["snapshot_diff"] = (
    _DIFF_SNAPSHOTS_SQL + "SELECT doc_id, status FROM d"
)
QUERIES["snapshot_diff"] = q_snapshot_diff
def q_snapshot_diff_summary(sf_dir: str):
    """Corpus-wide reconciliation counts (stages/diff.py
    ``diff_summary``): the per-key diff folded to one row of four
    int64 counts by a map-side partial combine — key-scale rows
    never reach the driver."""
    from ..stages.diff import diff_summary

    old, new = _diff_snapshots(sf_dir)
    return diff_summary(old, new, "doc_id", ["text", "lang"],
                        n_buckets=32)
ORACLE_SQL["snapshot_diff_summary"] = (
    _DIFF_SNAPSHOTS_SQL
    + "SELECT "
    "CAST(count(*) FILTER (status = 'added') AS BIGINT) AS n_added, "
    "CAST(count(*) FILTER (status = 'removed') AS BIGINT) AS n_removed, "
    "CAST(count(*) FILTER (status = 'changed') AS BIGINT) AS n_changed, "
    "CAST(count(*) FILTER (status = 'unchanged') AS BIGINT) "
    "AS n_unchanged FROM d"
)
QUERIES["snapshot_diff_summary"] = q_snapshot_diff_summary
def q_locf_fill(sf_dir: str):
    """Last-observation-carried-forward backfill (stages/temporal.py
    ``locf_fill``): per-user value gap fill in (ts, event_id) order
    — the SQL `last_value(v IGNORE NULLS)` window. Missingness is
    derived deterministically (``event_id%4=1`` -> NULL); filled
    floats move by Arrow `take`, so they stay bit-exact."""
    from ..stages.temporal import locf_fill

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])

    def _mask(batch: pa.Table) -> pa.Table:
        missing = pc.equal(_int_mod(batch.column("event_id"), 4),
                           pa.scalar(1, pa.int64()))
        v = batch.column("value")
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        return batch.set_column(
            batch.schema.get_field_index("value"), "value",
            pc.if_else(missing, pa.scalar(None, pa.float64()), v))

    masked = events.map_batches(_mask, batch_format="pyarrow")
    return locf_fill(masked, "user_id", ["ts", "event_id"], "value",
                     n_buckets=32)
ORACLE_SQL["locf_fill"] = (
    "WITH e AS (SELECT event_id, user_id, ts, "
    "CASE WHEN event_id % 4 = 1 THEN NULL ELSE value END AS value "
    "FROM events) "
    "SELECT event_id, user_id, ts, "
    "last_value(value IGNORE NULLS) OVER (PARTITION BY user_id "
    "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS value FROM e"
)
QUERIES["locf_fill"] = q_locf_fill
def q_bucketed_upsert(sf_dir: str):
    """MERGE into bucketed storage (stages/bucketed.py
    ``bucketed_upsert``): orders written once as a clustered
    bucketed store, then a derived delta (price updates for
    ``o_orderkey%5=0``, inserts as negated keys for ``%17=2``,
    tombstone deletes for ``%13=1`` minus the update set) merges
    into a NEW store root — only the delta is exchanged, the store
    side moves zero rows, untouched buckets hardlink over. Returns
    the merged table via per-bucket reads."""
    import shutil

    from ..stages.bucketed import (bucketed_upsert, read_bucketed,
                                  write_bucketed)

    base = (f"/tmp/ocr_ray_upsert_{os.getpid()}_"
            f"{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(base, ignore_errors=True)
    n_buckets = 32
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice"])
    write_bucketed(orders, f"{base}/store", "o_orderkey", n_buckets,
                   clustered=True)

    def _delta(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        p = batch.column("o_totalprice")
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        upd = pc.equal(_int_mod(k, 5), pa.scalar(0, pa.int64()))
        ins = pc.equal(_int_mod(k, 17), pa.scalar(2, pa.int64()))
        dele = pc.and_(
            pc.equal(_int_mod(k, 13), pa.scalar(1, pa.int64())),
            pc.invert(upd))

        def _part(mask, key, price, is_del):
            idx = pc.indices_nonzero(mask)
            return pa.table({
                "o_orderkey": key.take(idx),
                "o_totalprice": price.take(idx),
                "is_delete": pa.array(
                    [is_del] * len(idx), pa.bool_()),
            })

        return pa.concat_tables([
            _part(upd, k, pc.add(p, pa.scalar(1000.0, pa.float64())),
                  False),
            _part(ins, pc.negate(k), p, False),
            _part(dele, k, p, True),
        ])

    delta = orders.map_batches(_delta, batch_format="pyarrow")
    bucketed_upsert(f"{base}/store", delta, f"{base}/v2",
                    "o_orderkey", n_buckets,
                    tombstone_col="is_delete")
    return read_bucketed(f"{base}/v2", n_buckets)
ORACLE_SQL["bucketed_upsert"] = (
    "WITH delta AS ("
    "SELECT o_orderkey AS k, o_totalprice + 1000.0 AS p, "
    "FALSE AS del FROM orders WHERE o_orderkey % 5 = 0 "
    "UNION ALL SELECT -o_orderkey, o_totalprice, FALSE FROM orders "
    "WHERE o_orderkey % 17 = 2 "
    "UNION ALL SELECT o_orderkey, o_totalprice, TRUE FROM orders "
    "WHERE o_orderkey % 13 = 1 AND o_orderkey % 5 <> 0) "
    "SELECT k AS o_orderkey, p AS o_totalprice FROM delta "
    "WHERE NOT del "
    "UNION ALL SELECT o.o_orderkey, o.o_totalprice FROM orders o "
    "WHERE NOT EXISTS (SELECT 1 FROM delta d "
    "WHERE d.k = o.o_orderkey)"
)
QUERIES["bucketed_upsert"] = q_bucketed_upsert
def q_docs_checksum(sf_dir: str):
    """Order-insensitive corpus checksum (stages/stats.py
    ``table_checksum``): sum of md5_60(sentinel row composite) mod
    2^63 over (doc_id, lang, source) — the replication audit
    primitive; layout/order invariant, mergeable, shuffle-free, and
    the checksum value itself is oracle-pinned."""
    from ..stages.stats import table_checksum

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source"])
    return table_checksum(docs, ["doc_id", "lang", "source"])
ORACLE_SQL["docs_checksum"] = (
"WITH comp AS (SELECT "
        "COALESCE(CAST(doc_id AS VARCHAR), chr(30)) || chr(31) || "
        "COALESCE(lang, chr(30)) || chr(31) || "
        "COALESCE(source, chr(30)) || chr(31) AS c FROM documents), "
        "h AS (SELECT CAST(('0x' || substr(md5(c), 1, 15)) "
        "AS UBIGINT) AS hv FROM comp) "
        "SELECT CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(hv) % 9223372036854775808 AS BIGINT) AS checksum "
        "FROM h"
)
QUERIES["docs_checksum"] = q_docs_checksum
def q_docs_union(sf_dir: str):
    """SQL ``UNION`` (DISTINCT): every distinct (lang, source)
    combination of either snapshot half, once — completes the set-op
    family on the same one-exchange kernel (stages/setops.py)."""
    from ..stages.setops import union_distinct

    return union_distinct(_docs_half(sf_dir, True),
                          _docs_half(sf_dir, False))
ORACLE_SQL["docs_union"] = (
"SELECT lang, source FROM documents WHERE doc_id % 7 < 3 "
        "UNION "
        "SELECT lang, source FROM documents WHERE doc_id % 7 >= 3"
)
QUERIES["docs_union"] = q_docs_union
def q_bucket_point_lookup(sf_dir: str):
    """Point lookup over clustered bucketed storage
    (stages/bucketed.py ``bucketed_lookup``): orders written ONCE
    bucketed+sorted by custkey (one file per bucket, 256-row row
    groups), then a key probe reads ONE bucket dir and lets parquet
    row-group min/max statistics skip inside it — the
    prune-at-the-read path a 100-TB store needs for key lookups. The
    pruning is asserted real (candidate row groups < total), not
    assumed."""
    import shutil

    from ..stages.bucketed import bucketed_lookup, write_bucketed

    base = (f"/tmp/ocr_ray_ptlookup_{os.getpid()}_"
            f"{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(base, ignore_errors=True)
    n_buckets = 16
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "custkey": pc.cast(b.column("o_custkey"), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    write_bucketed(orders, base, "custkey", n_buckets,
                   clustered=True, row_group_size=256)
    tbl, stats = bucketed_lookup(base, "custkey", 7,
                                 n_buckets=n_buckets, with_stats=True)
    # loud contract: clustering must have made the stats selective
    # whenever there is more than one row group to choose from
    if (stats["row_groups_total"] > 1
            and stats["row_groups_candidate"] >= stats["row_groups_total"]):
        raise AssertionError(
            f"row-group pruning ineffective: {stats}")
    return tbl
ORACLE_SQL["bucket_point_lookup"] = (
    "SELECT o_orderkey, CAST(o_custkey AS BIGINT) AS custkey "
    "FROM orders WHERE o_custkey = 7"
)
QUERIES["bucket_point_lookup"] = q_bucket_point_lookup
def q_scd2_build(sf_dir: str):
    """SCD2 history build (stages/temporal.scd2_intervals): collapse
    each user's consecutive equal event_type runs into validity
    intervals (valid_from = run start, valid_to = next run start,
    NULL = current). ONE user co-shuffle + boundary masks; bit-exact
    vs the DuckDB lag-filter-lead twin."""
    from ..stages.temporal import scd2_intervals

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return scd2_intervals(ds).sort(["user_id", "valid_from"])
ORACLE_SQL["scd2_build"] = (
    "WITH o AS (SELECT user_id, ts, event_id, event_type, "
    "lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
    "AS prev_type FROM events), "
    "s AS (SELECT user_id, event_type, ts AS valid_from, event_id "
    "FROM o WHERE prev_type IS NULL OR prev_type != event_type) "
    "SELECT user_id, event_type, valid_from, "
    "lead(valid_from) OVER (PARTITION BY user_id "
    "ORDER BY valid_from, event_id) AS valid_to "
    "FROM s ORDER BY user_id, valid_from"
)
QUERIES["scd2_build"] = q_scd2_build
def q_zonemap_scan(sf_dir: str):
    """File-level zone-map pruning: documents staged ONCE into 10
    doc_id-range-clustered parquet files; a range scan consults the
    footer-stats manifest and reads only the files whose interval
    intersects — 9 of 10 skipped here (pytest pins the skip count;
    the driver gate pins the surviving rows vs plain SQL)."""
    import pyarrow.parquet as pq_

    from ..stages.bucketed import pruned_read
    from ..state.lineage import publish_table, store_root

    label = os.path.basename(os.path.normpath(sf_dir))
    stage = os.path.join(store_root(),
                         f"ocr_ray_zonemap_{os.getpid()}_{label}")
    paths = [os.path.join(stage, f"part-{i:02d}.parquet")
             for i in range(10)]
    if not all(os.path.exists(p) for p in paths):
        os.makedirs(stage, exist_ok=True)
        tbl = pq_.read_table(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "n_chars"])
        tbl = tbl.sort_by([("doc_id", "ascending")])
        n = tbl.num_rows
        cuts = [n * i // 10 for i in range(11)]
        for i, p in enumerate(paths):
            publish_table(tbl.slice(cuts[i], cuts[i + 1] - cuts[i]), p)
    ds, _n_read, _n_skipped = pruned_read(
        paths, "doc_id", 100, 149, columns=["doc_id", "n_chars"])
    return ds
ORACLE_SQL["zonemap_scan"] = (
    "SELECT doc_id, n_chars FROM documents "
    "WHERE doc_id BETWEEN 100 AND 149"
)
QUERIES["zonemap_scan"] = q_zonemap_scan
def q_range_shards(sf_dir: str):
    """Histogram-sketch range sharding of documents by n_chars into 8
    ~equal contiguous ranges; per-doc shard ids are bit-reproduced by
    the SQL twin (same int64 split rule over the same fixed bins)."""
    from ..stages.stats import range_partition

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    assignments, _splits = range_partition(
        ds, "n_chars", n_shards=8, lo=0, bin_width=100, n_bins=100)
    return assignments
ORACLE_SQL["range_shards"] = """
WITH h AS (
  SELECT LEAST(GREATEST((n_chars - 0) // 100, 0), 99) AS b,
         count(*) AS n
  FROM documents WHERE n_chars IS NOT NULL GROUP BY 1
), c AS (
  SELECT b, CAST(sum(n) OVER (ORDER BY b) AS BIGINT) AS cum FROM h
), tot AS (
  SELECT max(cum) AS n FROM c
), sp AS (
  SELECT ((SELECT min(b) FROM c WHERE cum >=
           GREATEST((i * tot.n + 7) // 8 - 1, 0) + 1) + 1) * 100 - 1
         AS v
  FROM (SELECT unnest(generate_series(1, 7)) AS i), tot
)
SELECT doc_id,
  CAST(CASE WHEN n_chars IS NULL THEN -1
       ELSE (SELECT count(*) FROM sp WHERE n_chars >= v) END
       AS BIGINT) AS shard
FROM documents
"""
QUERIES["range_shards"] = q_range_shards
def q_url_latest_k(sf_dir: str):
    """Crawl-store retention: keep the LATEST 2 snapshots per url
    (descending group_cap) —
    one bucketed exchange, whole-bucket rank mask."""
    import numpy as np

    from ..stages.dedup import group_cap

    def _aug(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().to_numpy()
        url_id = ids % 120
        return pa.table({
            "url": pa.array(
                [f"u{u}" for u in url_id.tolist()], pa.string()),
            "ts": pa.array(1600000000 + ids, pa.int64()),
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
        })

    snaps = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _aug, batch_format="pyarrow")
    return group_cap(snaps, key_col="url", order_col="ts", k=2,
                     descending=True)
ORACLE_SQL["url_latest_k"] = """
WITH s AS (
  SELECT 'u' || CAST(doc_id % 120 AS VARCHAR) AS url,
         1600000000 + doc_id AS ts, doc_id
  FROM documents
)
SELECT url, ts, doc_id FROM (
  SELECT url, ts, doc_id,
         row_number() OVER (PARTITION BY url ORDER BY ts DESC) AS rn
  FROM s
) WHERE rn <= 2
"""
QUERIES["url_latest_k"] = q_url_latest_k
def q_schema_evolution(sf_dir: str):
    """Schema-evolution read: documents staged ONCE as two
    generations — v1 files (doc_id, text) and v2 files (doc_id, text,
    lang, n_chars:int32 — narrower than the live int64) — then read
    through `read_harmonized` against the current schema: v1 rows get
    NULL lang/n_chars, v2's int32 widens. Oracle = UNION ALL with the
    same NULL/CAST rules straight off the live table."""
    import pyarrow.parquet as pq_

    from ..sources.ingest import read_harmonized
    from ..state.lineage import publish_table, store_root

    label = os.path.basename(os.path.normpath(sf_dir))
    stage = os.path.join(store_root(),
                         f"ocr_ray_schemaevo_{os.getpid()}_{label}")
    v1 = os.path.join(stage, "v1.parquet")
    v2 = os.path.join(stage, "v2.parquet")
    if not (os.path.exists(v1) and os.path.exists(v2)):
        os.makedirs(stage, exist_ok=True)
        tbl = pq_.read_table(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "lang", "n_chars"])
        tbl = tbl.sort_by([("doc_id", "ascending")])
        half = tbl.num_rows // 2
        old = tbl.slice(0, half).select(["doc_id", "text"])
        new = tbl.slice(half)
        new = new.set_column(
            new.schema.get_field_index("n_chars"), "n_chars",
            new.column("n_chars").cast(pa.int32()))
        publish_table(old, v1)
        publish_table(new, v2)
    target = pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("lang", pa.string()), ("n_chars", pa.int64()),
    ])
    return read_harmonized([[v1], [v2]], target)
ORACLE_SQL["schema_evolution"] = """
WITH ranked AS (
  SELECT doc_id, text, lang, n_chars,
         row_number() OVER (ORDER BY doc_id) - 1 AS rn,
         count(*) OVER () AS n
  FROM documents
)
SELECT doc_id, text, CAST(NULL AS VARCHAR) AS lang,
       CAST(NULL AS BIGINT) AS n_chars
FROM ranked WHERE rn < n // 2
UNION ALL
SELECT doc_id, text, lang, n_chars FROM ranked WHERE rn >= n // 2
"""
QUERIES["schema_evolution"] = q_schema_evolution
def q_zorder_scan(sf_dir: str):
    """Z-ORDER clustered layout + 2-D zone-map pruning: documents are
    staged ONCE into 16 files clustered by the Morton interleave of
    (doc_id, n_chars) (`stages/bucketed.zorder_key` — the lakehouse
    OPTIMIZE ZORDER BY layout), then a conjunctive 2-D range scan
    (`pruned_read_multi`) consults the footer-stats manifest for BOTH
    columns and reads only files whose (doc_id × n_chars) rectangle
    intersects the predicate box. A 1-D sorted layout can prune only
    its sort column; pytest pins that the Z layout skips strictly
    more files on the same box. The oracle is the plain 2-D BETWEEN —
    pruning must never change results."""
    import numpy as np
    import pyarrow.parquet as pq_

    from ..stages.bucketed import pruned_read_multi, zorder_key
    from ..state.lineage import publish_table, store_root

    label = os.path.basename(os.path.normpath(sf_dir))
    stage = os.path.join(store_root(),
                         f"ocr_ray_zorder_{os.getpid()}_{label}")
    paths = [os.path.join(stage, f"part-{i:02d}.parquet")
             for i in range(16)]
    if not all(os.path.exists(p) for p in paths):
        os.makedirs(stage, exist_ok=True)
        tbl = pq_.read_table(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "n_chars"])
        z = zorder_key(tbl.column("doc_id").to_numpy(),
                       tbl.column("n_chars").to_numpy())
        tbl = tbl.take(pa.array(np.argsort(z, kind="stable")))
        n = tbl.num_rows
        cuts = [n * i // 16 for i in range(17)]
        for i, p in enumerate(paths):
            publish_table(tbl.slice(cuts[i], cuts[i + 1] - cuts[i]), p)
    ds, _n_read, _n_skipped = pruned_read_multi(
        paths, {"doc_id": (100, 249), "n_chars": (150, 400)},
        columns=["doc_id", "n_chars"])
    if ds is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_chars": pa.array([], pa.int64())})
    return ds
ORACLE_SQL["zorder_scan"] = (
    "SELECT doc_id, n_chars FROM documents "
    "WHERE doc_id BETWEEN 100 AND 249 "
    "AND n_chars BETWEEN 150 AND 400"
)
QUERIES["zorder_scan"] = q_zorder_scan
def q_rendezvous_shards(sf_dir: str):
    """Rendezvous (HRW) shard placement
    (functions/hashing.rendezvous_pick): every doc picks
    argmax_node md5(key|node) under a 5-node cluster and again under
    6 nodes — the minimal-movement property is exposed as a ``moved``
    column (pytest pins that every moved doc moved TO the new node;
    the oracle replays both argmaxes). Map-only, row-local: shard
    placement at 100 TB needs no directory and no shuffle."""
    from ..functions.hashing import rendezvous_pick

    nodes5 = [f"node-{c}" for c in "abcde"]
    nodes6 = nodes5 + ["node-f"]

    def _assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        n5 = rendezvous_pick(ids, nodes5)
        n6 = rendezvous_pick(ids, nodes6)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "node5": pa.array(n5, pa.string()),
            "node6": pa.array(n6, pa.string()),
            "moved": pa.array([a != b for a, b in zip(n5, n6)],
                              pa.bool_()),
        })

    return _docs(sf_dir, columns=["doc_id"]).map_batches(
        _assign, batch_format="pyarrow").sort("doc_id")
ORACLE_SQL["rendezvous_shards"] = (
    "WITH n5 AS (SELECT unnest(['node-a','node-b','node-c','node-d',"
    "'node-e']) AS node), "
    "n6 AS (SELECT unnest(['node-a','node-b','node-c','node-d',"
    "'node-e','node-f']) AS node), "
    "a5 AS (SELECT d.doc_id, n.node AS node5 FROM documents d, n5 n "
    f"QUALIFY row_number() OVER (PARTITION BY d.doc_id ORDER BY "
    f"{_RVZ_W} DESC, n.node ASC) = 1), "
    "a6 AS (SELECT d.doc_id, n.node AS node6 FROM documents d, n6 n "
    f"QUALIFY row_number() OVER (PARTITION BY d.doc_id ORDER BY "
    f"{_RVZ_W} DESC, n.node ASC) = 1) "
    "SELECT a5.doc_id, node5, node6, node5 <> node6 AS moved "
    "FROM a5 JOIN a6 USING (doc_id) ORDER BY doc_id"
)
QUERIES["rendezvous_shards"] = q_rendezvous_shards
def q_agg_refresh(sf_dir: str):
    """Incremental aggregate-view maintenance
    (stages/stats.agg_refresh): the per-type (count, sum(value))
    view is STORED once over the history partition (event_id % 10
    < 9, staged to parquet — the materialized view), then refreshed
    with only the new delta partition (event_id % 10 = 9). Work is
    |delta| + |keys|; history is never rescanned. The oracle
    recomputes the same view over ALL events — refresh must equal
    recompute (sums on the 1e-6 grid)."""
    from ..stages.stats import agg_refresh, partial_sum_count
    from ..state.lineage import publish_dataset, store_root

    label = os.path.basename(os.path.normpath(sf_dir))
    stage = os.path.join(store_root(),
                         f"ocr_ray_aggbase_{os.getpid()}_{label}")
    base_path = os.path.join(stage, "base.parquet")
    if not os.path.exists(base_path):
        os.makedirs(stage, exist_ok=True)
        hist = ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "value"]
        ).map_batches(
            lambda b: b.filter(pc.less(
                _int_mod(b.column("event_id"), 10), 9)),
            batch_format="pyarrow",
        ).map_batches(
            lambda b: partial_sum_count(
                b.select(["event_type", "value"]), ["event_type"],
                "value", sum_name="sum_value", count_name="n"),
            batch_format="pyarrow",
        ).groupby("event_type").aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_value", alias_name="sum_value"))
        publish_dataset(hist, base_path)

    delta = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"]
    ).map_batches(
        lambda b: b.filter(pc.equal(
            _int_mod(b.column("event_id"), 10), 9)),
        batch_format="pyarrow",
    ).select_columns(["event_type", "value"])
    refreshed = agg_refresh(
        ray.data.read_parquet(base_path), delta,
        keys=["event_type"], value_col="value",
        count_name="n", sum_name="sum_value")

    def _grid(batch: pa.Table) -> pa.Table:
        s = batch.column("sum_value").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": batch.column("event_type"),
            "n": batch.column("n"),
            "sum_value": pa.array(
                [math.floor(x * 1e6 + 0.5) / 1e6 for x in s],
                pa.float64()),
        })

    return refreshed.map_batches(
        _grid, batch_format="pyarrow").sort("event_type")
ORACLE_SQL["agg_refresh"] = (
    "SELECT event_type, CAST(count(*) AS BIGINT) AS n, "
    "FLOOR(sum(value) * 1e6 + 0.5) / 1e6 AS sum_value "
    "FROM events GROUP BY event_type ORDER BY event_type"
)
QUERIES["agg_refresh"] = q_agg_refresh
def q_compaction_plan(sf_dir: str):
    """Small-file compaction planning
    (stages/bucketed.compaction_plan): documents staged ONCE into 24
    files with quadratically skewed row counts (the real small-file
    pathology: a few big files, a long tiny tail), then planned into
    ~total/6-row merge groups from FOOTER row counts only — no data
    pages read. The oracle reproduces the per-file row counts from
    the quadratic cut rule and replays the same (n_rows DESC,
    file_id) window packing."""
    import pyarrow.parquet as pq_

    from ..stages.bucketed import compaction_plan
    from ..state.lineage import publish_table, store_root

    label = os.path.basename(os.path.normpath(sf_dir))
    stage = os.path.join(store_root(),
                         f"ocr_ray_compact_{os.getpid()}_{label}")
    n_files = 24
    paths = [os.path.join(stage, f"part-{i:02d}.parquet")
             for i in range(n_files)]
    if not all(os.path.exists(p) for p in paths):
        os.makedirs(stage, exist_ok=True)
        tbl = pq_.read_table(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"])
        tbl = tbl.sort_by([("doc_id", "ascending")])
        n = tbl.num_rows
        cuts = [n * i * i // (n_files * n_files)
                for i in range(n_files + 1)]
        for i, p in enumerate(paths):
            publish_table(tbl.slice(cuts[i], cuts[i + 1] - cuts[i]), p)
    total = pq_.read_metadata(
        f"{sf_dir}/documents.parquet").num_rows
    plan, _n_groups = compaction_plan(paths, max(total // 6, 1))
    return plan
ORACLE_SQL["compaction_plan"] = (
    "WITH tot AS (SELECT CAST(count(*) AS BIGINT) AS n "
    "FROM documents), "
    "f AS (SELECT i AS file_id, "
    "(tot.n * (i + 1) * (i + 1)) // 576 - (tot.n * i * i) // 576 "
    "AS n_rows FROM (SELECT unnest(range(0, 24)) AS i), tot), "
    "o AS (SELECT file_id, n_rows, "
    "coalesce(sum(n_rows) OVER (ORDER BY n_rows DESC, file_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum "
    "FROM f) "
    "SELECT CAST(file_id AS BIGINT) AS file_id, "
    "CAST(n_rows AS BIGINT) AS n_rows, "
    "CAST(cum // greatest((SELECT n FROM tot) // 6, 1) AS BIGINT) "
    "AS group_id FROM o ORDER BY file_id"
)
QUERIES["compaction_plan"] = q_compaction_plan
def q_store_repair_plan(sf_dir: str):
    """Anti-entropy repair plan between two replicas of the orders
    table (`stages/stats.bucket_checksums`): the replica drops every
    97th order and corrupts every 89th order's status; per-bucket
    Merkle checksums disagree exactly where damage landed, and the
    plan lists ONLY those buckets — matching data never rescanned."""
    from ..stages.stats import bucket_checksums

    cols = ["o_orderkey", "o_custkey", "o_orderstatus",
            "o_orderpriority"]
    src = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                columns=cols)

    def _replica(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(
            _int_mod(batch.column("o_orderkey"), 97), 13))
        b = batch.filter(keep)
        corrupt = pc.equal(_int_mod(b.column("o_orderkey"), 89), 7)
        status = pc.if_else(corrupt, pa.scalar("X"),
                            b.column("o_orderstatus"))
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_custkey": b.column("o_custkey"),
            "o_orderstatus": status,
            "o_orderpriority": b.column("o_orderpriority"),
        })

    dst = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                columns=cols).map_batches(
        _replica, batch_format="pyarrow")

    a = bucket_checksums(src, "o_orderkey", cols, n_buckets=32
                         ).to_pandas().set_index("bucket")
    b = bucket_checksums(dst, "o_orderkey", cols, n_buckets=32
                         ).to_pandas().set_index("bucket")
    # buckets-scale driver fold: the whole point of the Merkle level
    rows = []
    for bk in sorted(set(a.index) | set(b.index)):
        an = int(a["n_rows"].get(bk, 0))
        bn = int(b["n_rows"].get(bk, 0))
        ac = int(a["checksum"].get(bk, -1))
        bc = int(b["checksum"].get(bk, -1))
        if an != bn or ac != bc:
            rows.append((bk, an, bn, ac, bc))
    return pa.table({
        "bucket": pa.array([r[0] for r in rows], pa.int64()),
        "n_src": pa.array([r[1] for r in rows], pa.int64()),
        "n_dst": pa.array([r[2] for r in rows], pa.int64()),
        "src_checksum": pa.array([r[3] for r in rows], pa.int64()),
        "dst_checksum": pa.array([r[4] for r in rows], pa.int64()),
    })
ORACLE_SQL["store_repair_plan"] = (
    "WITH replica AS (SELECT o_orderkey, o_custkey, "
    "CASE WHEN o_orderkey % 89 = 7 THEN 'X' ELSE o_orderstatus END "
    "AS o_orderstatus, o_orderpriority "
    "FROM orders WHERE o_orderkey % 97 != 13), "
    "a AS (" + _BUCKET_CHECKSUM_SQL.format(src="orders") + "), "
    "b AS (" + _BUCKET_CHECKSUM_SQL.format(src="replica") + ") "
    "SELECT COALESCE(a.bucket, b.bucket) AS bucket, "
    "COALESCE(a.n, 0) AS n_src, COALESCE(b.n, 0) AS n_dst, "
    "COALESCE(a.cs, -1) AS src_checksum, "
    "COALESCE(b.cs, -1) AS dst_checksum "
    "FROM a FULL JOIN b ON a.bucket = b.bucket "
    "WHERE COALESCE(a.n, 0) != COALESCE(b.n, 0) "
    "OR COALESCE(a.cs, -1) != COALESCE(b.cs, -1) "
    "ORDER BY bucket"
)
QUERIES["store_repair_plan"] = q_store_repair_plan
def q_column_diff(sf_dir: str):
    """Column-granular snapshot reconciliation
    (`stages/diff.column_diff`): the replica corrupts status on
    every 89th order and priority on every 83rd (and drops every
    97th — added/removed keys are snapshot_diff's business and stay
    out); the diff names exactly which column changed per key."""
    from ..stages.diff import column_diff

    cols = ["o_custkey", "o_orderstatus", "o_orderpriority"]
    src = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                columns=["o_orderkey"] + cols)

    def _replica(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(
            _int_mod(batch.column("o_orderkey"), 97), 13))
        b = batch.filter(keep)
        k = b.column("o_orderkey")
        status = pc.if_else(pc.equal(_int_mod(k, 89), 7),
                            pa.scalar("X"), b.column("o_orderstatus"))
        prio = pc.if_else(pc.equal(_int_mod(k, 83), 11),
                          pa.scalar("9-NONE"),
                          b.column("o_orderpriority"))
        return pa.table({
            "o_orderkey": k,
            "o_custkey": b.column("o_custkey"),
            "o_orderstatus": status,
            "o_orderpriority": prio,
        })

    dst = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey"] + cols).map_batches(
        _replica, batch_format="pyarrow")
    return column_diff(src, dst, "o_orderkey", cols).sort(
        ["o_orderkey", "col"])
ORACLE_SQL["column_diff"] = """
WITH replica AS (
  SELECT o_orderkey, o_custkey,
    CASE WHEN o_orderkey % 89 = 7 THEN 'X'
         ELSE o_orderstatus END AS o_orderstatus,
    CASE WHEN o_orderkey % 83 = 11 THEN '9-NONE'
         ELSE o_orderpriority END AS o_orderpriority
  FROM orders WHERE o_orderkey % 97 != 13
), j AS (
  SELECT a.o_orderkey,
    a.o_custkey IS DISTINCT FROM b.o_custkey AS c1,
    a.o_orderstatus IS DISTINCT FROM b.o_orderstatus AS c2,
    a.o_orderpriority IS DISTINCT FROM b.o_orderpriority AS c3
  FROM orders a JOIN replica b USING (o_orderkey)
)
SELECT o_orderkey, col FROM (
  SELECT o_orderkey, 'o_custkey' AS col FROM j WHERE c1
  UNION ALL
  SELECT o_orderkey, 'o_orderstatus' FROM j WHERE c2
  UNION ALL
  SELECT o_orderkey, 'o_orderpriority' FROM j WHERE c3
) ORDER BY o_orderkey, col
"""
QUERIES["column_diff"] = q_column_diff
