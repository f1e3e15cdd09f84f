"""Queries not covered by the other family modules (split from queries.py; keys unchanged)."""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_corpus_p10_cut(sf_dir: str):
    """Percentile-cut quality gate: drop the shortest decile.

    Composition shape for a 100-TB filter: ONE streaming pass
    computes the exact p10 (histogram combine, stages/stats.py), the
    threshold is a scalar closure, and the corpus filters at scan
    speed on a second pruned pass — no shuffle anywhere.
    """
    from ..stages.stats import exact_quantiles

    p10 = exact_quantiles(
        _docs(sf_dir, columns=["n_chars"]), "n_chars", [0.1]
    ).column("value")[0].as_py()
    docs = _docs(sf_dir, columns=["doc_id", "n_chars"])
    return docs.filter(expr=f"n_chars > {p10}").map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "n_chars": pc.cast(b.column("n_chars"), pa.int64()),
        }),
        batch_format="pyarrow",
    ).sort("doc_id")
ORACLE_SQL["corpus_p10_cut"] = (
"SELECT doc_id, n_chars FROM documents "
        "WHERE n_chars > (SELECT quantile_disc(n_chars, 0.1) "
        "FROM documents) ORDER BY doc_id"
)
QUERIES["corpus_p10_cut"] = q_corpus_p10_cut
def q_distinct_users_by_type(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type
    (stages/stats.py ``grouped_distinct_count``): map-side pair
    dedup, ONE key-hash co-shuffle, whole-bucket sentinel-encoded
    dedup + per-key valid count — the two-phase distinct shape that
    never shuffles raw rows."""
    from ..stages.stats import grouped_distinct_count

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id"],
    )
    return grouped_distinct_count(
        events, "event_type", "user_id", out_col="n_users",
        n_buckets=32,
    )
ORACLE_SQL["distinct_users_by_type"] = (
    "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) "
    "AS n_users FROM events GROUP BY event_type"
)
QUERIES["distinct_users_by_type"] = q_distinct_users_by_type
