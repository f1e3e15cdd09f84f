"""The exact first-wins dedup query that pins the ``--training-data``
tail's ``stages.dedup.dedup_first`` (SURVEY D1)."""
from __future__ import annotations

import hashlib
import pyarrow as pa
import pyarrow.compute as pc
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

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
