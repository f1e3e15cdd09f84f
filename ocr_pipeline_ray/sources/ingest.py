"""JSONL / CSV ingestion of the pages table.

Text formats cannot carry raw binary or typed timestamps, so the
wire encoding is: ``html`` → base64 string (``html_b64``),
``warc_ts`` → ISO-8601 string. The adapters coerce to
``schema.PAGES_SCHEMA`` with Arrow casts (vectorized) — only the
base64 step is a per-row stdlib call (pyarrow ships no base64
kernel); ingestion is a one-time boundary pass, not a pipeline hot
path. Scale notes: JSON/CSV scans cannot prune columns at the read
the way Parquet does (each file is parsed whole) — convert to
Parquet once for repeated processing; these adapters are for the
first hop.
"""

from __future__ import annotations

import base64
from typing import List, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import PAGES_SCHEMA

_WIRE_COLUMNS = ["url", "warc_ts", "html_b64", "text", "lang"]


def _decode_wire(batch: pa.Table) -> pa.Table:
    """Wire (string-typed) pages batch → PAGES_SCHEMA batch."""
    html = pa.array(
        (None if v is None else base64.b64decode(v)
         for v in batch.column("html_b64").to_pylist()),
        pa.binary(),
    )
    return pa.table({
        "url": pc.cast(batch.column("url"), pa.string()),
        "warc_ts": pc.cast(batch.column("warc_ts"), pa.timestamp("us")),
        "html": html,
        "text": pc.cast(batch.column("text"), pa.string()),
        "lang": pc.cast(batch.column("lang"), pa.string()),
    }, schema=PAGES_SCHEMA)


def _project(ds, columns: Optional[List[str]]):
    return ds.select_columns(columns) if columns else ds


def pages_from_jsonl(paths, columns: Optional[List[str]] = None,
                     **read_kwargs):
    """Newline-JSON pages (wire encoding) → PAGES_SCHEMA Dataset."""
    import ray.data

    ds = ray.data.read_json(paths, **read_kwargs)
    return _project(
        ds.map_batches(_decode_wire, batch_format="pyarrow"), columns
    )


def pages_from_csv(paths, columns: Optional[List[str]] = None,
                   **read_kwargs):
    """CSV pages (wire encoding) → PAGES_SCHEMA Dataset.

    The wire columns are read as strings explicitly — CSV inference
    must not turn an all-digits url or lang column into numbers.
    """
    from pyarrow import csv as pa_csv

    import ray.data

    convert = pa_csv.ConvertOptions(
        column_types={c: pa.string() for c in _WIRE_COLUMNS}
    )
    # extracted text legitimately contains newlines inside quoted
    # fields; the pyarrow default would reject such rows
    parse = pa_csv.ParseOptions(newlines_in_values=True)
    ds = ray.data.read_csv(paths, convert_options=convert,
                           parse_options=parse, **read_kwargs)
    return _project(
        ds.map_batches(_decode_wire, batch_format="pyarrow"), columns
    )


def harmonize_fn(batch: "pa.Table", target: "pa.Schema") -> "pa.Table":
    """Conform one batch to ``target``: missing columns materialize
    as typed nulls, compatible types cast (widening int/float,
    string↔large_string), extra columns drop, order normalized.
    Pure per-batch Arrow — the map side of schema-evolution reads."""
    import pyarrow as pa

    n = batch.num_rows
    cols = []
    for field in target:
        if field.name in batch.column_names:
            col = batch.column(field.name)
            if col.type != field.type:
                col = col.cast(field.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, field.type))
    return pa.table(dict(zip(target.names, cols)))


def read_harmonized(path_groups, target: "pa.Schema", columns=None):
    """Schema-EVOLUTION read: each group of parquet paths may carry a
    different historical schema (columns added/widened over time —
    the data-lake reality for a years-long crawl store). Every group
    is read separately (Ray requires a uniform schema per read), each
    batch conforms to ``target`` via :func:`harmonize_fn` (map-only,
    no exchange), and the groups UNION into one logically-uniform
    dataset — old files never rewritten.

    ``columns`` prunes the read per group to the intersection with
    that group's actual schema (missing ones appear as nulls after
    harmonization anyway).
    """
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    if columns is not None:
        target = pa.schema([f for f in target if f.name in columns])
    parts = []
    for group in path_groups:
        have = set(pq.read_schema(group[0]).names)
        want = [c for c in target.names if c in have]
        ds = ray.data.read_parquet(list(group), columns=want or None)
        parts.append(ds.map_batches(
            lambda b, _t=target: harmonize_fn(b, _t),
            batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out
