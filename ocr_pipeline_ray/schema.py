"""Arrow schemas for the engine's tables.

Input shape is authoritative from BASELINE.json ``input_hint``:
``(url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string)``. Output columns mirror FIXTURES.md §2 (the reference's
estimation tuple at ``/root/reference/lib/ocr_step.py:414-424`` becomes
the ``quality`` struct; ``TextLine`` at ``lib/ocr_model.py:32-98``
becomes the ``lines`` list<struct> with span offsets).
"""

from __future__ import annotations

import pyarrow as pa

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

LINE_TYPE = pa.struct(
    [
        pa.field("line_id", pa.string()),
        pa.field("text", pa.string()),
        pa.field("start", pa.int64()),
        pa.field("stop", pa.int64()),
        pa.field("hpos", pa.int32()),
        pa.field("vpos", pa.int32()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
    ]
)

LINES_TYPE = pa.list_(LINE_TYPE)

# per-row replacement statistics: key → lines it changed, summed over
# the chain's replace steps (once-per-line-per-key, lib/ocr_step.py:256-262)
REPL_STATS_TYPE = pa.map_(pa.string(), pa.int64())

# Estimation tuple contract (hit_ratio, n_words, n_errs, n_lines_in,
# n_wraps, n_shorts, n_lines_out); -1.0 hit_ratio = "not scored"
# sentinel (reference: ocr_pipeline.py:35, lib/ocr_step.py:346-352).
QUALITY_TYPE = pa.struct(
    [
        pa.field("hit_ratio", pa.float64()),
        pa.field("n_words", pa.int32()),
        pa.field("n_errs", pa.int32()),
        pa.field("n_lines_in", pa.int32()),
        pa.field("n_wraps", pa.int32()),
        pa.field("n_shorts", pa.int32()),
        pa.field("n_lines_out", pa.int32()),
    ]
)
# the same tuple as the flat columns the chain and the rescore
# pipeline append, in this order
QUALITY_FIELDS = tuple((f.name, f.type) for f in QUALITY_TYPE)
