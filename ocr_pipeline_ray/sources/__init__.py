"""Source-format adapters for the pages table.

Parquet is the native format (`pipelines.extraction.read_pages` —
column-pruned scans). This package adds JSONL, CSV and WARC
ingestion of the SAME logical table so corpora delivered as
newline-JSON, CSV exports or raw Common-Crawl-style crawl shards run
through every pipeline unchanged: each adapter returns a Dataset
with exactly ``schema.PAGES_SCHEMA``. The one writer is the WET
export of the extraction output (``extracted_to_wet``, CLI
``--emit-wet``).
"""

from .ingest import pages_from_csv, pages_from_jsonl  # noqa: F401
from .warc import extracted_to_wet, pages_from_warc  # noqa: F401
