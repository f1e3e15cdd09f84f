"""Fixture writers: pages tables to the wire formats the source
adapters read, and WET shards back to rows.

The CLI reads JSONL, CSV and WARC (``sources.ingest``,
``sources.warc``) and writes WET (``extracted_to_wet``); it never
writes pages as JSONL or WARC, nor reads WET. The tests need both
directions to round-trip a corpus, so the writers, the WET reader
and the media-table schema live here.
"""

import base64
import gzip
import io
import os
import sys
from typing import List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray.cloudpickle
import ray.data

from ocr_pipeline_ray.sources.warc import (
    _CRLF2,
    _block_tag,
    _clear_shards,
    _iter_records,
    _maybe_gunzip,
    _parse_warc_ts,
    _record_id,
    _warc_date,
    _warcinfo_record,
)

# Ray workers do not have tests/ on their path, so the functions of
# this module that run in Ray tasks travel by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


# the media table the multimodal stages read: one opaque payload per row
MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.string()),
        pa.field("kind", pa.string()),        # image | audio | video
        pa.field("payload", pa.binary()),
        pa.field("mime", pa.string()),
        pa.field("width", pa.int32()),        # -1 when unknown
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
    ]
)


def _encode_wire(batch: pa.Table) -> pa.Table:
    html_b64 = pa.array(
        (None if v is None else base64.b64encode(v).decode("ascii")
         for v in batch.column("html").to_pylist()),
        pa.string(),
    )
    return pa.table({
        "url": batch.column("url"),
        "warc_ts": pc.cast(batch.column("warc_ts"), pa.string()),
        "html_b64": html_b64,
        "text": batch.column("text"),
        "lang": batch.column("lang"),
    })


def pages_to_jsonl(ds, out_dir: str):
    """Export a PAGES_SCHEMA Dataset as sharded newline-JSON (wire
    encoding) — the inverse of ``sources.ingest.pages_from_jsonl``."""
    ds.map_batches(_encode_wire, batch_format="pyarrow").write_json(
        out_dir
    )


def response_record(url: str, ts_us: Optional[int], html: bytes,
                    lang: Optional[str]) -> bytes:
    """One deterministic ``WARC-Type: response`` record.

    Null ``ts_us`` omits the WARC-Date header (reads back as null);
    null ``html`` is coerced to an empty body — empty and absent are
    indistinguishable on the HTTP wire (documented lossy edge, like
    ``text``)."""
    body = html or b""
    http = [b"HTTP/1.1 200 OK",
            b"Content-Type: text/html; charset=UTF-8"]
    if lang is not None:
        http.append(b"Content-Language: " + lang.encode("utf-8"))
    http.append(b"Content-Length: " + str(len(body)).encode("ascii"))
    payload = b"\r\n".join(http) + _CRLF2 + body
    head = [
        b"WARC/1.0",
        b"WARC-Type: response",
        b"WARC-Record-ID: " + _record_id(url, ts_us).encode("ascii"),
    ]
    if ts_us is not None:
        head.append(b"WARC-Date: " + _warc_date(ts_us).encode("ascii"))
    head.extend([
        b"WARC-Target-URI: " + url.encode("utf-8"),
        b"Content-Type: application/http; msgtype=response",
        b"Content-Length: " + str(len(payload)).encode("ascii"),
    ])
    return b"\r\n".join(head) + _CRLF2 + payload + _CRLF2


def write_warc_file(tbl: pa.Table, path: str,
                    compress: bool = True) -> None:
    """Pages-table block → one ``.warc``/``.warc.gz`` file
    (warcinfo record + one response record per row, input order)."""
    urls = tbl.column("url").to_pylist()
    tss = tbl.column("warc_ts").cast(pa.int64()).to_pylist() \
        if "warc_ts" in tbl.column_names else [None] * len(urls)
    htmls = tbl.column("html").to_pylist()
    langs = tbl.column("lang").to_pylist() \
        if "lang" in tbl.column_names else [None] * len(urls)
    buf = io.BytesIO()
    buf.write(_warcinfo_record())
    for u, t, h, lg in zip(urls, tss, htmls, langs):
        buf.write(response_record(u, t, h, lg))
    data = buf.getvalue()
    if compress:
        # mtime=0: deterministic bytes for identical input blocks
        data = gzip.compress(data, mtime=0)
    with open(path + ".tmp", "wb") as fh:
        fh.write(data)
    os.replace(path + ".tmp", path)


def pages_to_warc(ds, out_dir: str, compress: bool = True) -> None:
    """Export a pages Dataset as WARC shards (one file per block,
    written task-side — blocks never visit the driver; file names
    digest each block's url sequence, so identical re-runs overwrite
    idempotently and prior shards are cleared first)."""
    os.makedirs(out_dir, exist_ok=True)
    _clear_shards(out_dir, "pages-")
    ext = ".warc.gz" if compress else ".warc"

    def _write(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            tag = _block_tag(batch.column("url").to_pylist())
            write_warc_file(
                batch, os.path.join(out_dir, f"pages-{tag}{ext}"),
                compress=compress)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    ds.map_batches(
        _write, batch_format="pyarrow", batch_size=None
    ).materialize()


def text_from_wet(paths, columns: Optional[List[str]] = None,
                  **read_kwargs):
    """WET shards → Dataset of (url, warc_ts, text) — reads the
    conversion records back (round-trip twin of
    ``sources.warc.extracted_to_wet``)."""

    def _parse(batch: pa.Table) -> pa.Table:
        urls, tss, texts = [], [], []
        for data in batch.column("bytes").to_pylist():
            for headers, payload in _iter_records(_maybe_gunzip(data)):
                if headers.get(b"warc-type") != b"conversion":
                    continue
                urls.append(headers.get(b"warc-target-uri", b"")
                            .decode("utf-8", "replace"))
                tss.append(_parse_warc_ts(
                    headers.get(b"warc-date", b"")
                    .decode("ascii", "replace")))
                texts.append(payload.decode("utf-8", "replace"))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "text": pa.array(texts, pa.string()),
        })

    ds = ray.data.read_binary_files(paths, **read_kwargs)
    out = ds.map_batches(_parse, batch_format="pyarrow")
    return out.select_columns(columns) if columns else out
