"""WARC source adapter — the native Common-Crawl wire format.

A WARC file (ISO 28500) is a sequence of records, each a CRLF-headed
block (``WARC/1.0`` version line + named headers + ``Content-Length``
octet count) followed by that many payload bytes and a blank-line
separator; crawl captures are ``WARC-Type: response`` records whose
payload is the raw HTTP response (status line + headers + body).
``.warc.gz`` files are per-record (or whole-file) gzip members
concatenated — stdlib ``gzip`` reads multi-member streams natively,
so both layouts decode with one call.

Mapping to ``schema.PAGES_SCHEMA``:

* ``url``      ← ``WARC-Target-URI``
* ``warc_ts``  ← ``WARC-Date`` (ISO-8601; microseconds round-trip via
  the WARC 1.1 fractional-seconds form)
* ``html``     ← the HTTP response body, verbatim bytes
* ``lang``     ← the HTTP ``Content-Language`` header (crawler lang
  hint); absent header → null
* ``text``     — null: raw WARC carries no pre-extracted text (that
  lives in Common Crawl's derived WET files). Pipelines consume
  (url, warc_ts, html, lang), so results are byte-identical to the
  Parquet path (pinned by tests/test_sources.py).

Ray shape: one task per WARC file (``read_binary_files`` — the
Common-Crawl operational unit is the ~1 GB warc.gz shard, sized to a
worker heap by the format's own convention; 100k-file crawls give
100k-way parallelism). Parsing is a single linear scan per file;
non-response records (warcinfo, request, metadata) are skipped. Like
the JSONL/CSV adapters this is a one-time boundary pass — convert to
Parquet once (CLI ``--format warc``) for repeated column-pruned runs.
"""

from __future__ import annotations

import gzip
import hashlib
import io
from datetime import datetime, timezone
from typing import List, Optional

import pyarrow as pa

from ..schema import PAGES_SCHEMA

_CRLF2 = b"\r\n\r\n"


# --- record writing (the WET export) ------------------------------------

def _warc_date(ts_us: int) -> str:
    # integer µs split (float division would corrupt ~1.6% of values)
    dt = datetime.fromtimestamp(ts_us // 10 ** 6, tz=timezone.utc)
    micro = ts_us % 1_000_000
    if micro:
        return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{micro:06d}Z"
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _record_id(url: str, ts_us: Optional[int]) -> str:
    h = hashlib.md5(f"{url}\x1f{ts_us}".encode("utf-8")).hexdigest()
    return (f"<urn:uuid:{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-"
            f"{h[20:32]}>")


def _warcinfo_record() -> bytes:
    payload = b"software: ocr_pipeline_ray\r\nformat: WARC File Format 1.0\r\n"
    head = [
        b"WARC/1.0",
        b"WARC-Type: warcinfo",
        b"WARC-Date: 1970-01-01T00:00:00Z",
        b"Content-Type: application/warc-fields",
        b"Content-Length: " + str(len(payload)).encode("ascii"),
    ]
    return b"\r\n".join(head) + _CRLF2 + payload + _CRLF2


def _block_tag(urls: List[Optional[str]]) -> str:
    """Collision-proof deterministic shard tag: digest of the FULL
    url sequence (first-url + count collides on real crawls, which
    repeat urls)."""
    h = hashlib.md5()
    for u in urls:
        h.update((u or "").encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()[:16]


def _clear_shards(out_dir: str, prefix: str) -> None:
    """Remove this exporter's previous shards so a rerun replaces
    the export instead of mixing stale files into it."""
    import os

    for f in os.listdir(out_dir):
        if f.startswith(prefix) and (".warc" in f) and \
                not f.endswith(".tmp"):
            os.remove(os.path.join(out_dir, f))


# --- reading ------------------------------------------------------------

def _parse_warc_ts(value: str) -> Optional[int]:
    value = value.strip()
    if not value:
        return None
    try:
        if "." in value:
            dt = datetime.strptime(value, "%Y-%m-%dT%H:%M:%S.%fZ")
        else:
            dt = datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return None
    # integer µs arithmetic: float timestamp()*1e6 truncates ~1.6%
    # of microsecond values one low (float64 has 52 mantissa bits)
    import calendar

    return (calendar.timegm(dt.timetuple()) * 10 ** 6
            + dt.microsecond)


def _iter_records(data: bytes):
    """The WARC record scan: yields ``(headers, payload)`` per record
    (headers lower-cased bytes→bytes; payload = Content-Length
    octets). Tolerates a missing trailing separator on the last
    record. Shared by the response (pages) and conversion (WET)
    readers."""
    n = len(data)
    pos = 0
    while pos < n:
        while pos < n and data[pos:pos + 2] == b"\r\n":
            pos += 2
        if pos >= n:
            break
        hdr_end = data.find(_CRLF2, pos)
        if hdr_end < 0:
            break
        headers = {}
        for line in data[pos:hdr_end].split(b"\r\n")[1:]:
            sep = line.find(b":")
            if sep > 0:
                headers[line[:sep].strip().lower()] = (
                    line[sep + 1:].strip())
        try:
            clen = int(headers.get(b"content-length", b"0"))
        except ValueError:
            clen = 0
        payload = data[hdr_end + 4:hdr_end + 4 + clen]
        pos = hdr_end + 4 + clen
        yield headers, payload


def parse_warc_bytes(data: bytes):
    """Linear scan of one (decompressed) WARC file → pages rows.

    Yields ``(url, ts_us, html, lang)`` for each response record;
    skips warcinfo/request/metadata records by ``WARC-Type``.
    """
    for headers, payload in _iter_records(data):
        if headers.get(b"warc-type") != b"response":
            continue
        url = headers.get(b"warc-target-uri", b"").decode(
            "utf-8", "replace")
        ts_us = _parse_warc_ts(
            headers.get(b"warc-date", b"").decode("ascii", "replace"))
        http_end = payload.find(_CRLF2)
        if http_end < 0:
            body, lang = b"", None
        else:
            lang = None
            for line in payload[:http_end].split(b"\r\n")[1:]:
                sep = line.find(b":")
                if sep > 0 and line[:sep].strip().lower() == \
                        b"content-language":
                    lang = line[sep + 1:].strip().decode(
                        "utf-8", "replace")
            body = payload[http_end + 4:]
        yield url, ts_us, body, lang


def _maybe_gunzip(data: bytes) -> bytes:
    if data[:2] == b"\x1f\x8b":
        # GzipFile reads ALL concatenated members (per-record gz ok)
        return gzip.GzipFile(fileobj=io.BytesIO(data)).read()
    return data


def _parse_batch(batch: pa.Table) -> pa.Table:
    urls: List[Optional[str]] = []
    tss: List[Optional[int]] = []
    htmls: List[Optional[bytes]] = []
    langs: List[Optional[str]] = []
    for data in batch.column("bytes").to_pylist():
        for url, ts_us, body, lang in parse_warc_bytes(
                _maybe_gunzip(data)):
            urls.append(url)
            tss.append(ts_us)
            htmls.append(body)
            langs.append(lang)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.nulls(len(urls), pa.string()),
        "lang": pa.array(langs, pa.string()),
    }, schema=PAGES_SCHEMA)


def pages_from_warc(paths, columns: Optional[List[str]] = None,
                    **read_kwargs):
    """WARC/WARC.GZ crawl shards → PAGES_SCHEMA Dataset
    (one parse task per file; ``text`` is null — see module doc)."""
    import ray.data

    ds = ray.data.read_binary_files(paths, **read_kwargs)
    out = ds.map_batches(_parse_batch, batch_format="pyarrow")
    return out.select_columns(columns) if columns else out


# --- WET (extracted-text conversion records) ----------------------------

def conversion_record(url: str, ts_us: Optional[int],
                      text: str) -> bytes:
    """One ``WARC-Type: conversion`` record (the WET shape: the
    extraction derivative Common Crawl ships next to each crawl)."""
    body = (text or "").encode("utf-8")
    head = [
        b"WARC/1.0",
        b"WARC-Type: conversion",
        b"WARC-Record-ID: " + _record_id(url, ts_us).encode("ascii"),
    ]
    if ts_us is not None:
        head.append(b"WARC-Date: " + _warc_date(ts_us).encode("ascii"))
    head.extend([
        b"WARC-Target-URI: " + url.encode("utf-8"),
        b"Content-Type: text/plain",
        b"Content-Length: " + str(len(body)).encode("ascii"),
    ])
    return b"\r\n".join(head) + _CRLF2 + body + _CRLF2


def extracted_to_wet(ds, out_dir: str, compress: bool = True,
                     text_col: str = "extracted_text") -> None:
    """Extraction-pipeline output → WET shards (one conversion
    record per doc, one ``.warc.wet[.gz]`` file per block, written
    task-side). Rows with null OR empty ``text_col`` are skipped —
    error rows surface as null (in-memory path) or empty (published
    parquet path) extracted text, and WET carries successful
    non-empty conversions only."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    _clear_shards(out_dir, "wet-")
    ext = ".warc.wet.gz" if compress else ".warc.wet"

    def _write(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        tss = (batch.column("warc_ts").cast(pa.int64()).to_pylist()
               if "warc_ts" in batch.column_names
               else [None] * len(urls))
        texts = batch.column(text_col).to_pylist()
        buf = io.BytesIO()
        buf.write(_warcinfo_record())
        n = 0
        for u, t, x in zip(urls, tss, texts):
            if not x:  # null or empty: no successful conversion
                continue
            buf.write(conversion_record(u, t, x))
            n += 1
        if n:
            tag = _block_tag(urls)
            data = buf.getvalue()
            if compress:
                data = gzip.compress(data, mtime=0)
            path = os.path.join(out_dir, f"wet-{tag}{ext}")
            with open(path + ".tmp", "wb") as fh:
                fh.write(data)
            os.replace(path + ".tmp", path)
        return pa.table({"n": pa.array([n], pa.int64())})

    ds.map_batches(
        _write, batch_format="pyarrow", batch_size=None
    ).materialize()
