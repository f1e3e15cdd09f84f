"""Per-host web-corpus operators: host extraction, skew-safe host
aggregates, robots rules, sitemaps, URL features and page metadata.

The north-star workload partitions a Common-Crawl-style corpus by
url and mitigates per-host skew explicitly (a handful of giant hosts
dominate any real crawl). These operators make that first-class:

* :func:`url_host_fn` — vectorized RE2 host extraction (one
  ``pc.extract_regex`` kernel per batch, DuckDB-parity pattern).
* :func:`host_stats` — per-host rollup with a MAP-SIDE PARTIAL
  COMBINE: each block first reduces to one row per host seen in the
  block (Arrow ``Table.group_by``), so the global shuffle carries
  (hosts × blocks) partial rows instead of every document — the hot
  host's traffic into the shuffle collapses from its document count
  to its block count.
"""

from __future__ import annotations

import re
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

# scheme://host[:port]/... (named group for Arrow's extract_regex)
HOST_PATTERN = r"^[a-z][a-z0-9+.-]*://(?P<host>[^/:?#]+)"


def url_host_fn(batch: pa.Table, url_col: str = "url",
                out_col: str = "host") -> pa.Table:
    """Append ``out_col`` = lowercased registrable host of ``url_col``.

    Non-matching / null urls yield ''. One vectorized kernel chain,
    no per-row Python.
    """
    urls = pc.fill_null(batch.column(url_col), "")
    extracted = pc.extract_regex(urls, HOST_PATTERN)
    host = pc.utf8_lower(
        pc.fill_null(pc.struct_field(extracted, "host"), "")
    )
    return batch.append_column(out_col, host)


def host_stats(ds, url_col: str = "url", size_col: Optional[str] = None):
    """Per-host rollup: ``host, n_docs[, total_<size_col>]``.

    Map-side partial combine (one partial row per host per block)
    before the ONE small groupby shuffle — the skew-mitigation shape
    for hot hosts.
    """
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        b = url_host_fn(batch, url_col)
        aggs = [([], "count_all")]
        if size_col is not None:
            aggs.insert(0, (size_col, "sum"))
        g = b.select(
            ["host"] + ([size_col] if size_col else [])
        ).group_by("host").aggregate(aggs)
        cols = {"host": g.column("host"),
                "n_docs": pc.cast(g.column("count_all"), pa.int64())}
        if size_col is not None:
            cols[f"total_{size_col}"] = pc.cast(
                g.column(f"{size_col}_sum"), pa.int64())
        return pa.table(cols)

    partial = ds.map_batches(_partial, batch_format="pyarrow")
    aggs = [Sum("n_docs")]
    if size_col is not None:
        aggs.append(Sum(f"total_{size_col}"))
    out = partial.groupby("host").aggregate(*aggs)

    def _rename(batch: pa.Table) -> pa.Table:
        names = [
            c[len("sum("):-1] if c.startswith("sum(") else c
            for c in batch.column_names
        ]
        return batch.rename_columns(names)

    return out.map_batches(_rename, batch_format="pyarrow")


# scheme://host then the path (everything from the first '/';
# missing path → null → treated as '/')
_PATH_PATTERN = r"^[a-z][a-z0-9+.-]*://[^/]*(?P<path>/.*)?$"


def robots_filter(ds, rules: pa.Table, url_col: str = "url",
                  how: str = "keep"):
    """Robots-style URL filtering: drop rows whose url's path starts
    with any disallow ``prefix`` registered for its ``host`` —
    the crawl-politeness / takedown-list gate every web corpus runs.

    ``rules`` is a small ``(host, prefix)`` table (the parsed
    Disallow lines). It broadcasts ONCE via the object store; probing
    is fully vectorized with NO per-rule kernel: rules are grouped by
    PREFIX LENGTH (a handful of distinct lengths in practice), and
    for each length L one ``is_in`` probes the composite key
    ``host + '\\x00' + path[:L]`` against that length's rule set —
    O(distinct_lengths) kernels per batch regardless of rule count.
    For rule sets beyond worker heap, swap the is_in value sets for
    a Bloom pre-prune; the probe shape is unchanged.

    ``how``: ``"keep"`` returns allowed rows, ``"drop"`` returns
    blocked rows (audit mode).
    """
    import numpy as np
    import ray

    if how not in ("keep", "drop"):
        raise ValueError(f"how must be keep|drop, got {how!r}")
    hosts = rules.column("host").to_pylist()
    prefixes = rules.column("prefix").to_pylist()
    by_len: dict = {}
    for h, p in zip(hosts, prefixes):
        by_len.setdefault(len(p), []).append(f"{h}\x00{p}")
    # deterministic value sets, broadcast once
    sets_ref = ray.put({
        n: pa.array(sorted(keys), pa.string())
        for n, keys in by_len.items()
    })

    def _probe(batch: pa.Table) -> pa.Table:
        rule_sets = ray.get(sets_ref)
        b = url_host_fn(batch, url_col)
        host = b.column("host")
        path = pc.fill_null(pc.struct_field(
            pc.extract_regex(pc.fill_null(batch.column(url_col), ""),
                             _PATH_PATTERN), "path"), "/")
        blocked = np.zeros(batch.num_rows, dtype=bool)
        for n, keys in rule_sets.items():
            composite = pc.binary_join_element_wise(
                host, "\x00", pc.utf8_slice_codeunits(path, 0, n), "")
            blocked |= pc.is_in(composite, value_set=keys).to_numpy(
                zero_copy_only=False)
        mask = ~blocked if how == "keep" else blocked
        return batch.filter(pa.array(mask))

    return ds.map_batches(_probe, batch_format="pyarrow")


def host_gini(ds, url_col: str = "url"):
    """Corpus CONCENTRATION index: the Gini coefficient of documents
    over hosts — the one-number answer to "is this crawl dominated by
    a few giant hosts?" (0 = uniform, →1 = one host owns the corpus).

    Shape: the :func:`host_stats` map-side-combined per-host counts
    (hosts-scale, one small groupby), folded on the driver in sorted
    order with the exact integer formula
    ``gini = Σ (2i − n − 1)·x_i / (n · Σx)`` over counts sorted
    ascending — all-int numerator/denominator, ONE terminal division
    on the 1e-6 grid, so the SQL window twin is bit-exact.
    """
    import math

    counts = []
    for b in host_stats(ds, url_col=url_col).iter_batches(
            batch_format="pyarrow", batch_size=None):
        counts.extend(zip(b.column("n_docs").to_pylist(),
                          b.column("host").to_pylist()))
    counts.sort()  # (n asc, host asc) — ties don't affect the sum
    n = len(counts)
    tot = sum(c for c, _ in counts)
    num = sum((2 * (i + 1) - n - 1) * c
              for i, (c, _) in enumerate(counts))
    gini = math.floor(num / (n * tot) * 1e6 + 0.5) / 1e6 if tot else None
    return pa.table({
        "n_hosts": pa.array([n], pa.int64()),
        "gini": pa.array([gini], pa.float64()),
    })


def robots_rep_filter(ds, rules: pa.Table, url_col: str = "url",
                      how: str = "keep"):
    """Full REP evaluation (Robots Exclusion Protocol, RFC 9309):
    ``rules`` is a small ``(host, directive, prefix)`` table with
    ``directive`` in {'allow','disallow'}; for each url the MOST
    SPECIFIC (longest-prefix) matching rule of its host decides,
    ``allow`` wins length ties, and no match means allowed — the
    semantics real robots.txt files rely on (``Disallow: /p/`` +
    ``Allow: /p/public/``), which the plain Disallow-prefix gate
    (:func:`robots_filter`) cannot express.

    Same scale shape as robots_filter: the rule table broadcasts
    ONCE; per batch the probe walks the handful of DISTINCT PREFIX
    LENGTHS in DESCENDING order with one composite-key ``is_in`` per
    (length, directive), maintaining an undecided mask — each row
    takes the verdict of the first (longest) length at which any of
    its host's rules match, so per-batch cost is
    O(distinct_lengths × 2) vectorized kernels regardless of rule
    count.
    """
    import numpy as np
    import ray

    if how not in ("keep", "drop"):
        raise ValueError(f"how must be keep|drop, got {how!r}")
    by_len: dict = {}
    for h, d, p in zip(rules.column("host").to_pylist(),
                       rules.column("directive").to_pylist(),
                       rules.column("prefix").to_pylist()):
        if d not in ("allow", "disallow"):
            raise ValueError(f"directive must be allow|disallow: {d!r}")
        by_len.setdefault(len(p), {}).setdefault(d, []).append(
            f"{h}\x00{p}")
    sets_ref = ray.put({
        n: {d: pa.array(sorted(keys), pa.string())
            for d, keys in dirs.items()}
        for n, dirs in by_len.items()
    })

    def _probe(batch: pa.Table) -> pa.Table:
        rule_sets = ray.get(sets_ref)
        b = url_host_fn(batch, url_col)
        host = b.column("host")
        path = pc.fill_null(pc.struct_field(
            pc.extract_regex(pc.fill_null(batch.column(url_col), ""),
                             _PATH_PATTERN), "path"), "/")
        n_rows = batch.num_rows
        allowed = np.ones(n_rows, dtype=bool)  # default: allowed
        undecided = np.ones(n_rows, dtype=bool)
        for n in sorted(rule_sets, reverse=True):  # longest first
            if not undecided.any():
                break
            dirs = rule_sets[n]
            composite = pc.binary_join_element_wise(
                host, "\x00", pc.utf8_slice_codeunits(path, 0, n), "")
            m_allow = (pc.is_in(composite, value_set=dirs["allow"])
                       .to_numpy(zero_copy_only=False)
                       if "allow" in dirs
                       else np.zeros(n_rows, dtype=bool))
            m_dis = (pc.is_in(composite, value_set=dirs["disallow"])
                     .to_numpy(zero_copy_only=False)
                     if "disallow" in dirs
                     else np.zeros(n_rows, dtype=bool))
            decide = undecided & (m_allow | m_dis)
            # allow wins a same-length tie (RFC 9309 §2.2.2)
            allowed[decide & m_dis & ~m_allow] = False
            undecided &= ~decide
        mask = allowed if how == "keep" else ~allowed
        return batch.filter(pa.array(mask))

    return ds.map_batches(_probe, batch_format="pyarrow")


_TITLE_RE = re.compile(rb"<title[^>]*>(.*?)</title>", re.I | re.S)
_META_TAG_RE = re.compile(rb"<meta\b[^>]*>", re.I)
_LINK_TAG_RE = re.compile(rb"<link\b[^>]*>", re.I)
_ATTR_RE = re.compile(
    rb"""([a-zA-Z:_-]+)\s*=\s*(?:"([^"]*)"|'([^']*)')""")


def _tag_attrs(tag: bytes) -> dict:
    out = {}
    for m in _ATTR_RE.finditer(tag):
        val = m.group(2) if m.group(2) is not None else m.group(3)
        out[m.group(1).lower()] = val
    return out


def extract_meta(html_bytes: bytes) -> dict:
    """Page metadata from raw HTML: first ``<title>`` (entities
    decoded, whitespace collapsed), first ``<meta name="description">``
    / ``<meta property="og:title">`` (either attribute order), first
    ``<link rel="canonical">`` href. Missing fields are None.
    Compiled-regex scans — no DOM build; tolerant of malformed tails
    like the extractor itself."""
    import html as html_mod

    def _clean(raw: bytes):
        s = html_mod.unescape(
            raw.decode("utf-8", "replace"))
        return " ".join(s.split()) or None

    title = description = canonical = og_title = None
    m = _TITLE_RE.search(html_bytes)
    if m:
        title = _clean(m.group(1))
    for tag in _META_TAG_RE.finditer(html_bytes):
        attrs = _tag_attrs(tag.group(0))
        name = (attrs.get(b"name") or b"").lower()
        prop = (attrs.get(b"property") or b"").lower()
        content = attrs.get(b"content")
        if content is None:
            continue
        if description is None and name == b"description":
            description = _clean(content)
        elif og_title is None and prop == b"og:title":
            og_title = _clean(content)
    for tag in _LINK_TAG_RE.finditer(html_bytes):
        attrs = _tag_attrs(tag.group(0))
        if (attrs.get(b"rel") or b"").lower() == b"canonical":
            canonical = _clean(attrs.get(b"href") or b"")
            break
    return {"title": title, "description": description,
            "canonical": canonical, "og_title": og_title}


def meta_extract_fn(batch: pa.Table, html_col: str = "html",
                    id_col: str = "doc_id") -> pa.Table:
    """Batch metadata extraction (stateless map; module-compiled
    regexes — no per-batch setup)."""
    metas = [extract_meta(h or b"")
             for h in batch.column(html_col).to_pylist()]
    return pa.table({
        id_col: batch.column(id_col),
        "title": pa.array([m["title"] for m in metas], pa.string()),
        "description": pa.array(
            [m["description"] for m in metas], pa.string()),
        "canonical": pa.array(
            [m["canonical"] for m in metas], pa.string()),
        "og_title": pa.array(
            [m["og_title"] for m in metas], pa.string()),
    })


class _TableParser:
    """Minimal stdlib-HTMLParser table extractor: text content of
    every th/td cell (nested inline tags stripped, whitespace
    collapsed), grouped into rows and tables in document order.
    Nested <table> elements are flattened into separate tables in
    CLOSE order — inner tables surface before the outer one (the
    curation-relevant shape; layout fidelity is not the goal)."""

    def __init__(self):
        from html.parser import HTMLParser

        outer = self

        class _P(HTMLParser):
            def __init__(self):
                super().__init__(convert_charrefs=True)
                self.stack = []       # open tables: list of rows
                self.row = None
                self.cell = None

            def handle_starttag(self, tag, attrs):
                if tag == "table":
                    self.stack.append([])
                elif tag == "tr" and self.stack:
                    self.row = []
                elif tag in ("td", "th") and self.row is not None:
                    self.cell = []

            def handle_endtag(self, tag):
                if tag in ("td", "th") and self.cell is not None:
                    self.row.append(" ".join(
                        "".join(self.cell).split()))
                    self.cell = None
                elif tag == "tr" and self.row is not None:
                    if self.stack:
                        self.stack[-1].append(self.row)
                    self.row = None
                elif tag == "table" and self.stack:
                    outer.tables.append(self.stack.pop())

            def handle_data(self, data):
                if self.cell is not None:
                    self.cell.append(data)

        self.tables = []
        self._p = _P()

    def feed(self, html_bytes: bytes):
        self._p.feed(html_bytes.decode("utf-8", "replace"))
        self._p.close()
        # unclosed tables at EOF still surface
        while self._p.stack:
            self.tables.append(self._p.stack.pop())
        return self.tables


def extract_tables(html_bytes: bytes):
    """All tables of a page as ``list[table][row][cell]`` strings."""
    return _TableParser().feed(html_bytes or b"")


def table_cells_fn(batch: pa.Table, html_col: str = "html",
                   id_col: str = "doc_id") -> pa.Table:
    """Explode each page's tables into ``(doc_id, tbl, row, col, cell)``
    rows — the structured-data side channel of main-content
    extraction (pages with no tables emit nothing)."""
    ids = batch.column(id_col).to_pylist()
    out_id, out_t, out_r, out_c, out_v = [], [], [], [], []
    for i, h in zip(ids, batch.column(html_col).to_pylist()):
        for t, tbl in enumerate(extract_tables(h)):
            for r, row in enumerate(tbl):
                for c, cell in enumerate(row):
                    out_id.append(i)
                    out_t.append(t)
                    out_r.append(r)
                    out_c.append(c)
                    out_v.append(cell)
    return pa.table({
        id_col: pa.array(out_id, pa.int64()),
        "tbl": pa.array(out_t, pa.int64()),
        "row": pa.array(out_r, pa.int64()),
        "col": pa.array(out_c, pa.int64()),
        "cell": pa.array(out_v, pa.string()),
    })


def url_features_fn(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """URL lexical features — the classic URL-only spam/quality
    signals (length, path depth, digit density, query-param count,
    host length) used by crawl-frontier classifiers long before any
    byte of the page is fetched. Fully vectorized Arrow kernels,
    row-local, no shuffle; assumes ``scheme://host/path`` shaped
    urls (the query string, if any, follows the first ``?`` and
    carries its params ``&``-separated).

    Output columns: ``(url_len, host_len, path_depth, n_digits,
    n_params)`` appended to the input batch.
    """
    url = batch.column(url_col)
    url_len = pc.utf8_length(url)
    base = pc.list_element(pc.split_pattern(url, "?"), 0)
    parts = pc.split_pattern(base, "/")
    host = pc.list_element(parts, 2)
    host_len = pc.utf8_length(host)
    path_depth = pc.subtract(pc.count_substring(base, "/"),
                             pa.scalar(2, pa.int32()))
    n_digits = pc.count_substring_regex(url, "[0-9]")
    has_q = pc.greater(pc.count_substring(url, "?"), 0)
    n_params = pc.if_else(
        has_q,
        pc.add(pc.count_substring(url, "&"), pa.scalar(1, pa.int32())),
        pa.scalar(0, pa.int32()))
    out = batch
    for name, col in (("url_len", url_len), ("host_len", host_len),
                      ("path_depth", path_depth),
                      ("n_digits", n_digits), ("n_params", n_params)):
        out = out.append_column(name, pc.cast(col, pa.int64()))
    return out


def parse_sitemap(batch: pa.Table, host_col: str = "host",
                  xml_col: str = "sitemap_xml") -> pa.Table:
    """Parse sitemap.xml TEXT (sitemaps.org ``urlset`` schema) into
    ``(host, entry_idx, loc, lastmod, priority)`` rows — the crawl
    seed-ingestion front half that feeds `frontier_pipeline`-style
    budgeting (robots gives the DENY side; sitemaps give the
    publisher's ASK side with freshness and priority hints).

    Real stdlib ``xml.etree`` parse per document (namespace-agnostic
    local-name matching — real sitemaps mix default-ns and bare
    tags); ``<url>`` entries keep document order (entry_idx),
    missing optional ``lastmod``/``priority`` stay NULL, entries
    with no ``<loc>`` are skipped, and a malformed document yields
    zero rows rather than failing the task (skip-vs-fail,
    /root/reference/ocr_pipeline.py:426-441). Row-local, no
    shuffle; per-doc XML payloads are the unit of work exactly like
    the ALTO/PAGE readers (functions/xmlmodel.py).
    """
    import xml.etree.ElementTree as ET

    def _local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1].lower()

    hosts = batch.column(host_col).to_pylist()
    xmls = batch.column(xml_col).to_pylist()
    h_out, i_out, loc_out, lm_out, pr_out = [], [], [], [], []
    for host, xml in zip(hosts, xmls):
        if not xml:
            continue
        try:
            root = ET.fromstring(xml)
        except ET.ParseError:
            continue
        if _local(root.tag) != "urlset":
            continue
        idx = 0
        for url_el in root:
            if _local(url_el.tag) != "url":
                continue
            loc = lastmod = priority = None
            for child in url_el:
                name = _local(child.tag)
                val = (child.text or "").strip() or None
                if name == "loc":
                    loc = val
                elif name == "lastmod":
                    lastmod = val
                elif name == "priority":
                    priority = val
            if loc is None:
                continue
            h_out.append(host)
            i_out.append(idx)
            loc_out.append(loc)
            lm_out.append(lastmod)
            pr_out.append(priority)
            idx += 1
    return pa.table({
        host_col: pa.array(h_out, pa.string()),
        "entry_idx": pa.array(i_out, pa.int64()),
        "loc": pa.array(loc_out, pa.string()),
        "lastmod": pa.array(lm_out, pa.string()),
        "priority": pa.array(pr_out, pa.string()),
    })
