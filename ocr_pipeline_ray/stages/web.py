"""Per-host web-corpus operators: host extraction, skew-safe host
aggregates, broadcast blocklist filtering.

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
* :func:`blocklist_filter` — drop documents whose host is on a
  blocklist, as a broadcast ANTI join (`stages/join.broadcast_join`):
  the blocklist ships to the object store ONCE (``ray.put`` inside
  the join), every task reads it zero-copy, no shuffle of the corpus.
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

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


def blocklist_filter(ds, blocked_hosts: Union[List[str], pa.Table],
                     url_col: str = "url", keep_host: bool = False):
    """Drop rows whose url host is in ``blocked_hosts``.

    Broadcast anti join: the blocklist (a list of hosts or a table
    with a ``host`` column) is shipped once via the object store and
    probed per batch with a vectorized ``index_in`` — the corpus
    never shuffles. The UT1/robots-style hygiene gate of a crawl
    pipeline.
    """
    from .join import broadcast_join

    if not isinstance(blocked_hosts, pa.Table):
        blocked_hosts = pa.table({
            "host": pa.array(sorted(set(blocked_hosts)), pa.string()),
        })
    with_host = ds.map_batches(
        lambda b: url_host_fn(b, url_col), batch_format="pyarrow"
    )
    out = broadcast_join(with_host, blocked_hosts, on="host", how="anti")
    if keep_host:
        return out
    return out.map_batches(
        lambda b: b.drop_columns(["host"]), batch_format="pyarrow"
    )


# URL canonicalization: scheme/host lowercasing rebuild FIRST (so the
# lowercase-anchored rewrite patterns below see canonical case), then
# ordered RE2 rewrites (Arrow and DuckDB share both the match and the
# \1-backreference rewrite dialect). Order is the contract.
CANON_STEPS = [
    # 1. fragment
    (r"#.*$", ""),
    # 2. utm_* tracking params followed by another param (the +
    #    swallows consecutive ones)
    (r"([?&])(utm_[A-Za-z0-9_]+=[^&]*&)+", r"\1"),
    # 3. trailing utm_* param
    (r"[?&]utm_[A-Za-z0-9_]+=[^&]*$", ""),
    # 4./5. default ports
    (r"^(http://[^/?#]*):80([/?].*)?$", r"\1\2"),
    (r"^(https://[^/?#]*):443([/?].*)?$", r"\1\2"),
    # 6. bare root slash
    (r"^(https?://[^/?#]+)/$", r"\1"),
]

_SPLIT_PATTERN = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://"
    r"(?P<host>[^/?#]*)(?P<rest>.*)$"
)


# --- link graph --------------------------------------------------------
# Anchor-href extraction over the raw HTML bytes. One compiled-regex
# findall per document (C-speed scan; Arrow has no extract-ALL-matches
# kernel). Attribute quoting mirrors the extractor's tokenizer: double-
# quoted, single-quoted, or bare values.
_HREF_RE = re.compile(
    rb"""<a\s[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))""",
    re.I | re.S,
)
_ABS_HOST_RE = re.compile(rb"^https?://([^/:?#]+)", re.I)


def outlink_hosts(html_bytes: bytes) -> List[str]:
    """All ABSOLUTE http(s) outlink hosts of one page, lowercased,
    in document order (duplicates kept — they are real link weight).

    Relative links resolve to the page's own host and carry no
    cross-host signal, so the link graph drops them by design (the
    same convention as the public Common-Crawl host-level webgraph).
    """
    hosts: List[str] = []
    for m in _HREF_RE.finditer(html_bytes):
        href = m.group(1) or m.group(2) or m.group(3)
        hm = _ABS_HOST_RE.match(href)
        if hm is not None:
            hosts.append(hm.group(1).lower().decode("utf-8", "replace"))
    return hosts


def link_graph(ds, html_col: str = "html", url_col: str = "url"):
    """Host-level link graph: ``src_host, dst_host, n_links``.

    The CC-webgraph construction recast as Ray Data: each block's
    pages are scanned once (regex findall per doc), edges are
    COMBINED MAP-SIDE to one partial row per distinct (src, dst) pair
    per block (Arrow ``group_by``), then ONE small multi-key groupby
    sums the partials. The corpus (html payloads) never shuffles —
    only (src_host, dst_host, n) partial rows move, bounded by
    distinct host pairs per block, not by link count.
    """
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        b = url_host_fn(batch, url_col, out_col="src_host")
        srcs = b.column("src_host").to_pylist()
        htmls = batch.column(html_col).to_pylist()
        e_src: List[str] = []
        e_dst: List[str] = []
        for src, payload in zip(srcs, htmls):
            if not payload:
                continue
            for dst in outlink_hosts(payload):
                e_src.append(src)
                e_dst.append(dst)
        edges = pa.table({
            "src_host": pa.array(e_src, pa.string()),
            "dst_host": pa.array(e_dst, pa.string()),
        })
        g = edges.group_by(["src_host", "dst_host"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "src_host": g.column("src_host"),
            "dst_host": g.column("dst_host"),
            "n_links": pc.cast(g.column("count_all"), pa.int64()),
        })

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n_links", alias_name="n_links"))
    )
    return agg


def canonicalize_url_fn(batch: pa.Table, url_col: str = "url",
                        out_col: str = "url_canon") -> pa.Table:
    """Append ``out_col`` = canonical form of ``url_col``.

    Lowercases scheme+host (path/query case is preserved — it is
    significant), then drops fragments and utm_* tracking params and
    strips default ports and the bare root slash. All vectorized RE2
    kernels; rows without a scheme://host shape skip the rebuild but
    still pass through the rewrite steps. The crawl-dedup key
    normalizer: exact dedup on ``url_canon`` merges the superficial
    variants of one page.
    """
    u = pc.fill_null(batch.column(url_col), "")
    parts = pc.extract_regex(u, _SPLIT_PATTERN)
    ok = pc.is_valid(parts)
    rebuilt = pc.binary_join_element_wise(
        pc.utf8_lower(pc.fill_null(pc.struct_field(parts, "scheme"), "")),
        "://",
        pc.utf8_lower(pc.fill_null(pc.struct_field(parts, "host"), "")),
        pc.fill_null(pc.struct_field(parts, "rest"), ""),
        "",
    )
    u = pc.if_else(ok, rebuilt, u)
    for pattern, repl in CANON_STEPS:
        u = pc.replace_substring_regex(u, pattern, repl)
    return batch.append_column(out_col, u)


_ANCHOR_RE = re.compile(
    rb"""<a\s[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))"""
    rb"""[^>]*>(.*?)</a\s*>""",
    re.I | re.S,
)
_TAG_RE = re.compile(rb"<[^>]*>")
_WS_RE = re.compile(rb"\s+")


def anchor_pairs(html_bytes: bytes) -> List[tuple]:
    """``(dst_host, anchor_text)`` for every ABSOLUTE http(s) link of
    one page, document order, duplicates kept. Anchor text is the
    tag's inner markup with nested tags stripped and whitespace
    collapsed (the Common-Crawl anchor-corpus convention)."""
    out: List[tuple] = []
    for m in _ANCHOR_RE.finditer(html_bytes):
        href = m.group(1) or m.group(2) or m.group(3)
        hm = _ABS_HOST_RE.match(href)
        if hm is None:
            continue
        text = _WS_RE.sub(b" ", _TAG_RE.sub(b"", m.group(4))).strip()
        out.append((hm.group(1).lower().decode("utf-8", "replace"),
                    text.decode("utf-8", "replace")))
    return out


def anchor_stats(ds, html_col: str = "html", n_buckets: int = 64):
    """Per-destination-host ANCHOR-TEXT aggregation — the classic
    web-corpus signal (anchor corpora describe a page better than
    its own boilerplate; used for retrieval training sets and host
    labeling). Output: ``(dst_host, n_mentions, n_distinct_anchors,
    top_anchor)`` where ``top_anchor`` is the most frequent anchor
    string (ties → lexicographically smallest).

    Shape mirrors :func:`link_graph`: the html payloads never
    shuffle. Each block reduces map-side to distinct
    ``(dst_host, anchor, n)`` partial rows; ONE multi-key groupby
    sums them; then a host-hash-bucket co-shuffle of those (already
    anchor-vocabulary-scale) rows lets a whole-bucket kernel pick
    per-host totals and the arg-max anchor with a single Arrow sort
    + boundary masks — no per-host UDF invocation.
    """
    import numpy as np

    from ray.data.aggregate import Sum
    from ..functions.hashing import bucket_ids

    def _partial(batch: pa.Table) -> pa.Table:
        hosts: List[str] = []
        anchors: List[str] = []
        for payload in batch.column(html_col).to_pylist():
            if not payload:
                continue
            for h, a in anchor_pairs(payload):
                hosts.append(h)
                anchors.append(a)
        pairs = pa.table({
            "dst_host": pa.array(hosts, pa.string()),
            "anchor": pa.array(anchors, pa.string()),
        })
        g = pairs.group_by(["dst_host", "anchor"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "dst_host": g.column("dst_host"),
            "anchor": g.column("anchor"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })

    pair_counts = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["dst_host", "anchor"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _host_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("_hbucket", pa.array(
            bucket_ids(batch.column("dst_host"), n_buckets), pa.int64()))

    def _rollup(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "dst_host": pa.array([], pa.string()),
            "n_mentions": pa.array([], pa.int64()),
            "n_distinct_anchors": pa.array([], pa.int64()),
            "top_anchor": pa.array([], pa.string()),
        })
        if group.num_rows == 0:
            return empty
        # one sort: host asc, count desc, anchor asc → first row per
        # host IS the arg-max anchor with the deterministic tie-break
        g = group.sort_by([("dst_host", "ascending"),
                           ("n", "descending"),
                           ("anchor", "ascending")])
        hosts = g.column("dst_host").combine_chunks()
        n = g.column("n").combine_chunks().to_numpy(zero_copy_only=False)
        first = np.ones(len(n), dtype=bool)
        codes = pc.dictionary_encode(hosts).indices.to_numpy(
            zero_copy_only=False)
        first[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(n))
        cs = np.concatenate([[0], np.cumsum(n, dtype=np.int64)])
        return pa.table({
            "dst_host": hosts.take(pa.array(starts, pa.int64())),
            "n_mentions": pa.array(cs[ends] - cs[starts], pa.int64()),
            "n_distinct_anchors": pa.array(ends - starts, pa.int64()),
            "top_anchor": g.column("anchor").take(
                pa.array(starts, pa.int64())),
        })

    return pair_counts.map_batches(
        _host_bucket, batch_format="pyarrow"
    ).groupby("_hbucket", num_partitions=n_buckets).map_groups(
        _rollup, batch_format="pyarrow")


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
    the bloom pre-prune of `dedup_incremental_bloom`; the probe shape
    is unchanged.

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
    The standard companion to `host_entropy` in crawl audits.

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


def cocitation_pairs(ds, html_col: str = "html", max_links: int = 64,
                     n_buckets: int = 64):
    """Host CO-CITATION counts: for every page, the distinct
    unordered pairs of DISTINCT hosts it links together; summed over
    the corpus — "hosts that get cited side-by-side", the classic
    relatedness signal of webgraph analysis (co-citation coupling).

    Per page the pair expansion is O(L²) over its ≤ ``max_links``
    distinct outlink hosts (pages beyond the cap contribute their
    first ``max_links`` hosts in document order — a measured cap:
    count capped pages via `host_stats` on outlink fan-out before
    raising it). Pairs combine map-side per block (Arrow group_by),
    then ONE (host_a, host_b) groupby sums the partials — pair-scale
    rows shuffle, payloads never do.
    """
    from itertools import combinations

    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        pa_, pb_ = [], []
        for payload in batch.column(html_col).to_pylist():
            if not payload:
                continue
            seen: List[str] = []
            seen_set = set()
            for h in outlink_hosts(payload):
                if h not in seen_set:
                    seen.append(h)
                    seen_set.add(h)
                if len(seen) >= max_links:
                    break
            for a, b in combinations(sorted(seen), 2):
                pa_.append(a)
                pb_.append(b)
        t = pa.table({
            "host_a": pa.array(pa_, pa.string()),
            "host_b": pa.array(pb_, pa.string()),
        })
        g = t.group_by(["host_a", "host_b"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "host_a": g.column("host_a"),
            "host_b": g.column("host_b"),
            "n_pages": pc.cast(g.column("count_all"), pa.int64()),
        })

    return ds.map_batches(_partial, batch_format="pyarrow").groupby(
        ["host_a", "host_b"]
    ).aggregate(Sum("n_pages", alias_name="n_pages"))


def polyglot_hosts(docs_with_host, lang_col: str = "lang",
                   n_buckets: int = 64):
    """Mixed-language host detection — hosts serving ≥ 2 languages,
    with doc counts and the dominant language. A standard curation
    signal: hosts mixing many languages are disproportionately MT
    boilerplate / SEO spam (the CCNet/fastText pipelines gate on it).

    Input needs a ``host`` column (``url_host_fn`` upstream). Shape:
    per-block (host, lang, n) Arrow partials → ONE host-hash
    co-shuffle of the partials → whole-bucket kernel (combine, sort,
    boundary masks) emits ``(host, n_docs, n_langs, top_lang)`` for
    polyglot hosts only. Tie rule: count desc, lang asc.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["host", lang_col]).group_by(
            ["host", lang_col]).aggregate([([], "count_all")])
        out = pa.table({
            "host": g.column("host"),
            "lang": g.column(lang_col),
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })
        return out.append_column("_hbucket", pa.array(
            bucket_ids(out.column("host"), n_buckets), pa.int64()))

    def _rollup(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "host": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_langs": pa.array([], pa.int64()),
            "top_lang": pa.array([], pa.string()),
        })
        if group.num_rows == 0:
            return empty
        g = group.select(["host", "lang", "n"]).group_by(
            ["host", "lang"]).aggregate([("n", "sum")])
        g = g.sort_by([("host", "ascending"), ("n_sum", "descending"),
                       ("lang", "ascending")])
        hosts = g.column("host").combine_chunks()
        n = g.column("n_sum").combine_chunks().to_numpy(
            zero_copy_only=False)
        codes = pc.dictionary_encode(hosts).indices.to_numpy(
            zero_copy_only=False)
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(codes))
        n_langs = ends - starts
        cs = np.concatenate([[0], np.cumsum(n, dtype=np.int64)])
        sel = n_langs >= 2
        idx = pa.array(starts[sel], pa.int64())
        return pa.table({
            "host": hosts.take(idx),
            "n_docs": pa.array((cs[ends] - cs[starts])[sel], pa.int64()),
            "n_langs": pa.array(n_langs[sel], pa.int64()),
            "top_lang": g.column("lang").take(idx),
        })

    return docs_with_host.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("_hbucket", num_partitions=n_buckets).map_groups(
        _rollup, batch_format="pyarrow")


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


def url_path_rollup(ds, url_col: str = "url", max_depth: int = 3,
                    n_buckets: int = 64):
    """Path-HIERARCHY rollup: page counts per (host, path-prefix) at
    every depth up to ``max_depth`` — the crawl-frontier budget view
    ('/forum' vs '/static') that flat host_stats can't give and CUBE
    over unrelated dimensions doesn't express.

    Each url contributes one row per ancestor prefix (depth 0 = the
    host itself); prefixes are map-side combined per block (Arrow
    ``group_by``) so the single exchange carries block-distinct
    (prefix, depth, n) partials, then one bucketed whole-bucket fold.
    Returns ``(prefix, depth:int64, n_pages:int64)``.
    """
    import numpy as np

    from ..functions.hashing import bucket_ids

    empty = pa.table({
        "prefix": pa.array([], pa.string()),
        "depth": pa.array([], pa.int64()),
        "n_pages": pa.array([], pa.int64()),
        "_pbucket": pa.array([], pa.int64()),
    })

    def _prefixes(batch: pa.Table) -> pa.Table:
        pref: List[str] = []
        depth: List[int] = []
        for u in batch.column(url_col).to_pylist():
            if not u:
                continue
            rest = u.split("://", 1)[-1]
            parts = rest.split("/")
            host = parts[0]
            pref.append(host)
            depth.append(0)
            segs = [p for p in parts[1:] if p]
            for d in range(1, min(len(segs), max_depth) + 1):
                pref.append(host + "/" + "/".join(segs[:d]))
                depth.append(d)
        if not pref:
            return empty
        t = pa.table({
            "prefix": pa.array(pref, pa.string()),
            "depth": pa.array(depth, pa.int64()),
        }).group_by(["prefix", "depth"]).aggregate([([], "count_all")])
        prefixes = t.column("prefix")
        if isinstance(prefixes, pa.ChunkedArray):
            prefixes = prefixes.combine_chunks()
        return pa.table({
            "prefix": prefixes,
            "depth": t.column("depth"),
            "n_pages": pc.cast(t.column("count_all"), pa.int64()),
            "_pbucket": pa.array(
                bucket_ids(prefixes, n_buckets), pa.int64()),
        })

    def _fold(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return empty.drop_columns(["_pbucket"])
        g = group.sort_by([("prefix", "ascending")])
        prefixes = g.column("prefix").combine_chunks()
        cnt = g.column("n_pages").combine_chunks().to_numpy(
            zero_copy_only=False)
        new = np.empty(n, dtype=bool)
        new[0] = True
        if n > 1:
            new[1:] = pc.not_equal(
                prefixes.slice(1, n - 1), prefixes.slice(0, n - 1)
            ).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(new)
        idx = pa.array(starts, pa.int64())
        return pa.table({
            "prefix": prefixes.take(idx),
            "depth": g.column("depth").combine_chunks().take(idx),
            "n_pages": pa.array(
                np.add.reduceat(cnt, starts), pa.int64()),
        })

    return (
        ds.map_batches(_prefixes, batch_format="pyarrow")
        .groupby("_pbucket", num_partitions=n_buckets)
        .map_groups(_fold, batch_format="pyarrow")
    )


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


def parse_robots(batch: pa.Table, host_col: str = "host",
                 text_col: str = "robots_txt",
                 agent: str = "*") -> pa.Table:
    """Parse raw robots.txt TEXT into the ``(host, rule_idx, allow,
    prefix)`` rule rows that :func:`robots_filter` /
    :func:`robots_rep_filter` consume — the missing front half of
    the REP chain (RFC 9309 group scoping): rules belong to the most
    recent contiguous block of ``User-agent`` lines, only groups
    naming ``agent`` (or ``*``) apply, comments (``#``), blank lines
    and non-rule directives (Crawl-delay, Sitemap, …) are skipped,
    and an empty Disallow value (``Disallow:`` = allow all) emits
    nothing. Row-local per-doc parsing — robots files are tiny; the
    corpus never shuffles.
    """
    hosts_out, idx_out, allow_out, prefix_out = [], [], [], []
    for host, txt in zip(batch.column(host_col).to_pylist(),
                         batch.column(text_col).to_pylist()):
        if txt is None:
            continue
        active = False          # current group applies to `agent`
        in_ua_block = False     # inside a contiguous UA header run
        idx = 0
        for raw in txt.split("\n"):
            line = raw.split("#", 1)[0].strip()
            if not line:
                in_ua_block = False
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                if not in_ua_block:
                    active = False
                    in_ua_block = True
                if val == "*" or val.lower() == agent.lower():
                    active = True
                continue
            in_ua_block = False
            if key not in ("allow", "disallow") or not active:
                continue
            if not val:
                continue
            hosts_out.append(host)
            idx_out.append(idx)
            allow_out.append(key == "allow")
            prefix_out.append(val)
            idx += 1
    return pa.table({
        host_col: pa.array(hosts_out, pa.string()),
        "rule_idx": pa.array(idx_out, pa.int64()),
        "allow": pa.array(allow_out, pa.bool_()),
        "prefix": pa.array(prefix_out, pa.string()),
    })


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


# --------------------------------------------- URL canonicalization

# params stripped by canonical_url_fn (RE2, shared with the SQL twin)
TRACKING_PARAM_RE = r"^(utm_[a-z0-9]*|fbclid|gclid|ref)="
_TRACKING_COMPILED = re.compile(TRACKING_PARAM_RE)


def canonical_url_fn(batch: pa.Table, url_col: str = "url",
                     out_col: str = "canonical") -> pa.Table:
    """Append ``out_col`` = canonical form of ``url_col`` — the dedup
    key that collapses crawl-time URL aliasing (the reference dedups
    on the raw path string, `ocr_pipeline.py:335`; a web corpus needs
    the alias-collapsed key first).

    Ordered, deterministic rule chain (each an RE2 kernel shared
    verbatim with the DuckDB oracle):

    1. strip ``#fragment``
    2. lowercase the ``scheme://host[:port]`` prefix (path case kept)
    3. drop default ports ``http…:80`` / ``https…:443``
    4. drop a leading ``www.`` host label
    5. drop tracking params (``utm_*``, ``fbclid``, ``gclid``,
       ``ref``) and SORT the survivors — param order never
       distinguishes documents
    6. strip one trailing ``/`` from the path

    Scale shape: steps 1–4 and 6 are vectorized Arrow RE2 kernels on
    every row; step 5 touches only the rows that HAVE a query string
    (a small minority of real crawl urls — the `nfc_normalize_fn`
    masked-minority pattern), rebuilt in Python and scattered back
    with ``replace_with_mask``. Row-local, no shuffle.
    """
    url = batch.column(url_col)
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()

    u = pc.replace_substring_regex(url, pattern=r"#.*$",
                                   replacement="")
    # lowercase scheme://host[:port]
    pfx = pc.replace_substring_regex(
        u, pattern=r"^([A-Za-z][A-Za-z0-9+.-]*://[^/?]*).*$",
        replacement=r"\1")
    rest = pc.replace_substring_regex(
        u, pattern=r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?]*",
        replacement="")
    pfx = pc.utf8_lower(pfx)
    pfx = pc.replace_substring_regex(
        pfx, pattern=r"^(http://[^:/?]+):80$", replacement=r"\1")
    pfx = pc.replace_substring_regex(
        pfx, pattern=r"^(https://[^:/?]+):443$", replacement=r"\1")
    pfx = pc.replace_substring_regex(
        pfx, pattern=r"^(https?://)www\.", replacement=r"\1")
    u = pc.binary_join_element_wise(pfx, rest, "")

    # query-param cleanup on the minority of rows with a '?'
    has_q = pc.match_substring(u, "?")
    if pc.any(has_q).as_py():
        import numpy as np

        vals = u.to_pylist()
        idx = np.flatnonzero(
            has_q.combine_chunks().to_numpy(zero_copy_only=False)
            if isinstance(has_q, pa.ChunkedArray)
            else has_q.to_numpy(zero_copy_only=False))
        fixed = []
        for i in idx:
            base, q = vals[i].split("?", 1)
            keep = sorted(p for p in q.split("&")
                          if p and not _TRACKING_COMPILED.match(p))
            fixed.append(base + ("?" + "&".join(keep) if keep
                                 else ""))
        repl = pa.array(fixed, pa.string())
        u = pc.replace_with_mask(u, has_q, repl)

    # trailing-slash strip applies to the PATH (before any '?')
    u = pc.replace_substring_regex(
        u, pattern=r"/$", replacement="")
    u = pc.replace_substring_regex(
        u, pattern=r"/\?", replacement="?")
    return batch.append_column(out_col, u)


def politeness_plan(ds, rate: int = 3, host_col: str = "host",
                    order_col: str = "doc_id",
                    n_buckets: int = 64):
    """Crawl politeness scheduling: assign every fetch to a time SLOT
    such that no host receives more than ``rate`` fetches per slot
    (the crawl-frontier dispatch plan — hosts are rate-limited, the
    fleet is not). Returns the per-slot load curve
    ``(slot, n_fetches, n_hosts)``.

    Scale shape: ONE host-hash co-shuffle; each whole bucket sorts by
    ``(host, order)``, derives the per-host 0-based rank with a
    boundary-mask cumcount (never a per-host UDF), and pre-reduces to
    ``(host, slot, n)`` rows — globally unique because a host lives
    in exactly one bucket — so the final slot groupby moves
    hosts × slots rows, not fetches. The hot host of a skewed crawl
    costs one in-bucket sort, and its slot count IS the makespan.
    """
    import numpy as np

    import ray.data
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import bucket_ids

    if rate < 1:
        raise ValueError("politeness_plan: rate must be >= 1")

    def _tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(batch.column(host_col), n_buckets),
                pa.int64()),
            host_col: batch.column(host_col),
            order_col: batch.column(order_col),
        })

    def _bucket_plan(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                host_col: pa.array([], pa.string()),
                "slot": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64())})
        g = group.sort_by([(host_col, "ascending"),
                           (order_col, "ascending")])
        hosts = g.column(host_col).combine_chunks()
        # per-host 0-based rank: global index minus segment start
        change = np.r_[True, hosts[1:].to_numpy(zero_copy_only=False)
                       != hosts[:-1].to_numpy(zero_copy_only=False)] \
            if g.num_rows > 1 else np.array([True])
        idx = np.arange(g.num_rows, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(change, idx, 0))
        slot = (idx - seg_start) // rate
        t = pa.table({host_col: hosts,
                      "slot": pa.array(slot, pa.int64())})
        agg = t.group_by([host_col, "slot"]).aggregate(
            [([], "count_all")])
        return pa.table({
            host_col: agg.column(host_col),
            "slot": agg.column("slot"),
            "n": pc.cast(agg.column("count_all"), pa.int64()),
        })

    plan = (
        ds.map_batches(_tag, batch_format="pyarrow")
        .groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket_plan, batch_format="pyarrow")
    )
    agg = plan.groupby("slot").aggregate(Sum("n"), Count())

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "slot": pc.cast(batch.column("slot"), pa.int64()),
            "n_fetches": pc.cast(batch.column("sum(n)"), pa.int64()),
            "n_hosts": pc.cast(batch.column("count()"), pa.int64()),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")
