"""Host extraction, skew-safe host stats, blocklist filter."""

import pyarrow as pa

from ocr_pipeline_ray.stages.web import (
    blocklist_filter,
    host_stats,
    url_host_fn,
)


def _tbl(urls, **extra):
    cols = {"url": pa.array(urls, pa.string())}
    for k, v in extra.items():
        cols[k] = v
    return pa.table(cols)


class TestUrlHost:
    def test_basic_and_edges(self):
        out = url_host_fn(_tbl([
            "http://a.example.com/p/1",
            "https://B.Example.ORG:8443/x?y#z",
            "ftp://files.net",
            "no-scheme/path",
            None,
            "http://host?query",
        ]))
        assert out.column("host").to_pylist() == [
            "a.example.com", "b.example.org", "files.net",
            "", "", "host",
        ]


class TestHostStats:
    def test_partial_combine_matches_naive(self, ray_session):
        import ray.data

        urls = [f"http://h{i % 3}.x/p/{i}" for i in range(30)]
        sizes = pa.array([i * 10 for i in range(30)], pa.int64())
        ds = ray.data.from_arrow(
            _tbl(urls, n_chars=sizes)
        ).repartition(7)
        rows = sorted(
            host_stats(ds, size_col="n_chars").take_all(),
            key=lambda r: r["host"],
        )
        assert [r["host"] for r in rows] == ["h0.x", "h1.x", "h2.x"]
        assert all(r["n_docs"] == 10 for r in rows)
        # sum over i*10 per residue class
        for j, r in enumerate(rows):
            assert r["total_n_chars"] == sum(
                i * 10 for i in range(30) if i % 3 == j
            )

    def test_count_only(self, ray_session):
        import ray.data

        ds = ray.data.from_arrow(_tbl(["http://a.x/1", "http://a.x/2"]))
        rows = host_stats(ds).take_all()
        assert rows == [{"host": "a.x", "n_docs": 2}]


class TestBlocklist:
    def test_filter_drops_blocked(self, ray_session):
        import ray.data

        urls = [f"http://h{i % 4}.x/p/{i}" for i in range(16)]
        ds = ray.data.from_arrow(
            _tbl(urls, doc_id=pa.array(range(16), pa.int64()))
        ).repartition(3)
        out = blocklist_filter(ds, ["h1.x", "h3.x"]).take_all()
        ids = sorted(r["doc_id"] for r in out)
        assert ids == [i for i in range(16) if i % 4 in (0, 2)]
        assert all("host" not in r for r in out)

    def test_keep_host_and_empty_blocklist(self, ray_session):
        import ray.data

        ds = ray.data.from_arrow(_tbl(["http://a.x/1"]))
        out = blocklist_filter(ds, [], keep_host=True).take_all()
        assert out == [{"url": "http://a.x/1", "host": "a.x"}]


class TestCanonicalizeUrl:
    def _canon(self, urls):
        from ocr_pipeline_ray.stages.web import canonicalize_url_fn

        return canonicalize_url_fn(_tbl(urls)).column(
            "url_canon").to_pylist()

    def test_steps(self):
        assert self._canon([
            "HTTP://Ex.COM:80/a?utm_source=x&b=2#frag",
            "https://a.b:443/",
            "https://a.b/p?utm_a=1&utm_b=2",
            "http://h/p?a=1&utm_x=9&utm_y=8",
            "http://h.co:8080/x",          # non-default port kept
            "https://h.co/Path/Case?Q=V",  # path/query case preserved
            "not a url",
            None,
        ]) == [
            "http://ex.com/a?b=2",
            "https://a.b",
            "https://a.b/p",
            "http://h/p?a=1",
            "http://h.co:8080/x",
            "https://h.co/Path/Case?Q=V",
            "not a url",
            "",
        ]

    def test_idempotent(self):
        once = self._canon([
            "HTTP://Ex.COM:80/a?utm_source=x&b=2#frag",
            "https://a.b:443/",
        ])
        assert self._canon(once) == once

    def test_dedup_key_merges_variants(self):
        # the whole point: superficial variants collapse to one key
        variants = [
            "http://site.com/page",
            "HTTP://SITE.com/page#top",
            "http://site.com:80/page",
            "http://site.com/page?utm_campaign=x",
        ]
        assert len(set(self._canon(variants))) == 1


class TestOutlinks:
    def test_href_quoting_and_absolute_filter(self):
        from ocr_pipeline_ray.stages.web import outlink_hosts

        html = (
            b"<html><body>"
            b'<a href="http://A.Example.com/p">x</a>'
            b"<a href='https://b.net:8080/q?r#s'>y</a>"
            b"<a href=http://c.org/bare>z</a>"
            b'<a href="/relative">rel</a>'
            b'<a href="ftp://files.net/f">ftp</a>'
            b'<a href="http://a.example.com/again">dup host</a>'
            b"<a name='no-href'>skip</a>"
            b"</body></html>"
        )
        assert outlink_hosts(html) == [
            "a.example.com", "b.net", "c.org", "a.example.com",
        ]

    def test_link_graph_counts(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.web import link_graph

        rows = [
            ("http://s1.x/a",
             b'<a href="http://d1.x/">1</a><a href="http://d2.x/">2</a>'),
            ("http://s1.x/b",
             b'<a href="http://d1.x/p">3</a><a href="/rel">no</a>'),
            ("http://s2.x/c", b'<a href="http://d1.x/">4</a>'),
            ("http://s2.x/d", b"no links here"),
        ]
        ds = ray.data.from_arrow(pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "html": pa.array([r[1] for r in rows], pa.binary()),
        })).repartition(3)
        got = {
            (r["src_host"], r["dst_host"]): r["n_links"]
            for r in link_graph(ds).take_all()
        }
        assert got == {
            ("s1.x", "d1.x"): 2,
            ("s1.x", "d2.x"): 1,
            ("s2.x", "d1.x"): 1,
        }


class TestRobotsRepFilter:
    def test_longest_match_and_allow_tie(self, ray_session):
        """RFC 9309: longest prefix wins; allow beats disallow on a
        same-length tie; no match allows."""
        import ray.data

        from ocr_pipeline_ray.stages.web import robots_rep_filter

        rules = pa.table({
            "host": pa.array(["h.com"] * 4 + ["h.com"]),
            "directive": pa.array(
                ["disallow", "allow", "disallow", "allow",
                 "disallow"]),
            "prefix": pa.array(
                ["/a", "/a/pub", "/a/pub/x", "/t", "/t"]),
        })
        urls = [
            "http://h.com/a/1",        # /a disallow -> blocked
            "http://h.com/a/pub/ok",   # /a/pub allow (longer) -> kept
            "http://h.com/a/pub/x/1",  # /a/pub/x disallow -> blocked
            "http://h.com/t/tie",      # same-len tie -> allow wins
            "http://h.com/other",      # no match -> allowed
            "http://else.com/a/1",     # other host: no rules -> kept
        ]
        ds = ray.data.from_arrow(pa.table({"url": pa.array(urls)}))
        kept = sorted(r["url"] for r in robots_rep_filter(
            ds, rules).take_all())
        assert kept == sorted([
            "http://h.com/a/pub/ok", "http://h.com/t/tie",
            "http://h.com/other", "http://else.com/a/1"])
        blocked = sorted(r["url"] for r in robots_rep_filter(
            ds, rules, how="drop").take_all())
        assert blocked == sorted([
            "http://h.com/a/1", "http://h.com/a/pub/x/1"])


class TestMetaExtract:
    def test_fields_orders_entities_missing(self):
        from ocr_pipeline_ray.stages.web import extract_meta

        m = extract_meta(b"""<html><head>
          <title> Hello &amp;   World </title>
          <meta content="desc here" name="Description">
          <meta property="og:title" content="OG t">
          <link href="https://x.example/p" rel="canonical">
        </head><body></body></html>""")
        assert m["title"] == "Hello & World"
        assert m["description"] == "desc here"
        assert m["og_title"] == "OG t"
        assert m["canonical"] == "https://x.example/p"

        m2 = extract_meta(b"<html><body>no head</body></html>")
        assert all(v is None for v in m2.values())

    def test_first_wins_and_malformed_tail(self):
        from ocr_pipeline_ray.stages.web import extract_meta

        m = extract_meta(
            b"<title>A</title><title>B</title>"
            b'<meta name="description" content="one">'
            b'<meta name="description" content="two">'
            b"<div><p>Unclosed")
        assert m["title"] == "A"
        assert m["description"] == "one"

    def test_batch_keeps_ids_and_reads_null_html_as_empty(self):
        from ocr_pipeline_ray.stages.web import meta_extract_fn

        out = meta_extract_fn(pa.table({
            "doc_id": pa.array([7, 8], pa.int64()),
            "html": pa.array([b"<title>A &amp; B</title>", None],
                             pa.binary()),
            "url": pa.array(["u7", "u8"], pa.string()),
        }))
        assert out.column_names == [
            "doc_id", "title", "description", "canonical", "og_title"]
        assert out.column("doc_id").to_pylist() == [7, 8]
        assert out.column("title").to_pylist() == ["A & B", None]
        assert out.column("description").to_pylist() == [None, None]


class TestHtmlTables:
    def test_cells_strip_and_order(self):
        from ocr_pipeline_ray.stages.web import extract_tables

        tables = extract_tables(b"""
          <table><tr><th> A </th><th><b>B</b></th></tr>
                 <tr><td><a href="/x"> link text </a></td><td>2</td></tr>
          </table>
          <table><tr><td>solo</td></tr></table>""")
        assert tables == [
            [["A", "B"], ["link text", "2"]],
            [["solo"]],
        ]

    def test_nested_tables_inner_first_and_unclosed(self):
        from ocr_pipeline_ray.stages.web import extract_tables

        tables = extract_tables(
            b"<table><tr><td>outer</td></tr>"
            b"<table><tr><td>inner</td></tr></table>")
        # inner closes first; outer never closes but still surfaces
        assert [t[0][0] for t in tables] == ["inner", "outer"]

    def test_no_tables_emit_nothing(self, ray_session):
        import ray
        from ocr_pipeline_ray.stages.web import table_cells_fn

        tbl = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "html": pa.array([b"<html><p>x</p></html>"], pa.binary()),
        })
        out = table_cells_fn(tbl)
        assert out.num_rows == 0


class TestUrlPathRollup:
    def test_prefix_counts_and_depth_cap(self, ray_session):
        import ray
        from ocr_pipeline_ray.stages.web import url_path_rollup

        urls = [
            "https://a.x/p/q/r/s",   # depth capped at 2
            "https://a.x/p/q",
            "https://a.x/p",
            "http://b.y/",           # host only
            None,
        ]
        out = url_path_rollup(
            ray.data.from_arrow(_tbl(urls)).repartition(3),
            max_depth=2, n_buckets=4,
        ).to_pandas().sort_values(["depth", "prefix"]).reset_index(
            drop=True)
        got = list(map(tuple, out.itertuples(index=False)))
        assert got == [
            ("a.x", 0, 3), ("b.y", 0, 1),
            ("a.x/p", 1, 3),
            ("a.x/p/q", 2, 2),
        ]


class TestUrlFeatures:
    def test_worked_examples(self):
        from ocr_pipeline_ray.stages.web import url_features_fn

        out = url_features_fn(_tbl([
            "https://ex.com/a/b1?x=1&y=22",
            "http://h.org",
            "http://h.org/",
            "http://h.org/p?q",
        ]))
        got = list(zip(*(out.column(c).to_pylist() for c in (
            "url_len", "host_len", "path_depth", "n_digits", "n_params"))))
        assert got == [
            (28, 6, 2, 4, 2),
            (12, 5, 0, 0, 0),
            (13, 5, 1, 0, 0),
            (16, 5, 1, 0, 1),
        ]
        assert out.column("url").to_pylist()[1] == "http://h.org"

    def test_null_url_gives_null_features(self):
        from ocr_pipeline_ray.stages.web import url_features_fn

        out = url_features_fn(_tbl([None, "http://a.b/c"]))
        assert out.column("url_len").to_pylist() == [None, 12]
        assert out.column("path_depth").to_pylist() == [None, 1]
        assert out.schema.field("n_params").type == pa.int64()
