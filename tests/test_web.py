"""Host extraction, skew-safe host stats, page metadata and URL features."""

import pyarrow as pa

from ocr_pipeline_ray.stages.web import host_stats, url_host_fn


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
