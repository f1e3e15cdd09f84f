"""Golden tests for the HTML main-content extractor."""

from ocr_pipeline_ray.functions.extract import ExtractConfig, extract_lines


def _texts(html: str, **cfg):
    config = ExtractConfig(**cfg) if cfg else ExtractConfig()
    lines, stats = extract_lines(html.encode("utf-8"), config)
    return [ln["text"] for ln in lines], stats


class TestBoilerplate:
    def test_nav_footer_dropped(self):
        html = (
            "<html><body><nav><ul><li><a href='/a'>Startseite</a></li>"
            "<li><a href='/b'>Impressum</a></li></ul></nav>"
            "<p>Der echte Inhalt steht hier</p>"
            "<footer><p>Kontakt Datenschutz</p></footer></body></html>"
        )
        texts, stats = _texts(html)
        assert texts == ["Der echte Inhalt steht hier"]
        assert stats["n_boiler_dropped"] == 3

    def test_boiler_class_dropped(self):
        html = (
            "<body><div class='sidebar'><p>Werbung kaufen</p></div>"
            "<div class='content'><p>Haupttext bleibt</p></div></body>"
        )
        texts, _ = _texts(html)
        assert texts == ["Haupttext bleibt"]

    def test_link_farm_density_dropped(self):
        html = (
            "<body><div><a href='/1'>viele worte hier</a> "
            "<a href='/2'>noch mehr links</a> und</div>"
            "<p>Normaler Absatz mit genug eigenem Text dabei</p></body>"
        )
        texts, stats = _texts(html)
        assert texts == ["Normaler Absatz mit genug eigenem Text dabei"]
        assert stats["n_link_dropped"] == 1

    def test_script_style_ignored(self):
        html = (
            "<body><script>var x=1;</script><style>.a{}</style>"
            "<p>Nur dieser Text</p></body>"
        )
        texts, _ = _texts(html)
        assert texts == ["Nur dieser Text"]


class TestLineModel:
    def test_br_splits_lines(self):
        texts, _ = _texts("<body><p>erste zeile<br/>zweite zeile</p></body>")
        assert texts == ["erste zeile", "zweite zeile"]

    def test_inline_tags_do_not_break_tokens(self):
        texts, _ = _texts("<body><p><b>Wor</b>t zusammen</p></body>")
        assert texts == ["Wort zusammen"]

    def test_min_len_filter(self):
        texts, stats = _texts("<body><p>a</p><p>ok gut</p></body>")
        assert texts == ["ok gut"]
        assert stats["n_short_dropped"] == 1

    def test_rtl_reverses_tokens(self):
        texts, _ = _texts('<body><p dir="rtl">eins zwei drei</p></body>')
        assert texts == ["drei zwei eins"]

    def test_marks_stripped(self):
        texts, _ = _texts("<body><p>wort‏ hier﻿ da</p></body>")
        assert texts == ["wort hier da"]

    def test_entities_decoded(self):
        texts, _ = _texts("<body><p>s&lt; und &amp; zeichen</p></body>")
        assert texts == ["s< und & zeichen"]

    def test_geometry_deterministic(self):
        lines, _ = extract_lines(
            b"<body><p>erste zeile gut</p><p>zweite zeile gut</p></body>"
        )
        cfg = ExtractConfig()
        assert lines[0]["vpos"] == cfg.vpos0
        assert lines[1]["vpos"] == cfg.vpos0 + cfg.line_step
        assert lines[0]["width"] == cfg.char_width * len(lines[0]["text"])
        assert [ln["line_id"] for ln in lines] == ["l00000", "l00001"]


class TestDegenerate:
    def test_empty_page(self):
        texts, stats = _texts("<html><body><main><div>  </div></main></body></html>")
        assert texts == [] and stats["n_lines"] == 0

    def test_whitespace_only_paragraphs(self):
        texts, _ = _texts("<body><p>   </p><p></p><p>echter text</p></body>")
        assert texts == ["echter text"]

    def test_malformed_still_parses(self):
        texts, _ = _texts("<body><div><p>Unclosed anfang <p>noch ein text</body>")
        assert "Unclosed anfang" in texts[0]

    def test_invalid_utf8_raises(self):
        import pytest

        with pytest.raises(UnicodeDecodeError):
            extract_lines(b"<p>kaputt \xff\xfe</p>")

    def test_deterministic(self):
        html = b"<body><p>stabile ausgabe immer gleich</p></body>"
        assert extract_lines(html) == extract_lines(html)


class TestFastTokenizerDrift:
    """The regex tokenizer must match the stdlib html.parser path on
    every document — including quote/comment/misnesting edge cases."""

    NASTY = [
        b'<p>vor dem <a href="x>y" title="a>b">link</a> viel text nach</p>',
        b"<p title='mit > drin'>single zeile hier</p>",
        b"<!-- kommentar mit <p>tags</p> drin --><p>echter inhalt</p>",
        b"<p>a<br/>erste zeile<br >zweite zeile</p>",
        b"<p class=unquoted>unquoted attr zeile</p>",
        b"<div><p>unclosed absatz <b>fett text",
        b"<script>var s = '</div>';</script><p>nach dem script</p>",
        b"<p>text &amp; entit&auml;ten &#65; hier</p>",
        b"<P CLASS=MENU>upper case boiler</P><p>guter inhalt hier</p>",
        b"<p>\xc3\xa4 uml\xc3\xa4ute und spa\xc3\x9f dabei</p>",
        b'<td data-x="1">tabellen zelle text</td>',
        b"<p>ende ohne schliessen",
        b'<nav><p>menu link</p></nav class="x"><p>echter inhalt hier</p>',
    ]

    def _stdlib_lines(self, html: bytes):
        import re as re_mod

        from drift_tokenizers import _MainContentParser

        from ocr_pipeline_ray.functions.extract import ExtractConfig

        cfg = ExtractConfig()
        parser = _MainContentParser(
            cfg, re_mod.compile(cfg.boiler_class_pattern)
        )
        parser.feed(html.decode("utf-8"))
        parser.close()
        parser._flush_line()
        return parser.raw_lines

    def _fast_lines(self, html: bytes):
        import re as re_mod

        from drift_tokenizers import _MainContentParser, _fast_feed

        from ocr_pipeline_ray.functions.extract import ExtractConfig

        cfg = ExtractConfig()
        parser = _MainContentParser(
            cfg, re_mod.compile(cfg.boiler_class_pattern)
        )
        _fast_feed(html.decode("utf-8"), parser)
        parser._flush_line()
        return parser.raw_lines

    def test_nasty_fixtures_drift_free(self):
        for html in self.NASTY:
            assert self._fast_lines(html) == self._stdlib_lines(html), html

    def test_corpus_drift_free_on_valid_html(self, small_corpus):
        """Every corpus doc whose text contains no RAW unescaped '<'
        (where invalid-markup recovery is undefined and the two
        parsers legitimately differ) extracts identically on both
        paths."""
        import pyarrow.parquet as pq

        from ocr_pipeline_ray.functions.xmlmodel import sniff_is_xml

        tbl = pq.read_table(small_corpus[0], columns=["html"])
        checked = 0
        for raw in tbl.column("html").to_pylist():
            if raw is None or sniff_is_xml(raw):
                continue
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                continue
            # the corpus injects the historical '<'-for-'c' confusion
            # char into text content; those documents are INVALID
            # HTML by construction — skip them. The filter strips only
            # CONSERVATIVELY well-formed tags (no '<'/'>' inside), so
            # any leftover '<' marks invalid markup.
            import re as re_mod

            stripped = re_mod.sub(
                r"<(!--.*?--|/?[a-zA-Z][a-zA-Z0-9-]*(\s[^<>]*)?)/?>",
                "", text, flags=re_mod.S)
            if "<" in stripped:
                continue
            assert self._fast_lines(raw) == self._stdlib_lines(raw)
            checked += 1
        assert checked > 10


class TestScanExtractDrift:
    """The split-walk production scanner (_scan_extract) must produce
    the same raw_lines as the search-loop tokenizer (_fast_feed +
    _MainContentParser) on EVERY document — the NASTY fixtures AND
    the whole corpus, including the invalid-markup docs where the
    engine (not the stdlib) is authoritative."""

    def _fast_lines(self, html: bytes):
        import re as re_mod

        from drift_tokenizers import _MainContentParser, _fast_feed

        from ocr_pipeline_ray.functions.extract import ExtractConfig

        cfg = ExtractConfig()
        parser = _MainContentParser(
            cfg, re_mod.compile(cfg.boiler_class_pattern))
        _fast_feed(html.decode("utf-8"), parser)
        parser._flush_line()
        return parser.raw_lines

    def _scan_lines(self, html: bytes):
        import re as re_mod

        from ocr_pipeline_ray.functions.extract import (
            ExtractConfig, _scan_extract)

        cfg = ExtractConfig()
        return _scan_extract(
            html.decode("utf-8"),
            re_mod.compile(cfg.boiler_class_pattern))

    def test_nasty_fixtures_drift_free(self):
        for html in TestFastTokenizerDrift.NASTY:
            assert self._scan_lines(html) == self._fast_lines(html), html

    def test_rawtext_skip_semantics(self):
        cases = [
            b"<script>if (a<b) { x = y>z; }</script><p>danach text</p>",
            b"<style>.x { content: '<p>'; }</style><p>inhalt hier</p>",
            b"<textarea>roher <b>text</b> inhalt</textarea><p>echt</p>",
            b"<title>Der <i>Titel</i></title><p>nach titel text</p>",
            b"<script>var unterminated = 1;<p>nie gesehen</p>",
            b"<p>davor</p><script></script><p>danach zeile</p>",
        ]
        for html in cases:
            assert self._scan_lines(html) == self._fast_lines(html), html

    def test_corpus_drift_free(self, small_corpus):
        import pyarrow.parquet as pq

        from ocr_pipeline_ray.functions.xmlmodel import sniff_is_xml

        tbl = pq.read_table(small_corpus[0], columns=["html"])
        checked = 0
        for raw in tbl.column("html").to_pylist():
            if raw is None or sniff_is_xml(raw):
                continue
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                continue
            assert self._scan_lines(raw) == self._fast_lines(raw)
            checked += 1
        assert checked > 50  # 240-row corpus, minus XML/PDF/binary rows
