"""Format-matrix tests for ALTO/PAGE line extraction (M5 parity).

Mirrors the reference's parametrized dialect tests
(`/root/reference/tests/test_ocr_model.py:17-71`) with synthetic
fixtures: expected line counts per dialect, min_len sensitivity,
reading-order word sort, invalid-coords handling, malformed-PAGE
exception.
"""

import pytest

from ocr_pipeline_ray.functions.xmlmodel import (
    coords_center,
    get_xml_lines,
    sniff_is_xml,
)

ALTO3 = "http://www.loc.gov/standards/alto/ns-v3#"
ALTO4 = "http://www.loc.gov/standards/alto/ns-v4#"
PAGE13 = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2013-07-15"
PAGE19 = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2019-07-15"


def alto_doc(ns: str) -> bytes:
    return (
        f'<?xml version="1.0"?><alto xmlns="{ns}"><Layout><Page ID="p1">'
        '<PrintSpace><TextBlock>'
        '<TextLine ID="l1" HPOS="80" VPOS="100" WIDTH="240" HEIGHT="24">'
        '<String CONTENT="erste"/><String CONTENT="zeile"/></TextLine>'
        '<TextLine ID="l2" HPOS="80" VPOS="130" WIDTH="120" HEIGHT="24">'
        '<String CONTENT="zwei"/></TextLine>'
        '<TextLine ID="l3" HPOS="0" VPOS="0" WIDTH="9" HEIGHT="9">'
        '<String CONTENT="a"/></TextLine>'
        "</TextBlock></PrintSpace></Page></Layout></alto>"
    ).encode()


def page_doc(ns: str) -> bytes:
    return (
        f'<?xml version="1.0"?><PcGts xmlns="{ns}"><Page><TextRegion>'
        '<TextLine id="l1"><Coords points="80,100 500,100 500,124 80,124"/>'
        '<Word id="w2"><Coords points="200,100 280,100 280,124 200,124"/>'
        "<TextEquiv><Unicode>zwei</Unicode></TextEquiv></Word>"
        '<Word id="w1"><Coords points="80,100 160,100 160,124 80,124"/>'
        "<TextEquiv><Unicode>eins</Unicode></TextEquiv></Word>"
        "<TextEquiv><Unicode>eins zwei</Unicode></TextEquiv></TextLine>"
        '<TextLine id="l2"><Coords points=""/>'
        "<TextEquiv><Unicode>unsichtbar</Unicode></TextEquiv></TextLine>"
        "</TextRegion></Page></PcGts>"
    ).encode()


class TestAlto:
    @pytest.mark.parametrize("ns,dialect", [(ALTO3, "alto3"), (ALTO4, "alto4")])
    def test_line_counts_and_geometry(self, ns, dialect):
        lines, got_dialect = get_xml_lines(alto_doc(ns))
        assert got_dialect == dialect
        # 'a' line: joined CONTENT length 1 < min_len 2 → filtered
        assert [lid for lid, _, _ in lines] == ["l1", "l2"]
        assert lines[0][1] == "erste zeile"
        assert lines[0][2] == (80, 100, 240, 24)

    def test_min_len_sensitivity(self):
        lines, _ = get_xml_lines(alto_doc(ALTO3), min_len=1)
        assert len(lines) == 3
        lines, _ = get_xml_lines(alto_doc(ALTO3), min_len=10)
        assert [lid for lid, _, _ in lines] == ["l1"]


class TestPage:
    @pytest.mark.parametrize("ns,dialect", [(PAGE13, "page2013"), (PAGE19, "page2019")])
    def test_words_sorted_by_center_x(self, ns, dialect):
        lines, got = get_xml_lines(page_doc(ns))
        assert got == dialect
        # w2 appears FIRST in document order but centers sort w1 first
        assert len(lines) == 1  # invalid-coords line dropped
        assert lines[0][1] == "eins zwei"
        assert lines[0][2] == (80, 100, 420, 24)

    def test_reorder_reverses(self):
        lines, _ = get_xml_lines(page_doc(PAGE13), reorder=True)
        assert lines[0][1] == "zwei eins"

    def test_marks_stripped(self):
        doc = page_doc(PAGE13).replace(b"eins</Unicode>", "eins‏</Unicode>".encode())
        lines, _ = get_xml_lines(doc)
        assert lines[0][1] == "eins zwei"

    def test_mark_only_word_leaves_double_space(self):
        """Reference parity (lib/ocr_model.py:144-157): a word emptied
        by mark stripping stays in text_words, so the join yields a
        double space."""
        doc = page_doc(PAGE13).replace(
            b"<Unicode>eins</Unicode>", "<Unicode>‏</Unicode>".encode()
        )
        lines, _ = get_xml_lines(doc)
        assert lines[0][1] == " zwei"  # emptied token + space + zwei

    def test_wordless_line_is_one_token(self):
        """Reference parity (lib/ocr_model.py:119-126): a TextLine
        without Word elements contributes its whole text as ONE token
        — inner space runs survive and RTL reorder is a no-op."""
        doc = (
            f'<?xml version="1.0"?><PcGts xmlns="{PAGE13}"><Page><TextRegion>'
            '<TextLine id="lw"><Coords points="0,0 10,0 10,5 0,5"/>'
            "<TextEquiv><Unicode>alpha  beta</Unicode></TextEquiv></TextLine>"
            "</TextRegion></Page></PcGts>"
        ).encode()
        lines, _ = get_xml_lines(doc)
        assert lines[0][1] == "alpha  beta"  # double space preserved
        lines_r, _ = get_xml_lines(doc, reorder=True)
        assert lines_r[0][1] == "alpha  beta"  # single token: no-op

    def test_words_without_line_text_raises(self):
        doc = (
            f'<?xml version="1.0"?><PcGts xmlns="{PAGE13}"><Page><TextRegion>'
            '<TextLine id="lx"><Coords points="0,0 9,9"/>'
            '<Word id="w"><Coords points="0,0 9,9"/>'
            "<TextEquiv><Unicode>wort</Unicode></TextEquiv></Word>"
            "<TextEquiv><Unicode></Unicode></TextEquiv></TextLine>"
            "</TextRegion></Page></PcGts>"
        ).encode()
        with pytest.raises(RuntimeError, match="just words"):
            get_xml_lines(doc)

    def test_invalid_word_coords_raise(self):
        doc = (
            f'<?xml version="1.0"?><PcGts xmlns="{PAGE13}"><Page><TextRegion>'
            '<TextLine id="lx"><Coords points="0,0 9,9"/>'
            '<Word id="w"><Coords points=""/>'
            "<TextEquiv><Unicode>wort</Unicode></TextEquiv></Word>"
            "<TextEquiv><Unicode>wort</Unicode></TextEquiv></TextLine>"
            "</TextRegion></Page></PcGts>"
        ).encode()
        with pytest.raises(RuntimeError, match="Invalid Coords"):
            get_xml_lines(doc)


class TestDispatch:
    def test_sniff(self):
        assert sniff_is_xml(alto_doc(ALTO3))
        assert sniff_is_xml(page_doc(PAGE19))
        assert not sniff_is_xml(b"<html><body><p>seite</p></body></html>")
        assert not sniff_is_xml(b'<?xml version="1.0"?><feed>rss</feed>')

    def test_unknown_namespace_yields_no_lines(self):
        lines, dialect = get_xml_lines(b'<?xml version="1.0"?><x xmlns="urn:y"/>')
        assert lines == [] and dialect == "unknown"

    def test_coords_center(self):
        assert coords_center("0,0 10,0 10,10 0,10") == (5.0, 5.0)
        assert coords_center("") is None

    def test_extract_document_dispatch(self):
        from ocr_pipeline_ray.functions.extract import extract_document

        texts, overrides, stats = extract_document(alto_doc(ALTO3))
        assert texts == ["erste zeile", "zwei"]
        assert overrides is not None and stats["dialect"] == "alto3"
        ids, geoms = overrides
        assert ids == ["l1", "l2"]
        texts, overrides, stats = extract_document(
            b"<html><body><p>nur html text</p></body></html>"
        )
        assert overrides is None and stats["dialect"] == "html"


class TestEndToEnd:
    def test_xml_docs_flow_through_pipeline(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.pipelines.extraction import build_pipeline

        tbl = pa.table({
            "url": pa.array(
                ["http://a/alto1.xml", "http://a/page1.xml", "http://a/h.html"],
                pa.string(),
            ),
            "warc_ts": pa.array([0, 0, 0], pa.timestamp("us")),
            "html": pa.array(
                [alto_doc(ALTO4), page_doc(PAGE13),
                 b"<html><body><p>web seite inhalt</p></body></html>"],
                pa.binary(),
            ),
            "lang": pa.array(["de", "de", "de"], pa.string()),
        })
        rows = build_pipeline(ray.data.from_arrow(tbl)).take_all()
        by_url = {r["url"]: r for r in rows}
        alto = by_url["http://a/alto1.xml"]
        assert alto["extracted_text"] == "erste zeile\nzwei"
        assert [ln["line_id"] for ln in alto["lines"]] == ["l1", "l2"]
        assert alto["lines"][0]["hpos"] == 80
        assert alto["lines"][0]["width"] == 240
        page = by_url["http://a/page1.xml"]
        assert page["extracted_text"] == "eins zwei"
        assert page["lines"][0]["line_id"] == "l1"
        html = by_url["http://a/h.html"]
        assert html["extracted_text"] == "web seite inhalt"
        assert html["lines"][0]["line_id"] == "l00000"


class TestAltoEmission:
    """S4 writer parity: pretty/CRLF ALTO v4 out, re-readable by the
    engine's own ALTO reader (full round trip)."""

    def test_crlf_pretty_deterministic(self):
        from ocr_pipeline_ray.functions.xmlout import doc_to_alto_xml

        lines = [
            {"line_id": "l00000", "text": 'mit "anführung" & <klammer>',
             "hpos": 80, "vpos": 100, "width": 240, "height": 24},
            {"line_id": "l00001", "text": "zweite zeile",
             "hpos": 80, "vpos": 128, "width": 144, "height": 24},
        ]
        raw = doc_to_alto_xml("doc1", "pdoc1", lines)
        # every newline is CRLF (write_xml_file parity,
        # lib/ocr_step.py:605-619), pretty-printed, deterministic
        assert raw.count(b"\n") == raw.count(b"\r\n") > 10
        assert b"  <Description>" in raw
        assert raw == doc_to_alto_xml("doc1", "pdoc1", lines)

    def test_round_trip_through_own_reader(self, ray_session, small_corpus):
        from ocr_pipeline_ray.functions.xmlout import alto_xml_fn
        from ocr_pipeline_ray.pipelines.extraction import build_pipeline, read_pages

        ds = build_pipeline(read_pages(small_corpus[:1])).map_batches(
            alto_xml_fn, batch_format="pyarrow"
        )
        rows = ds.take_all()
        checked = 0
        for r in rows:
            if r["error"]:
                continue
            lines, dialect = get_xml_lines(r["alto_xml"], min_len=0)
            assert dialect == "alto4"
            expect = r["lines"] or []
            assert [t for _i, t, _g in lines] == [ln["text"] for ln in expect]
            assert [i for i, _t, _g in lines] == [
                ln["line_id"] for ln in expect
            ]
            assert [g for _i, _t, g in lines] == [
                (ln["hpos"], ln["vpos"], ln["width"], ln["height"])
                for ln in expect
            ]
            checked += 1
        assert checked > 30
