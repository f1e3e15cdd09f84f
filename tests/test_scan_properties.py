"""Property-based drift pinning for the split-walk scanner.

The production extractor (`_scan_extract`) must agree with the
search-loop tokenizer (`_fast_feed` + `_MainContentParser`) on
arbitrary generated markup — not just the curated NASTY fixtures.
Hypothesis builds documents from a grammar of tags (block/inline/
void/rawtext/boiler), attributes (class/id/dir, quoted and
unquoted, on start and end tags), entities, comments and misnesting,
then asserts the two paths produce identical raw_lines. The search
loop lives in tests/drift_tokenizers.py.
"""
import re

from drift_tokenizers import _fast_feed, _MainContentParser
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_pipeline_ray.functions.extract import ExtractConfig, _scan_extract

_CFG = ExtractConfig()
_BOILER_RE = re.compile(_CFG.boiler_class_pattern)

_WORDS = st.text(
    alphabet="abcdefgz äöß&; ",
    min_size=0, max_size=12,
)
_TAGNAMES = st.sampled_from(
    ["p", "div", "span", "b", "li", "nav", "td", "h1", "em",
     "script", "style", "title", "a", "br", "img", "DIV", "P"]
)
_ATTRS = st.sampled_from(
    ["", " class=menu", ' class="nav bar"', " id='promo'",
     ' dir="rtl"', " dir=ltr", ' href="x>y"', " data-x='a>b'",
     ' class="content"']
)

_END_ATTRS = st.sampled_from(["", ' class="x"', " id=y"])


@st.composite
def _markup(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    parts = []
    open_tags = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:
            parts.append(draw(_WORDS))
        elif kind == 1:
            tag = draw(_TAGNAMES)
            parts.append(f"<{tag}{draw(_ATTRS)}>")
            open_tags.append(tag)
        elif kind == 2 and open_tags:
            # sometimes close the wrong tag (misnesting)
            idx = draw(st.integers(min_value=0,
                                   max_value=len(open_tags) - 1))
            # an attributed end tag still closes its element
            parts.append(f"</{open_tags.pop(idx)}{draw(_END_ATTRS)}>")
        elif kind == 3:
            parts.append("<!-- kommentar <p> -->")
        elif kind == 4:
            parts.append(draw(st.sampled_from(
                ["&amp;", "&auml;", "&#65;", "&nbsp;", "&bogus;"])))
        else:
            parts.append(draw(st.sampled_from(
                ["<br/>", "<br >", "<img src='a.png'>", "<hr>"])))
    # close a random suffix of what's still open
    for tag in reversed(open_tags[draw(st.integers(0, len(open_tags))):]):
        parts.append(f"</{tag}>")
    return "".join(parts)


class TestScanExtractProperties:
    @given(_markup())
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_fast_feed(self, text):
        parser = _MainContentParser(_CFG, _BOILER_RE)
        _fast_feed(text, parser)
        parser._flush_line()
        assert _scan_extract(text, _BOILER_RE) == parser.raw_lines

    @given(_markup())
    @settings(max_examples=100, deadline=None)
    def test_scan_deterministic(self, text):
        assert _scan_extract(text, _BOILER_RE) == _scan_extract(
            text, _BOILER_RE)
