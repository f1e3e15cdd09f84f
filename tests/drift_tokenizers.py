"""Drift references for the production HTML scanner.

``functions.extract._scan_extract`` is the engine's only HTML
tokenizer. The two tokenizers here are the references it is pinned
against: ``_MainContentParser`` drives the same line model from the
stdlib ``html.parser``, and ``_fast_feed`` drives that parser's
handlers with a search-loop regex scan. ``test_extract.py`` and
``test_scan_properties.py`` compare all three.
"""

import re
from html.parser import HTMLParser
from typing import List, Optional, Tuple

from ocr_pipeline_ray.functions.extract import (
    _ATTR_RE,
    _BLOCK_TAGS,
    _BOILER_TAGS,
    _IGNORED_TAGS,
    _MARKS_RE,
    _RAWTEXT_TAGS,
    _VOID_TAGS,
    ExtractConfig,
)
from ocr_pipeline_ray.functions.text import strip_marks

# stack frames are plain tuples (tag, ignored, boiler, rtl) — a
# dataclass per open element was a measurable share of per-doc cost
_ROOT_STATE = (False, False, False)


class _MainContentParser(HTMLParser):
    """Single-pass streaming extractor; one instance per document."""

    def __init__(self, config: ExtractConfig, boiler_re: re.Pattern):
        super().__init__(convert_charrefs=True)
        self.cfg = config
        self.boiler_re = boiler_re
        self.stack: List[Tuple[str, bool, bool, bool]] = []
        self.link_depth = 0
        # current line accumulation; char counting is deferred to
        # flush (counts are additive across segment boundaries, so
        # splitting once per line == splitting per segment)
        self._segments: List[str] = []
        self._link_segments: List[str] = []
        self._line_boiler = False
        self._line_rtl = False
        self._line_open = False
        self.raw_lines: List[Tuple[str, bool, int, int]] = []
        self.n_boiler_dropped = 0
        self.n_link_dropped = 0
        self.n_short_dropped = 0

    # -- frame helpers -------------------------------------------------
    def _state(self) -> Tuple[bool, bool, bool]:
        stack = self.stack
        if not stack:
            return _ROOT_STATE
        return stack[-1][1:]

    # -- line accumulation ---------------------------------------------
    def _flush_line(self) -> None:
        if not self._line_open:
            return
        text = "".join(self._segments)
        tokens = text.split()
        # raw (pre-mark-strip) char counts feed link density — same
        # values as per-segment counting, computed once per line
        total_chars = sum(map(len, tokens))
        if self._link_segments:
            link_chars = sum(
                sum(map(len, seg.split())) for seg in self._link_segments
            )
        else:
            link_chars = 0
        # mark stripping only when a mark is present in the line at
        # all (rare) — avoids a per-token function call on the hot path
        if tokens and _MARKS_RE.search(text) is not None:
            tokens = [strip_marks(t) for t in tokens]
            tokens = [t for t in tokens if t]
        self._line_open = False
        self._segments = []
        self._link_segments = []
        if tokens:
            if self._line_rtl:
                tokens = list(reversed(tokens))
            line_text = " ".join(tokens)
            self.raw_lines.append(
                (line_text, self._line_boiler, link_chars, total_chars)
            )
        self._line_boiler = False
        self._line_rtl = False

    # -- HTMLParser hooks ----------------------------------------------
    # tag names arrive lowercase from BOTH tokenizers (the stdlib
    # HTMLParser contract lowercases them; _fast_feed lowers
    # explicitly), so the handlers do not re-lower
    def handle_starttag(self, tag, attrs):
        if tag == "br":
            if self._line_open:
                self._flush_line()
            return
        if tag in _VOID_TAGS:
            return
        if tag == "a":
            self.link_depth += 1
            return
        stack = self.stack
        if stack:
            _t, ignored, boiler, rtl = stack[-1]
        else:
            ignored = boiler = rtl = False
        ignored = ignored or tag in _IGNORED_TAGS
        boiler = boiler or tag in _BOILER_TAGS
        if attrs:
            for name, value in attrs:
                if value is None:
                    continue
                lname = name.lower()
                if lname in ("class", "id"):
                    if self.boiler_re.search(value.lower()):
                        boiler = True
                elif lname == "dir":
                    rtl = value.strip().lower() == "rtl"
        if tag in _BLOCK_TAGS and self._line_open:
            self._flush_line()
        stack.append((tag, ignored, boiler, rtl))

    def handle_endtag(self, tag):
        if tag == "a":
            if self.link_depth > 0:
                self.link_depth -= 1
            return
        if tag in _VOID_TAGS:
            return
        if tag in _BLOCK_TAGS and self._line_open:
            self._flush_line()
        stack = self.stack
        # fast path: properly nested close
        if stack and stack[-1][0] == tag:
            stack.pop()
            return
        # pop to the matching open frame (tolerates misnesting)
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == tag:
                del stack[i:]
                break

    def handle_startendtag(self, tag, attrs):
        if tag == "br":
            self._flush_line()

    def handle_data(self, data):
        stack = self.stack
        if stack:
            _t, ignored, boiler, rtl = stack[-1]
        else:
            ignored = boiler = rtl = False
        if ignored or not data:
            return
        if not self._line_open and not data.strip():
            return
        self._line_open = True
        self._segments.append(data)
        if self.link_depth > 0:
            self._link_segments.append(data)
        if boiler:
            self._line_boiler = True
        if rtl:
            self._line_rtl = True


# --- search-loop tokenizer ------------------------------------------
# Drives the same _MainContentParser handlers as html.parser but with a
# single regex scan. Drift-free against the stdlib path on VALID HTML
# (incl. quoted '>', comments, rawtext, misnesting — see
# TestFastTokenizerDrift). On INVALID markup — a raw unescaped '<' in
# text content — recovery is undefined and the two parsers may segment
# differently.

# element bodies consume quoted attribute values atomically so a '>'
# inside quotes (href="x>y") does not terminate the tag early —
# matching html.parser's behavior. The body is matched with GREEDY
# unquoted-chunk / quoted-string alternation (linear scan, no
# per-character lazy backtracking — the lazy variant was the single
# hottest regex in the engine); a trailing '/' lands inside the body
# and is ignored by the name/attr parses.
_TAG_RE = re.compile(
    r"<(!--.*?--|!\[CDATA\[.*?\]\]|![^>]*"
    r"|/?[a-zA-Z][^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*)>",
    re.S,
)
_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9-]*")


def _fast_feed(text: str, parser: "_MainContentParser") -> None:
    from html import unescape

    # hot-loop locals: attribute lookups out of the per-tag path
    tag_search = _TAG_RE.search
    name_match_fn = _NAME_RE.match
    handle_data = parser.handle_data
    handle_starttag = parser.handle_starttag
    handle_endtag = parser.handle_endtag
    pos = 0
    n = len(text)
    lower: Optional[str] = None
    while True:
        match = tag_search(text, pos)
        if not match:
            break
        start = match.start()
        if start > pos:
            seg = text[pos:start]
            if "&" in seg:
                seg = unescape(seg)
            handle_data(seg)
        body = match.group(1)
        pos = match.end()
        first = body[0]
        if first == "!":
            continue  # comment / doctype / CDATA
        if first == "/":
            # the name only: an attributed end tag (</nav class="x">)
            # still closes its element, as in html.parser
            handle_endtag(name_match_fn(body, 1).group(0).lower())
            continue
        name_match = name_match_fn(body)
        if not name_match:
            continue
        name = name_match.group(0).lower()
        attrs = []
        rest = body[name_match.end():]
        if rest:
            rest_l = rest.lower()
            if "class" in rest_l or "id" in rest_l or "dir" in rest_l:
                for am in _ATTR_RE.finditer(rest):
                    val = am.group(2)
                    if val is None:
                        val = (am.group(3) if am.group(3) is not None
                               else am.group(4))
                    attrs.append((am.group(1), val))
        handle_starttag(name, attrs)
        if name in _RAWTEXT_TAGS:
            if lower is None:
                lower = text.lower()
            close = lower.find("</" + name, pos)
            if close == -1:
                pos = n
            else:
                gt = text.find(">", close)
                handle_endtag(name)
                pos = n if gt == -1 else gt + 1
    if pos < n:
        seg = text[pos:]
        if "&" in seg:
            seg = unescape(seg)
        handle_data(seg)


