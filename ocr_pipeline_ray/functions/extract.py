"""HTML main-content extraction (the recognition stage's semantics).

Plays the role of the reference's recognition + line-model steps
(StepTesseract at ``/root/reference/lib/ocr_step.py:132-194`` feeding
``get_lines`` at ``lib/ocr_model.py:203-245``): one opaque document in,
an ordered list of text lines out. Input here is Common-Crawl-style
HTML bytes; main content is separated from boilerplate with
text-density / link-density heuristics (Boilerpipe-family, public
technique), implemented as one regex split-walk scanner.

Semantics (deterministic, the parity contract):

* Lines are produced in DOM order (reading order). A line is the text
  accumulated inside one block-level element, split further at
  ``<br>``.
* Content inside ``script/style/noscript/template/head/title/svg/
  option/button`` is ignored outright.
* A line is boilerplate — dropped — if any open ancestor is a
  ``nav/footer/aside/header/form`` element, or an element whose
  ``class``/``id`` matches the boilerplate pattern, or if the line's
  link density (characters inside ``<a>`` / all characters) exceeds
  ``max_link_density``.
* Tokens have Unicode direction / zero-width marks stripped
  (``lib/ocr_model.py:23-29,153-157``); a line inside a ``dir="rtl"``
  element has its token order reversed, mirroring the reference's
  reorder quirk (``lib/ocr_model.py:60-69``).
* Lines shorter than ``min_len`` characters are dropped, mirroring the
  ALTO min-length filter (``lib/ocr_model.py:217-223``).
* Geometry is synthesized deterministically (fixed line grid) so the
  line schema carries the reference's HPOS/VPOS/WIDTH/HEIGHT shape
  (``lib/ocr_model.py:93-98``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .text import CLEAR_MARKS, strip_marks

# one C-level scan instead of len(CLEAR_MARKS) substring probes per line
_MARKS_RE = re.compile("[" + "".join(CLEAR_MARKS) + "]")

_BLOCK_TAGS = frozenset(
    {
        "p", "div", "h1", "h2", "h3", "h4", "h5", "h6", "li", "ul", "ol",
        "table", "tr", "td", "th", "blockquote", "pre", "article",
        "section", "main", "aside", "nav", "header", "footer", "form",
        "figure", "figcaption", "dl", "dt", "dd", "hr", "body",
    }
)
_IGNORED_TAGS = frozenset(
    {"script", "style", "noscript", "template", "head", "title", "svg",
     "option", "button"}
)
_BOILER_TAGS = frozenset({"nav", "footer", "aside", "header", "form"})
_VOID_TAGS = frozenset(
    {"br", "img", "hr", "meta", "link", "input", "area", "base", "col",
     "embed", "source", "track", "wbr"}
)

DEFAULT_BOILER_CLASS_RE = r"(?:^|[\s_-])(?:ad|ads|advert\w*|banner|menu|nav|navbar|footer|header|sidebar|comment\w*|social|share|cookie|promo)(?:$|[\s_-])"


@dataclass(frozen=True)
class ExtractConfig:
    """Tunable, deterministic extraction thresholds."""

    min_len: int = 2
    max_link_density: float = 0.49
    boiler_class_pattern: str = DEFAULT_BOILER_CLASS_RE
    # synthesized layout grid (int32 geometry parity with ALTO shape)
    hpos0: int = 80
    vpos0: int = 100
    line_height: int = 24
    line_step: int = 28
    char_width: int = 12


# --- split-walk scanner ----------------------------------------------
# The only production tokenizer: ONE re.split pass turns the document
# into a flat [text, bang, slash, name, rest, text, ...] list
# (5-stride), so the per-tag cost is list indexing instead of a match
# object + group/start/end calls per tag — measured ~20% faster
# end-to-end than a search-loop tokenizer on the bench corpus. Handler
# logic is inlined with local state. It is pinned equal to a
# search-loop tokenizer on every NASTY fixture, the corpus and
# generated markup (TestScanExtractDrift, test_scan_properties), and
# that tokenizer equal to the stdlib HTMLParser path on valid HTML
# (TestFastTokenizerDrift); both references live in
# tests/drift_tokenizers.py. Rawtext
# (<script>/<style>/...) is handled in SKIP mode: items are discarded
# until the matching end tag, which matches the search loop's jump on
# every pinned case; the two can differ on pathological invalid
# markup — a quoted "</script" inside a spurious tag inside a script
# body — where recovery is undefined and this scanner is
# authoritative.
_TAG_SPLIT_RE = re.compile(
    r"<(?:(!--.*?--|!\[CDATA\[.*?\]\]|![^>]*)"
    r"|(/?)([a-zA-Z][a-zA-Z0-9-]*)"
    r"([^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*))>",
    re.S,
)
# attribute values, quoted or not (a '>' inside quotes stays in the tag)
_ATTR_RE = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*))"""
)
_RAWTEXT_TAGS = frozenset({"script", "style", "textarea", "title"})
# allocation-free attr gate (replaces rest.lower() + three `in` scans)
_ATTR_GATE_RE = re.compile(r"class|id|dir", re.I)


def _scan_extract(
    text: str, boiler_re: re.Pattern
) -> List[Tuple[str, bool, int, int]]:
    """Single-pass extractor: ``(line_text, boiler, link_chars,
    total_chars)`` per raw line, in document order."""
    from html import unescape

    attr_finditer = _ATTR_RE.finditer
    boiler_search = boiler_re.search
    marks_search = _MARKS_RE.search
    gate_search = _ATTR_GATE_RE.search
    block_tags = _BLOCK_TAGS
    ignored_tags = _IGNORED_TAGS
    boiler_tags = _BOILER_TAGS
    void_tags = _VOID_TAGS
    rawtext_tags = _RAWTEXT_TAGS

    stack: List[Tuple[str, bool, bool, bool]] = []
    cur_ignored = cur_boiler = cur_rtl = False
    link_depth = 0
    segments: List[str] = []
    link_segments: List[str] = []
    line_boiler = line_rtl = line_open = False
    raw_lines: List[Tuple[str, bool, int, int]] = []
    skip_until: Optional[str] = None   # rawtext skip mode

    def flush() -> None:
        nonlocal line_open, line_boiler, line_rtl, segments, link_segments
        line_text = "".join(segments)
        tokens = line_text.split()
        total_chars = sum(map(len, tokens))
        if link_segments:
            link_chars = sum(
                sum(map(len, seg.split())) for seg in link_segments)
            link_segments = []
        else:
            link_chars = 0
        if tokens and doc_may_have_marks \
                and marks_search(line_text) is not None:
            tokens = [strip_marks(t) for t in tokens]
            tokens = [t for t in tokens if t]
        line_open = False
        segments = []
        if tokens:
            if line_rtl:
                tokens = tokens[::-1]
            raw_lines.append(
                (" ".join(tokens), line_boiler, link_chars, total_chars))
        line_boiler = False
        line_rtl = False

    # mark stripping can only fire if the doc contains a mark char
    # already, or an entity that could decode to one — checked ONCE
    # per document so the common (clean) doc skips the per-line scan
    doc_may_have_marks = "&" in text or marks_search(text) is not None

    items = _TAG_SPLIT_RE.split(text)
    it = iter(items)
    seg = next(it)
    if seg and not cur_ignored:
        if "&" in seg:
            seg = unescape(seg)
        if seg and not seg.isspace():
            line_open = True
            segments.append(seg)
    # zip over one shared iterator yields consecutive 5-tuples
    # (bang, slash, name, rest, following-text) at C speed — no
    # index arithmetic per tag
    for bang, slash, name, rest, seg in zip(it, it, it, it, it):
        if bang is None:                   # a real tag, not a comment
            if not name.islower():
                name = name.lower()
            if slash:
                # -- end tag (inlined handle_endtag) -------------------
                if skip_until is not None and name == skip_until:
                    skip_until = None
                if skip_until is None and name != "a" \
                        and name not in void_tags:
                    if line_open and name in block_tags:
                        flush()
                    if stack:
                        if stack[-1][0] == name:
                            stack.pop()
                            matched = True
                        else:
                            matched = False
                            for k in range(len(stack) - 1, -1, -1):
                                if stack[k][0] == name:
                                    del stack[k:]
                                    matched = True
                                    break
                        if matched:
                            if stack:
                                (_t, cur_ignored, cur_boiler,
                                 cur_rtl) = stack[-1]
                            else:
                                cur_ignored = cur_boiler = \
                                    cur_rtl = False
                elif skip_until is None and name == "a":
                    if link_depth:
                        link_depth -= 1
            elif skip_until is None:
                # -- start tag (inlined handle_starttag) ---------------
                if name == "br":
                    if line_open:
                        flush()
                elif name == "a":
                    link_depth += 1
                elif name not in void_tags:
                    ignored = cur_ignored or name in ignored_tags
                    boiler = cur_boiler or name in boiler_tags
                    rtl = cur_rtl
                    if rest and gate_search(rest) is not None:
                        for am in attr_finditer(rest):
                            val = am.group(2)
                            if val is None:
                                val = (am.group(3)
                                       if am.group(3) is not None
                                       else am.group(4))
                            if val is None:
                                continue
                            lname = am.group(1).lower()
                            if lname in ("class", "id"):
                                if boiler_search(val.lower()):
                                    boiler = True
                            elif lname == "dir":
                                rtl = val.strip().lower() == "rtl"
                    if line_open and name in block_tags:
                        flush()
                    stack.append((name, ignored, boiler, rtl))
                    cur_ignored, cur_boiler, cur_rtl = \
                        ignored, boiler, rtl
                    if name in rawtext_tags:
                        skip_until = name
        # -- trailing text segment (inlined handle_data) ---------------
        if seg and skip_until is None and not cur_ignored:
            if "&" in seg:
                seg = unescape(seg)
            if line_open or (seg and not seg.isspace()):
                line_open = True
                segments.append(seg)
                if link_depth:
                    link_segments.append(seg)
                if cur_boiler:
                    line_boiler = True
                if cur_rtl:
                    line_rtl = True
    if line_open:
        flush()
    return raw_lines


def extract_text_lines(
    html_bytes: bytes, config: ExtractConfig = ExtractConfig(),
    boiler_re: Optional[re.Pattern] = None,
) -> Tuple[List[str], Dict[str, int]]:
    """HTML bytes → ordered main-content line TEXTS + extraction stats.

    The allocation-light core: geometry/span metadata is a pure
    function of (line index, text length, config) and is synthesized
    by the caller (see :func:`line_geometry` / the fused stage), so
    the hot path builds no per-line dicts.
    Raises ``UnicodeDecodeError`` on non-UTF-8 input.
    """
    cfg = config
    if boiler_re is None:
        boiler_re = re.compile(cfg.boiler_class_pattern)
    raw_lines = _scan_extract(html_bytes.decode("utf-8"), boiler_re)

    texts: List[str] = []
    n_boiler_dropped = n_link_dropped = n_short_dropped = 0
    for line_text, boiler, link_chars, total_chars in raw_lines:
        if boiler:
            n_boiler_dropped += 1
            continue
        density = link_chars / total_chars if total_chars else 0.0
        if density > cfg.max_link_density:
            n_link_dropped += 1
            continue
        if len(line_text) < cfg.min_len:
            n_short_dropped += 1
            continue
        texts.append(line_text)
    stats = {
        "n_raw_lines": len(raw_lines),
        "n_boiler_dropped": n_boiler_dropped,
        "n_link_dropped": n_link_dropped,
        "n_short_dropped": n_short_dropped,
        "n_lines": len(texts),
    }
    return texts, stats


def extract_document(
    html_bytes: bytes, config: ExtractConfig = ExtractConfig(),
    boiler_re: Optional[re.Pattern] = None,
):
    """Format-dispatching extractor core (the S3 sniff, SURVEY §2.1).

    Returns ``(texts, overrides, stats)`` where ``overrides`` is
    ``None`` for HTML (geometry synthesized downstream) or
    ``(ids, geoms)`` for ALTO/PAGE/PDF documents carrying REAL
    element ids and layout coordinates. Raises on malformed
    XML / PDF / PAGE words-without-line-text (error-row semantics)
    and on non-UTF-8 HTML.
    """
    from .pdf import pdf_text_lines, sniff_is_pdf
    from .xmlmodel import get_xml_lines, sniff_is_xml

    if sniff_is_pdf(html_bytes):
        pdf_lines, _n_pages = pdf_text_lines(
            html_bytes, min_len=config.min_len)
        texts = [t for (_i, t, _g) in pdf_lines]
        ids = [i for (i, _t, _g) in pdf_lines]
        geoms = [g for (_i, _t, g) in pdf_lines]
        stats = {
            "n_raw_lines": len(pdf_lines),
            "n_boiler_dropped": 0,
            "n_link_dropped": 0,
            "n_short_dropped": 0,
            "n_lines": len(pdf_lines),
            "dialect": "pdf",
        }
        return texts, (ids, geoms), stats
    if sniff_is_xml(html_bytes):
        lines, dialect = get_xml_lines(html_bytes, min_len=config.min_len)
        texts = [t for (_i, t, _g) in lines]
        ids = [i for (i, _t, _g) in lines]
        geoms = [g for (_i, _t, g) in lines]
        stats = {
            "n_raw_lines": len(lines),
            "n_boiler_dropped": 0,
            "n_link_dropped": 0,
            "n_short_dropped": 0,
            "n_lines": len(lines),
            "dialect": dialect,
        }
        return texts, (ids, geoms), stats
    texts, stats = extract_text_lines(html_bytes, config, boiler_re)
    stats["dialect"] = "html"
    return texts, None, stats


def line_geometry(index: int, text: str, cfg: ExtractConfig) -> Dict[str, int]:
    """Deterministic synthesized layout for line ``index`` (int32 grid)."""
    return {
        "hpos": cfg.hpos0,
        "vpos": cfg.vpos0 + cfg.line_step * index,
        "width": cfg.char_width * len(text),
        "height": cfg.line_height,
    }


def extract_lines(
    html_bytes: bytes, config: ExtractConfig = ExtractConfig(),
    boiler_re: Optional[re.Pattern] = None,
) -> Tuple[List[Dict[str, object]], Dict[str, int]]:
    """HTML bytes → ordered main-content lines + extraction stats.

    Returns ``(lines, stats)`` where each line is a dict matching
    ``schema.LINE_TYPE`` minus the span offsets (filled in after
    normalization). Raises ``UnicodeDecodeError`` on non-UTF-8 input
    (caller maps this to the error column / skip-row semantics).
    """
    cfg = config
    texts, overrides, stats = extract_document(html_bytes, cfg, boiler_re)
    lines: List[Dict[str, object]] = []
    for out_index, line_text in enumerate(texts):
        line = {
            "line_id": f"l{out_index:05d}",
            "text": line_text,
            "start": -1,
            "stop": -1,
        }
        if overrides is not None:
            ids, geoms = overrides
            line["line_id"] = ids[out_index]
            hpos, vpos, width, height = geoms[out_index]
            line.update(
                {"hpos": hpos, "vpos": vpos, "width": width, "height": height}
            )
        else:
            line.update(line_geometry(out_index, line_text, cfg))
        lines.append(line)
    return lines, stats
