"""Ordered text-normalization semantics (reference-parity core).

Each function re-states, exactly, a transform of the reference
(`/root/reference/`, cited per function) as a pure row-local Python
function over a document's list of text lines. The Ray stages call
these per row inside ``map_batches``; the pytest parity oracle calls
them single-process. Quirks are intentional and tested:

* ``replace_chars`` counts once per line per key (not per occurrence)
  and applies keys IN ORDER, so later keys see earlier replacements
  (``lib/ocr_step.py:245-262``).
* ``replace_chars_regex`` takes only the FIRST regex match per line,
  then replaces every occurrence of that matched literal — it is NOT
  ``re.sub`` (``lib/ocr_step.py:283-292``).
* ``sanitize_wraps`` mutates the next line in place while iterating
  and silently DROPS a hyphen-ending line whose successor is empty
  (``lib/ocr_step.py:472-494``).
* ``sanitize_chars`` collapses double spaces in a single pass — not a
  fixpoint loop — so ``'a   b'`` keeps one double space
  (``lib/ocr_step.py:497-514``).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Sequence, Tuple

# QA-irrelevant characters (reference: lib/ocr_step.py:503)
BAD_CHARS = '0123456789“„"\'?!*.;:-=[]()|'
# char-class removal as ONE regex sub (same semantics as the
# reference's per-char filter at lib/ocr_step.py:504; ~3× faster than
# a dict-table str.translate on realistic lines). The class escapes
# only what is special inside brackets, so the same pattern string is
# valid for Python's ``re`` and for RE2 (Arrow's
# ``replace_substring_regex`` in functions/quality.quality_arrays).
BAD_CLASS = "[" + "".join(
    "\\" + c if c in "[]\\^-" else c for c in BAD_CHARS) + "]"
_BAD_RE = re.compile(BAD_CLASS)

# Unicode direction / zero-width marks stripped from tokens
# (reference: lib/ocr_model.py:23-29)
CLEAR_MARKS = [
    "‏",  # RIGHT-TO-LEFT MARK
    "‎",  # LEFT-TO-RIGHT MARK
    "﻿",  # ZERO WIDTH NO-BREAK SPACE (BOM)
    "‌",  # ZERO WIDTH NON-JOINER
    "‬",  # POP DIRECTIONAL FORMATTING
]


def round3(value: float) -> float:
    """Deterministic round-half-up to 3 decimals.

    Used instead of Python's banker's ``round`` so the identical
    formula ``floor(x*1000 + 0.5)/1000`` can be evaluated in DuckDB
    oracle SQL with bit-equal results.
    """
    return math.floor(value * 1000.0 + 0.5) / 1000.0


def strip_marks(token: str) -> str:
    """Remove ALL RTL/LTR/BOM/ZWNJ/PDF marks — the engine's own rule
    for the HTML path (which has no reference twin; cf.
    lib/ocr_model.py:23-29 for the mark list)."""
    for mark in CLEAR_MARKS:
        if mark in token:
            token = token.replace(mark, "")
    return token


def strip_marks_pagequirk(token: str) -> str:
    """Byte-exact replica of PageLine.set_text's mark loop
    (lib/ocr_model.py:153-157) INCLUDING its stale-variable quirk:
    each mark's ``replace`` reads the ORIGINAL token (``strip`` is
    never reassigned inside the loop), so when a token contains two
    or more DISTINCT marks only the last matching mark in
    ``CLEAR_MARKS`` order is actually removed. Single-mark tokens —
    the overwhelmingly common case — behave like :func:`strip_marks`.
    Found by the differential suite
    (tests/test_reference_differential.py) running the reference's
    own code side-by-side."""
    out = token
    for mark in CLEAR_MARKS:
        if mark in token:
            out = token.replace(mark, "")
    return out


def replace_chars(
    lines: Sequence[str], dict_chars: Dict[str, str]
) -> Tuple[List[str], Dict[str, int]]:
    """Ordered literal substitution with once-per-line-per-key stats.

    Reference: StepPostReplaceChars._replace (lib/ocr_step.py:245-262).
    Keys are applied in dict order; a key's count increments once per
    line that contained it (regardless of occurrence count), and the
    line seen by key N+1 is the line already rewritten by key N.
    """
    stats: Dict[str, int] = {}
    out: List[str] = []
    for line in lines:
        for key, val in dict_chars.items():
            if key in line:
                line = line.replace(key, val)
                stats[key] = stats.get(key, 0) + 1
        out.append(line)
    return out, stats


def replace_chars_regex(
    lines: Sequence[str], pattern: str, old: str, new: str
) -> Tuple[List[str], Dict[str, int]]:
    """First-match-then-replace-that-literal regex substitution.

    Reference: StepPostReplaceCharsRegex._replace
    (lib/ocr_step.py:283-292): per line, ``re.search`` finds the FIRST
    match only; ``group(1)`` is the matched literal; the literal's
    ``old``→``new`` rewrite is applied, then every occurrence of the
    matched literal in the line is replaced. Stats key is
    ``"<match>=><replacement>"`` counted once per matching line.
    """
    compiled = re.compile(pattern)
    stats: Dict[str, int] = {}
    out: List[str] = []
    for line in lines:
        matcher = compiled.search(line)
        if matcher:
            match = matcher.group(1)
            replacement = match.replace(old, new)
            line = line.replace(match, replacement)
            stat_key = match + "=>" + replacement
            stats[stat_key] = stats.get(stat_key, 0) + 1
        out.append(line)
    return out, stats


def sanitize_wraps(lines: Sequence[str]) -> Tuple[List[str], int]:
    """Dehyphenation (word-wrap merge) with the empty-next-line drop quirk.

    Reference: _sanitize_wraps (lib/ocr_step.py:472-494). If a line
    (other than the last) ends with ``-`` and the following line is
    non-empty, the next line's first token is popped and appended
    (hyphen removed); the next line is rewritten in place — affecting
    subsequent iterations. If the following line IS empty, the
    hyphen-ending line is dropped from the output entirely (reference
    ``continue`` quirk at lib/ocr_step.py:485-487).
    """
    lines = list(lines)  # local mutable copy: algorithm rewrites lines[i+1]
    normalized: List[str] = []
    n_normalized = 0
    for i, line in enumerate(lines):
        if i < len(lines) - 1 and line.endswith("-"):
            next_line = lines[i + 1]
            if len(next_line.strip()) == 0:
                continue
            next_line_tokens = next_line.split()
            nextline_first_token = next_line_tokens.pop(0)
            lines[i + 1] = " ".join(next_line_tokens)
            line = line[:-1] + nextline_first_token
            n_normalized += 1
        normalized.append(line)
    return normalized, n_normalized


def sanitize_chars(lines: Sequence[str]) -> List[str]:
    """QA character sanitization (lib/ocr_step.py:497-514).

    Strip; drop chars in BAD_CHARS; remove ``..``; SINGLE-PASS double
    space collapse; ``ſ``→``s``; drop tokens of length <= 1.
    """
    sanitized: List[str] = []
    for line in lines:
        text = _BAD_RE.sub("", line.strip())
        if ".." in text:
            text = text.replace("..", "")
        if "  " in text:
            text = text.replace("  ", " ")
        if "ſ" in text:
            text = text.replace("ſ", "s")
        text = " ".join([t for t in text.split() if len(t) > 1])
        sanitized.append(text)
    return sanitized


def parse_dict(the_dict) -> Dict[str, str]:
    """Loose ``"{'a':'b', ...}"`` string → dict (lib/ocr_step.py:197-207).

    Mirrors the reference's tolerance AND its quirk: a single-pair
    string parses to ``{}`` (the token-count check is ``> 1``).
    DELIBERATE DIVERGENCE (pinned in
    tests/test_reference_step_differential.py): the reference keeps
    the quote characters inside keys/values, so its INI-configured
    replacements can never match document text and silently no-op;
    this engine strips the quotes so config-driven replacement fires.
    """
    if isinstance(the_dict, str):
        the_dict = the_dict.replace("{", "").replace("}", "")
        tokens = the_dict.split(",")
        if len(tokens) > 1:
            parsed = {}
            for token in tokens:
                key, val = token.split(":")[0], token.split(":")[1]
                parsed[_strip_quotes(key.strip())] = _strip_quotes(val.strip())
            return parsed
        return {}
    if isinstance(the_dict, dict):
        return dict(the_dict)
    return {}


def _strip_quotes(token: str) -> str:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def doc_id_from_url(url: str) -> str:
    """Document id = last path segment up to the FIRST dot.

    Mirrors the reference's ``split_path`` quirk (``split('.')[0]``,
    not splitext — lib/ocr_step.py:41-46) applied to urls, and feeds
    the fileIdentifier/Page@ID enrichment analogue
    (lib/ocr_step.py:539-555).
    """
    tail = url.rstrip("/").rsplit("/", 1)[-1]
    return tail.split(".")[0]


def page_id_from_url(url: str, page_prefix: str = "p") -> str:
    """Page id = prefix + doc id (default prefix 'p',
    lib/ocr_step.py:551-555)."""
    return page_prefix + doc_id_from_url(url)


def wtr_filename(dir_name: str, ts_struct) -> str:
    """Report filename ``<dirname>_<%Y-%m-%d_%H-%M>.wtr``
    (ocr_pipeline.py:240-244). ``ts_struct`` is a time.struct_time
    provided by the CALLER (timestamps never originate in tasks)."""
    import time as _time

    stamp = _time.strftime("%Y-%m-%d_%H-%M", ts_struct)
    return f"{dir_name}_{stamp}.wtr"


def strip_raw_wrapper(pattern: str) -> str:
    """Strip a literal ``r'...'`` wrapper from an INI-stored regex.

    The reference stores patterns verbatim including the wrapper
    (tests/resources/ocr_config_full.ini:28) but library callers pass
    the plain regex (tests/test_steps.py:316). Our config layer
    normalizes to the plain regex.
    """
    if pattern.startswith("r'") and pattern.endswith("'"):
        return pattern[2:-1]
    if pattern.startswith('r"') and pattern.endswith('"'):
        return pattern[2:-1]
    return pattern
