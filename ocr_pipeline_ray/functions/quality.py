"""Per-document quality estimation (StepEstimateOCR analogue).

The reference scores a document by POSTing its sanitized word string to
a LanguageTool service and counting spelling matches
(`/root/reference/lib/ocr_step.py:337-424`). This engine replaces the
network service with a deterministic in-process token validator (and an
optional lexicon), keeping the exact output contract:

``(hit_ratio, n_words, n_errs, n_lines_in, n_wraps, n_shorts,
n_lines_out)`` with ``hit_ratio = round3((n_words - n_errs) /
n_words * 100)``, errors capped at ``n_words``, ratio 0 when every
word errs, and the ``-1`` sentinel when the document has no lines
(`ocr_pipeline.py:35`, `lib/ocr_step.py:346-352,397-412`).
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Optional, Sequence

from .text import _BAD_RE, round3, sanitize_wraps

# A token counts as well-recognized iff purely alphabetic incl. German
# letters. Deliberately SQL-expressible (DuckDB regexp_matches) so the
# driver's oracle can replicate it bit-for-bit.
VALID_TOKEN_RE = re.compile(r"^[A-Za-zÄÖÜäöüß]+$")

MISSING_RATIO = -1.0


def count_errors(tokens: Sequence[str], lexicon: Optional[FrozenSet[str]] = None) -> int:
    """Number of error tokens.

    Default rule: token invalid unless fully alphabetic
    ([A-Za-zÄÖÜäöüß]+). With a lexicon, a token must additionally
    (case-folded) be a member — the LanguageTool GERMAN_SPELLER_RULE
    stand-in for tests that need exact known-error fixtures.
    """
    # fast path, exact-equivalent to the regex: a non-alpha token can
    # never match; an all-ASCII alpha token always matches; only
    # non-ASCII alpha tokens (umlauts vs other scripts) need the
    # regex to decide. The lexicon branch is hoisted out of the loop
    # (it is None on the hot default path).
    match = VALID_TOKEN_RE.match
    n_errs = 0
    if lexicon is None:
        for token in tokens:
            if token.isalpha() and (token.isascii() or match(token)):
                continue
            n_errs += 1
        return n_errs
    for token in tokens:
        if token.isalpha():
            valid = token.isascii() or match(token)
        else:
            valid = False
        if not valid:
            n_errs += 1
        elif token.lower() not in lexicon:
            n_errs += 1
    return n_errs


def score_ratio(n_words: int, n_errs: int) -> float:
    """Hit ratio math with error cap (lib/ocr_step.py:397-412)."""
    if n_errs > n_words:
        n_errs = n_words
    if n_words <= n_errs:
        return 0.0
    return round3((n_words - n_errs) / n_words * 100.0)


def estimate_quality(
    line_texts: Sequence[str],
    lexicon: Optional[FrozenSet[str]] = None,
    minlen: int = 2,
) -> Dict[str, object]:
    """Full estimation record for one document's extracted lines.

    Returns the quality dict matching schema.QUALITY_TYPE. Documents
    with no lines (or an empty word string) keep the -1 sentinel and
    zero counts, exactly like an unscored reference document.
    """
    record = {
        "hit_ratio": MISSING_RATIO,
        "n_words": 0,
        "n_errs": 0,
        "n_lines_in": 0,
        "n_wraps": 0,
        "n_shorts": 0,
        "n_lines_out": 0,
    }
    if not line_texts:
        return record
    # fused textlines2data: same values as the reference-shaped
    # composition in tests/replicas.py
    # (pinned by TestQualityFusionParity) without the per-line
    # join → corpus join → re-split round trip. Equivalences used:
    # the '..' removal is a no-op ('.' is already removed by the
    # char class) and the double-space collapse only ever feeds
    # split(), which normalizes whitespace anyway — so the joined
    # dense string's tokens ARE the per-line filtered token lists.
    non_empty = [t for t in line_texts if t]
    normalized, n_wraps = sanitize_wraps(non_empty)
    tokens: list = []
    n_dense = 0
    n_shorts = 0
    for line in normalized:
        text = _BAD_RE.sub("", line.strip())
        if "ſ" in text:
            text = text.replace("ſ", "s")
        toks = [t for t in text.split() if len(t) > 1]
        # dense test on the joined length: sum of token lengths plus
        # single separating spaces (lib/ocr_step.py:449-469)
        joined_len = sum(map(len, toks)) + len(toks) - 1 if toks else 0
        if joined_len > minlen:
            n_dense += 1
            tokens.extend(toks)
        else:
            n_shorts += 1
    n_lines = len(line_texts)
    if not tokens:
        return record
    n_words = len(tokens)
    n_errs = min(count_errors(tokens, lexicon), n_words)
    record.update(
        {
            "hit_ratio": score_ratio(n_words, n_errs),
            "n_words": n_words,
            "n_errs": n_errs,
            "n_lines_in": n_lines,
            "n_wraps": n_wraps,
            "n_shorts": n_shorts,
            "n_lines_out": n_dense,
        }
    )
    return record
