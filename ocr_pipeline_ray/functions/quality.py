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

Two implementations of one contract:

* :func:`estimate_quality` scores one document in Python. It is the
  oracle: ``functions/oracle.process_page``, the parity tests and
  clibench's checks compare against it.
* :func:`quality_arrays` scores a whole batch with Arrow kernels. It
  is the product path: the fused chain, ``--rescore`` and the quality
  queries call it. Dehyphenation, the one order-dependent step, runs
  as a lag-by-one match within each document; a document with a
  chained wrap (a splice target that itself ends with ``-``) is
  handed to :func:`estimate_quality`.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import QUALITY_FIELDS
from .text import _BAD_RE, BAD_CLASS, round3, sanitize_wraps

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


def _line_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-list sums of a flat value array, lists given by offsets."""
    cum = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def quality_arrays(
    lines,
    lexicon: Optional[FrozenSet[str]] = None,
    minlen: int = 2,
) -> Dict[str, pa.Array]:
    """:func:`estimate_quality` over a batch: one record per document.

    ``lines`` is a ``list<string>`` array (or chunked array), one
    document's lines per row; a null row scores like an empty
    document. Returns ``{name: array}`` typed per
    ``schema.QUALITY_FIELDS``, equal field by field to calling
    :func:`estimate_quality` on each row.
    """
    if isinstance(lines, pa.ChunkedArray):
        lines = (lines.combine_chunks() if lines.num_chunks
                 else pa.array([], lines.type))
    n_docs = len(lines)
    n_in = pc.list_value_length(lines).fill_null(0).to_numpy(
        zero_copy_only=False)
    flat = pc.list_flatten(lines)
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), n_in)
    keep = pc.greater(pc.binary_length(flat), 0)
    if not pc.all(keep).as_py():
        flat = flat.filter(keep)
        doc = doc[keep.to_numpy(zero_copy_only=False)]

    # dehyphenation (sanitize_wraps) as a lag-by-one row pattern: a
    # line ending with '-' whose next line is in the same document
    # is dropped when that next line is blank (SURVEY M6), otherwise
    # it takes the next line's first token
    hyph = pc.ends_with(flat, "-").to_numpy(zero_copy_only=False)[:-1]
    cand = np.flatnonzero(hyph & (doc[1:] == doc[:-1]))
    nxt = pc.utf8_trim_whitespace(flat.take(cand + 1))
    blank = pc.equal(pc.binary_length(nxt), 0).to_numpy(
        zero_copy_only=False)
    splice = cand[~blank]
    target = splice + 1
    nxt = nxt.filter(pa.array(~blank))
    # a target still ending with '-' once its first token is popped
    # wraps again, reading the rewritten line: such a document goes
    # to the scalar oracle
    chained = pc.ends_with(nxt, "-").to_numpy(zero_copy_only=False)
    fallback = np.unique(doc[target[chained]])
    n_wraps = np.bincount(doc[splice], minlength=n_docs)
    norm = flat
    if len(cand):
        nxt_toks = pc.utf8_split_whitespace(nxt)
        spliced = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(flat.take(splice), 0, -1),
            pc.list_element(nxt_toks, 0), "")
        rest = pc.binary_join(pc.list_slice(nxt_toks, 1), " ")
        mask = np.zeros(len(flat), dtype=bool)
        mask[splice] = True
        norm = pc.replace_with_mask(norm, pa.array(mask), spliced)
        mask[:] = False
        mask[target] = True
        norm = pc.replace_with_mask(norm, pa.array(mask), rest)
        if len(splice) < len(cand):
            mask[:] = True
            mask[cand[blank]] = False
            norm = norm.filter(pa.array(mask))
            doc = doc[mask]

    # sanitize: BAD_CHARS out, tokens longer than one char; a line is
    # dense when its tokens joined by single spaces are longer than
    # minlen. (The split's edge tokens are empty, so never kept.)
    toks = pc.utf8_split_whitespace(
        pc.replace_substring_regex(norm, BAD_CLASS, ""))
    tok = toks.values
    tok_off = toks.offsets.to_numpy()
    tok_len = pc.utf8_length(tok).to_numpy()
    long = tok_len > 1
    count = _line_sums(long, tok_off)
    joined = _line_sums(np.where(long, tok_len, 0), tok_off) + count - 1
    dense = np.where(count > 0, joined, 0) > minlen
    scored = long & np.repeat(dense, np.diff(tok_off))

    # token validity, as count_errors decides it: ASCII letters, or
    # the regex for the non-ASCII rest. The ſ→s fold keeps lengths
    # and only ever turns a non-ASCII token into a candidate, so it
    # runs on that rest alone.
    valid = scored & pc.ascii_is_alpha(tok).to_numpy(zero_copy_only=False)
    rest_idx = np.flatnonzero(scored & ~valid)
    rest = pc.replace_substring(tok.take(rest_idx), "ſ", "s")
    valid[rest_idx] = pc.match_substring_regex(
        rest, VALID_TOKEN_RE.pattern).to_numpy(zero_copy_only=False)
    if lexicon is not None:
        words = pc.replace_substring(tok.filter(pa.array(valid)), "ſ", "s")
        known = pc.is_in(pc.utf8_lower(words),
                         value_set=pa.array(sorted(lexicon), pa.string()))
        valid[valid] = known.to_numpy(zero_copy_only=False)
    n_words = np.bincount(doc, weights=np.where(dense, count, 0),
                          minlength=n_docs).astype(np.int64)
    n_errs = n_words - np.bincount(
        doc, weights=_line_sums(valid, tok_off),
        minlength=n_docs).astype(np.int64)

    # score_ratio and round3, in their operation order
    hits = n_words - n_errs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.floor(hits / n_words * 100.0 * 1000.0 + 0.5) / 1000.0
    unscored = n_words == 0
    cols = {
        "hit_ratio": np.where(unscored, MISSING_RATIO,
                              np.where(hits > 0, ratio, 0.0)),
        "n_words": n_words,
        "n_errs": n_errs,
        "n_lines_in": n_in,
        "n_wraps": n_wraps,
        "n_shorts": np.bincount(doc[~dense], minlength=n_docs),
        "n_lines_out": np.bincount(doc[dense], minlength=n_docs),
    }
    for name in cols:
        if name != "hit_ratio":
            cols[name] = np.where(unscored, 0, cols[name])
    for i in fallback.tolist():
        rec = estimate_quality(lines[i].as_py(), lexicon, minlen)
        for name, col in cols.items():
            col[i] = rec[name]
    return {name: pa.array(cols[name], typ) for name, typ in QUALITY_FIELDS}
