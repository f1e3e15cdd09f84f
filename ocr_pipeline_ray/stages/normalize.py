"""Text-cleaning batch functions.

Row-local ``map_batches`` functions over a text column (NFC
normalization, homoglyph de-obfuscation, mojibake repair). The
ordered char / regex replacement itself runs inside the compiled
chain (stages/fused.py).
"""

from __future__ import annotations

from typing import Dict

import pyarrow as pa


def nfc_normalize_fn(batch: pa.Table, col: str = "text",
                     out_col: str = "text_nfc") -> pa.Table:
    """Append ``out_col`` = Unicode NFC normalization of ``col``.

    Corpus-cleaning prerequisite for exact dedup / shingling: the
    same page crawled twice can differ only in composed-vs-decomposed
    accents (``e`` + U+0301 vs ``é``), which defeats byte-level
    fingerprints. Semantics are Python ``unicodedata.normalize('NFC')``
    == DuckDB ``nfc_normalize`` (verified; pyarrow's ``utf8_normalize``
    is NOT used — its utf8proc build decomposes instead of composing).

    Scale shape: row-local, no shuffle. The hot path is vectorized via
    an ASCII fast path — ``pc.string_is_ascii`` masks the (dominant on
    web text) pure-ASCII rows, which are NFC by definition and pass
    through zero-copy; only the non-ASCII minority round-trips through
    Python, scattered back with ``replace_with_mask``.
    """
    import unicodedata

    import pyarrow.compute as pc

    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    needs = pc.fill_null(
        pc.and_(pc.is_valid(arr), pc.invert(pc.string_is_ascii(arr))),
        False,
    )
    if pc.any(needs).as_py():
        subset = arr.filter(needs)
        normed = pa.array(
            [unicodedata.normalize("NFC", s) for s in subset.to_pylist()],
            pa.string(),
        )
        out = pc.replace_with_mask(arr, needs, normed)
    else:
        out = arr
    return batch.append_column(out_col, out)


# Cyrillic/Greek homoglyphs of Latin letters — the classic spam/SEO
# obfuscation alphabet (a subset of Unicode TR39 confusables that is
# unambiguous in web text). Keys and values are single code points.
CONFUSABLES = {
    "а": "a", "е": "e", "о": "o", "р": "p",
    "с": "c", "у": "y", "х": "x", "і": "i",
    "ѕ": "s", "ј": "j",  # Cyrillic
    "ο": "o", "α": "a", "ε": "e",  # Greek lowercase
    "А": "A", "Е": "E", "О": "O", "Р": "P",
    "С": "C", "Х": "X",  # Cyrillic capitals
}


def deobfuscate_fn(batch: pa.Table, col: str = "text",
                   out_col: str = "text_clean",
                   table: dict = None) -> pa.Table:
    """Append ``out_col`` = ``col`` with homoglyph code points mapped
    to their Latin targets (spam/SEO de-obfuscation: 'сliсk' with
    Cyrillic с's becomes searchable/dedupable 'click').

    Same shape as :func:`nfc_normalize_fn`: row-local, no shuffle,
    ASCII fast path passes the dominant rows through zero-copy; only
    non-ASCII rows pay the (C-speed) ``str.translate``. Semantics ==
    SQL ``translate(col, from, to)`` over the same pairs.
    """
    import pyarrow.compute as pc

    tbl = CONFUSABLES if table is None else table
    trans = str.maketrans(tbl)
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    needs = pc.fill_null(
        pc.and_(pc.is_valid(arr), pc.invert(pc.string_is_ascii(arr))),
        False,
    )
    if pc.any(needs).as_py():
        subset = arr.filter(needs)
        fixed = pa.array(
            [s.translate(trans) if s is not None else None
             for s in subset.to_pylist()],
            pa.string(),
        )
        out = pc.replace_with_mask(arr, needs, fixed)
    else:
        out = arr
    return batch.append_column(out_col, out)


def _mojibake_table() -> Dict[str, str]:
    """UTF-8-bytes-read-as-cp1252 digraphs → intended codepoints —
    COMPUTED from the targets (``target.utf8 → cp1252 decode``), not
    hand-typed, so every pair is exact by construction; targets whose
    UTF-8 bytes hit cp1252's undefined slots (0x81, 0x8D, 0x8F,
    0x90, 0x9D — e.g. the right double quote) are skipped because
    that mojibake form cannot round-trip through a cp1252 read."""
    targets = [
        "é", "è", "ä", "ö", "ü", "ñ", "ç", "á", "ó", "ú", "ß",
        "’", "‘", "“", "–", "—", "…", "«", "»", "°",
    ]
    table: Dict[str, str] = {}
    for t in targets:
        try:
            moji = t.encode("utf-8").decode("cp1252")
        except UnicodeDecodeError:
            continue
        table[moji] = t
    return table


MOJIBAKE = _mojibake_table()
# canonical apply order: longer digraphs first, then lexicographic —
# deterministic and prefix-safe (shared "â€" prefixes differ in the
# final char; no key is a prefix of another within a length class)
MOJIBAKE_ORDER = sorted(MOJIBAKE, key=lambda k: (-len(k), k))


def fix_mojibake_fn(batch: pa.Table, col: str = "text",
                    out_col: str = "text_fixed") -> pa.Table:
    """Append ``out_col`` = ``col`` with double-encoded UTF-8
    (mojibake) repaired: text that was UTF-8 encoded but read back
    as cp1252 shows 'Ã©' for 'é', 'â€"'-style digraphs for
    punctuation — the classic Common-Crawl encoding pathology. The
    repair is an ordered literal replace chain over
    :data:`MOJIBAKE` (C-speed ``replace_substring`` per pair, the
    M2 replace-chars shape), row-local, no shuffle; semantics ==
    the same chain of SQL ``replace()`` calls in
    :data:`MOJIBAKE_ORDER`."""
    import pyarrow.compute as pc

    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = arr
    for moji in MOJIBAKE_ORDER:
        out = pc.replace_substring(out, moji, MOJIBAKE[moji])
    return batch.append_column(out_col, out)
