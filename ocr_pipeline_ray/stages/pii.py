"""PII redaction: scrub emails / IPv4 addresses / phone numbers.

The standard pre-training hygiene pass over a web-text corpus
(the reference has no analogue — this is part of the engine's wider
training-data workload, like `stages/dedup.py`): replace personally
identifying substrings with typed placeholder tokens and count what
was hit, per document.

Scale shape: pure row-local ``map_batches`` — no shuffle, no state.
Every pattern runs as ONE vectorized RE2 kernel over the whole Arrow
column (``pc.count_substring_regex`` + ``pc.replace_substring_regex``),
never a Python loop over rows. Patterns are written in the RE2 subset
shared by Arrow and DuckDB, so the DuckDB oracle
(`regexp_replace(..., 'g')` / `len(regexp_extract_all(...))`)
reproduces the result exactly.

Patterns are applied IN ORDER, each counting against the text as
already redacted by the previous ones (an email's host can no longer
be hit by the ip rule, etc.) — the order is part of the contract,
mirroring the reference's ordered replacement-table semantics
(`/root/reference/lib/ocr_step.py` StepPostReplaceChars ordering).
"""

from __future__ import annotations

from typing import List, Tuple

import pyarrow as pa
import pyarrow.compute as pc

# (name, RE2 pattern, replacement) — applied in list order.
# RE2-portable: no backrefs, no lookarounds; \b works in both
# Arrow and DuckDB.
PII_PATTERNS: List[Tuple[str, str, str]] = [
    ("email",
     r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ip",
     r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
     "<IP>"),
    ("phone",
     r"\+\d{1,3}[- ]\d{2,4}[- ]\d{3,9}\b",
     "<PHONE>"),
]


def pii_redact_fn(batch: pa.Table, text_col: str = "text",
                  out_col: str = "text_redacted") -> pa.Table:
    """Append ``out_col`` plus per-type hit counts ``n_<name>``.

    One ``count_substring_regex`` + one ``replace_substring_regex``
    per pattern over the whole column — 6 C-level kernel calls per
    batch, zero per-row Python.
    """
    col = pc.fill_null(batch.column(text_col), "")
    out = batch
    for name, pattern, repl in PII_PATTERNS:
        hits = pc.cast(
            pc.count_substring_regex(col, pattern), pa.int64()
        )
        col = pc.replace_substring_regex(col, pattern, repl)
        out = out.append_column(f"n_{name}", hits)
    return out.append_column(out_col, col)


def pii_summary(ds, text_col: str = "text"):
    """Corpus totals: docs touched + hits per PII type (ONE row).

    Map-side partial combine (each block emits one partial row),
    then a single tiny groupby — the no-shuffle aggregate shape used
    throughout `stages/report.py`.
    """
    def _partial(batch: pa.Table) -> pa.Table:
        red = pii_redact_fn(batch.select([text_col]), text_col)
        cols = {"_g": pa.array([0], pa.int64())}
        any_hit = None
        for name, _, _ in PII_PATTERNS:
            c = red.column(f"n_{name}")
            cols[f"n_{name}"] = pa.array(
                [pc.sum(c).as_py() or 0], pa.int64()
            )
            pos = pc.greater(c, 0)
            any_hit = pos if any_hit is None else pc.or_(any_hit, pos)
        cols["n_docs_hit"] = pa.array(
            [pc.sum(pc.cast(any_hit, pa.int64())).as_py() or 0],
            pa.int64(),
        )
        return pa.table(cols)

    from ray.data.aggregate import Sum

    partial = ds.map_batches(_partial, batch_format="pyarrow")
    aggs = [Sum(f"n_{name}") for name, _, _ in PII_PATTERNS]
    aggs.append(Sum("n_docs_hit"))
    out = partial.groupby("_g").aggregate(*aggs)

    def _rename(batch: pa.Table) -> pa.Table:
        names = [
            c[len("sum("):-1] if c.startswith("sum(") else c
            for c in batch.column_names
        ]
        return batch.rename_columns(names).drop_columns(["_g"])

    return out.map_batches(_rename, batch_format="pyarrow")
