"""Row-at-a-time replicas the vectorized operators are pinned against.

Each function here restates, one row or one token at a time, what a
package operator computes over whole batches: the reference's
``textlines2data`` / ``analyze`` / line-center math, the ``.wtr``
writer that ``stages.report.stream_wtr`` must match byte for byte,
the sequential BPE trainer, the Count-Min point reader and the corpus merge of ``repl_stats``. The
package ships only the batch paths; the tests compare the two.
"""

import glob
import hashlib
import json
import os
import sys
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.cloudpickle

from ocr_pipeline_ray.functions.text import (
    round3,
    sanitize_chars,
    sanitize_wraps,
)
from ocr_pipeline_ray.stages.bpe import _merge_word, _word_symbols
from ocr_pipeline_ray.stages.report import (
    _WTR_LINE,
    REPORT_COLUMNS,
    _wtr_header,
)

# Ray workers do not have tests/ on their path, so the functions of
# this module that run in Ray tasks travel by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


def textlines2data(
    line_texts: Sequence[str], minlen: int = 2
) -> Tuple[str, int, int, int, int]:
    """Lines → QA word-string + counts (lib/ocr_step.py:449-469).

    Returns ``(word_string, n_lines, n_wraps, n_shorts, n_dense)``
    where word_string joins the dense (len > minlen after
    sanitization) lines with single spaces.
    """
    non_empty = [t for t in line_texts if len(t) > 0]
    normalized, n_normalized = sanitize_wraps(non_empty)
    filtered = sanitize_chars(normalized)
    n_sparse = 0
    dense: List[str] = []
    for filtered_line in filtered:
        if len(filtered_line) > minlen:
            dense.append(filtered_line)
        else:
            n_sparse += 1
    file_string = " ".join(dense)
    return (file_string, len(line_texts), n_normalized, n_sparse, len(dense))


def analyze(
    ratios: Sequence[float], bins: int = 5, step_bin: int = 15
) -> Tuple[float, List[int]]:
    """Corpus mean + histogram binning (lib/ocr_step.py:426-446).

    Bin index = ``round(ratio // step_bin)`` clamped to ``bins - 1``
    (so every ratio >= (bins-1)*step_bin lands in the last bin).
    Returns ``(mean, [count_per_bin])``; mean uses :func:`round3`.
    """
    if not ratios:
        return (0.0, [0] * bins)
    mean = round3(sum(ratios) / len(ratios))
    bin_counts = [0] * bins
    for ratio in ratios:
        target_bin = round(ratio // step_bin)
        if target_bin >= bins:
            target_bin = bins - 1
        bin_counts[int(target_bin)] += 1
    return (mean, bin_counts)


def line_center(hpos: int, vpos: int, width: int, height: int,
                vertical: bool = False) -> float:
    """Center coordinate of a line box — x unless ``vertical``.

    The engine's analogue of coords_center/to_center_coords
    (lib/ocr_model.py:181-200) over the synthesized rectangular
    geometry: mean of the 4 corner points.
    """
    return (vpos + height / 2.0) if vertical else (hpos + width / 2.0)


def write_wtr(path: str, summary: Dict, report_rows) -> str:
    """Write the ``.wtr``-style report file (S5 parity format).

    ``report_rows``: iterable of dicts in ascending-ratio order (e.g.
    the rows of :func:`iter_report_parts`).
    Timestamped naming is the CALLER's job (timestamps come from the
    driver, never from inside workflow tasks).
    """
    with open(path, "w", encoding="UTF-8") as outfile:
        outfile.write(_wtr_header(summary))
        for row in report_rows:
            outfile.write(_WTR_LINE.format(*(row[c] for c in REPORT_COLUMNS)))
        outfile.write("\n")
    return path


def iter_report_parts(out_dir: str):
    """(summary, row-iterator) from a ``stages.report.write_report_parts`` dir —
    rows stream back in global ascending-ratio order."""
    with open(os.path.join(out_dir, "_summary.json"),
              encoding="UTF-8") as fh:
        summary = json.load(fh)

    def _rows():
        for part in sorted(glob.glob(os.path.join(out_dir, "*.parquet"))):
            pf = pq.ParquetFile(part)
            for batch in pf.iter_batches():
                yield from batch.to_pylist()

    return summary, _rows()


def bpe_reference(word_counts: Dict[str, int], n_merges: int,
                  min_count: int = 2) -> List[Tuple[str, str, int]]:
    """Sequential reference trainer (tests pin the engine to this)."""
    vocab = {w: (_word_symbols(w), c) for w, c in word_counts.items()
             if w}
    merges: List[Tuple[str, str, int]] = []
    for _ in range(n_merges):
        counts: Counter = Counter()
        for syms, c in vocab.values():
            for i in range(len(syms) - 1):
                counts[(syms[i], syms[i + 1])] += c
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), n = best
        if n < min_count:
            break
        merges.append((a, b, n))
        vocab = {w: (_merge_word(s, a, b), c)
                 for w, (s, c) in vocab.items()}
    return merges


def cms_estimate(sketch: pa.Table, tokens, width: int = 1024,
                 depth: int = 4) -> "pa.Table":
    """Point-estimate token counts from a materialized (tiny)
    ``stages.stats.cms_sketch`` table: ``min_r counter[r][h_r(token)]``.
    Driver-side by design — the sketch is depth*width counters."""
    mat = np.zeros((depth, width), dtype=np.int64)
    mat[sketch.column("r").to_numpy(zero_copy_only=False),
        sketch.column("b").to_numpy(zero_copy_only=False)] = \
        sketch.column("c").to_numpy(zero_copy_only=False)
    ests = []
    for t in tokens:
        d = hashlib.md5(t.encode("utf-8")).hexdigest()
        ests.append(int(min(
            mat[r][int(d[8 * r:8 * r + 8], 16) % width]
            for r in range(depth))))
    return pa.table({
        "token": pa.array(list(tokens), pa.string()),
        "est": pa.array(ests, pa.int64()),
    })


def merge_repl_stats(ds) -> Dict[str, int]:
    """Corpus-level replacement-statistic merge (A3).

    Pre-aggregates per batch (partial combine inside ``map_batches``)
    so the driver-side merge touches one tiny dict per block — no
    all-to-all shuffle for what is a handful of keys.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        counts: Dict[str, int] = {}
        for stats in batch.column("repl_stats").to_pylist():
            for key, val in (stats or []):
                counts[key] = counts.get(key, 0) + val
        return pa.table(
            {
                "key": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    partials = ds.select_columns(["repl_stats"]).map_batches(
        _partial, batch_format="pyarrow"
    )
    merged: Dict[str, int] = {}
    for row in partials.iter_rows():
        merged[row["key"]] = merged.get(row["key"], 0) + row["n"]
    return merged
