"""Corpus-level quality report (store_estimations / analyze parity).

Reference: `/root/reference/ocr_pipeline.py:233-269` (``.wtr`` writer:
header ``mean,b1..b5,total,invalid`` + per-doc rows sorted ascending by
ratio) and `lib/ocr_step.py:426-446` (mean + 5-bin histogram with
``min(bins-1, round(ratio // 15))``).

Two modes share the header fold and the row format:

* the ``.wtr`` file, the small-corpus mode: the driver reads the
  narrow :data:`REPORT_COLUMNS` of the written files with pyarrow
  (:func:`read_report`), folds the header and stable-sorts the rows
  (ties keep file order) — no Ray Data execution. It holds those
  rows in driver memory, about 100 B/doc, as the reference's
  ``store_estimations`` holds its whole list;
* the report parts (:func:`write_report_parts`), the at-scale mode:
  the header folds per-block partials inside ``map_batches`` and
  only the narrow report rows go through a distributed ``sort``.

The header mean is exact in both, ``round3(math.fsum(ratios) / n)``:
a block's partial carries its ratio sum as floats whose exact sum is
the exact sum, so the mean does not depend on the block layout.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.text import round3
from ..schema import QUALITY_FIELDS

REPORT_SCHEMA = pa.schema(
    [pa.field("url", pa.string())]
    + [pa.field(name, typ) for name, typ in QUALITY_FIELDS]
)
REPORT_COLUMNS = REPORT_SCHEMA.names

# one .wtr body line, fields in REPORT_COLUMNS order
_WTR_LINE = "{},{:.3f},{},{},{},{},{},{}\n"
# a block's header partial (see _fold)
_FOLD_SCHEMA = pa.schema([
    ("sum_parts", pa.list_(pa.float64())),
    ("n_valid", pa.int64()),
    ("n_invalid", pa.int64()),
    ("bins", pa.list_(pa.int64())),
])


def _valid(batch: pa.Table) -> pa.Table:
    """The scored rows (``hit_ratio`` set and not the -1 sentinel)."""
    col = batch.column("hit_ratio")
    return batch.filter(pc.and_(pc.is_valid(col), pc.not_equal(col, -1.0)))


def _exact_parts(values) -> List[float]:
    """Floats whose exact sum is the exact sum of ``values``: each
    part is the correctly rounded rest left by the parts before it,
    so ``math.fsum`` over the parts of several blocks equals
    ``math.fsum`` over all their values."""
    parts, rest = [], list(values)
    while True:
        part = math.fsum(rest)
        if not part:
            return parts
        parts.append(part)
        rest.append(-part)


def _fold(batch: pa.Table, bins: int, step_bin: int) -> Dict:
    """One block's header partial: exact ratio-sum parts, valid and
    invalid counts, bin counts."""
    ratios = np.asarray(_valid(batch.select(["hit_ratio"]))
                        .column("hit_ratio").combine_chunks())
    # bin = min(bins-1, round(r // step)); r // step is integral, so
    # round() is the identity — exact parity with the reference.
    # Out-of-domain negative ratios (other than the -1 sentinel) wrap
    # like Python list indexing did in the scalar path (bin_counts[-1]
    # == last bin) instead of crashing np.bincount.
    idx = np.minimum((ratios // step_bin).astype(np.int64), bins - 1) % bins
    return {
        "sum_parts": _exact_parts(ratios.tolist()),
        "n_valid": len(ratios),
        "n_invalid": batch.num_rows - len(ratios),
        "bins": np.bincount(idx, minlength=bins).tolist(),
    }


def quality_summary(data, bins: int = 5, step_bin: int = 15) -> Dict[str, float]:
    """Mean/bin/valid-invalid header summary (A1 + A2).

    ``data`` carries a ``hit_ratio`` column; ``-1`` marks unscored
    documents (reference sentinel). A ``pyarrow.Table`` is folded on
    the driver; a Ray Dataset folds one partial per block inside
    ``map_batches`` and the driver merges the few partial rows. Both
    give ``mean = round3(math.fsum(valid ratios) / n_valid)``.
    """
    if isinstance(data, pa.Table):
        folds = [_fold(data, bins, step_bin)]
    else:
        partials = data.select_columns(["hit_ratio"]).map_batches(
            lambda batch: pa.Table.from_pylist(
                [_fold(batch, bins, step_bin)], schema=_FOLD_SCHEMA),
            batch_format="pyarrow")
        folds = [row for batch in partials.iter_batches(
                     batch_format="pyarrow", batch_size=None)
                 for row in batch.to_pylist()]
    n_valid = sum(f["n_valid"] for f in folds)
    n_invalid = sum(f["n_invalid"] for f in folds)
    total = math.fsum(p for f in folds for p in f["sum_parts"])
    summary = {
        "mean": round3(total / n_valid) if n_valid else 0.0,
        "total": n_valid + n_invalid,
        "invalid": n_invalid,
    }
    for i in range(bins):
        summary[f"b{i + 1}"] = sum(f["bins"][i] for f in folds)
    return summary


def read_report(files) -> pa.Table:
    """The :data:`REPORT_COLUMNS` of Parquet ``files``, in file order,
    as one driver-side table (about 100 B/doc)."""
    tables = [pq.read_table(f, columns=REPORT_COLUMNS) for f in files]
    return pa.concat_tables(tables) if tables else REPORT_SCHEMA.empty_table()


def sorted_report(data):
    """Per-doc report rows sorted ascending by ratio (O2 parity).

    Valid docs only (``hit_ratio != -1``), narrowed to
    :data:`REPORT_COLUMNS`. A ``pyarrow.Table`` is sorted on the
    driver with a stable sort, so ties keep input order; a Ray
    Dataset goes through the global ``sort`` (only the narrow report
    columns shuffle).
    """
    if isinstance(data, pa.Table):
        rows = _valid(data.select(REPORT_COLUMNS))
        return rows.take(pc.sort_indices(
            rows, sort_keys=[("hit_ratio", "ascending")]))
    return (
        data.select_columns(REPORT_COLUMNS)
        .map_batches(_valid, batch_format="pyarrow")
        .sort("hit_ratio")
    )


def _wtr_header(summary: Dict) -> str:
    return (f"{summary['mean']},{summary['b1']},{summary['b2']},"
            f"{summary['b3']},{summary['b4']},{summary['b5']},"
            f"{summary['total']},{summary['invalid']}\n")


def stream_wtr(path: str, summary: Dict, sorted_rows: pa.Table,
               batch_size: int = 65536) -> str:
    """Single-file ``.wtr`` from a driver-side table of SORTED report
    rows (:func:`sorted_report` of :func:`read_report`).

    Formats ``batch_size`` rows at a time from per-column lists, so
    only the narrow report table (about 100 B/doc) plus one chunk of
    text sit in driver memory. Byte-identical to the row-at-a-time
    writer in ``tests/replicas.py`` over the same rows.
    """
    with open(path, "w", encoding="UTF-8") as outfile:
        outfile.write(_wtr_header(summary))
        for chunk in sorted_rows.select(REPORT_COLUMNS).to_batches(
                max_chunksize=batch_size):
            outfile.write("".join(map(
                _WTR_LINE.format,
                *(col.to_pylist() for col in chunk.columns))))
        outfile.write("\n")
    return path


def write_report_parts(out_dir: str, summary: Dict, sorted_ds) -> str:
    """Partitioned report — the 10^12-doc mode of S5.

    The single-file ``.wtr`` cannot scale past a small corpus (one
    global text file); here the sorted per-doc rows are written as
    parquet PARTS from the workers (Ray names output files by
    ascending task/block index, so lexicographic filename order ==
    global ascending-ratio order) plus a tiny ``_summary.json``
    holding the header aggregate. Reading the parts in filename order
    streams the rows back in order; the ``.wtr`` file stays available
    as the small-corpus mode (`/root/reference/ocr_pipeline.py:233-269`).
    """
    import glob
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    # a re-run must REPLACE the report: leftover part files from a
    # previous run would interleave into the streamed row order.
    # Remove ONLY the report's own artifacts (never rmtree a
    # caller-supplied directory that may hold other outputs), and
    # raise on failure rather than silently keeping stale parts.
    for stale in glob.glob(os.path.join(out_dir, "*.parquet")):
        os.remove(stale)
    summary_path = os.path.join(out_dir, "_summary.json")
    if os.path.exists(summary_path):
        os.remove(summary_path)
    with open(os.path.join(out_dir, "_summary.json"), "w",
              encoding="UTF-8") as fh:
        json.dump(summary, fh, sort_keys=True)
    sorted_ds.write_parquet(out_dir)
    return out_dir
