"""One-pass table profiler: the ingest data-quality sweep.

Every large-scale ingest starts with "what is in this table" — per
column: row/null counts, min/max, numeric mean and a distinct-count
estimate. The engine computes ALL of it in ONE streaming pass:

* each batch reduces to one tiny partial row PER COLUMN (counts,
  min/max, sum, k-minimum-value hash sketch) inside ``map_batches``;
* the driver merges ``blocks × columns`` partial rows — bounded and
  tiny, the same driver-merge contract as
  ``stages/stats.exact_quantiles`` and the KMV sketch in
  ``queries.q_approx_distinct_tokens``.

No shuffle, no second pass, constant driver memory. Distinct counts
use the md5-based KMV estimator over the CANONICAL string rendering
of values (exactly reproducible in SQL via ``md5(CAST(col AS
VARCHAR))``), so the estimate itself is oracle-checkable bit-for-bit.
Float columns skip the sketch (their string rendering is not
canonical across engines) — profile them via quantiles instead.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

import numpy as np
import pyarrow as pa

_KMV_SPACE = 4294967296.0  # md5[:8] → 32-bit hash space


def _round6(x: float) -> float:
    import math

    return math.floor(x * 1_000_000.0 + 0.5) / 1_000_000.0


def _kmv_hashes(strs: Sequence[str], k: int) -> np.ndarray:
    hs = np.fromiter(
        (int(hashlib.md5(s.encode("utf-8")).hexdigest()[:8], 16)
         for s in strs),
        dtype=np.uint64, count=len(strs),
    )
    return np.unique(hs)[:k]


def kmv_estimate(minima: np.ndarray, k: int) -> float:
    if len(minima) < k:
        return float(len(minima))
    return _round6((k - 1) / (float(minima[-1]) / _KMV_SPACE))


def profile_table(ds, numeric_cols: Sequence[str],
                  string_cols: Sequence[str], kmv_k: int = 64,
                  ) -> pa.Table:
    """Profile ``ds``: one output row per column.

    ``numeric_cols`` must be integer-typed for the distinct sketch
    (canonical rendering); ``string_cols`` are profiled with lexical
    min/max. Returns columns: ``col, n_rows, n_nulls, vmin, vmax,
    mean, smin, smax, n_distinct_kmv``.
    """
    import pyarrow.compute as pc

    cols = list(numeric_cols) + list(string_cols)
    numeric = set(numeric_cols)

    def _partial(batch: pa.Table) -> pa.Table:
        rows: Dict[str, List] = {
            "col": [], "n": [], "nulls": [], "vmin": [], "vmax": [],
            "vsum": [], "smin": [], "smax": [], "kmv": [],
        }
        for c in cols:
            arr = batch.column(c)
            arr = arr.combine_chunks() if isinstance(
                arr, pa.ChunkedArray) else arr
            nulls = arr.null_count
            valid = arr.drop_null()
            rows["col"].append(c)
            rows["n"].append(batch.num_rows)
            rows["nulls"].append(nulls)
            if len(valid) == 0:
                rows["vmin"].append(None)
                rows["vmax"].append(None)
                rows["vsum"].append(None)
                rows["smin"].append(None)
                rows["smax"].append(None)
                rows["kmv"].append([])
                continue
            mm = pc.min_max(valid)
            if c in numeric:
                rows["vmin"].append(float(mm["min"].as_py()))
                rows["vmax"].append(float(mm["max"].as_py()))
                rows["vsum"].append(float(
                    pc.sum(pc.cast(valid, pa.float64())).as_py()))
                rows["smin"].append(None)
                rows["smax"].append(None)
                uniq = [str(v) for v in pc.unique(valid).to_pylist()]
            else:
                rows["vmin"].append(None)
                rows["vmax"].append(None)
                rows["vsum"].append(None)
                rows["smin"].append(mm["min"].as_py())
                rows["smax"].append(mm["max"].as_py())
                uniq = pc.unique(valid).to_pylist()
            rows["kmv"].append(
                _kmv_hashes(uniq, kmv_k).tolist())
        return pa.table({
            "col": pa.array(rows["col"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "nulls": pa.array(rows["nulls"], pa.int64()),
            "vmin": pa.array(rows["vmin"], pa.float64()),
            "vmax": pa.array(rows["vmax"], pa.float64()),
            "vsum": pa.array(rows["vsum"], pa.float64()),
            "smin": pa.array(rows["smin"], pa.string()),
            "smax": pa.array(rows["smax"], pa.string()),
            "kmv": pa.array(rows["kmv"], pa.list_(pa.uint64())),
        })

    partials = ds.select_columns(cols).map_batches(
        _partial, batch_format="pyarrow")

    # driver merge: blocks × columns tiny rows
    acc: Dict[str, dict] = {
        c: {"n": 0, "nulls": 0, "vmin": None, "vmax": None,
            "vsum": 0.0, "any_sum": False, "smin": None, "smax": None,
            "kmv": np.empty(0, dtype=np.uint64)}
        for c in cols
    }
    for b in partials.iter_batches(batch_format="pyarrow"):
        for i in range(b.num_rows):
            c = b.column("col")[i].as_py()
            a = acc[c]
            a["n"] += b.column("n")[i].as_py()
            a["nulls"] += b.column("nulls")[i].as_py()
            for key, pick in (("vmin", min), ("vmax", max),
                              ("smin", min), ("smax", max)):
                v = b.column(key)[i].as_py()
                if v is not None:
                    a[key] = v if a[key] is None else pick(a[key], v)
            s = b.column("vsum")[i].as_py()
            if s is not None:
                a["vsum"] += s
                a["any_sum"] = True
            hs = np.array(b.column("kmv")[i].as_py(), dtype=np.uint64)
            a["kmv"] = np.unique(
                np.concatenate((a["kmv"], hs)))[:kmv_k]

    out = {"col": [], "n_rows": [], "n_nulls": [], "vmin": [],
           "vmax": [], "mean": [], "smin": [], "smax": [],
           "n_distinct_kmv": []}
    for c in cols:
        a = acc[c]
        out["col"].append(c)
        out["n_rows"].append(a["n"])
        out["n_nulls"].append(a["nulls"])
        out["vmin"].append(a["vmin"])
        out["vmax"].append(a["vmax"])
        n_valid = a["n"] - a["nulls"]
        out["mean"].append(
            _round6(a["vsum"] / n_valid)
            if a["any_sum"] and n_valid else None)
        out["smin"].append(a["smin"])
        out["smax"].append(a["smax"])
        out["n_distinct_kmv"].append(kmv_estimate(a["kmv"], kmv_k))
    return pa.table({
        "col": pa.array(out["col"], pa.string()),
        "n_rows": pa.array(out["n_rows"], pa.int64()),
        "n_nulls": pa.array(out["n_nulls"], pa.int64()),
        "vmin": pa.array(out["vmin"], pa.float64()),
        "vmax": pa.array(out["vmax"], pa.float64()),
        "mean": pa.array(out["mean"], pa.float64()),
        "smin": pa.array(out["smin"], pa.string()),
        "smax": pa.array(out["smax"], pa.string()),
        "n_distinct_kmv": pa.array(out["n_distinct_kmv"],
                                   pa.float64()),
    })


def filter_cascade(ds, stages):
    """Filter-funnel ATTRITION audit: run an ordered gate cascade and
    report, per stage, how many rows entered and survived — the
    curation dashboard every production corpus pipeline publishes
    (C4/Gopher/FineWeb all report per-filter attrition; a silent
    cascade is how a bad gate eats a corpus unnoticed).

    ``stages``: ordered ``(name, fn)`` pairs, ``fn(batch) ->``
    boolean ndarray (True = keep). Later gates are only charged for
    rows that survived every earlier gate (first-fail attribution),
    so the numbers compose: ``n_in[i+1] == n_kept[i]``.

    Scale shape: ONE streaming pass — every batch reduces to a
    ``(first_fail_stage, n)`` bincount partial (k+1 rows), a tiny
    groupby sums them, and a single-row-scale finish emits the
    funnel. No shuffle of data rows, no driver materialization.
    """
    from ray.data.aggregate import Sum

    k = len(stages)
    names = [n for n, _ in stages]

    def _partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        first_fail = np.full(n, k, np.int64)
        alive = np.ones(n, dtype=bool)
        for i, (_, fn) in enumerate(stages):
            ok = np.asarray(fn(batch), dtype=bool)
            first_fail[alive & ~ok] = i
            alive &= ok
        counts = np.bincount(first_fail, minlength=k + 1)
        return pa.table({
            "first_fail": pa.array(np.arange(k + 1), pa.int64()),
            "n": pa.array(counts, pa.int64()),
        })

    agg = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "first_fail").aggregate(Sum("n", alias_name="n"))

    def _finish(batch: pa.Table) -> pa.Table:
        cnt = np.zeros(k + 1, np.int64)
        ff = batch.column("first_fail").to_numpy(zero_copy_only=False)
        cnt[ff] = batch.column("n").to_numpy(zero_copy_only=False)
        total = int(cnt.sum())
        fail_before = np.concatenate(([0], np.cumsum(cnt[:k])))
        n_in = total - fail_before[:k]
        n_kept = n_in - cnt[:k]
        return pa.table({
            "stage": pa.array(np.arange(k), pa.int64()),
            "stage_name": pa.array(names, pa.string()),
            "n_in": pa.array(n_in, pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
        })

    return agg.repartition(1).map_batches(
        _finish, batch_format="pyarrow", batch_size=None)


def score_calibration(ds, score_col: str = "logit",
                      label_col: str = "label_true",
                      width: int = 16):
    """Model-calibration audit over a scored corpus — the reliability
    diagram's exact sufficient statistics: fixed-width score bins ×
    (row count, positive-label count, score sum). Downstream the
    observed positive fraction per bin vs the bin's mean score is
    the calibration curve; a quality classifier whose high bins
    aren't enriched in positives is miscalibrated and its threshold
    gate is mislabeling the corpus.

    All-integer output (counts and an int64 score sum) so the oracle
    comparison is bit-exact — no ECE float fold inside the engine.
    ``bin = floor(score / width)`` uses FLOOR division (negative
    scores bin downward, mirroring SQL ``floor(s / w)``), not C
    truncation. Scale shape: one Arrow group_by partial per batch
    (bins × blocks rows enter the shuffle), one tiny groupby.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    w = int(width)

    def _partial(batch: pa.Table) -> pa.Table:
        score = batch.column(score_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        lbl = batch.column(label_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        t = pa.table({
            "bin": pa.array(score // w, pa.int64()),  # floor div
            "pos": pa.array(lbl, pa.int64()),
            "s": pa.array(score, pa.int64()),
            "one": pa.array(np.ones(len(score), np.int64)),
        })
        g = t.group_by(["bin"]).aggregate(
            [("one", "sum"), ("pos", "sum"), ("s", "sum")])
        return pa.table({
            "bin": g.column("bin"),
            "n_docs": pc.cast(g.column("one_sum"), pa.int64()),
            "n_pos": pc.cast(g.column("pos_sum"), pa.int64()),
            "sum_score": pc.cast(g.column("s_sum"), pa.int64()),
        })

    return ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "bin"
    ).aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("n_pos", alias_name="n_pos"),
        Sum("sum_score", alias_name="sum_score"),
    ).sort("bin")
