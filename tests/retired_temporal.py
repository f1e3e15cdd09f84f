"""Temporal operators with no product caller, kept here with their tests.

Sessionization, running sums, peak concurrency, frame windows,
interval union, funnels, transitions, rate bursts, watermark windows,
rolling percentiles and linear attribution over keyed, ordered rows.
They use the bucketed layout of ``ocr_pipeline_ray.stages.temporal``
(ONE shuffle by ``bucket_ids(key) % n_buckets``, then an Arrow sort and
numpy segment math per whole bucket). No CLI flag, query or script
calls them, so they live beside the tests that pin them.
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.cloudpickle

from ocr_pipeline_ray.stages.temporal import _bucket_by

# Ray workers do not have tests/ on their path, so the functions of
# this module that run in Ray tasks travel by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _round6(x: float) -> float:
    return math.floor(x * 1000000.0 + 0.5) / 1000000.0


def sessionize(ds, user_col: str = "user_id", ts_col: str = "ts",
               value_col: str = "value", order_col: str = "event_id",
               gap_minutes: float = 30.0, n_buckets: int = 64):
    """Gap-based sessions per user (one row per session).

    A new session starts at a user's first event and whenever the gap
    to the previous event exceeds ``gap_minutes`` (strictly). Output:
    ``(user_id, session_start, n_events, sum_value, duration_us)``.
    Events within a user are ordered by ``(ts, order_col)`` so ties
    are deterministic.
    """
    gap_us = int(gap_minutes * 60 * 1_000_000)

    def _sessions(group: pa.Table) -> pa.Table:
        empty = pa.table({
            user_col: pa.array([], pa.int64()),
            "session_start": pa.array([], pa.timestamp("us")),
            "n_events": pa.array([], pa.int64()),
            "sum_value": pa.array([], pa.float64()),
            "duration_us": pa.array([], pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        g = group.sort_by([(user_col, "ascending"), (ts_col, "ascending"),
                           (order_col, "ascending")])
        users = g.column(user_col).combine_chunks().to_numpy()
        ts = g.column(ts_col).combine_chunks().to_numpy().astype(
            "datetime64[us]"
        ).view(np.int64)
        vals = g.column(value_col).combine_chunks().to_numpy()
        n = len(users)
        brk = np.ones(n, dtype=bool)
        if n > 1:
            same_user = users[1:] == users[:-1]
            small_gap = (ts[1:] - ts[:-1]) <= gap_us
            brk[1:] = ~(same_user & small_gap)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], n)
        sums = np.add.reduceat(vals, starts)
        return pa.table({
            user_col: pa.array(users[starts], pa.int64()),
            "session_start": pa.array(
                ts[starts].view("datetime64[us]"), pa.timestamp("us")
            ),
            "n_events": pa.array(ends - starts, pa.int64()),
            "sum_value": pa.array(
                [_round6(s) for s in sums], pa.float64()
            ),
            "duration_us": pa.array(
                ts[ends - 1] - ts[starts], pa.int64()
            ),
        })

    bucketed = _bucket_by(
        ds.select_columns([user_col, ts_col, value_col, order_col]),
        user_col, n_buckets,
    )
    return bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(
        _sessions, batch_format="pyarrow"
    )


def grouped_running_sum(ds, key_col: str, order_cols: List[str],
                        val_col: str, out_col: str = "running",
                        n_buckets: int = 64):
    """Cumulative per-key running total — the SQL window
    ``SUM(val) OVER (PARTITION BY key ORDER BY order_cols)`` with a
    UNIQUE ordering (pass a tiebreaker in ``order_cols`` so ROWS and
    RANGE frames coincide).

    Standard skew-safe layout: ONE hash shuffle by
    ``bucket_ids(key)``, then per-bucket Arrow sort by
    ``(key, *order_cols)`` + a per-SEGMENT numpy cumsum (Python loop
    count = keys per bucket, not rows — the as-of probe precedent).
    The cumsum restarts at every key, so float error is
    ulp(per-key prefix) ~1e-10 — a bucket-global cumsum difference
    would instead carry ulp(bucket prefix) error that grows past the
    1e-6 grid once a bucket holds a few thousand rows. Output =
    input rows + ``out_col`` (``_round6`` grid).
    """
    from ocr_pipeline_ray.functions.segments import key_segments

    def _cum(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_kbucket"])
        if group.num_rows == 0:
            return base.append_column(
                out_col, pa.array([], pa.float64())
            )
        sort_keys = [(key_col, "ascending")] + [
            (c, "ascending") for c in order_cols
        ]
        g = base.sort_by(sort_keys)
        keys = g.column(key_col).combine_chunks().to_numpy(
            zero_copy_only=False
        )
        vals = g.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        seg_start, seg_len = key_segments(keys)
        running = np.empty_like(vals)
        for s, ln in zip(seg_start, seg_len):
            running[s:s + ln] = np.cumsum(vals[s:s + ln])
        running = np.floor(running * 1000000.0 + 0.5) / 1000000.0
        return g.append_column(
            out_col, pa.array(running, pa.float64())
        )

    bucketed = _bucket_by(ds, key_col, n_buckets)
    return bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(
        _cum, batch_format="pyarrow"
    )


def peak_concurrency(ds, start_col: str = "session_start",
                     dur_col: str = "duration_us",
                     band_minutes: int = 60, n_buckets: int = 64):
    """Maximum number of simultaneously-active intervals — the
    sweepline operator ("peak concurrent sessions"), distributed as
    a banded prefix sum (the `stages/pack.sequence_packing` shape):

    1. each interval emits (+1 at start, -1 at end+1µs) delta
       events, banded by ``t // band``; one band-hash shuffle.
    2. each whole-band UDF sorts its deltas by ``(t, delta)`` (-1
       before +1 at equal t: an interval ending at e never overlaps
       one starting at e+1) and reports ``(band, band_sum,
       band_max)`` — the running-sum max WITHIN the band.
    3. the driver prefix-sums band totals in band order (bands-scale
       state, never events) — peak = max(prefix_before + band_max).

    Intervals are inclusive ``[start, start + dur]``. Returns a
    one-row table ``(peak,)``; empty input -> 0. Band width trades
    shuffle fan-out against per-band sort size; correctness is
    band-width-invariant (pinned by tests).
    """
    import numpy as np
    import pyarrow.compute as pc

    from ocr_pipeline_ray.functions.hashing import bucket_ids

    band_us = int(band_minutes) * 60 * 1_000_000

    def _events(batch: pa.Table) -> pa.Table:
        st = pc.cast(batch.column(start_col),
                     pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        dur = batch.column(dur_col).to_numpy(zero_copy_only=False)
        t = np.concatenate([st, st + dur + 1])
        delta = np.concatenate([
            np.ones(len(st), dtype=np.int64),
            -np.ones(len(st), dtype=np.int64)])
        band = t // band_us
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(pa.array(band, pa.int64()), n_buckets),
                pa.int64()),
            "band": pa.array(band, pa.int64()),
            "t": pa.array(t, pa.int64()),
            "delta": pa.array(delta, pa.int64()),
        })

    def _band_partials(group: pa.Table) -> pa.Table:
        band = group.column("band").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        d = group.column("delta").to_numpy(zero_copy_only=False)
        # one bucket may hold several bands: segment by band after
        # one lexsort ((t, delta) within band; delta asc = -1 first)
        order = np.lexsort((d, t, band))
        band, t, d = band[order], t[order], d[order]
        run = np.cumsum(d)
        seg = np.ones(len(band), dtype=bool)
        seg[1:] = band[1:] != band[:-1]
        starts = np.flatnonzero(seg)
        ends = np.concatenate([starts[1:], [len(band)]])
        sums, maxes = [], []
        for s0, e0 in zip(starts, ends):
            seg_run = run[s0:e0] - (run[s0 - 1] if s0 else 0)
            sums.append(int(seg_run[-1]))
            maxes.append(int(seg_run.max()))
        return pa.table({
            "band": pa.array(band[starts], pa.int64()),
            "band_sum": pa.array(sums, pa.int64()),
            "band_max": pa.array(maxes, pa.int64()),
        })

    partials = ds.map_batches(_events, batch_format="pyarrow").groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_band_partials, batch_format="pyarrow")

    rows = [b for b in partials.iter_batches(batch_format="pyarrow",
                                             batch_size=None)
            if b.num_rows]
    if not rows:
        return pa.table({"peak": pa.array([0], pa.int64())})
    tbl = pa.concat_tables(rows).sort_by([("band", "ascending")])
    sums = tbl.column("band_sum").to_numpy(zero_copy_only=False)
    maxes = tbl.column("band_max").to_numpy(zero_copy_only=False)
    prefix = np.concatenate([[0], np.cumsum(sums)[:-1]])
    return pa.table({
        "peak": pa.array([int((prefix + maxes).max())], pa.int64()),
    })


def frame_window(ds, key_col: str, order_cols: List[str],
                 val_col: str, preceding: int = 3,
                 n_buckets: int = 64):
    """Positional (ROWS) frame windows per key, one row per input
    row: ``SUM(val) OVER (PARTITION BY key ORDER BY order_cols ROWS
    BETWEEN preceding PRECEDING AND CURRENT ROW)`` as ``win_sum``
    plus ``LEAD(val)`` as ``lead_val`` (NULL at each partition's last
    row). The frame counts rows, not values, over raw rows.

    ``val_col`` must be int64 so the frame sums are order-free and
    the DuckDB twin is bit-exact. Standard skew-safe layout: ONE
    key-hash shuffle, then per whole bucket a single Arrow sort by
    ``(key, *order_cols)`` and fully-vectorized frame math — a global
    int64 cumsum with per-segment clamp (``win = csum[i] -
    csum[frame_lo - 1]``), no per-key loop at all.
    """
    from ocr_pipeline_ray.functions.segments import key_segments

    def _frames(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_kbucket"])
        if base.num_rows == 0:
            return base.append_column(
                "win_sum", pa.array([], pa.int64())
            ).append_column("lead_val", pa.array([], pa.int64()))
        sort_keys = [(key_col, "ascending")] + [
            (c, "ascending") for c in order_cols]
        g = base.sort_by(sort_keys)
        keys = g.column(key_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        vals = g.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = len(vals)
        seg_start, seg_len = key_segments(keys)
        row_seg_start = np.repeat(seg_start, seg_len)
        pos = np.arange(n, dtype=np.int64) - row_seg_start
        lo = np.arange(n, dtype=np.int64) - np.minimum(pos, preceding)
        csum = np.cumsum(vals)
        win = csum - np.where(lo > 0, csum[np.maximum(lo - 1, 0)], 0)
        seg_end = row_seg_start + np.repeat(seg_len, seg_len)
        has_next = np.arange(n, dtype=np.int64) + 1 < seg_end
        lead = np.empty(n, np.int64)
        lead[:-1] = vals[1:]
        lead[-1] = 0
        return g.append_column(
            "win_sum", pa.array(win, pa.int64())
        ).append_column(
            "lead_val", pa.array(lead, pa.int64(),
                                 mask=~has_next))

    bucketed = _bucket_by(ds, key_col, n_buckets)
    return bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_frames, batch_format="pyarrow")


def interval_union(ds, key_col: str, start_col: str, end_col: str,
                   n_buckets: int = 64):
    """Merge overlapping-or-touching intervals per key into maximal
    disjoint islands (the gaps-and-islands operator: downtime
    merging, session coverage, claim-window consolidation). Output:
    one row per island ``(key, start, end)``.

    An interval joins the current island when its start is <= the
    running max of previous ends within the key (strictly-greater
    starts open a new island) — exactly the SQL window idiom
    ``s > max(e) OVER (... ROWS ... 1 PRECEDING)``.

    Layout: ONE hash shuffle by ``bucket_ids(key)``; per-bucket
    Arrow sort by ``(key, start, end)``, then per-SEGMENT
    ``np.maximum.accumulate`` over ends (loop count = keys per
    bucket, not rows — the `grouped_running_sum` precedent) and
    ``maximum.reduceat`` to collapse islands. All int64; no
    arithmetic on the bounds, so they pass through bit-exact.
    """
    from ocr_pipeline_ray.functions.segments import key_segments

    def _merge(group: pa.Table) -> pa.Table:
        base = group.drop_columns(["_kbucket"])
        if group.num_rows == 0:
            return base
        g = base.sort_by([(key_col, "ascending"),
                          (start_col, "ascending"),
                          (end_col, "ascending")])
        keys = g.column(key_col).combine_chunks()
        s = g.column(start_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        e = g.column(end_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        seg_start, seg_len = key_segments(
            keys.to_numpy(zero_copy_only=False))
        n = len(s)
        new_island = np.zeros(n, dtype=bool)
        cm = np.empty(n, dtype=e.dtype)
        for st, ln in zip(seg_start, seg_len):
            cm[st:st + ln] = np.maximum.accumulate(e[st:st + ln])
            new_island[st] = True
            if ln > 1:
                new_island[st + 1:st + ln] = (
                    s[st + 1:st + ln] > cm[st:st + ln - 1])
        isl_start = np.flatnonzero(new_island)
        merged_end = np.maximum.reduceat(e, isl_start)
        idx = pa.array(isl_start, pa.int64())
        return pa.table({
            key_col: keys.take(idx),
            start_col: g.column(start_col).combine_chunks().take(idx),
            end_col: pa.array(merged_end,
                              g.schema.field(end_col).type),
        })

    bucketed = _bucket_by(ds, key_col, n_buckets)
    return bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_merge, batch_format="pyarrow")


def funnel_counts(ds, steps: List[str], user_col: str = "user_id",
                  ts_col: str = "ts", type_col: str = "event_type",
                  n_buckets: int = 64,
                  within_hours: Optional[float] = None):
    """Ordered funnel analysis: how many users completed each PREFIX
    of ``steps`` in order (each step strictly after the previous
    step's first occurrence — the classic min-time funnel). Returns
    one row per step: ``(step_index, step, n_users)``.

    ``within_hours`` additionally bounds each conversion: step i+1
    must land at most that long after step i's first occurrence (the
    windowed-funnel variant — "purchased within 24h of the click").

    ONE user-hash shuffle; inside each whole-bucket UDF the per-user
    scan is vectorized per STEP, not per user: for every step, the
    first qualifying timestamp per user segment comes from one
    ``np.minimum.reduceat``-style fold over the masked (ts > prev
    step time) rows; a user that lacks the step gets +inf and drops
    out of all later prefixes. Python loop count = len(steps), never
    users. The driver folds per-bucket count partials (steps-scale).
    """

    def _bucket_fn(group: pa.Table) -> pa.Table:
        from ocr_pipeline_ray.functions.segments import key_segments

        empty = pa.table({
            "step_index": pa.array([], pa.int64()),
            "n_users": pa.array([], pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        g = group.sort_by([(user_col, "ascending"),
                           (ts_col, "ascending")])
        users = g.column(user_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        ts = g.column(ts_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(
            np.int64)
        types = g.column(type_col).combine_chunks()
        seg_start, seg_len = key_segments(users)
        n_users = len(seg_start)
        seg_id = np.repeat(np.arange(n_users), seg_len)
        INF = np.iinfo(np.int64).max
        prev = np.full(n_users, -1, dtype=np.int64)  # ts of last hit
        counts = []
        for si, step in enumerate(steps):
            import pyarrow.compute as pc

            mask = pc.equal(types, step).to_numpy(
                zero_copy_only=False)
            mask = np.asarray(mask, dtype=bool)
            # qualifying rows: right type AND strictly after the
            # user's previous-step time AND user still in the funnel
            ok = mask & (ts > prev[seg_id]) & (prev[seg_id] != INF)
            if within_hours is not None and si > 0:
                bound = int(within_hours * 3_600_000_000)
                ok &= ts <= prev[seg_id] + bound
            cur = np.full(n_users, INF, dtype=np.int64)
            idx = np.flatnonzero(ok)
            if len(idx):
                # first qualifying ts per user: reverse minimum fold
                np.minimum.at(cur, seg_id[idx], ts[idx])
            prev = cur
            counts.append(int((cur != INF).sum()))
        return pa.table({
            "step_index": pa.array(list(range(len(steps))),
                                   pa.int64()),
            "n_users": pa.array(counts, pa.int64()),
        })

    bucketed = _bucket_by(
        ds.select_columns([user_col, ts_col, type_col]),
        user_col, n_buckets)
    partials = bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_bucket_fn, batch_format="pyarrow")

    totals = [0] * len(steps)
    for b in partials.iter_batches(batch_format="pyarrow",
                                   batch_size=None):
        for i, n in zip(b.column("step_index").to_pylist(),
                        b.column("n_users").to_pylist()):
            totals[i] += n
    return pa.table({
        "step_index": pa.array(list(range(len(steps))), pa.int64()),
        "step": pa.array(list(steps), pa.string()),
        "n_users": pa.array(totals, pa.int64()),
    })


def event_transitions(ds, user_col: str = "user_id", ts_col: str = "ts",
                      type_col: str = "event_type",
                      order_col: str = "event_id", n_buckets: int = 64):
    """Markov transition counts over per-user event trails: for every
    consecutive event pair within a user (ordered by ``(ts,
    order_col)``), count global ``(src_type, dst_type)`` occurrences
    — the behavioral transition matrix (the LEAD window folded into
    a pair aggregate).

    Shape: ONE user-hash-bucket co-shuffle (users never split across
    buckets, so no pair crosses a boundary), then per whole bucket a
    single Arrow sort + boundary-mask adjacency and an in-bucket
    Arrow ``group_by`` partial — the shuffle carries raw events once
    and the final exchange carries only ``types² × buckets`` partial
    rows. All counts int64 → the DuckDB ``lead() OVER`` twin is
    bit-exact.
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    def _pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "src_type": pa.array([], pa.string()),
            "dst_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        })
        if group.num_rows < 2:
            return empty
        g = group.sort_by([(user_col, "ascending"),
                           (ts_col, "ascending"),
                           (order_col, "ascending")])
        users = g.column(user_col).combine_chunks().to_numpy()
        same = pa.array(users[1:] == users[:-1])
        types = g.column(type_col).combine_chunks()
        src = types.slice(0, len(types) - 1).filter(same)
        if len(src) == 0:
            return empty
        dst = types.slice(1).filter(same)
        part = pa.table({"src_type": src, "dst_type": dst}).group_by(
            ["src_type", "dst_type"]
        ).aggregate([([], "count_all")])
        return pa.table({
            "src_type": part.column("src_type"),
            "dst_type": part.column("dst_type"),
            "n": pc.cast(part.column("count_all"), pa.int64()),
        })

    bucketed = _bucket_by(
        ds.select_columns([user_col, ts_col, order_col, type_col]),
        user_col, n_buckets,
    )
    partials = bucketed.groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_pairs, batch_format="pyarrow")
    agg = partials.groupby(["src_type", "dst_type"]).aggregate(Sum("n"))

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src_type": batch.column("src_type"),
            "dst_type": batch.column("dst_type"),
            "n": pc.cast(batch.column("sum(n)"), pa.int64()),
        })

    return agg.map_batches(_rename, batch_format="pyarrow")


def rate_bursts(ds, key_col: str = "event_type", ts_col: str = "ts",
                z: int = 2, n_buckets: int = 32):
    """Per-key traffic-rate BURST detection over hourly counts — the
    crawl-ops anomaly signal (a host or event type suddenly emitting
    far above its own baseline: scraper storms, bot floods, recrawl
    loops). A bucketed hour counts as a burst when its count sits
    more than ``z`` standard deviations ABOVE the key's own mean
    hourly rate.

    Exactness contract: the z-test is evaluated as an ALL-INTEGER
    predicate — with per-key hour count ``H``, sum ``S``, sum of
    squares ``S2`` and an hour's count ``c``::

        burst(c)  ⇔  c·H − S > 0  and  (c·H − S)² > z²·(H·S2 − S²)

    (the ``z·σ`` inequality multiplied through by ``H²`` — no sqrt,
    no division, no float), computed in Python ints so it cannot
    overflow; DuckDB mirrors it in HUGEINT. Scale shape: map-side
    Arrow (key, hour) partials → ONE tiny groupby (keys × hours
    rows) → one key-hash co-shuffle of the counts table with
    whole-bucket per-key folds — raw events never shuffle twice.

    Output: ``(key_col, n_hours, n_bursts, max_n)`` sorted by key.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            key_col: batch.column(key_col),
            "hour": pc.floor_temporal(batch.column(ts_col),
                                      unit="hour"),
        })
        g = t.group_by([key_col, "hour"]).aggregate([([], "count_all")])
        return pa.table({
            key_col: g.column(key_col),
            "hour": g.column("hour"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })

    counts = ds.select_columns([key_col, ts_col]).map_batches(
        _partial, batch_format="pyarrow"
    ).groupby([key_col, "hour"]).aggregate(Sum("n", alias_name="n"))

    def _fold(group: pa.Table) -> pa.Table:
        # output key type follows the input (string hosts, int64
        # user ids, ... — key_col is generic)
        key_type = (group.schema.field(key_col).type
                    if key_col in group.schema.names else pa.string())
        empty = pa.table({
            key_col: pa.array([], key_type),
            "n_hours": pa.array([], pa.int64()),
            "n_bursts": pa.array([], pa.int64()),
            "max_n": pa.array([], pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        g = group.sort_by([(key_col, "ascending")])
        keys = g.column(key_col).combine_chunks()
        cnts = g.column("n").combine_chunks().to_numpy(
            zero_copy_only=False)
        n = len(cnts)
        first = np.ones(n, dtype=bool)
        if n > 1:
            k_np = keys.to_numpy(zero_copy_only=False)
            first[1:] = k_np[1:] != k_np[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n)
        out_k, out_h, out_b, out_m = [], [], [], []
        zz = int(z) * int(z)
        for s, e in zip(starts.tolist(), ends.tolist()):
            seg = [int(c) for c in cnts[s:e]]  # Python ints: exact
            H, S = len(seg), sum(seg)
            S2 = sum(c * c for c in seg)
            var_h2 = H * S2 - S * S            # H² · variance
            bursts = sum(
                1 for c in seg
                if c * H - S > 0 and (c * H - S) ** 2 > zz * var_h2
            )
            out_k.append(keys[s].as_py())
            out_h.append(H)
            out_b.append(bursts)
            out_m.append(max(seg))
        return pa.table({
            key_col: pa.array(out_k, key_type),
            "n_hours": pa.array(out_h, pa.int64()),
            "n_bursts": pa.array(out_b, pa.int64()),
            "max_n": pa.array(out_m, pa.int64()),
        })

    return _bucket_by(counts, key_col, n_buckets).groupby(
        "_kbucket", num_partitions=n_buckets
    ).map_groups(_fold, batch_format="pyarrow").sort(key_col)


def watermark_windows(ds, lateness_us: int,
                      id_col: str = "event_id", ts_col: str = "ts",
                      key_col: str = "event_type",
                      band_width: int = 1024,
                      n_buckets: int = 64):
    """Event-time tumbling windows with STREAMING watermark
    semantics: the watermark at arrival position i (arrival order =
    ``id_col``) is ``max(ts[0..i-1]) − lateness``; an event whose
    event time has already fallen behind it is LATE (a stream
    processor would drop or side-output it). Emits per
    ``(hour, key)`` window the on-time and late counts — the batch
    replay of watermark windowing, bit-exact vs the running-max
    window SQL twin.

    Scale shape — the distributed RUNNING-MAX PREFIX
    (`peak_concurrency`'s banded prefix-sum shape):

    1. one streaming map pass reduces each block to per-band max-ts
       partials (bands = ``id // band_width``); the driver folds the
       bands-scale table into an EXCLUSIVE prefix max per band —
       never sees events.
    2. one band-hash co-shuffle; each whole band sorts by arrival
       id, runs a vectorized cummax seeded with its band's prefix,
       flags late rows, and pre-aggregates to
       ``(hour, key, on_time, late)`` partials.
    3. one tiny groupby merges band partials.
    """
    import ray.data
    from ray.data.aggregate import Sum

    from ocr_pipeline_ray.functions.hashing import bucket_ids

    if lateness_us < 0:
        raise ValueError("watermark_windows: negative lateness")

    def _band_max(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = pc.cast(batch.column(ts_col), pa.int64()
                     ).combine_chunks().to_numpy(
            zero_copy_only=False)
        band = ids // band_width
        agg = pa.table({"band": pa.array(band, pa.int64()),
                        "mx": pa.array(ts, pa.int64())}).group_by(
            ["band"]).aggregate([("mx", "max")])
        return pa.table({"band": agg.column("band"),
                         "mx": agg.column("mx_max")})

    parts = ds.map_batches(
        _band_max, batch_format="pyarrow").to_arrow_refs()
    import ray as _ray

    folded: dict = {}
    for ref in parts:
        t = _ray.get(ref)
        for b, m in zip(t.column("band").to_pylist(),
                        t.column("mx").to_pylist()):
            if m is not None and (b not in folded or m > folded[b]):
                folded[b] = m
    bands_sorted = sorted(folded)
    prefix_before: dict = {}
    run = None
    for b in bands_sorted:
        prefix_before[b] = run
        run = folded[b] if run is None else max(run, folded[b])

    def _tag(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        band = ids // band_width
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(pa.array(band, pa.int64()), n_buckets),
                pa.int64()),
            "band": pa.array(band, pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "ts_us": pc.cast(pc.cast(batch.column(ts_col),
                                     pa.timestamp("us")), pa.int64()),
            key_col: batch.column(key_col),
        })

    hour_us = 3_600_000_000

    def _bucket_windows(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "hour": pa.array([], pa.int64()),
            key_col: pa.array([], pa.string()),
            "on_time": pa.array([], pa.int64()),
            "late": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        out = []
        bands = group.column("band").combine_chunks().to_numpy(
            zero_copy_only=False)
        for b in np.unique(bands):
            g = group.filter(pc.equal(group.column("band"),
                                      pa.scalar(int(b), pa.int64())))
            g = g.sort_by([(id_col, "ascending")])
            ts = g.column("ts_us").combine_chunks().to_numpy(
                zero_copy_only=False)
            pre = prefix_before.get(int(b))
            cm = np.maximum.accumulate(ts)
            # watermark for row i = max(prefix, cummax up to i-1)
            wm = np.empty(len(ts), np.int64)
            wm[0] = pre if pre is not None else np.iinfo(np.int64).min
            if len(ts) > 1:
                wm[1:] = cm[:-1]
                if pre is not None:
                    np.maximum(wm[1:], pre, out=wm[1:])
            late = (ts + lateness_us) < wm
            hour = (ts // hour_us) * hour_us
            t = pa.table({
                "hour": pa.array(hour, pa.int64()),
                key_col: g.column(key_col),
                "on_time": pa.array((~late).astype(np.int64),
                                    pa.int64()),
                "late": pa.array(late.astype(np.int64), pa.int64()),
            })
            agg = t.group_by(["hour", key_col]).aggregate(
                [("on_time", "sum"), ("late", "sum")])
            out.append(pa.table({
                "hour": agg.column("hour"),
                key_col: agg.column(key_col),
                "on_time": agg.column("on_time_sum"),
                "late": agg.column("late_sum")}))
        return pa.concat_tables(out) if out else empty

    agg = (
        ds.map_batches(_tag, batch_format="pyarrow")
        .groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket_windows, batch_format="pyarrow")
        .groupby(["hour", key_col])
        .aggregate(Sum("on_time"), Sum("late"))
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "hour": pc.cast(pc.cast(batch.column("hour"),
                                    pa.timestamp("us")),
                            pa.timestamp("us")),
            key_col: batch.column(key_col),
            "n_ontime": pc.cast(batch.column("sum(on_time)"),
                                pa.int64()),
            "n_late": pc.cast(batch.column("sum(late)"), pa.int64()),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")


def rolling_percentile(ds, window_hours: int = 6,
                       bin_width: int = 25,
                       pct_num: int = 95, pct_den: int = 100,
                       key_col: str = "event_type",
                       ts_col: str = "ts", val_col: str = "value",
                       n_buckets: int = 64):
    """Rolling percentile per key — "p95 over the trailing W hours",
    the ops-monitoring window statistic — as a BIN-EXACT histogram
    sketch (error ≤ ``bin_width``, the `binned_quantiles` rule), so
    every emitted number is an integer and the SQL twin is
    bit-exact.

    A trailing-window percentile does NOT decompose into per-hour
    partials (a percentile of percentiles is not the percentile), so
    the plan is the window-EXPLODE shape:

    1. map-side ``(key, hour, bin) → n`` partials per block;
    2. each partial fans out to the ``window_hours`` anchor hours it
       serves (rows multiply by W — of keys × hours × bins partial
       rows, never raw events);
    3. ONE (key, anchor)-hash co-shuffle; each whole bucket merges
       partials, cumsums bins per (key, anchor) segment, and picks
       the smallest bin with ``cum·pct_den ≥ total·pct_num``.
       Anchors where the key had no event in that exact hour are
       dropped (windows anchor on activity).

    Output: ``(key, hour, n_window, p95_bin)`` — bin index, lower
    edge = ``bin · bin_width``.
    """
    import ray.data

    from ocr_pipeline_ray.functions.hashing import bucket_ids

    hour_us = 3_600_000_000

    def _partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch.column(ts_col),
                             pa.timestamp("us")), pa.int64())
        hour = pc.multiply(pc.divide(ts, hour_us),
                           pa.scalar(hour_us, pa.int64()))
        v = batch.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        bins = np.floor(v / float(bin_width)).astype(np.int64)
        t = pa.table({
            "k": batch.column(key_col),
            "h": hour,
            "bin": pa.array(bins, pa.int64()),
        })
        agg = t.group_by(["k", "h", "bin"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "k": agg.column("k"), "h": agg.column("h"),
            "bin": agg.column("bin"),
            "n": pc.cast(agg.column("count_all"), pa.int64()),
        })

    def _explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "_bucket": pa.array([], pa.int64()),
                "k": pa.array([], pa.string()),
                "anchor": pa.array([], pa.int64()),
                "bin": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "a": pa.array([], pa.int64())})
        idx = np.repeat(np.arange(n, dtype=np.int64), window_hours)
        off = np.tile(np.arange(window_hours, dtype=np.int64), n)
        t = batch.take(pa.array(idx, pa.int64()))
        h = t.column("h").combine_chunks().to_numpy(
            zero_copy_only=False)
        anchor = h + off * hour_us
        key_anchor = pc.binary_join_element_wise(
            pc.cast(t.column("k"), pa.string()), ":",
            pc.cast(pa.array(anchor, pa.int64()), pa.string()), "")
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(key_anchor, n_buckets), pa.int64()),
            "k": t.column("k"),
            "anchor": pa.array(anchor, pa.int64()),
            "bin": t.column("bin"),
            "n": t.column("n"),
            "a": pa.array((off == 0).astype(np.int64), pa.int64()),
        })

    def _bucket_pct(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "k": pa.array([], pa.string()),
            "hour": pa.array([], pa.timestamp("us")),
            "n_window": pa.array([], pa.int64()),
            "p_bin": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        agg = group.group_by(["k", "anchor", "bin"]).aggregate(
            [("n", "sum"), ("a", "max")])
        agg = agg.sort_by([("k", "ascending"),
                           ("anchor", "ascending"),
                           ("bin", "ascending")])
        ks = np.asarray(agg.column("k").to_pylist())
        anchors = agg.column("anchor").combine_chunks().to_numpy(
            zero_copy_only=False)
        nn = agg.column("n_sum").combine_chunks().to_numpy(
            zero_copy_only=False)
        aa = agg.column("a_max").combine_chunks().to_numpy(
            zero_copy_only=False)
        bins = agg.column("bin").combine_chunks().to_numpy(
            zero_copy_only=False)
        change = np.r_[True, (ks[1:] != ks[:-1]) |
                       (anchors[1:] != anchors[:-1])]
        seg_id = np.cumsum(change) - 1
        n_seg = seg_id[-1] + 1
        totals = np.bincount(seg_id, weights=nn,
                             minlength=n_seg).astype(np.int64)
        present = np.bincount(seg_id, weights=aa,
                              minlength=n_seg) > 0
        # per-segment cumsum, then the FIRST row per segment whose
        # cumulative count clears the percentile threshold
        idx = np.arange(len(nn))
        csum = np.cumsum(nn)
        seg_base = np.maximum.accumulate(
            np.where(change, csum - nn, -1))
        cum = csum - seg_base
        hit = cum * pct_den >= totals[seg_id] * pct_num
        order = np.lexsort((idx, ~hit, seg_id))
        seg_first = order[np.r_[True,
                                seg_id[order][1:] != seg_id[order][:-1]]]
        rows = seg_first[hit[seg_first] & present[seg_id[seg_first]]]
        return pa.table({
            "k": pa.array(ks[rows]),
            "hour": pc.cast(pa.array(anchors[rows], pa.int64()),
                            pa.timestamp("us")),
            "n_window": pa.array(totals[seg_id[rows]], pa.int64()),
            "p_bin": pa.array(bins[rows], pa.int64()),
        })

    out = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .map_batches(_explode, batch_format="pyarrow")
        .groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket_pct, batch_format="pyarrow")
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            key_col: batch.column("k"),
            "hour": batch.column("hour"),
            "n_window": batch.column("n_window"),
            "p_bin": batch.column("p_bin"),
        })

    return out.map_batches(_rename, batch_format="pyarrow")


def linear_attribution(ds, window_hours: int = 24,
                       user_col: str = "user_id",
                       ts_col: str = "ts", type_col: str = "event_type",
                       val_col: str = "value",
                       touch_type: str = "click",
                       conv_type: str = "purchase",
                       n_buckets: int = 64):
    """Multi-touch LINEAR attribution: every conversion splits its
    value equally across the user's touches in the preceding
    ``window_hours`` (the adtech budget-allocation operator; last-
    touch attribution is the special case). All-integer:
    value in cents, per-touch credit = ``cents // n_touches``
    (trunc-div; the remainder is deliberately unassigned, like every
    integer split here), so sums are order-free and the SQL twin is
    bit-exact.

    Scale shape: events prune to touches+conversions at the scan,
    then ONE user-hash co-shuffle; each whole bucket sorts by a
    packed ``(dense_user, ts)`` int64 key and window-counts touches
    per conversion with TWO searchsorted probes (never a per-user
    loop); per-touch credits come from a difference array + cumsum,
    per-user rollups from bincounts. A user lives wholly in one
    bucket, so bucket rows ARE the final per-user rows.

    Output: ``(user_id, n_conv_attr, n_conv_orphan, attributed_c)``.
    """
    import ray.data

    from ocr_pipeline_ray.functions.hashing import bucket_ids

    w_us = window_hours * 3_600_000_000

    def _tag(batch: pa.Table) -> pa.Table:
        et = batch.column(type_col)
        keep = pc.or_(pc.equal(et, touch_type),
                      pc.equal(et, conv_type))
        b = batch.filter(keep)
        vc = pc.cast(pc.round(pc.multiply(
            pc.fill_null(b.column(val_col), 0.0), 100.0)),
            pa.int64())
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(b.column(user_col), n_buckets),
                pa.int64()),
            "u": pc.cast(b.column(user_col), pa.int64()),
            "t": pc.cast(pc.cast(b.column(ts_col),
                                 pa.timestamp("us")), pa.int64()),
            "is_conv": pc.equal(b.column(type_col), conv_type),
            "vc": vc,
        })

    def _bucket_attr(group: pa.Table) -> pa.Table:
        empty = pa.table({
            user_col: pa.array([], pa.int64()),
            "n_conv_attr": pa.array([], pa.int64()),
            "n_conv_orphan": pa.array([], pa.int64()),
            "attributed_c": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        u = group.column("u").combine_chunks().to_numpy(
            zero_copy_only=False)
        t = group.column("t").combine_chunks().to_numpy(
            zero_copy_only=False)
        conv = group.column("is_conv").combine_chunks().to_numpy(
            zero_copy_only=False)
        vc = group.column("vc").combine_chunks().to_numpy(
            zero_copy_only=False)
        uniq, ud = np.unique(u, return_inverse=True)
        t0 = t.min()
        tr = (t - t0).astype(np.int64)
        span = int(tr.max()) + w_us + 2
        key = ud.astype(np.int64) * span + tr
        order = np.argsort(key, kind="stable")
        key, ud, conv, vc = key[order], ud[order], conv[order], \
            vc[order]
        ck = key[~conv]
        cu = ud[~conv]
        pk = key[conv]
        pu = ud[conv]
        pv = vc[conv]
        lo = np.searchsorted(ck, pk - w_us)
        hi = np.searchsorted(ck, pk)
        # clamp windows inside the SAME user's touch span: packed
        # keys are user-separated by construction (span > window)
        n = hi - lo
        attr = n > 0
        credit = np.zeros(len(pk), np.int64)
        credit[attr] = pv[attr] // n[attr]
        # per-touch credits via difference array
        d = np.zeros(len(ck) + 1, np.int64)
        np.add.at(d, lo[attr], credit[attr])
        np.add.at(d, hi[attr], -credit[attr])
        per_touch = np.cumsum(d[:-1])
        n_users = len(uniq)
        # int64 scatter-add (bincount weights= would go via float64)
        out_credit = np.zeros(n_users, np.int64)
        np.add.at(out_credit, cu, per_touch)
        out_attr = np.bincount(pu[attr], minlength=n_users
                               ).astype(np.int64)
        out_orph = np.bincount(pu[~attr], minlength=n_users
                               ).astype(np.int64)
        has_conv = (out_attr + out_orph) > 0
        return pa.table({
            user_col: pa.array(uniq[has_conv], pa.int64()),
            "n_conv_attr": pa.array(out_attr[has_conv], pa.int64()),
            "n_conv_orphan": pa.array(out_orph[has_conv],
                                      pa.int64()),
            "attributed_c": pa.array(out_credit[has_conv],
                                     pa.int64()),
        })

    return (
        ds.map_batches(_tag, batch_format="pyarrow")
        .groupby("_bucket", num_partitions=n_buckets)
        .map_groups(_bucket_attr, batch_format="pyarrow")
    )
