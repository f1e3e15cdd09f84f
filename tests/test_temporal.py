"""Temporal operators: sessionization, running sums, interval and
funnel windows, last-observation-carried-forward fill."""

import numpy as np
import pyarrow as pa
import pytest

US = 1_000_000
MIN = 60 * US
HOUR = 60 * MIN


def _events(rows):
    """rows: (event_id, ts_us, user_id, event_type, value)."""
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(
            np.array([r[1] for r in rows], dtype="datetime64[us]"),
            pa.timestamp("us"),
        ),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
    })


class TestSessionize:
    def test_gap_semantics(self, ray_session):
        """Strict 30-min gap: exactly 30:00 continues the session,
        30:00.000001 starts a new one; users never share sessions."""
        import ray.data

        from retired_temporal import sessionize

        rows = [
            # user 1: three events, second exactly at the gap bound
            # (continues), third one microsecond past it (breaks)
            (0, 0, 1, "a", 1.0),
            (1, 30 * MIN, 1, "a", 2.0),
            (2, 60 * MIN + 1, 1, "a", 4.0),
            # user 2: single event at the same instant as user 1's
            (3, 0, 2, "a", 8.0),
        ]
        for layout in (1, 3):
            ds = ray.data.from_arrow(_events(rows)).repartition(layout)
            got = sorted(
                sessionize(ds).take_all(),
                key=lambda r: (r["user_id"], r["session_start"]),
            )
            assert [(r["user_id"], r["n_events"], r["sum_value"],
                     r["duration_us"]) for r in got] == [
                (1, 2, 3.0, 30 * MIN),
                (1, 1, 4.0, 0),
                (2, 1, 8.0, 0),
            ]

    def test_tie_break_by_event_id(self, ray_session):
        """Equal timestamps order by event_id (deterministic)."""
        import ray.data

        from retired_temporal import sessionize

        rows = [(5, 0, 1, "a", 1.0), (4, 0, 1, "a", 2.0)]
        got = sessionize(ray.data.from_arrow(_events(rows))).take_all()
        assert len(got) == 1
        assert got[0]["n_events"] == 2 and got[0]["sum_value"] == 3.0


class TestRunningSum:
    def test_randomized_vs_duckdb_window(self, ray_session):
        """Random keys/values across block layouts vs the SQL
        cumulative window (unique ordering, round6 grid)."""
        import random

        import duckdb
        import ray.data

        from retired_temporal import grouped_running_sum

        rng = random.Random(11)
        n = 300
        tbl = pa.table({
            "k": pa.array([rng.randrange(20) for _ in range(n)],
                          pa.int64()),
            "o": pa.array(rng.sample(range(10_000), n), pa.int64()),
            "v": pa.array([round(rng.uniform(-5, 50), 2)
                           for _ in range(n)], pa.float64()),
        })
        con = duckdb.connect()
        con.register("t", tbl)
        expect = {
            r[0]: r[1] for r in con.sql(
                "SELECT o, floor(SUM(v) OVER (PARTITION BY k ORDER BY o)"
                " * 1000000.0 + 0.5) / 1000000.0 FROM t"
            ).fetchall()
        }
        for nblk in (1, 5):
            ds = ray.data.from_arrow(tbl).repartition(nblk)
            out = grouped_running_sum(ds, "k", ["o"], "v",
                                      n_buckets=8).take_all()
            assert len(out) == n
            got = {r["o"]: r["running"] for r in out}
            assert got == expect

    def test_large_bucket_precision(self, ray_session):
        """20k rows forced into ONE bucket: per-segment cumsum keeps
        float error at ulp(per-key prefix); the bucket-global
        cumsum-difference shape this replaced drifted past the 1e-6
        grid at this size (review finding, empirically confirmed)."""
        import random

        import duckdb
        import ray.data

        from retired_temporal import grouped_running_sum

        rng = random.Random(3)
        n = 20_000
        tbl = pa.table({
            "k": pa.array([rng.randrange(50) for _ in range(n)],
                          pa.int64()),
            "o": pa.array(rng.sample(range(10 * n), n), pa.int64()),
            "v": pa.array([round(rng.uniform(900.0, 555000.0), 2)
                           for _ in range(n)], pa.float64()),
        })
        con = duckdb.connect()
        con.register("t", tbl)
        expect = {
            r[0]: r[1] for r in con.sql(
                "SELECT o, floor(SUM(v) OVER (PARTITION BY k ORDER BY o)"
                " * 1000000.0 + 0.5) / 1000000.0 FROM t"
            ).fetchall()
        }
        out = grouped_running_sum(
            ray.data.from_arrow(tbl), "k", ["o"], "v", n_buckets=1
        ).take_all()
        got = {r["o"]: r["running"] for r in out}
        assert got == expect


class TestPeakConcurrency:
    @staticmethod
    def _naive(intervals):
        events = []
        for s, d in intervals:
            events.append((s, 1))
            events.append((s + d + 1, -1))
        events.sort(key=lambda e: (e[0], e[1]))
        run = peak = 0
        for _, delta in events:
            run += delta
            peak = max(peak, run)
        return peak

    @pytest.mark.parametrize("band_minutes", [1, 60])
    def test_randomized_vs_naive_band_invariant(
            self, ray_session, band_minutes):
        import random

        import numpy as np
        import ray.data

        from retired_temporal import peak_concurrency

        rng = random.Random(9)
        base = 1_700_000_000_000_000
        intervals = [
            (base + rng.randrange(0, 3_600_000_000 * 5),
             rng.randrange(0, 1_800_000_000))
            for _ in range(300)
        ]
        tbl = pa.table({
            "session_start": pa.array(
                np.array([s for s, _ in intervals],
                         dtype="datetime64[us]"), pa.timestamp("us")),
            "duration_us": pa.array(
                [d for _, d in intervals], pa.int64()),
        })
        out = peak_concurrency(
            ray.data.from_arrow(tbl).repartition(4),
            band_minutes=band_minutes, n_buckets=7)
        assert out.column("peak").to_pylist() == [
            self._naive(intervals)]

    def test_touching_intervals_do_not_overlap(self, ray_session):
        import numpy as np
        import ray.data

        from retired_temporal import peak_concurrency

        # [0, 5] and [6, 9]: inclusive ends, no overlap -> peak 1
        tbl = pa.table({
            "session_start": pa.array(
                np.array([0, 6], dtype="datetime64[us]"),
                pa.timestamp("us")),
            "duration_us": pa.array([5, 3], pa.int64()),
        })
        out = peak_concurrency(ray.data.from_arrow(tbl))
        assert out.column("peak").to_pylist() == [1]


class TestLocfFill:
    def test_vs_duckdb_window(self, ray_session):
        import duckdb
        import ray.data

        from ocr_pipeline_ray.stages.temporal import locf_fill

        rng = np.random.default_rng(11)
        n = 2000
        tbl = pa.table({
            "id": pa.array(np.arange(n), pa.int64()),
            "k": pa.array(rng.integers(0, 40, n), pa.int64()),
            "t": pa.array(rng.integers(0, 500, n), pa.int64()),
            "v": pa.array(
                np.where(rng.random(n) < 0.4, np.nan,
                         rng.random(n) * 100),
                pa.float64()),
        })
        # nan -> real Arrow nulls
        import pyarrow.compute as pc
        v = tbl.column("v").combine_chunks()
        tbl = tbl.set_column(
            3, "v", pc.if_else(pc.is_nan(v), pa.scalar(None, pa.float64()), v))
        want = duckdb.sql(
            "SELECT id, k, t, last_value(v IGNORE NULLS) OVER "
            "(PARTITION BY k ORDER BY t, id ROWS UNBOUNDED PRECEDING)"
            " AS v FROM tbl ORDER BY id").df()
        for parts in (1, 6):
            got = locf_fill(
                ray.data.from_arrow(tbl).repartition(parts),
                "k", ["t", "id"], "v", n_buckets=8,
            ).to_pandas().sort_values("id").reset_index(drop=True)
            got = got[["id", "k", "t", "v"]]
            assert got.equals(want)

    def test_leading_nulls_stay_null_and_types_survive(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.temporal import locf_fill

        tbl = pa.table({
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "t": pa.array([1, 2, 3, 1, 2], pa.int64()),
            "v": pa.array([None, "a", None, None, None], pa.string()),
        })
        got = locf_fill(ray.data.from_arrow(tbl), "k", ["t"], "v",
                        n_buckets=4).to_pandas().sort_values(
            ["k", "t"]).reset_index(drop=True)
        assert got["v"].tolist()[0] is None          # leading null
        assert got["v"].tolist()[1:3] == ["a", "a"]  # carried forward
        assert got["v"].tolist()[3] is None and got["v"].tolist()[4] is None


class TestIntervalUnion:
    def test_vs_duckdb_islands(self, ray_session):
        import duckdb
        import ray.data

        from retired_temporal import interval_union

        rng = np.random.default_rng(23)
        n = 3000
        s = rng.integers(0, 10_000, n)
        tbl = pa.table({
            "k": pa.array(rng.integers(0, 50, n), pa.int64()),
            "s": pa.array(s, pa.int64()),
            "e": pa.array(s + rng.integers(0, 300, n), pa.int64()),
        })
        want = duckdb.sql(
            "WITH o AS (SELECT k, s, e, CASE WHEN s > coalesce("
            "max(e) OVER (PARTITION BY k ORDER BY s, e "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), "
            "-9223372036854775808) THEN 1 ELSE 0 END AS brk FROM tbl), "
            "g AS (SELECT k, s, e, sum(brk) OVER (PARTITION BY k "
            "ORDER BY s, e ROWS UNBOUNDED PRECEDING) AS isl FROM o) "
            "SELECT k, min(s) AS s, max(e) AS e FROM g "
            "GROUP BY k, isl ORDER BY k, s").df()
        for parts in (1, 5):
            got = interval_union(
                ray.data.from_arrow(tbl).repartition(parts),
                "k", "s", "e", n_buckets=8,
            ).to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
            assert got.equals(want)

    def test_touching_intervals_merge_contained_absorbed(
            self, ray_session):
        import ray.data

        from retired_temporal import interval_union

        tbl = pa.table({
            "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "s": pa.array([0, 5, 2, 20, 0], pa.int64()),
            "e": pa.array([5, 9, 3, 30, 1], pa.int64()),
        })
        got = interval_union(ray.data.from_arrow(tbl), "k", "s", "e",
                             n_buckets=4).to_pandas().sort_values(
            ["k", "s"]).values.tolist()
        # [0,5]+[5,9] touch -> merge; [2,3] contained; [20,30] apart
        assert got == [[1, 0, 9], [1, 20, 30], [2, 0, 1]]


class TestFunnelCounts:
    def test_ordered_prefix_semantics(self, ray_session):
        import ray.data

        from retired_temporal import funnel_counts

        rows = [
            # user 1 completes A->B->C in order
            (0, 0, 1, "A", 0.0), (1, 10, 1, "B", 0.0),
            (2, 20, 1, "C", 0.0),
            # user 2: B before A, no B after -> stops after A
            (3, 0, 2, "B", 0.0), (4, 10, 2, "A", 0.0),
            (5, 20, 2, "C", 0.0),
            # user 3: A then C only -> stops after A
            (6, 0, 3, "A", 0.0), (7, 5, 3, "C", 0.0),
            # user 4: same-instant A and B -> strict > blocks B
            (8, 0, 4, "A", 0.0), (9, 0, 4, "B", 0.0),
        ]
        ds = ray.data.from_arrow(_events(rows)).repartition(3)
        got = funnel_counts(ds, ["A", "B", "C"], n_buckets=4)
        assert got.column("n_users").to_pylist() == [4, 1, 1]

    def test_vs_duckdb(self, ray_session):
        import duckdb
        import ray.data

        from retired_temporal import funnel_counts

        rng = np.random.default_rng(5)
        n = 3000
        rows = [(i, int(rng.integers(0, 10_000)) * US,
                 int(rng.integers(0, 60)),
                 ["A", "B", "C"][int(rng.integers(0, 3))], 0.0)
                for i in range(n)]
        tbl = _events(rows)
        want = duckdb.sql(
            "WITH s0 AS (SELECT user_id, min(ts) AS t FROM tbl "
            "WHERE event_type='A' GROUP BY user_id), "
            "s1 AS (SELECT e.user_id, min(e.ts) AS t FROM tbl e "
            "JOIN s0 USING (user_id) WHERE e.event_type='B' "
            "AND e.ts > s0.t GROUP BY e.user_id), "
            "s2 AS (SELECT e.user_id, min(e.ts) AS t FROM tbl e "
            "JOIN s1 USING (user_id) WHERE e.event_type='C' "
            "AND e.ts > s1.t GROUP BY e.user_id) "
            "SELECT (SELECT count(*) FROM s0), "
            "(SELECT count(*) FROM s1), "
            "(SELECT count(*) FROM s2)").fetchone()
        got = funnel_counts(ray.data.from_arrow(tbl).repartition(5),
                            ["A", "B", "C"], n_buckets=8)
        assert got.column("n_users").to_pylist() == list(want)


class TestFunnelWindowed:
    def test_window_bound_blocks_late_conversion(self, ray_session):
        import ray.data

        from retired_temporal import funnel_counts

        rows = [
            # user 1: B exactly at the bound (counts), C too late
            (0, 0, 1, "A", 0.0), (1, 2 * HOUR, 1, "B", 0.0),
            (2, 5 * HOUR, 1, "C", 0.0),
            # user 2: all within bounds
            (3, 0, 2, "A", 0.0), (4, 1 * HOUR, 2, "B", 0.0),
            (5, 2 * HOUR, 2, "C", 0.0),
        ]
        ds = ray.data.from_arrow(_events(rows))
        got = funnel_counts(ds, ["A", "B", "C"], n_buckets=4,
                            within_hours=2)
        assert got.column("n_users").to_pylist() == [2, 2, 1]
        # unwindowed: user 1's late C also converts
        got2 = funnel_counts(ds, ["A", "B", "C"], n_buckets=4)
        assert got2.column("n_users").to_pylist() == [2, 2, 2]


class TestFrameWindow:
    def test_rows_frame_and_lead(self, ray_session):
        import pyarrow as pa
        import ray.data

        from retired_temporal import frame_window

        tbl = pa.table({
            "k": pa.array([1, 1, 1, 1, 1, 2, 2], pa.int64()),
            "o": pa.array([1, 2, 3, 4, 5, 1, 2], pa.int64()),
            "v": pa.array([1, 2, 4, 8, 16, 100, 200], pa.int64()),
        })
        out = frame_window(
            ray.data.from_arrow(tbl), key_col="k", order_cols=["o"],
            val_col="v", preceding=2, n_buckets=4,
        ).sort(["k", "o"]).take_all()
        assert [r["win_sum"] for r in out] == [
            1, 3, 7, 14, 28, 100, 300]
        assert [r["lead_val"] for r in out] == [
            2, 4, 8, 16, None, 200, None]

    def test_layout_invariance(self, ray_session):
        import ray
        import pyarrow as pa
        import ray.data

        from retired_temporal import frame_window

        tbl = pa.table({
            "k": pa.array([3, 1, 2, 1, 3, 2, 1], pa.int64()),
            "o": pa.array([2, 3, 1, 1, 1, 2, 2], pa.int64()),
            "v": pa.array([5, 7, 11, 13, 17, 19, 23], pa.int64()),
        })
        one = frame_window(
            ray.data.from_arrow(tbl), "k", ["o"], "v",
            preceding=1, n_buckets=4,
        ).sort(["k", "o"]).take_all()
        many = frame_window(
            ray.data.from_arrow_refs(
                [ray.put(tbl.slice(i, 1)) for i in range(tbl.num_rows)]),
            "k", ["o"], "v", preceding=1, n_buckets=4,
        ).sort(["k", "o"]).take_all()
        assert one == many
