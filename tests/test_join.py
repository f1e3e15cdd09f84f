"""Broadcast + repartition join operators."""

import pyarrow as pa
import pytest


def _left_tbl():
    return pa.table({
        "k": pa.array([1, 2, 3, 4, 2], pa.int64()),
        "v": pa.array(["a", "b", "c", "d", "e"], pa.string()),
    })


def _right_tbl():
    return pa.table({
        "k": pa.array([1, 2, 5], pa.int64()),
        "w": pa.array([10.0, 20.0, 50.0], pa.float64()),
        "v": pa.array(["ra", "rb", "rx"], pa.string()),  # name collision
    })


EXPECT_INNER = {
    (1, "a", 10.0, "ra"),
    (2, "b", 20.0, "rb"),
    (2, "e", 20.0, "rb"),
}


class TestJoins:
    @pytest.mark.parametrize("layout", [1, 3])
    def test_broadcast_inner_and_left(self, ray_session, layout):
        import ray.data

        from retired_join import broadcast_join

        left = ray.data.from_arrow(_left_tbl()).repartition(layout)
        rows = broadcast_join(left, _right_tbl(), on="k").take_all()
        got = {(r["k"], r["v"], r["w"], r["v_r"]) for r in rows}
        assert got == EXPECT_INNER
        rows = broadcast_join(
            ray.data.from_arrow(_left_tbl()), _right_tbl(), on="k",
            how="left",
        ).take_all()
        assert len(rows) == 5
        misses = [r for r in rows if r["k"] in (3, 4)]
        assert all(r["w"] is None and r["v_r"] is None for r in misses)

    @pytest.mark.parametrize("layout", [1, 4])
    def test_repartition_inner_and_left(self, ray_session, layout):
        import ray.data

        from ocr_pipeline_ray.stages.join import repartition_join

        left = ray.data.from_arrow(_left_tbl()).repartition(layout)
        right = ray.data.from_arrow(_right_tbl()).repartition(2)
        rows = repartition_join(left, right, on="k",
                                n_buckets=4).take_all()
        got = {(r["k"], r["v"], r["w"], r["v_r"]) for r in rows}
        assert got == EXPECT_INNER
        rows = repartition_join(left, right, on="k", how="left",
                                n_buckets=4).take_all()
        assert len(rows) == 5
        assert {r["k"] for r in rows if r["w"] is None} == {3, 4}

    def test_strategies_agree_on_string_keys(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.join import repartition_join
        from retired_join import broadcast_join

        left = pa.table({
            "url": pa.array([f"u{i % 7}" for i in range(40)], pa.string()),
            "i": pa.array(range(40), pa.int64()),
        })
        right = pa.table({
            "url": pa.array([f"u{i}" for i in range(5)], pa.string()),
            "host": pa.array([f"h{i}" for i in range(5)], pa.string()),
        })
        a = broadcast_join(
            ray.data.from_arrow(left), right, on="url"
        ).take_all()
        b = repartition_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            on="url", n_buckets=3,
        ).take_all()
        key = lambda r: (r["url"], r["i"], r["host"])  # noqa: E731
        assert sorted(map(key, a)) == sorted(map(key, b))
        assert len(a) == sum(1 for i in range(40) if i % 7 < 5)

    def test_null_keys_match_nothing(self, ray_session):
        """SQL join semantics for NULL keys in BOTH strategies:
        never matched (not even to a null-keyed right row), dropped
        on inner, kept-with-nulls on left (regression: broadcast
        matched null-to-null; repartition crashed with IndexError)."""
        import ray.data

        from ocr_pipeline_ray.stages.join import repartition_join
        from retired_join import broadcast_join

        left = pa.table({
            "k": pa.array([1, None, 2, None], pa.int64()),
            "v": pa.array(["a", "b", "c", "d"], pa.string()),
        })
        right = pa.table({
            "k": pa.array([1, None], pa.int64()),
            "w": pa.array([10.0, 99.0], pa.float64()),
        })
        lds = ray.data.from_arrow(left)
        rds = ray.data.from_arrow(right)
        for joiner in (
            lambda how: broadcast_join(lds, right, on="k", how=how),
            lambda how: repartition_join(lds, rds, on="k", how=how,
                                         n_buckets=4),
        ):
            inner = joiner("inner").take_all()
            assert {(r["k"], r["v"], r["w"]) for r in inner} == {
                (1, "a", 10.0)
            }
            outer = joiner("left").take_all()
            assert len(outer) == 4
            assert {r["v"]: r["w"] for r in outer} == {
                "a": 10.0, "b": None, "c": None, "d": None
            }

    def test_semi_anti_both_strategies(self, ray_session):
        """EXISTS/NOT EXISTS semantics in both strategies: semi
        keeps matched left rows only (no right columns, duplicates
        preserved), anti keeps the complement; NULL left keys match
        nothing (semi drops, anti keeps); duplicate right keys do
        not multiply rows."""
        import ray.data

        from ocr_pipeline_ray.stages.join import repartition_join
        from retired_join import broadcast_join

        left = pa.table({
            "k": pa.array([1, 2, 3, 4, 2, None], pa.int64()),
            "v": pa.array(["a", "b", "c", "d", "e", "f"], pa.string()),
        })
        right = pa.table({
            "k": pa.array([1, 2, 2, 5, None], pa.int64()),
            "w": pa.array([1.0, 2.0, 2.5, 5.0, 9.9], pa.float64()),
        })
        lds = ray.data.from_arrow(left).repartition(3)
        rds = ray.data.from_arrow(right)
        for joiner in (
            lambda how: broadcast_join(lds, right, on="k", how=how),
            lambda how: repartition_join(lds, rds, on="k", how=how,
                                         n_buckets=4),
        ):
            semi = joiner("semi").take_all()
            assert sorted((r["k"], r["v"]) for r in semi) == [
                (1, "a"), (2, "b"), (2, "e")
            ]
            assert all(set(r) == {"k", "v"} for r in semi)
            anti = joiner("anti").take_all()
            assert sorted(
                (r["v"] for r in anti)
            ) == ["c", "d", "f"]

    def test_bucket_ids_batch_independent(self):
        """A key's bucket depends on the VALUE only — never on which
        batch it arrived in (regression: integer batches switched to
        the crc32 hash when they contained a null, so the same key
        landed in different buckets on the two sides of a co-shuffle
        and joins silently dropped matches)."""
        import numpy as np

        from ocr_pipeline_ray.functions.hashing import bucket_ids

        with_null = bucket_ids(pa.array([1, None, 2], pa.int64()), 64)
        without = bucket_ids(pa.array([1, 2], pa.int64()), 64)
        assert with_null[0] == without[0]
        assert with_null[2] == without[1]
        assert with_null[1] == 0  # nulls: fixed deterministic bucket
        # string path is value-deterministic too
        s1 = bucket_ids(pa.array(["a", "b"], pa.string()), 64)
        s2 = bucket_ids(pa.array(["x", "a"], pa.string()), 64)
        assert s1[0] == s2[1]
        assert isinstance(with_null, np.ndarray)

    def test_join_mixed_null_presence_across_sides(self, ray_session):
        """Inner join finds matches when ONE side's batches carry
        nulls and the other's don't (the exact shape the per-batch
        hash switch used to break)."""
        import ray.data

        from ocr_pipeline_ray.stages.join import repartition_join

        left = pa.table({
            "k": pa.array([1, None, 2, 3], pa.int64()),
            "v": pa.array(["a", "b", "c", "d"], pa.string()),
        })
        right = pa.table({
            "k": pa.array([1, 2, 3], pa.int64()),  # null-free side
            "w": pa.array([10.0, 20.0, 30.0], pa.float64()),
        })
        rows = repartition_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            on="k", n_buckets=8,
        ).take_all()
        assert {(r["k"], r["w"]) for r in rows} == {
            (1, 10.0), (2, 20.0), (3, 30.0)
        }

    def test_right_cols_projection(self, ray_session):
        import ray.data

        from retired_join import broadcast_join

        rows = broadcast_join(
            ray.data.from_arrow(_left_tbl()), _right_tbl(), on="k",
            right_cols=["w"],
        ).take_all()
        assert set(rows[0].keys()) == {"k", "v", "w"}


class TestRangeJoin:
    """range_join vs a DuckDB BETWEEN-join differential."""

    def _sides(self, seed=7, n_left=200, n_right=23):
        import numpy as np

        rng = np.random.default_rng(seed)
        left = pa.table({
            "eid": pa.array(range(n_left), pa.int64()),
            "val": pa.array(
                [None if i % 37 == 0 else float(x) for i, x in
                 enumerate(rng.uniform(0, 1000, n_left))],
                pa.float64()),
        })
        lo = rng.uniform(0, 950, n_right)
        right = pa.table({
            "iid": pa.array(range(n_right), pa.int64()),
            "lo": pa.array(
                [None if i == 5 else float(x)
                 for i, x in enumerate(lo)], pa.float64()),
            "hi": pa.array(
                [None if i == 9 else float(x + w) for i, (x, w) in
                 enumerate(zip(lo, rng.uniform(0, 120, n_right)))],
                pa.float64()),
        })
        return left, right

    def _oracle(self, left, right, how):
        import duckdb

        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        sql = {
            "inner": ("SELECT eid, iid FROM l JOIN r "
                      "ON l.val BETWEEN r.lo AND r.hi"),
            "left": ("SELECT eid, iid FROM l LEFT JOIN r "
                     "ON l.val BETWEEN r.lo AND r.hi"),
            "semi": ("SELECT eid FROM l WHERE EXISTS (SELECT 1 FROM r "
                     "WHERE l.val BETWEEN r.lo AND r.hi)"),
            "anti": ("SELECT eid FROM l WHERE NOT EXISTS (SELECT 1 "
                     "FROM r WHERE l.val BETWEEN r.lo AND r.hi)"),
        }[how]
        rows = con.execute(sql).fetchall()
        con.close()
        if how in ("semi", "anti"):
            return sorted(r[0] for r in rows)
        return sorted((r[0], r[1]) for r in rows)

    @pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_matches_duckdb(self, ray_session, strategy, how):
        import ray.data

        from retired_join import range_join

        left, right = self._sides()
        got = range_join(
            ray.data.from_arrow(left).repartition(4),
            ray.data.from_arrow(right).repartition(3),
            value_col="val", lo_col="lo", hi_col="hi",
            how=how, strategy=strategy, band_width=100.0,
            n_buckets=8,
        ).take_all()
        if how in ("semi", "anti"):
            assert sorted(r["eid"] for r in got) == \
                self._oracle(left, right, how)
        else:
            assert sorted(
                (r["eid"], r["iid"]) for r in got
            ) == self._oracle(left, right, how)

    def test_strategies_agree_timestamps(self, ray_session):
        import datetime as dt

        import ray.data

        from retired_join import range_join

        base = dt.datetime(2024, 1, 1)
        left = pa.table({
            "eid": pa.array(range(50), pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(hours=3 * i) for i in range(50)],
                pa.timestamp("us")),
        })
        right = pa.table({
            "cid": pa.array(range(6), pa.int64()),
            "start": pa.array(
                [base + dt.timedelta(hours=20 * k) for k in range(6)],
                pa.timestamp("us")),
            "end": pa.array(
                [base + dt.timedelta(hours=20 * k + 30)
                 for k in range(6)], pa.timestamp("us")),
        })
        out = {}
        for strategy in ("broadcast", "shuffle"):
            got = range_join(
                ray.data.from_arrow(left).repartition(3),
                ray.data.from_arrow(right),
                value_col="ts", lo_col="start", hi_col="end",
                strategy=strategy, band_width=36 * 3600 * 1e6,
            ).take_all()
            out[strategy] = sorted((r["eid"], r["cid"]) for r in got)
        assert out["broadcast"] == out["shuffle"]
        # overlapping windows: some events in 2 campaigns
        from collections import Counter
        per_event = Counter(e for e, _ in out["broadcast"])
        assert max(per_event.values()) >= 2

    def test_band_width_invariance(self, ray_session):
        import ray.data

        from retired_join import range_join

        left, right = self._sides(seed=11)
        results = []
        for bw in (17.0, 100.0, 5000.0):
            got = range_join(
                ray.data.from_arrow(left).repartition(5),
                ray.data.from_arrow(right).repartition(2),
                value_col="val", lo_col="lo", hi_col="hi",
                strategy="shuffle", band_width=bw, n_buckets=8,
            ).take_all()
            results.append(sorted((r["eid"], r["iid"]) for r in got))
        assert results[0] == results[1] == results[2]


class TestSkewJoin:
    """Hybrid hot-broadcast / cold-shuffle join."""

    def _skewed(self, ray_session, blocks=4):
        import ray.data

        # key 7 carries half the mass; keys 1..5 are cold; some NULLs
        ks = [7] * 40 + [1, 2, 3, 4, 5] * 6 + [None] * 4
        left = pa.table({
            "k": pa.array(ks, pa.int64()),
            "v": pa.array([f"v{i}" for i in range(len(ks))], pa.string()),
        })
        right = pa.table({
            "k": pa.array([7, 1, 2, 3, 9], pa.int64()),
            "w": pa.array([70, 10, 20, 30, 90], pa.int64()),
        })
        return (ray.data.from_arrow(left).repartition(blocks),
                ray.data.from_arrow(right).repartition(2))

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_equals_plain_repartition_join(self, ray_session, how):
        from ocr_pipeline_ray.stages.join import repartition_join
        from retired_join import skew_join

        left, right = self._skewed(ray_session)
        cols = ["k", "v"] if how in ("semi", "anti") else ["k", "v", "w"]

        def key(rows):
            return sorted(
                (tuple(r.get(c) for c in cols) for r in rows),
                key=lambda t: tuple((x is None, x) for x in t),
            )

        want = key(repartition_join(left, right, on="k",
                                    how=how).take_all())
        got = key(skew_join(left, right, on="k", how=how,
                            hot_count=20).take_all())
        assert got == want

    def test_hot_detection_exact(self, ray_session):
        from retired_join import hot_keys

        left, _ = self._skewed(ray_session)
        hot = {r["k"]: r["n"] for r in
               hot_keys(left, "k", hot_count=20).take_all()}
        assert hot == {7: 40}  # NULLs never hot, cold keys absent

    def test_no_hot_keys_degrades(self, ray_session):
        from ocr_pipeline_ray.stages.join import repartition_join
        from retired_join import skew_join

        left, right = self._skewed(ray_session)
        want = sorted((r["k"], r["v"], r["w"]) for r in
                      repartition_join(left, right, on="k").take_all())
        got = sorted((r["k"], r["v"], r["w"]) for r in
                     skew_join(left, right, on="k",
                               hot_count=1000).take_all())
        assert got == want

    def test_layout_invariance(self, ray_session):
        from retired_join import skew_join

        want = None
        for blocks in (1, 3, 7):
            left, right = self._skewed(ray_session, blocks)
            got = sorted(
                ((r["k"], r["v"], r["w"]) for r in
                 skew_join(left, right, on="k", how="left",
                           hot_count=20).take_all()),
                key=lambda t: tuple((x is None, x) for x in t),
            )
            if want is None:
                want = got
            assert got == want


class TestSkewJoinHotOverride:
    def test_supplied_hot_equals_detected(self, ray_session):
        import ray.data

        from retired_join import skew_join

        ks = [7] * 40 + [1, 2, 3] * 5 + [None] * 2
        left = ray.data.from_arrow(pa.table({
            "k": pa.array(ks, pa.int64()),
            "v": pa.array(list(range(len(ks))), pa.int64()),
        })).repartition(3)
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([7, 1], pa.int64()),
            "w": pa.array([70, 10], pa.int64()),
        }))
        want = sorted((r["k"], r["v"], r["w"]) for r in
                      skew_join(left, right, on="k",
                                hot_count=20).take_all())
        # supplied hot set (incl. a None that must be ignored)
        got = sorted((r["k"], r["v"], r["w"]) for r in
                     skew_join(left, right, on="k", hot_count=20,
                               hot=[7, None]).take_all())
        assert got == want
        # an empty supplied hot list degrades to the plain join
        got2 = sorted((r["k"], r["v"], r["w"]) for r in
                      skew_join(left, right, on="k", hot_count=20,
                                hot=[]).take_all())
        assert got2 == want


class TestExpandJoin:
    """SQL-multiplicity join (duplicate-key expansion + outer sides)
    — randomized differential vs DuckDB across join types/layouts."""

    @staticmethod
    def _rand_side(rng, n, key_space, payload_name):
        keys = [None if rng.random() < 0.15
                else rng.randrange(key_space) for _ in range(n)]
        return pa.table({
            "k": pa.array(keys, pa.int64()),
            payload_name: pa.array(
                [rng.randrange(1000) for _ in range(n)], pa.int64()),
        })

    @staticmethod
    def _duck(left, right, how):
        import duckdb

        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        kw = {"inner": "JOIN", "left": "LEFT JOIN",
              "right": "RIGHT JOIN", "full": "FULL JOIN"}[how]
        out = con.execute(
            f"SELECT COALESCE(l.k, r.k) AS k, l.lv, r.rv "
            f"FROM l {kw} r ON l.k = r.k"
        ).fetch_arrow_table()
        con.close()
        return sorted(
            ((r["k"], r["lv"], r["rv"]) for r in out.to_pylist()),
            key=repr)

    @pytest.mark.parametrize("how", ["inner", "left", "right", "full"])
    def test_differential_vs_duckdb(self, ray_session, how):
        import random

        import ray.data

        from retired_join import expand_join

        rng = random.Random(41 + hash(how) % 97)
        for trial, (nl, nr, space, layout) in enumerate(
                [(40, 30, 8, 1), (60, 45, 5, 3), (25, 80, 12, 4)]):
            left = self._rand_side(rng, nl, space, "lv")
            right = self._rand_side(rng, nr, space, "rv")
            got = expand_join(
                ray.data.from_arrow(left).repartition(layout),
                ray.data.from_arrow(right).repartition(2),
                on="k", how=how, n_buckets=7,
            ).take_all()
            got = sorted(
                ((r["k"], r["lv"], r["rv"]) for r in got), key=repr)
            assert got == self._duck(left, right, how), (how, trial)

    def test_collision_suffix_and_key_coalesce(self, ray_session):
        import ray.data

        from retired_join import expand_join

        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, None], pa.int64()),
            "v": pa.array(["a", "b", "c"], pa.string()),
        }))
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([2, 2, 9, None], pa.int64()),
            "v": pa.array(["r1", "r2", "r9", "rn"], pa.string()),
        }))
        rows = expand_join(left, right, on="k", how="full").take_all()
        got = [(r["k"], r["v"], r["v_r"]) for r in rows]
        # k=2 expands 1x2; unmatched: left 1/None, right 9/None
        assert sorted(t for t in got if t[0] == 2) == [
            (2, "b", "r1"), (2, "b", "r2")]
        assert (1, "a", None) in got
        assert (9, None, "r9") in got
        # two null-key rows, one from each side, never matched
        nulls = [t for t in got if t[0] is None]
        assert sorted(nulls, key=str) == [
            (None, "c", None), (None, None, "rn")]
