"""Watermark windows, Bloom join, rolling percentile, linear
attribution and other operators."""

import numpy as np
import pyarrow as pa


def _ds(tbl, blocks=1):
    import ray.data

    ds = ray.data.from_arrow(tbl)
    return ds.repartition(blocks) if blocks > 1 else ds


class TestRandomProjection:
    def test_exact_int_dot(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import (
            _rp_sign_matrix, random_projection)

        rng = np.random.RandomState(5)
        vecs = rng.uniform(-1, 1, (20, 8)).astype(np.float32)
        tbl = pa.table({
            "vec_id": pa.array(np.arange(20), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        })
        out = random_projection(
            _ds(tbl, 3), d_out=4).to_pandas().sort_values(
            ["vec_id", "dim"]).reset_index(drop=True)
        q = np.floor(vecs.astype(np.float64) * 1_000_000).astype(
            np.int64)
        ref = q @ _rp_sign_matrix(8, 4)
        assert (out["x"].to_numpy() == ref.reshape(-1)).all()
        # distance preservation sanity: projection is ±1/JL — inner
        # products correlate with the originals
        assert out["dim"].min() == 1 and out["dim"].max() == 4

    def test_sign_matrix_deterministic(self):
        from ocr_pipeline_ray.stages.similarity import _rp_sign_matrix

        a, b = _rp_sign_matrix(8, 4), _rp_sign_matrix(8, 4)
        assert (a == b).all()
        assert set(np.unique(a)) <= {-1, 1}


class TestImageResizer:
    def _one(self, w, h, pixels, max_side=10):
        from ocr_pipeline_ray.stages.multimodal import (
            ImageResizer, encode_pgm)

        tbl = pa.table({
            "media_id": pa.array(["a"], pa.string()),
            "payload": pa.array([encode_pgm(w, h, pixels)],
                                pa.binary()),
        })
        return ImageResizer(max_side=max_side)(tbl)

    def test_downsample_geometry_and_pixels(self):
        px = np.arange(20 * 10, dtype=np.uint8).reshape(10, 20)
        out = self._one(20, 10, px)
        assert out.column("target_w")[0].as_py() == 10
        assert out.column("target_h")[0].as_py() == 5
        # resized(x', y') = src(x'*2, y'*2)
        from ocr_pipeline_ray.stages.multimodal import decode_pnm

        r = decode_pnm(out.column("resized")[0].as_py())
        got = r["pixels"][:, :, 0]
        assert (got == px[::2, ::2]).all()

    def test_passthrough_when_small(self):
        px = np.ones((6, 9), np.uint8)
        out = self._one(9, 6, px)
        assert out.column("target_w")[0].as_py() == 9
        assert out.column("target_h")[0].as_py() == 6

    def test_garbage_payload_is_error_row(self):
        from ocr_pipeline_ray.stages.multimodal import ImageResizer

        tbl = pa.table({
            "media_id": pa.array(["bad"], pa.string()),
            "payload": pa.array([b"\x00\x01junk"], pa.binary()),
        })
        out = ImageResizer()(tbl)
        assert out.column("decode_error")[0].as_py() is not None
        assert out.column("checksum")[0].as_py() == -1

    def test_checksum_orientation_sensitive(self):
        px = np.zeros((4, 4), np.uint8)
        px[0, 1] = 7  # weight (1 + x) + 31*y = 2
        a = self._one(4, 4, px).column("checksum")[0].as_py()
        px2 = np.zeros((4, 4), np.uint8)
        px2[1, 0] = 7  # weight 1 + 31 = 32
        b = self._one(4, 4, px2).column("checksum")[0].as_py()
        assert a == 14 and b == 224 and a != b


class TestWatermarkWindows:
    def _run(self, ids, ts_hours, types=None, lateness_h=2,
             blocks=1, band_width=4):
        from retired_temporal import watermark_windows

        h = 3_600_000_000
        base = 1_700_000_000_000_000
        tbl = pa.table({
            "event_id": pa.array(ids, pa.int64()),
            "ts": pa.array([base + int(t * h) for t in ts_hours],
                           pa.timestamp("us")),
            "event_type": pa.array(types or ["e"] * len(ids),
                                   pa.string()),
        })
        out = watermark_windows(
            _ds(tbl, blocks), lateness_us=lateness_h * h,
            band_width=band_width, n_buckets=4).to_pandas()
        return out.sort_values(["hour", "event_type"]).reset_index(
            drop=True)

    def test_late_event_flagged(self):
        # arrival order 0..3; event 2 carries a 5h-stale timestamp
        out = self._run([0, 1, 2, 3], [0, 5, 0, 6])
        assert out["n_late"].sum() == 1
        assert out["n_ontime"].sum() == 3

    def test_reorder_within_lateness_on_time(self):
        # 1h behind the max seen → inside the 2h watermark
        out = self._run([0, 1, 2], [0, 3, 2])
        assert out["n_late"].sum() == 0

    def test_first_event_never_late(self):
        out = self._run([0], [100])
        assert out["n_late"].sum() == 0 and len(out) == 1

    def test_band_boundary_prefix(self):
        # band_width=2: the stale event lands in a later band than
        # the max it violates — prefix fold must carry it over
        out = self._run([0, 1, 2, 3, 4], [0, 9, 9.1, 9.2, 1],
                        band_width=2, blocks=3)
        assert out["n_late"].sum() == 1

    def test_layout_invariance(self):
        ids = list(range(40))
        ts = [(i * 7) % 19 for i in range(40)]
        a = self._run(ids, ts, blocks=1)
        b = self._run(ids, ts, blocks=9)
        assert a.equals(b)


class TestBucketChecksums:
    def _cs(self, keys, vals, blocks=1, n_buckets=4):
        from ocr_pipeline_ray.stages.stats import bucket_checksums

        tbl = pa.table({
            "k": pa.array(keys, pa.int64()),
            "v": pa.array(vals, pa.string()),
        })
        return bucket_checksums(
            _ds(tbl, blocks), "k", ["k", "v"],
            n_buckets=n_buckets).to_pandas()

    def test_layout_and_order_invariant(self):
        keys = [i % 7 for i in range(40)]
        vals = ["v%d" % i for i in range(40)]
        a = self._cs(keys, vals, blocks=1)
        b = self._cs(list(reversed(keys)), list(reversed(vals)),
                     blocks=9)
        assert a.equals(b)

    def test_single_row_change_localized(self):
        keys = list(range(16))
        a = self._cs(keys, ["x"] * 16)
        vals = ["x"] * 16
        vals[5] = "y"  # key 5 → bucket 1
        b = self._cs(keys, vals)
        diff = a.merge(b, on="bucket", suffixes=("_a", "_b"))
        changed = diff[diff.checksum_a != diff.checksum_b]
        assert changed["bucket"].tolist() == [5 % 4]
        assert (diff.n_rows_a == diff.n_rows_b).all()

    def test_mergeable_counts(self):
        out = self._cs([0, 1, 2, 3, 4, 5, 6, 7], ["a"] * 8)
        assert out["n_rows"].sum() == 8
        assert len(out) == 4


class TestBloomJoin:
    def _tables(self):
        left = pa.table({
            "k": pa.array([1, 2, 3, 4, 5, 6, 7, 8] * 3, pa.int64()),
            "x": pa.array(list(range(24)), pa.int64()),
        })
        right = pa.table({
            "k": pa.array([2, 4, 6], pa.int64()),
            "tag": pa.array(["b", "d", "f"], pa.string()),
        })
        return left, right

    def _ref(self, how):
        import duckdb

        left, right = self._tables()
        if how == "inner":
            q = ("SELECT l.k, l.x, r.tag FROM l JOIN r USING (k) "
                 "ORDER BY x")
        elif how == "semi":
            q = ("SELECT k, x FROM l WHERE k IN (SELECT k FROM r) "
                 "ORDER BY x")
        else:
            q = ("SELECT k, x FROM l WHERE k NOT IN "
                 "(SELECT k FROM r) ORDER BY x")
        con = duckdb.connect()
        con.register("l", left.to_pandas())
        con.register("r", right.to_pandas())
        return con.sql(q).df()

    def test_all_hows_match_plain_join(self, ray_session):
        from retired_join import bloom_join

        left, right = self._tables()
        for how in ("inner", "semi", "anti"):
            out = bloom_join(_ds(left, 4), _ds(right), on="k",
                             how=how, n_bits=1 << 10,
                             n_buckets=4).to_pandas()
            out = out.sort_values("x").reset_index(drop=True)
            exp = self._ref(how)
            assert out.columns.tolist() == exp.columns.tolist(), how
            for c in out.columns:
                assert (out[c] == exp[c]).all(), (how, c)

    def test_tiny_bloom_stays_exact(self, ray_session):
        # 64-bit bloom: false positives guaranteed, results exact
        from retired_join import bloom_join

        left, right = self._tables()
        out = bloom_join(_ds(left), _ds(right), on="k", how="anti",
                         n_bits=64, n_buckets=2).to_pandas()
        exp = self._ref("anti")
        out = out.sort_values("x").reset_index(drop=True)
        assert (out["x"] == exp["x"]).all()

    def test_power_of_two_guard(self, ray_session):
        import pytest

        from retired_join import bloom_join

        left, right = self._tables()
        with pytest.raises(ValueError):
            bloom_join(_ds(left), _ds(right), on="k", n_bits=1000)


class TestEmbeddingSecondMoment:
    def test_matches_numpy_and_layout_invariant(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import (
            embedding_second_moment)

        rng = np.random.RandomState(9)
        vecs = rng.uniform(-1, 1, (30, 6)).astype(np.float32)
        tbl = pa.table({
            "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        })
        q = np.floor(vecs.astype(np.float64) * 1_000_000).astype(
            np.int64)
        ref = q.T @ q
        for blocks in (1, 7):
            out = embedding_second_moment(
                _ds(tbl, blocks)).to_pandas()
            for _, r in out.iterrows():
                assert r["s"] == ref[r["i"] - 1, r["j"] - 1]
            assert len(out) == 6 * 7 // 2


class TestGroupedPrioritySample:
    def _run(self, groups, keys, weights, k=2, blocks=1):
        from ocr_pipeline_ray.stages.stats import (
            grouped_priority_sample)

        tbl = pa.table({
            "g": pa.array(groups, pa.string()),
            "k": pa.array(keys, pa.int64()),
            "w": pa.array(weights, pa.float64()),
        })
        out = grouped_priority_sample(
            _ds(tbl, blocks), k=k, group_col="g", key_col="k",
            weight_col="w", n_buckets=4).to_pandas()
        return out.sort_values("k").reset_index(drop=True)

    def test_exact_k_per_group(self):
        out = self._run(["a"] * 5 + ["b"] * 3, list(range(8)),
                        [1.0] * 8, k=2)
        assert (out.groupby("g").size() == 2).all()

    def test_layout_invariance(self):
        groups = ["g%d" % (i % 4) for i in range(40)]
        a = self._run(groups, list(range(40)),
                      [float(i % 7 + 1) for i in range(40)],
                      k=3, blocks=1)
        b = self._run(groups, list(range(40)),
                      [float(i % 7 + 1) for i in range(40)],
                      k=3, blocks=9)
        assert a.equals(b)

    def test_weight_bias(self):
        # one huge-weight row per group must (virtually) always win:
        # priority = -ln(u)/w → w=1e9 gives ~1e-9 scale priorities
        groups = ["a"] * 20
        weights = [1.0] * 19 + [1e9]
        out = self._run(groups, list(range(20)), weights, k=1)
        assert out["k"].tolist() == [19]

    def test_invalid_rows_dropped(self):
        out = self._run(["a", None, "a"], [1, 2, 3],
                        [1.0, 1.0, -1.0], k=5)
        assert out["k"].tolist() == [1]


class TestRollingPercentile:
    def _events(self, rows):
        """rows: list of (hour_offset, type, value)"""
        h = 3_600_000_000
        base = 1_700_000_000_000_000
        return pa.table({
            "ts": pa.array([base + int(r[0]) * h for r in rows],
                           pa.timestamp("us")),
            "event_type": pa.array([r[1] for r in rows], pa.string()),
            "value": pa.array([float(r[2]) for r in rows]),
        })

    def _run(self, rows, blocks=1, **kw):
        from retired_temporal import rolling_percentile

        out = rolling_percentile(_ds(self._events(rows), blocks),
                                 n_buckets=4, **kw).to_pandas()
        return out.sort_values(["event_type", "hour"]).reset_index(
            drop=True)

    def test_single_hour_p95_bin(self):
        # 19 values in bin 0, one in bin 4: p95 lands on bin 4 at
        # exactly the 95% boundary (19/20 = 0.95 → bin 0 cum 19,
        # 19*100 >= 20*95 → bin 0 wins)
        rows = [(0, "a", 1.0)] * 19 + [(0, "a", 100.0)]
        out = self._run(rows)
        assert out.loc[0, "p_bin"] == 0
        assert out.loc[0, "n_window"] == 20

    def test_window_carries_previous_hours(self):
        # hour 0: values in bin 0; hour 1: one value in bin 8 —
        # window at hour 1 sees all 4 → p95 = bin 8 (cum 3 < 3.8)
        rows = [(0, "a", 1.0)] * 3 + [(1, "a", 200.0)]
        out = self._run(rows)
        assert out.loc[1, "p_bin"] == 8
        assert out.loc[1, "n_window"] == 4

    def test_window_expires(self):
        # events 7 hours apart: second window must NOT include first
        rows = [(0, "a", 200.0), (7, "a", 1.0)]
        out = self._run(rows)
        assert out.loc[1, "n_window"] == 1
        assert out.loc[1, "p_bin"] == 0

    def test_no_anchor_without_activity(self):
        rows = [(0, "a", 1.0), (3, "a", 1.0)]
        out = self._run(rows)
        # anchors only at hours 0 and 3 — not 1, 2
        assert len(out) == 2

    def test_layout_invariance(self):
        rows = [(i % 9, "t%d" % (i % 2), (i * 37) % 490)
                for i in range(60)]
        a = self._run(rows, blocks=1)
        b = self._run(rows, blocks=11)
        assert a.equals(b)


class TestLinearAttribution:
    def _run(self, rows, blocks=1, window_hours=24):
        """rows: (user, hour_offset, type, value)"""
        from retired_temporal import linear_attribution

        h = 3_600_000_000
        base = 1_700_000_000_000_000
        tbl = pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([base + int(r[1] * h) for r in rows],
                           pa.timestamp("us")),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
            "value": pa.array([float(r[3]) for r in rows]),
        })
        out = linear_attribution(
            _ds(tbl, blocks), window_hours=window_hours,
            n_buckets=4).to_pandas()
        return out.sort_values("user_id").reset_index(drop=True)

    def test_even_split_with_trunc_remainder(self):
        # 3 clicks then a $1.00 purchase: 100 // 3 = 33 per click,
        # 99 total attributed (remainder unassigned)
        rows = [(1, 0, "click", 0), (1, 1, "click", 0),
                (1, 2, "click", 0), (1, 3, "purchase", 1.00)]
        out = self._run(rows)
        assert out.loc[0, "attributed_c"] == 99
        assert out.loc[0, "n_conv_attr"] == 1

    def test_window_excludes_old_and_same_instant(self):
        rows = [(1, 0, "click", 0),        # 30h before → outside
                (1, 30, "purchase", 2.00),
                (2, 5, "click", 0),
                (2, 5, "purchase", 2.00)]  # same instant → excluded
        out = self._run(rows)
        assert out["n_conv_orphan"].tolist() == [1, 1]
        assert out["attributed_c"].tolist() == [0, 0]

    def test_users_isolated(self):
        rows = [(1, 0, "click", 0), (2, 1, "purchase", 5.00)]
        out = self._run(rows)
        # user 2's purchase can't credit user 1's click
        assert out.loc[0, "user_id"] == 2
        assert out.loc[0, "n_conv_orphan"] == 1

    def test_overlapping_conversions_stack(self):
        # one click inside the window of two purchases
        rows = [(1, 0, "click", 0), (1, 1, "purchase", 1.00),
                (1, 2, "purchase", 3.00)]
        out = self._run(rows)
        assert out.loc[0, "attributed_c"] == 400
        assert out.loc[0, "n_conv_attr"] == 2

    def test_layout_invariance(self):
        rows = [(i % 5, (i * 3) % 40,
                 "click" if i % 3 else "purchase", (i % 7) + 0.5)
                for i in range(60)]
        a = self._run(rows, blocks=1)
        b = self._run(rows, blocks=9)
        assert a.equals(b)


class TestColumnDiff:
    def _run(self, old_rows, new_rows, blocks=1):
        from ocr_pipeline_ray.stages.diff import column_diff

        def tbl(rows):
            return pa.table({
                "k": pa.array([r[0] for r in rows], pa.int64()),
                "a": pa.array([r[1] for r in rows], pa.string()),
                "b": pa.array([r[2] for r in rows], pa.string()),
            })
        out = column_diff(_ds(tbl(old_rows), blocks),
                          _ds(tbl(new_rows), blocks), "k",
                          ["a", "b"], n_buckets=4).to_pandas()
        if len(out) == 0:
            # Ray to_pandas drops columns from 0-row Datasets
            return out
        return out.sort_values(["k", "col"]).reset_index(drop=True)

    def test_names_exact_changed_columns(self):
        out = self._run([(1, "x", "y"), (2, "p", "q")],
                        [(1, "x", "Z"), (2, "P", "Q")])
        assert list(map(tuple, out.values)) == [
            (1, "b"), (2, "a"), (2, "b")]

    def test_one_side_keys_skipped(self):
        out = self._run([(1, "x", "y")], [(2, "x", "y")])
        assert len(out) == 0

    def test_null_equals_null(self):
        out = self._run([(1, None, "y")], [(1, None, "y")])
        assert len(out) == 0
        out = self._run([(1, None, "y")], [(1, "v", "y")])
        assert list(map(tuple, out.values)) == [(1, "a")]

    def test_duplicate_key_raises(self, ray_session):
        import pytest

        with pytest.raises(Exception):
            self._run([(1, "x", "y"), (1, "x", "y")],
                      [(1, "x", "y")])
