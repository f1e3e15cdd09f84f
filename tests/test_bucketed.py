"""Bucketed storage + bucket-aligned join vs DuckDB and the
repartition_join it replaces."""

import random

import duckdb
import pyarrow as pa
import pytest

from ocr_pipeline_ray.stages.bucketed import write_bucketed
from retired_operators import bucketed_join, probe_join_tables

N_BUCKETS = 8


def _mk_pair(seed: int, n_left=120, n_right=40):
    rng = random.Random(seed)
    left = pa.table({
        "k": pa.array(
            [rng.randrange(60) if rng.random() > 0.05 else None
             for _ in range(n_left)], pa.int64()),
        "lv": pa.array(list(range(n_left)), pa.int64()),
    })
    # unique right keys: the operator's "last right row wins" tie
    # rule is physical-layout-dependent, so parity tests avoid dup
    # right keys (the dict contract itself is pinned separately)
    rkeys = rng.sample(range(80), n_right)
    right = pa.table({
        "k": pa.array(rkeys, pa.int64()),
        "rv": pa.array([f"r{i}" for i in range(n_right)], pa.string()),
    })
    return left, right


def _sql(left, right, how: str):
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    if how == "inner":
        q = "SELECT l.k, l.lv, r.rv FROM l JOIN r USING (k)"
    elif how == "left":
        q = "SELECT l.k, l.lv, r.rv FROM l LEFT JOIN r USING (k)"
    elif how == "semi":
        q = "SELECT k, lv FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)"
    else:
        q = ("SELECT k, lv FROM l WHERE NOT EXISTS "
             "(SELECT 1 FROM r WHERE r.k = l.k)")
    return con.sql(q).to_df()


def _norm(df):
    rows = [tuple(None if x != x else x for x in r)
            for r in df.itertuples(index=False, name=None)]
    return sorted(rows, key=repr)


class TestBucketedJoin:
    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_matches_sql(self, ray_session, how, tmp_path):
        import ray.data

        left, right = _mk_pair(3)
        write_bucketed(ray.data.from_arrow(left).repartition(5),
                       str(tmp_path / "l"), "k", N_BUCKETS)
        write_bucketed(ray.data.from_arrow(right).repartition(3),
                       str(tmp_path / "r"), "k", N_BUCKETS)
        got = bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"),
                            on="k", n_buckets=N_BUCKETS, how=how)
        want = _sql(left, right, how)
        if how in ("inner", "semi", "anti"):
            assert _norm(got.to_pandas()) == _norm(want)
        else:
            # left join: row count + matched subset equality
            gdf, wdf = got.to_pandas(), want
            assert len(gdf) == len(wdf)
            assert _norm(gdf.dropna(subset=["rv"])) == _norm(
                wdf.dropna(subset=["rv"]))

    def test_column_pruning(self, ray_session, tmp_path):
        import ray.data

        left, right = _mk_pair(4)
        write_bucketed(ray.data.from_arrow(left), str(tmp_path / "l"),
                       "k", N_BUCKETS)
        write_bucketed(ray.data.from_arrow(right), str(tmp_path / "r"),
                       "k", N_BUCKETS)
        out = bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"),
                            on="k", n_buckets=N_BUCKETS,
                            left_cols=["k"], right_cols=["rv"])
        assert set(out.schema().names) == {"k", "rv"}

    def test_matches_repartition_join(self, ray_session, tmp_path):
        import ray.data

        from ocr_pipeline_ray.stages.join import repartition_join

        left, right = _mk_pair(5)
        write_bucketed(ray.data.from_arrow(left), str(tmp_path / "l"),
                       "k", N_BUCKETS)
        write_bucketed(ray.data.from_arrow(right), str(tmp_path / "r"),
                       "k", N_BUCKETS)
        got = bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"),
                            on="k", n_buckets=N_BUCKETS).to_pandas()
        want = repartition_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            on="k").to_pandas()
        assert _norm(got) == _norm(want)


class TestProbeJoinTables:
    def test_null_keys_match_nothing(self):
        left = pa.table({"k": pa.array([1, None], pa.int64()),
                         "lv": pa.array([10, 20], pa.int64())})
        right = pa.table({"k": pa.array([1, None], pa.int64()),
                          "rv": pa.array(["a", "b"], pa.string())})
        out = probe_join_tables(left, right, "k", ["rv"], "inner")
        assert out.to_pydict() == {"k": [1], "lv": [10], "rv": ["a"]}


class TestBucketedAggregate:
    def test_matches_sql_group_by(self, ray_session, tmp_path):
        import duckdb
        import ray.data

        from retired_operators import bucketed_aggregate

        left, _ = _mk_pair(9)
        write_bucketed(ray.data.from_arrow(left).repartition(4),
                       str(tmp_path / "t"), "k", N_BUCKETS)
        got = bucketed_aggregate(str(tmp_path / "t"), "k", N_BUCKETS,
                                 count_name="n").to_pandas()
        con = duckdb.connect()
        con.register("t", left)
        want = con.sql(
            "SELECT k, CAST(count(*) AS BIGINT) AS n FROM t GROUP BY 1"
        ).to_df()
        assert _norm(got) == _norm(want)


class TestBucketedLookup:
    def _store(self, tmp_path, ray_session, clustered, rg=None):
        import random

        import ray.data

        from ocr_pipeline_ray.stages.bucketed import write_bucketed

        rng = random.Random(99)
        keys = [rng.randrange(200) for _ in range(2000)]
        tbl = pa.table({
            "k": pa.array(keys, pa.int64()),
            "v": pa.array(range(2000), pa.int64()),
        })
        root = str(tmp_path / ("c" if clustered else "u"))
        write_bucketed(
            ray.data.from_arrow(tbl).repartition(6), root, "k",
            n_buckets=8, clustered=clustered, row_group_size=rg)
        return tbl, root

    def test_lookup_matches_naive_filter(self, ray_session, tmp_path):
        import pyarrow.compute as pc

        from ocr_pipeline_ray.stages.bucketed import bucketed_lookup

        tbl, root = self._store(tmp_path, ray_session, clustered=False)
        for key in (0, 57, 199, 4242):  # 4242 absent
            got = bucketed_lookup(root, "k", key, n_buckets=8)
            want = tbl.filter(pc.equal(tbl.column("k"), key))
            assert sorted(got.column("v").to_pylist()) == \
                sorted(want.column("v").to_pylist())

    def test_clustered_store_prunes_row_groups(self, ray_session,
                                               tmp_path):
        from ocr_pipeline_ray.stages.bucketed import bucketed_lookup

        tbl, root = self._store(tmp_path, ray_session,
                                clustered=True, rg=50)
        _, stats = bucketed_lookup(root, "k", 57, n_buckets=8,
                                   with_stats=True)
        # a clustered bucket holds ~250 rows = ~5 row groups of 50;
        # one key spans ~1 group, so pruning must be real
        assert stats["row_groups_total"] >= 3
        assert stats["row_groups_candidate"] < stats["row_groups_total"]
        # and the clustered store returns the same rows
        import pyarrow.compute as pc
        got, _ = bucketed_lookup(root, "k", 57, n_buckets=8,
                                 with_stats=True)
        want = tbl.filter(pc.equal(tbl.column("k"), 57))
        assert sorted(got.column("v").to_pylist()) == \
            sorted(want.column("v").to_pylist())

    def test_column_prune_and_null_probe(self, ray_session, tmp_path):
        import pytest as _pytest

        from ocr_pipeline_ray.stages.bucketed import bucketed_lookup

        _, root = self._store(tmp_path, ray_session, clustered=False)
        got = bucketed_lookup(root, "k", 57, n_buckets=8,
                              columns=["v"])
        assert got.column_names == ["v"]
        with _pytest.raises(ValueError):
            bucketed_lookup(root, "k", None, n_buckets=8)


class TestBucketedAppend:
    def test_second_write_appends_and_aggregate_sees_both(
            self, ray_session, tmp_path):
        """Incremental ingestion into a bucketed store: a second
        write_bucketed into the same root adds new uniquely-named
        files inside the same _bucket= dirs (never overwrites), so
        bucket alignment holds across batches and a per-bucket
        count sees the union — the append-only contract a resumable
        100-TB ingest needs."""
        import ray.data

        from ocr_pipeline_ray.stages.bucketed import (
            _read_bucket,
            write_bucketed,
        )

        root = str(tmp_path / "store")
        t1 = pa.table({
            "k": pa.array([1, 2, 2, 3], pa.int64()),
            "v": pa.array([10, 20, 21, 30], pa.int64()),
        })
        t2 = pa.table({
            "k": pa.array([2, 3, 3, 4], pa.int64()),
            "v": pa.array([22, 31, 32, 40], pa.int64()),
        })
        write_bucketed(ray.data.from_arrow(t1), root, "k", 4)
        import glob
        n_files_1 = len(glob.glob(f"{root}/_bucket=*/*.parquet"))
        write_bucketed(ray.data.from_arrow(t2), root, "k", 4)
        n_files_2 = len(glob.glob(f"{root}/_bucket=*/*.parquet"))
        assert n_files_2 > n_files_1
        # every row of a key lives in one bucket dir, so per-bucket
        # local counts are the global per-key counts
        got = []
        for b in range(4):
            tbl = _read_bucket(root, b, ["k"])
            if tbl is not None:
                agg = tbl.group_by(["k"]).aggregate([([], "count_all")])
                got += zip(agg.column("k").to_pylist(),
                           agg.column("count_all").to_pylist())
        assert sorted(got) == [(1, 1), (2, 3), (3, 3), (4, 1)]


class TestBucketedUpsert:
    def _store(self, ray_session, tmp_path, rows=200):
        import ray.data

        tbl = pa.table({
            "k": pa.array(list(range(rows)), pa.int64()),
            "v": pa.array([f"v{i}" for i in range(rows)], pa.string()),
        })
        root = str(tmp_path / "store")
        write_bucketed(ray.data.from_arrow(tbl), root, "k", N_BUCKETS,
                       clustered=True)
        return tbl, root

    def test_merge_matches_sql(self, ray_session, tmp_path):
        import ray.data

        from ocr_pipeline_ray.stages.bucketed import bucketed_upsert

        base, root = self._store(ray_session, tmp_path)
        delta = pa.table({
            "k": pa.array([5, 10, 300, 301, 15], pa.int64()),
            "v": pa.array(["V5", "V10", "V300", "V301", None],
                          pa.string()),
            "del": pa.array([False, False, False, False, True],
                            pa.bool_()),
        })
        out = str(tmp_path / "v2")
        stats = bucketed_upsert(root, ray.data.from_arrow(delta), out,
                                "k", N_BUCKETS, tombstone_col="del")
        assert stats.column("bucket").to_pylist() == sorted(
            stats.column("bucket").to_pylist())
        con = duckdb.connect()
        con.register("b", base)
        con.register("d", delta)
        want = con.sql(
            "SELECT k, v FROM d WHERE NOT \"del\" "
            "UNION ALL SELECT b.k, b.v FROM b WHERE NOT EXISTS "
            "(SELECT 1 FROM d WHERE d.k = b.k) ORDER BY k").to_df()
        from ocr_pipeline_ray.stages.bucketed import read_bucketed
        got = read_bucketed(out, N_BUCKETS).to_pandas()[["k", "v"]]
        got = got.sort_values("k").reset_index(drop=True)
        assert _norm(got) == _norm(want)
        # merged total: 200 base - 1 delete - 2 updates survive as
        # updates + 2 inserts = 201
        assert len(got) == 201

    def test_untouched_buckets_carried_and_store_immutable(
            self, ray_session, tmp_path):
        import os

        import ray.data

        from ocr_pipeline_ray.stages.bucketed import bucketed_upsert

        base, root = self._store(ray_session, tmp_path)
        before = sorted(
            (r, tuple(sorted(f))) for r, _, f in os.walk(root))
        # single-key delta touches exactly one bucket
        delta = pa.table({"k": pa.array([7], pa.int64()),
                          "v": pa.array(["NEW"], pa.string())})
        out = str(tmp_path / "v2")
        stats = bucketed_upsert(root, ray.data.from_arrow(delta), out,
                                "k", N_BUCKETS)
        assert stats.num_rows == 1
        after = sorted(
            (r, tuple(sorted(f))) for r, _, f in os.walk(root))
        assert before == after  # old root untouched
        from ocr_pipeline_ray.stages.bucketed import read_bucketed
        got = read_bucketed(out, N_BUCKETS).to_pandas()
        assert len(got) == 200
        assert got.set_index("k")["v"][7] == "NEW"
        assert got.set_index("k")["v"][8] == "v8"

    def test_duplicate_delta_key_raises(self, ray_session, tmp_path):
        import ray.data

        from ocr_pipeline_ray.stages.bucketed import bucketed_upsert

        _, root = self._store(ray_session, tmp_path)
        delta = pa.table({"k": pa.array([1, 1], pa.int64()),
                          "v": pa.array(["a", "b"], pa.string())})
        with pytest.raises(Exception, match="duplicate key"):
            bucketed_upsert(root, ray.data.from_arrow(delta),
                            str(tmp_path / "v2"), "k", N_BUCKETS)

    def test_schema_mismatch_raises(self, ray_session, tmp_path):
        import ray.data

        from ocr_pipeline_ray.stages.bucketed import bucketed_upsert

        _, root = self._store(ray_session, tmp_path)
        delta = pa.table({"k": pa.array([1], pa.int64())})
        with pytest.raises(ValueError, match="delta columns"):
            bucketed_upsert(root, ray.data.from_arrow(delta),
                            str(tmp_path / "v2"), "k", N_BUCKETS)


class TestZoneMap:
    def _write(self, tmp_path, ranges):
        import pyarrow.parquet as pq_

        paths = []
        for i, (lo, hi) in enumerate(ranges):
            p = str(tmp_path / f"z{i}.parquet")
            pq_.write_table(pa.table({
                "k": pa.array(list(range(lo, hi + 1)), pa.int64()),
                "v": pa.array([f"v{x}" for x in range(lo, hi + 1)]),
            }), p)
            paths.append(p)
        return paths

    def test_prune_skips_disjoint_files(self, tmp_path, ray_session):
        from ocr_pipeline_ray.stages.bucketed import (
            build_zone_map,
            pruned_read,
        )

        paths = self._write(tmp_path, [(0, 9), (10, 19), (20, 29)])
        zm = build_zone_map(paths, ["k"])
        assert zm.num_rows == 3
        ds, n_read, n_skipped = pruned_read(
            paths, "k", 12, 14, zone_map=zm)
        assert (n_read, n_skipped) == (1, 2)
        assert sorted(ds.to_pandas()["k"]) == [12, 13, 14]

    def test_boundary_overlap_and_empty(self, tmp_path, ray_session):
        from ocr_pipeline_ray.stages.bucketed import pruned_read

        paths = self._write(tmp_path, [(0, 9), (10, 19)])
        ds, n_read, n_skipped = pruned_read(paths, "k", 9, 10)
        assert (n_read, n_skipped) == (2, 0)
        assert sorted(ds.to_pandas()["k"]) == [9, 10]
        ds, n_read, n_skipped = pruned_read(paths, "k", 100, 200)
        assert ds is None and (n_read, n_skipped) == (0, 2)


class TestZorder:
    def test_morton_interleave_known_values(self):
        import numpy as np

        from ocr_pipeline_ray.stages.bucketed import zorder_key

        # y occupies odd bits, x even bits: z(2,3) = y1 x1 y0 x0 = 1110
        z = zorder_key(np.array([0, 1, 0, 1, 2]),
                       np.array([0, 0, 1, 1, 3]))
        assert z.tolist() == [0, 1, 2, 3, 14]
        # clamping: out-of-domain values saturate, never wrap
        z = zorder_key(np.array([1 << 20, -5]), np.array([0, 0]))
        assert z.tolist() == [zorder_key([0xFFFF], [0])[0], 0]

    def _stage(self, tmp_path, order_cols, n_files=8):
        import numpy as np
        import pyarrow.parquet as pq_

        from ocr_pipeline_ray.stages.bucketed import zorder_key

        n = 1024
        x = np.arange(n, dtype=np.int64)
        y = (x * 37) % n  # decorrelated second dimension
        tbl = pa.table({"x": x, "y": y})
        if order_cols == "z":
            key = zorder_key(x, y)
        else:
            key = x
        tbl = tbl.take(pa.array(np.argsort(key, kind="stable")))
        paths = []
        cuts = [n * i // n_files for i in range(n_files + 1)]
        for i in range(n_files):
            p = str(tmp_path / f"{order_cols}-{i}.parquet")
            pq_.write_table(tbl.slice(cuts[i], cuts[i + 1] - cuts[i]), p)
            paths.append(p)
        return paths

    def test_2d_prune_beats_1d_layout(self, tmp_path, ray_session):
        from ocr_pipeline_ray.stages.bucketed import pruned_read_multi

        preds = {"x": (200, 327), "y": (100, 227)}
        z_paths = self._stage(tmp_path, "z")
        x_paths = self._stage(tmp_path, "x")
        zds, _, z_skip = pruned_read_multi(z_paths, preds)
        xds, _, x_skip = pruned_read_multi(x_paths, preds)
        zrows = sorted(map(tuple, zds.to_pandas().values.tolist()))
        xrows = sorted(map(tuple, xds.to_pandas().values.tolist()))
        assert zrows == xrows  # pruning never changes results
        expect = [(x, (x * 37) % 1024) for x in range(200, 328)
                  if 100 <= (x * 37) % 1024 <= 227]
        assert zrows == sorted(expect)
        # the point of Z-ordering: a 2-D box prunes on BOTH columns
        assert z_skip > x_skip

    def test_multi_pred_conjunction_and_empty(self, tmp_path,
                                              ray_session):
        from ocr_pipeline_ray.stages.bucketed import pruned_read_multi

        paths = self._stage(tmp_path, "z", n_files=4)
        ds, n_read, n_skipped = pruned_read_multi(
            paths, {"x": (5000, 6000), "y": (0, 10)})
        assert ds is None and n_read == 0 and n_skipped == 4


class TestCheckpointCleanup:
    """Scratch reclamation for checkpoint_bucketed (ADVICE r4):
    stale dirs from dead pids are swept, live dirs survive, and this
    process's dirs are registered for atexit removal."""

    def test_sweep_removes_dead_pid_dirs_only(self, tmp_path):
        import os
        from ocr_pipeline_ray.stages.bucketed import (
            _CKPT_DIRS, _register_checkpoint_cleanup,
            _sweep_stale_checkpoints)

        dead = tmp_path / "ocr_ray_ckpt_foo_999999"
        live = tmp_path / f"ocr_ray_ckpt_bar_{os.getpid()}"
        other = tmp_path / "unrelated_dir"
        nonnum = tmp_path / "ocr_ray_ckpt_baz_notapid"
        for d in (dead, live, other, nonnum):
            d.mkdir()
        _sweep_stale_checkpoints(str(tmp_path))
        assert not dead.exists()
        assert live.exists() and other.exists() and nonnum.exists()

    def test_checkpoint_registers_atexit_dir(self, ray_session,
                                             tmp_path):
        import pyarrow as pa
        import ray.data
        from ocr_pipeline_ray.stages import bucketed

        ds = ray.data.from_arrow(
            pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
        out = bucketed.checkpoint_bucketed(
            ds, "atexit_test", "k", n_buckets=4,
            scratch=str(tmp_path))
        assert out.count() == 3
        expect = str(
            tmp_path / f"ocr_ray_ckpt_atexit_test_{__import__('os').getpid()}")
        assert expect in bucketed._CKPT_DIRS
        assert bucketed._CKPT_ATEXIT_REGISTERED
