"""EXCEPT/INTERSECT set ops and exact-k hash sampling vs their DuckDB
twins."""

import random

import duckdb
import pyarrow as pa
import pytest

from ocr_pipeline_ray.stages.setops import except_distinct, intersect_distinct
from ocr_pipeline_ray.stages.stats import hash_sample_exact


def _duck2(lt: pa.Table, rt: pa.Table, sql: str):
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    return con.sql(sql).arrow()


def _norm_sorted(rows):
    """NaN→None (pandas nullable round-trip) and a None-safe order."""
    normed = [tuple(None if x != x else x for x in r) for r in rows]
    return sorted(normed, key=repr)


def _rows(ds):
    df = ds.to_pandas()
    return _norm_sorted(df.itertuples(index=False, name=None))


def _mk(rows):
    return pa.table({
        "a": pa.array([r[0] for r in rows], pa.string()),
        "b": pa.array([r[1] for r in rows], pa.int64()),
    })


class TestSetOps:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sql(self, ray_session, seed):
        import ray.data

        rng = random.Random(seed)
        # duplicate-heavy, overlapping, with NULLs on both sides
        pool = [("x", 1), ("y", 2), (None, 3), ("z", None), ("w", 9)]
        lt = _mk([pool[rng.randrange(5)] for _ in range(40)])
        rt = _mk([pool[rng.randrange(3)] for _ in range(30)])
        lds = ray.data.from_arrow(lt).repartition(4)
        rds = ray.data.from_arrow(rt).repartition(3)
        got_ex = _rows(except_distinct(lds, rds, n_buckets=8))
        got_in = _rows(intersect_distinct(lds, rds, n_buckets=8))
        want_ex = _norm_sorted(_duck2(
            lt, rt, "SELECT * FROM l EXCEPT SELECT * FROM r"
        ).to_pandas().itertuples(index=False, name=None))
        want_in = _norm_sorted(_duck2(
            lt, rt, "SELECT * FROM l INTERSECT SELECT * FROM r"
        ).to_pandas().itertuples(index=False, name=None))
        assert got_ex == want_ex
        assert got_in == want_in

    def test_schema_mismatch_raises(self, ray_session):
        import ray.data

        lds = ray.data.from_arrow(_mk([("x", 1)]))
        rds = ray.data.from_arrow(pa.table({
            "a": pa.array(["x"], pa.string()),
        }))
        with pytest.raises(ValueError):
            except_distinct(lds, rds)


class TestHashSampleExact:
    def test_exact_k_matches_sql(self, ray_session):
        import ray.data

        n = 500
        tbl = pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "v": pa.array([i * 7 % 13 for i in range(n)], pa.int64()),
        })
        ds = ray.data.from_arrow(tbl).repartition(7)
        got = hash_sample_exact(ds, k=50, key_col="doc_id").to_pandas()
        con = duckdb.connect()
        con.register("t", tbl)
        want = con.sql(
            "SELECT doc_id, v FROM t "
            "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT 50"
        ).to_df()
        assert sorted(got["doc_id"]) == sorted(want["doc_id"])
        assert len(got) == 50

    def test_k_larger_than_n(self, ray_session):
        import ray.data

        tbl = pa.table({"doc_id": pa.array([1, 2, None], pa.int64())})
        got = hash_sample_exact(
            ray.data.from_arrow(tbl), k=10, key_col="doc_id"
        ).to_pandas()
        # null key dropped, everything else kept
        assert sorted(got["doc_id"]) == [1, 2]


class TestUnionDistinct:
    def test_randomized_parity_vs_duckdb(self, ray_session):
        import random

        import duckdb
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.stages.setops import union_distinct

        rng = random.Random(17)

        def side(n):
            return pa.table({
                "a": pa.array(
                    [None if rng.random() < 0.15
                     else rng.randrange(4) for _ in range(n)],
                    pa.int64()),
                "b": pa.array(
                    [None if rng.random() < 0.15
                     else "xy"[rng.randrange(2)] for _ in range(n)],
                    pa.string()),
            })

        l, r = side(60), side(45)
        got = union_distinct(
            ray.data.from_arrow(l).repartition(3),
            ray.data.from_arrow(r).repartition(2), n_buckets=5
        ).take_all()
        got = sorted(((x["a"], x["b"]) for x in got), key=repr)
        con = duckdb.connect()
        con.register("l", l)
        con.register("r", r)
        want = sorted((tuple(x) for x in con.execute(
            "SELECT a, b FROM l UNION SELECT a, b FROM r"
        ).fetchall()), key=repr)
        con.close()
        assert got == want


class TestPrioritySampleK:
    def test_layout_invariant_and_weight_biased(self, ray_session):
        import numpy as np
        import ray.data

        from ocr_pipeline_ray.stages.stats import priority_sample_k

        n = 4000
        # half the rows carry 20x the weight
        tbl = pa.table({
            "id": pa.array(list(range(n)), pa.int64()),
            "w": pa.array([20.0 if i % 2 == 0 else 1.0
                           for i in range(n)], pa.float64()),
        })
        outs = []
        for parts in (1, 7):
            got = priority_sample_k(
                ray.data.from_arrow(tbl).repartition(parts),
                200, "id", "w").to_pandas().sort_values(
                "id").reset_index(drop=True)
            outs.append(got)
        assert outs[0].equals(outs[1])          # layout invariance
        assert len(outs[0]) == 200              # exact k
        heavy = (outs[0]["id"] % 2 == 0).sum()
        assert heavy > 160                      # ~20:1 inclusion bias

    def test_null_and_nonpositive_weights_dropped(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.stats import priority_sample_k

        tbl = pa.table({
            "id": pa.array([1, 2, 3, 4, None], pa.int64()),
            "w": pa.array([1.0, 0.0, -2.0, None, 5.0], pa.float64()),
        })
        got = priority_sample_k(ray.data.from_arrow(tbl), 10, "id",
                                "w").to_pandas()
        assert got["id"].tolist() == [1]
