"""Unit tests for curation operators: event transitions, DSIR
scoring, the perceptual image hash, SCD2 intervals and the web
curation operators."""

import os
import sys

import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _events_tbl(rows):
    return pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })


class TestEventTransitions:
    def test_pairs_and_block_invariance(self, ray_session):
        import ray

        from retired_temporal import event_transitions

        us = 1_000_000
        rows = [
            (1, 0 * us, 1, "view"),
            (1, 1 * us, 2, "click"),
            (1, 2 * us, 3, "view"),
            (2, 0 * us, 4, "view"),
            (2, 5 * us, 5, "click"),
            (3, 9 * us, 6, "buy"),  # single event: no transition
        ]
        want = {("click", "view"): 1, ("view", "click"): 2}
        for layout in (1, 3, 6):
            ds = ray.data.from_arrow(_events_tbl(rows)).repartition(layout)
            got = {
                (r["src_type"], r["dst_type"]): r["n"]
                for r in event_transitions(ds, n_buckets=4).take_all()
            }
            assert got == want, layout

    def test_tie_break_by_event_id(self, ray_session):
        import ray

        from retired_temporal import event_transitions

        rows = [(1, 0, 2, "b"), (1, 0, 1, "a"), (1, 0, 3, "c")]
        got = {
            (r["src_type"], r["dst_type"]): r["n"]
            for r in event_transitions(
                ray.data.from_arrow(_events_tbl(rows)), n_buckets=2
            ).take_all()
        }
        assert got == {("a", "b"): 1, ("b", "c"): 1}


class TestDsir:
    def test_weight_table_direction(self):
        from ocr_pipeline_ray.stages.dsir import dsir_weight_table

        n_raw = np.array([100, 100], dtype=np.int64)
        n_tgt = np.array([90, 0], dtype=np.int64)
        w = dsir_weight_table(n_raw, n_tgt)
        # bucket 0 is target-enriched, bucket 1 target-absent
        assert w[0] > 0 > w[1]

    def test_scores_follow_target_vocab(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.dsir import dsir_scores

        docs = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([
                "alpha alpha beta", "alpha beta",
                "gamma delta", "gamma gamma delta",
            ], pa.string()),
            "is_target": pa.array([True, True, False, False]),
        })
        out = dsir_scores(
            ray.data.from_arrow(docs).repartition(2), dim=64
        ).take_all()
        by_id = {r["doc_id"]: r for r in out}
        assert by_id[1]["n_tokens"] == 3
        # target-vocab docs must outscore raw-only-vocab docs
        assert min(by_id[1]["dsir_micro_nats"],
                   by_id[2]["dsir_micro_nats"]) > max(
            by_id[3]["dsir_micro_nats"], by_id[4]["dsir_micro_nats"])


class TestImageDhash:
    def test_dhash_bits(self):
        from ocr_pipeline_ray.stages.multimodal import dhash64

        # strictly increasing rows -> every comparison true -> all 64
        # bits set
        px = np.tile(np.arange(9, dtype=np.uint8), (8, 1))
        assert dhash64(px) == 0xFFFFFFFFFFFFFFFF
        # constant raster -> no bit set
        assert dhash64(np.zeros((8, 9), dtype=np.uint8)) == 0
        with pytest.raises(ValueError):
            dhash64(np.zeros((8, 8), dtype=np.uint8))

    def test_hasher_stage_and_error_path(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.multimodal import (
            encode_pgm,
            image_dhash_stage,
        )

        good = encode_pgm(9, 8, np.arange(72, dtype=np.uint8).reshape(8, 9))
        wrong_dims = encode_pgm(4, 4, 7)
        garbage = b"not an image"
        tbl = pa.table({
            "media_id": pa.array(["a", "b", "c"], pa.string()),
            "payload": pa.array([good, wrong_dims, garbage], pa.binary()),
        })
        rows = {r["media_id"]: r for r in image_dhash_stage(
            ray.data.from_arrow(tbl), concurrency=(1, 2)).take_all()}
        assert rows["a"]["dhash"] is not None
        assert rows["a"]["decode_error"] is None
        assert rows["b"]["dhash"] is None
        assert "raster" in rows["b"]["decode_error"]
        assert rows["c"]["dhash"] is None
        assert rows["c"]["decode_error"]


class TestScd2:
    def test_runs_and_reopen(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.temporal import scd2_intervals

        us = 1_000_000
        rows = [
            (1, 0 * us, 1, "a"),
            (1, 1 * us, 2, "a"),   # same run
            (1, 2 * us, 3, "b"),   # change
            (1, 3 * us, 4, "a"),   # 'a' reopens as a NEW interval
            (2, 0 * us, 5, "x"),
        ]
        for layout in (1, 5):
            got = scd2_intervals(
                ray.data.from_arrow(_events_tbl(rows)).repartition(layout),
                n_buckets=4,
            ).take_all()
            got = sorted(
                [(r["user_id"], r["event_type"],
                  r["valid_from"].timestamp() if r["valid_from"] else None,
                  r["valid_to"].timestamp() if r["valid_to"] else None)
                 for r in got]
            )
            assert got == [
                (1, "a", 0.0, 2.0), (1, "a", 3.0, None),
                (1, "b", 2.0, 3.0), (2, "x", 0.0, None),
            ], layout


class TestRobotsFilter:
    def test_prefix_semantics(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.web import robots_filter

        rules = pa.table({
            "host": pa.array(["a.com", "a.com", "b.com"], pa.string()),
            "prefix": pa.array(["/p/1", "/secret", "/p"], pa.string()),
        })
        urls = [
            "http://a.com/p/1",      # blocked (exact)
            "http://a.com/p/12",     # blocked (prefix)
            "http://a.com/p/2",      # allowed
            "http://a.com/secretX",  # blocked (prefix, len 7)
            "http://b.com/p/1",      # blocked (b.com /p rule)
            "http://c.com/p/1",      # allowed (no rules for c.com)
            "http://a.com",          # allowed (path '/')
        ]
        tbl = pa.table({"url": pa.array(urls, pa.string())})
        kept = [r["url"] for r in robots_filter(
            ray.data.from_arrow(tbl), rules).take_all()]
        assert sorted(kept) == sorted([
            "http://a.com/p/2", "http://c.com/p/1", "http://a.com"])
        dropped = [r["url"] for r in robots_filter(
            ray.data.from_arrow(tbl), rules, how="drop").take_all()]
        assert len(dropped) == 4


class TestDistinctiveTerms:
    def test_side_separation(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.textstats import distinctive_terms

        docs = pa.table({
            "text": pa.array([
                "apple apple pie", "apple tart",
                "kuchen brot", "brot brot butter",
            ], pa.string()),
            "is_a": pa.array([True, True, False, False]),
        })
        out = distinctive_terms(
            ray.data.from_arrow(docs).repartition(2), "is_a", k=3
        ).take_all()
        # side-A vocabulary must rank above side-B vocabulary
        assert out[0]["token"] == "apple"
        assert all(r["z"] >= out[-1]["z"] for r in out)
        assert "brot" not in {r["token"] for r in out}


class TestGroupedTopk:
    def test_rank_and_tie(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.stats import grouped_topk

        tbl = pa.table({
            "k": pa.array(["x"] * 6 + ["y"] * 2, pa.string()),
            "v": pa.array(["b", "b", "b", "a", "a", "c", "q", "p"],
                          pa.string()),
        })
        got = [(r["k"], r["v"], r["n"], r["rk"]) for r in grouped_topk(
            ray.data.from_arrow(tbl).repartition(3), "k", "v", k=2,
            n_buckets=4).sort(["k", "rk"]).take_all()]
        assert got == [
            ("x", "b", 3, 1), ("x", "a", 2, 2),
            # y: tie at n=1 broken lexicographically, k=2 keeps both
            ("y", "p", 1, 1), ("y", "q", 1, 2),
        ]


class TestHostGini:
    def test_uniform_and_concentrated(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.web import host_gini

        uniform = pa.table({"url": pa.array(
            [f"http://h{i}.com/p" for i in range(4) for _ in range(5)],
            pa.string())})
        out = host_gini(ray.data.from_arrow(uniform))
        assert out.column("gini")[0].as_py() == 0.0
        assert out.column("n_hosts")[0].as_py() == 4
        skewed = pa.table({"url": pa.array(
            ["http://big.com/p"] * 97 + ["http://s1.com/p",
                                         "http://s2.com/p",
                                         "http://s3.com/p"],
            pa.string())})
        g = host_gini(ray.data.from_arrow(skewed)).column(
            "gini")[0].as_py()
        assert g > 0.7


class TestGroupedArgmax:
    def test_partial_argmax_block_invariance(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.stats import grouped_argmax

        tbl = pa.table({
            "cluster": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "score": pa.array([5, 9, 9, 3, 3], pa.int64()),
            "doc": pa.array([10, 30, 20, 7, 4], pa.int64()),
        })
        for layout in (1, 2, 5):
            got = sorted(
                (r["cluster"], r["doc"], r["score"])
                for r in grouped_argmax(
                    ray.data.from_arrow(tbl).repartition(layout),
                    "cluster", "score", "doc", n_buckets=4).take_all())
            # cluster 1: max score 9, tie -> min doc 20
            # cluster 2: tie at 3 -> min doc 4
            assert got == [(1, 20, 9), (2, 4, 3)], layout


class TestWordlistGate:
    def test_counts_and_flag(self, ray_session):
        import ray

        from ocr_pipeline_ray.stages.textstats import wordlist_gate_fn

        docs = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["bad stuff bad", "all clean here", "", None],
                pa.string()),
        })
        out = wordlist_gate_fn(docs, ["bad", "worse"])
        got = {i: (n, k) for i, n, k in zip(
            out.column("doc_id").to_pylist(),
            out.column("n_blocked").to_pylist(),
            out.column("kept").to_pylist())}
        # '' and NULL split to one '' token -> not blocked, kept
        assert got == {1: (2, False), 2: (0, True),
                       3: (0, True), 4: (0, True)}


def test_bench_queries_exist():
    """Every bench.py entry must name a real QUERIES key (typo guard
    — a dangling name would crash the driver's per-round bench)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    from ocr_pipeline_ray.queries import QUERIES

    missing = [q for q in bench.BENCH_QUERIES if q not in QUERIES]
    assert not missing, missing
    assert len(set(bench.BENCH_QUERIES)) == len(bench.BENCH_QUERIES)


class TestSceneCuts:
    def test_cuts_from_decoded_planes(self, ray_session):
        import ray
        from ocr_pipeline_ray.stages.multimodal import (
            encode_y4m_frames,
            scene_cut_stage,
            y4m_frame_luma_sums,
        )

        # fills: 10,10,200 (one cut at frame 2), constant (none)
        p1 = encode_y4m_frames(4, 4, [10, 10, 200])
        p2 = encode_y4m_frames(4, 4, [50, 50])
        w, h, sums = y4m_frame_luma_sums(p1)
        assert (w, h) == (4, 4)
        assert sums == [160, 160, 3200]
        tbl = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array([p1, p2], pa.binary()),
        })
        out = scene_cut_stage(
            ray.data.from_arrow(tbl), threshold=6,
            concurrency=(1, 2)).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        assert out["n_frames"].tolist() == [3, 2]
        assert out["n_cuts"].tolist() == [1, 0]
        assert out["first_cut"].tolist() == [2, -1]
        assert out["error"].isna().all()

    def test_non_y4m_payload_errors(self, ray_session):
        import ray
        from ocr_pipeline_ray.stages.multimodal import scene_cut_stage

        tbl = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "payload": pa.array([b"\x00codec"], pa.binary()),
        })
        out = scene_cut_stage(
            ray.data.from_arrow(tbl), concurrency=(1, 1)).to_pandas()
        assert out["n_frames"].tolist() == [0]
        assert out["error"].notna().all()
