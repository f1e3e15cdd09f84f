"""Dedup + similarity operators on corpora with KNOWN duplicates."""

import random

import numpy as np
import pyarrow as pa
import pytest

from ocr_pipeline_ray.stages.dedup import shingles


class TestPrimitives:
    def test_shingles(self):
        assert shingles(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]
        assert shingles(["a", "b"], 3) == []


@pytest.fixture(scope="module")
def dup_docs_ds(ray_session):
    import ray.data

    base = "der alte turm steht am fluss unter dem hohen berg " * 4
    texts = [
        base.strip(),                                # 0
        base.strip(),                                # 1: exact dup of 0
        (base + "neuer satz am ende").strip(),       # 2: near dup of 0
        "völlig anderes dokument über bücher und seiten hier drüben",  # 3
        "noch ein ganz eigenes dokument ohne überlappung dabei jetzt",  # 4
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    return ray.data.from_arrow(tbl)


class TestDedupDistributed:

    @pytest.mark.parametrize("n_blocks", [1, 3, 7])
    def test_dedup_first_keeps_min_order_row(self, ray_session, n_blocks):
        """Bucketed first-per-key == naive per-key winner, across
        block layouts (the shuffle must not change the winner)."""
        import ray.data

        from ocr_pipeline_ray.stages.dedup import dedup_first

        rng = np.random.RandomState(11)
        n = 200
        keys = [f"k{rng.randint(0, 37)}" for _ in range(n)]
        order = rng.permutation(n).astype(np.int64)
        payload = [f"row-{i}" for i in range(n)]
        tbl = pa.table({
            "url": pa.array(keys, pa.string()),
            "warc_ts": pa.array(order, pa.int64()),
            "payload": pa.array(payload, pa.string()),
        })
        expected = {}
        for k, o, p in zip(keys, order, payload):
            if k not in expected or o < expected[k][0]:
                expected[k] = (int(o), p)
        ds = ray.data.from_arrow(tbl).repartition(n_blocks)
        rows = dedup_first(ds, key_col="url", order_col="warc_ts",
                           n_buckets=8).take_all()
        got = {r["url"]: (r["warc_ts"], r["payload"]) for r in rows}
        assert got == expected
        assert all("_kbucket" not in r for r in rows)

    def test_dedup_first_multi_order_cols(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.dedup import dedup_first

        tbl = pa.table({
            "url": pa.array(["a", "a", "a", "b"], pa.string()),
            "warc_ts": pa.array([5, 5, 5, 1], pa.int64()),
            "doc_id": pa.array([30, 10, 20, 7], pa.int64()),
        })
        rows = dedup_first(ray.data.from_arrow(tbl), key_col="url",
                           order_col=["warc_ts", "doc_id"]).take_all()
        got = {r["url"]: r["doc_id"] for r in rows}
        assert got == {"a": 10, "b": 7}

    def test_dedup_first_by_key(self, ray_session):
        import ray.data

        tbl = pa.table({
            "url": pa.array(["u1", "u1", "u2"], pa.string()),
            "warc_ts": pa.array([20, 10, 5], pa.int64()),
            "payload": pa.array(["later", "earlier", "only"], pa.string()),
        })
        from ocr_pipeline_ray.stages.dedup import dedup_first

        rows = sorted(
            dedup_first(ray.data.from_arrow(tbl)).take_all(),
            key=lambda r: r["url"],
        )
        assert [(r["url"], r["payload"]) for r in rows] == [
            ("u1", "earlier"), ("u2", "only"),
        ]


class TestSimilarity:
    @pytest.fixture(scope="class")
    def emb_ds(self, ray_session):
        import ray.data

        rng = np.random.default_rng(7)
        mat = rng.standard_normal((40, 16))
        mat[5] = mat[0] + 0.01 * rng.standard_normal(16)  # near dup of 0
        tbl = pa.table({
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array(
                [row.tolist() for row in mat], pa.list_(pa.float32())
            ),
        })
        return ray.data.from_arrow(tbl), mat

    def test_brute_force_topk(self, emb_ds):
        from ocr_pipeline_ray.stages.similarity import brute_force_topk

        ds, mat = emb_ds
        q = mat[0].tolist()
        rows = brute_force_topk(ds, q, k=5, exclude_id=0).take_all()
        assert len(rows) == 5
        assert rows[0]["vec_id"] == 5  # the planted near-dup ranks first
        sims = [r["sim"] for r in rows]
        assert sims == sorted(sims, reverse=True)

    def test_lsh_topk_recalls_planted_neighbor(self, emb_ds):
        from ocr_pipeline_ray.stages.similarity import lsh_bucketed_topk

        ds, mat = emb_ds
        rows = lsh_bucketed_topk(
            ds, mat[0].tolist(), k=5, exclude_id=0, probes=3
        ).take_all()
        assert rows and rows[0]["vec_id"] == 5

    def test_near_dup_pairs(self, emb_ds):
        from ocr_pipeline_ray.stages.similarity import embedding_near_dup_pairs

        ds, _ = emb_ds
        pairs = {(r["v1"], r["v2"])
                 for r in embedding_near_dup_pairs(ds, 0.95).take_all()}
        assert pairs == {(0, 5)}

    def test_near_dup_block_pair_join_is_exact(self, ray_session):
        """The distributed block-pair join finds EVERY pair regardless
        of block layout — compared against a numpy all-pairs oracle."""
        import ray.data

        from ocr_pipeline_ray.stages.similarity import embedding_near_dup_pairs

        rng = np.random.default_rng(11)
        mat = rng.standard_normal((60, 12))
        # plant near-dups crossing block boundaries
        for src, dst in [(0, 59), (7, 31), (20, 21), (3, 45)]:
            mat[dst] = mat[src] + 0.005 * rng.standard_normal(12)
        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = norm @ norm.T
        expected = {
            (i, j)
            for i in range(60) for j in range(i + 1, 60)
            if sims[i, j] > 0.9
        }
        assert len(expected) >= 4
        tbl = pa.table({
            "vec_id": pa.array(range(60), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat],
                                  pa.list_(pa.float64())),
        })
        ds = ray.data.from_arrow(tbl).repartition(8)
        got = {(r["v1"], r["v2"])
               for r in embedding_near_dup_pairs(ds, 0.9, max_blocks=5).take_all()}
        assert got == expected

    def test_bucketed_near_dup_subset_of_exact(self, ray_session):
        """LSH-bucketed pairs: finds identical vectors (same signature
        by construction), never reports a false positive."""
        import ray.data

        from ocr_pipeline_ray.stages.similarity import (
            bucketed_near_dup_pairs,
            embedding_near_dup_pairs,
        )

        rng = np.random.default_rng(3)
        mat = rng.standard_normal((50, 10))
        mat[10] = mat[2]            # identical → same bucket, sim 1.0
        mat[33] = mat[4] * 2.0      # scaled copy → same direction
        tbl = pa.table({
            "vec_id": pa.array(range(50), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat],
                                  pa.list_(pa.float64())),
        })
        ds = ray.data.from_arrow(tbl)
        exact = {(r["v1"], r["v2"])
                 for r in embedding_near_dup_pairs(ds, 0.99).take_all()}
        approx = {(r["v1"], r["v2"])
                  for r in bucketed_near_dup_pairs(ds, 0.99).take_all()}
        assert {(2, 10), (4, 33)} <= approx
        assert approx <= exact  # no false positives


class TestBucketTelemetry:

    def test_bucketed_near_dup_cap_deterministic(self, ray_session):
        """max_bucket truncation keeps the SMALLEST ids (sorted before
        slice), so drops are run-independent, and near_dup_bucket_stats
        measures exactly what the cap drops (ADVICE: the slice used to
        depend on shuffle order)."""
        import ray.data

        from ocr_pipeline_ray.stages.similarity import (
            bucketed_near_dup_pairs,
        )
        from retired_operators import near_dup_bucket_stats

        # 6 identical unit vectors → one signature bucket of size 6
        vecs = [[1.0, 0.0, 0.0, 0.0]] * 6
        tbl = pa.table({
            "vec_id": pa.array([9, 3, 7, 1, 5, 2], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float64())),
        })
        for layout in (1, 3):
            ds = ray.data.from_arrow(tbl).repartition(layout)
            pairs = {
                (r["v1"], r["v2"])
                for r in bucketed_near_dup_pairs(
                    ds, threshold=0.9, max_bucket=3
                ).take_all()
            }
            # smallest three ids {1,2,3} survive the cap, every run
            assert pairs == {(1, 2), (1, 3), (2, 3)}
            stats = near_dup_bucket_stats(ds, max_bucket=3).to_pylist()[0]
            assert stats["n_buckets"] == 1
            assert stats["n_hot_buckets"] == 1
            assert stats["max_bucket_size"] == 6
            assert stats["dropped_ids"] == 3

    def test_ivf_topk_subset_of_exact(self, ray_session):
        """IVF results ⊆ exact top-k universe with correct sims; a
        full probe (nprobe = n_centroids) recovers the exact top-k."""
        import ray.data

        from ocr_pipeline_ray.stages.similarity import (
            brute_force_topk,
            ivf_topk,
        )

        rng = np.random.RandomState(9)
        # three well-separated clusters so the quantizer is meaningful
        centers = np.array([[10, 0, 0, 0], [0, 10, 0, 0], [0, 0, 10, 0]],
                           dtype=float)
        mat = np.vstack([
            centers[i % 3] + rng.randn(4) * 0.5 for i in range(90)
        ])
        tbl = pa.table({
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
        })
        ds = ray.data.from_arrow(tbl)
        q = mat[0].tolist()
        exact = {(r["vec_id"], r["sim"])
                 for r in brute_force_topk(ds, q, k=10,
                                           exclude_id=0).take_all()}
        approx = {(r["vec_id"], r["sim"])
                  for r in ivf_topk(ds, q, k=10, n_centroids=6, nprobe=2,
                                    exclude_id=0).take_all()}
        # sims must agree exactly for any id found by both paths
        exact_by_id = dict(exact)
        for vid, sim in approx:
            assert exact_by_id.get(vid, sim) == sim
        # probing every list degenerates to the exact scan
        full = {(r["vec_id"], r["sim"])
                for r in ivf_topk(ds, q, k=10, n_centroids=6, nprobe=6,
                                  exclude_id=0).take_all()}
        assert full == exact
        # with clustered data, 2 probes should still find most of top-10
        assert len({v for v, _ in approx} & {v for v, _ in exact}) >= 7

    def test_embedding_lsh_recall_counts(self, ray_session):
        """Recall telemetry: exact twin vs LSH path, one row, and the
        LSH pair set is a subset of the exact set."""
        import ray.data

        from ocr_pipeline_ray.stages.similarity import embedding_lsh_recall

        rng = np.random.RandomState(5)
        base = rng.randn(20, 8)
        # 5 near-dup twins of the first 5 vectors
        twins = base[:5] + rng.randn(5, 8) * 0.01
        mat = np.vstack([base, twins])
        tbl = pa.table({
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
        })
        ds = ray.data.from_arrow(tbl)
        row = embedding_lsh_recall(ds, threshold=0.95).to_pylist()[0]
        assert row["n_exact"] >= 5
        assert 0 <= row["n_lsh"] <= row["n_exact"]
        assert row["n_common"] == row["n_lsh"]  # subset property
        assert 0.0 <= row["recall"] <= 1.0

    def test_jaccard_all_pairs_exact(self, dup_docs_ds):
        """Block-pair all-pairs Jaccard finds the known dups with the
        same scores as the scalar jaccard()."""
        from retired_operators import jaccard_all_pairs

        rows = jaccard_all_pairs(dup_docs_ds, threshold=0.5).take_all()
        got = {(r["d1"], r["d2"]): r["jaccard"] for r in rows}
        assert (0, 1) in got and got[(0, 1)] == 1.0  # exact dup
        assert (0, 2) in got and 0.5 <= got[(0, 2)] < 1.0  # near dup
        assert (1, 2) in got
        assert all(k in {(0, 1), (0, 2), (1, 2)} for k in got)

    def test_block_pair_ops_survive_empty_blocks(self, ray_session):
        """Zero-row blocks (from aggressive repartition) must not
        crash the block-pair joins (regression: empty blocks carry an
        empty schema and KeyError'd the pair tasks)."""
        import ray.data

        from retired_operators import jaccard_all_pairs
        from ocr_pipeline_ray.stages.similarity import (
            embedding_near_dup_pairs,
        )

        docs = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(
                ["der alte turm steht am fluss"] * 2, pa.string()
            ),
        })
        rows = jaccard_all_pairs(
            ray.data.from_arrow(docs).repartition(5)
        ).take_all()
        assert {(r["d1"], r["d2"]) for r in rows} == {(0, 1)}
        vecs = pa.table({
            "vec_id": pa.array([0, 1], pa.int64()),
            "embedding": pa.array([[1.0, 0.0]] * 2,
                                  pa.list_(pa.float64())),
        })
        pairs = embedding_near_dup_pairs(
            ray.data.from_arrow(vecs).repartition(5), threshold=0.9
        ).take_all()
        assert {(r["v1"], r["v2"]) for r in pairs} == {(0, 1)}

    def test_jaccard_all_pairs_excludes_empty_shingle_docs(
        self, ray_session
    ):
        """Two sub-k-token docs (empty shingle sets) are NOT emitted
        as jaccard=1.0 'true dups' — matching the lsh_recall oracle
        (SQL 0/0 → NULL drops the pair) and the LSH path, which can
        never propose them (their bands are NULL)."""
        import ray.data

        from retired_operators import jaccard_all_pairs

        docs = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["kurz", "klein", "winzig"], pa.string()),
        })
        assert jaccard_all_pairs(ray.data.from_arrow(docs)).take_all() == []

    def test_from_matrix_degenerate(self):
        from ocr_pipeline_ray.stages.similarity import _from_matrix

        assert _from_matrix(np.empty((0, 0))).to_pylist() == []
        assert _from_matrix(np.empty((0, 4))).to_pylist() == []
        assert _from_matrix(np.ones((2, 0))).to_pylist() == [[], []]


class TestMultimodal:
    def test_media_feature_stage(self, ray_session):
        import ray.data

        from fixture_writers import MEDIA_SCHEMA
        from ocr_pipeline_ray.stages.multimodal import media_feature_stage

        tbl = pa.table({
            "media_id": pa.array(["m0", "m1", "m2"], pa.string()),
            "kind": pa.array(["image", "audio", "image"], pa.string()),
            "payload": pa.array([b"\x89PNG fake", b"RIFF fake", b""], pa.binary()),
            "mime": pa.array(["image/png", "audio/wav", "image/png"], pa.string()),
            "width": pa.array([100, -1, 10], pa.int32()),
            "height": pa.array([80, -1, 10], pa.int32()),
            "duration_ms": pa.array([-1, 1200, -1], pa.int32()),
        }, schema=MEDIA_SCHEMA)
        rows = media_feature_stage(
            ray.data.from_arrow(tbl), concurrency=(1, 2), batch_size=2
        ).take_all()
        assert len(rows) == 3
        by_id = {r["media_id"]: r for r in rows}
        assert len(by_id["m0"]["features"]) == 16
        assert by_id["m2"]["decode_error"] == "empty payload"
        assert by_id["m0"]["payload_bytes"] == 9
        # deterministic features
        assert by_id["m0"]["features"] == by_id["m0"]["features"]

    def test_pgm_round_trip(self):
        from ocr_pipeline_ray.stages.multimodal import decode_pnm, encode_pgm

        px = np.arange(12, dtype=np.uint8).reshape(3, 4)
        img = decode_pnm(encode_pgm(4, 3, px))
        assert (img["width"], img["height"], img["channels"]) == (4, 3, 1)
        assert (img["pixels"][:, :, 0] == px).all()
        # comment + whitespace tolerant header
        wonky = b"P5\n# a comment\n 4\t3\n255\n" + bytes(range(12))
        assert decode_pnm(wonky)["width"] == 4
        # PPM (P6): 2x1 RGB
        ppm = b"P6\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60])
        img = decode_pnm(ppm)
        assert img["channels"] == 3
        assert img["pixels"][0, 1].tolist() == [40, 50, 60]

    def test_pgm_malformed(self):
        from ocr_pipeline_ray.stages.multimodal import decode_pnm

        for bad in (b"\x89PNG fake", b"P5\n4 3\n255\n\x00\x00",
                    b"P5\nx y\n255\n", b"P5\n0 3\n255\n"):
            with pytest.raises(ValueError):
                decode_pnm(bad)

    def test_wav_round_trip(self):
        from ocr_pipeline_ray.stages.multimodal import decode_wav, encode_wav

        samples = np.array([0, 100, -100, 32000], dtype=np.int16)
        wav = decode_wav(encode_wav(samples, framerate=8000))
        assert wav["channels"] == 1
        assert wav["framerate"] == 8000
        assert wav["n_frames"] == 4
        assert wav["duration_ms"] == 0  # 4 frames @ 8 kHz < 1 ms
        assert (wav["samples"][:, 0] == samples).all()
        long = decode_wav(encode_wav(np.zeros(8000, dtype=np.int16)))
        assert long["duration_ms"] == 1000
        with pytest.raises(ValueError):
            decode_wav(b"RIFF fake")

    def test_real_decode_stage(self, ray_session):
        """Default (real) decoder reads dims/means from the BYTES;
        garbage and video rows get decode_error, never a crash."""
        import ray.data

        from ocr_pipeline_ray.stages.multimodal import (
            encode_pgm,
            encode_wav,
            encode_y4m,
            media_feature_stage,
        )

        tbl = pa.table({
            "media_id": pa.array(["img", "wav", "vid", "codec", "bad"],
                                 pa.string()),
            "kind": pa.array(["image", "audio", "video", "video",
                              "image"], pa.string()),
            "payload": pa.array([
                encode_pgm(6, 5, 42),
                encode_wav([7] * 1600, framerate=8000),
                encode_y4m(8, 6, 5, 99),
                b"not decodable video bytes",
                b"\x89PNG fake",
            ], pa.binary()),
        })
        rows = media_feature_stage(
            ray.data.from_arrow(tbl), concurrency=(1, 2), batch_size=2
        ).take_all()
        by_id = {r["media_id"]: r for r in rows}
        img = by_id["img"]
        assert (img["decoded_width"], img["decoded_height"]) == (6, 5)
        assert img["content_mean"] == 42.0
        assert img["decode_error"] is None
        wav = by_id["wav"]
        assert wav["decoded_duration_ms"] == 200
        assert wav["content_mean"] == 7.0
        vid = by_id["vid"]
        assert (vid["decoded_width"], vid["decoded_height"]) == (8, 6)
        assert vid["decoded_duration_ms"] == 200  # 5 frames @ 25 fps
        assert vid["content_mean"] == 99.0
        assert vid["decode_error"] is None
        assert "YUV4MPEG2" in by_id["codec"]["decode_error"]
        assert "PNM" in by_id["bad"]["decode_error"]
        assert all(len(r["features"]) == 16 for r in rows)

    def test_y4m_round_trip(self):
        from ocr_pipeline_ray.stages.multimodal import (
            decode_y4m,
            encode_y4m,
        )

        vid = decode_y4m(encode_y4m(12, 8, 3, 200, fps=(30, 1)))
        assert (vid["width"], vid["height"]) == (12, 8)
        assert vid["n_frames"] == 3
        assert vid["duration_ms"] == 100
        assert vid["luma_mean"] == 200.0
        # frame params after FRAME are tolerated; mono colorspace
        mono = (b"YUV4MPEG2 W4 H2 F1:1 Cmono\n"
                b"FRAME Xsome=param\n" + bytes([10] * 8))
        v = decode_y4m(mono)
        assert v["n_frames"] == 1 and v["luma_mean"] == 10.0
        for bad in (
            b"RIFF not video",
            b"YUV4MPEG2 W0 H2 F1:1\nFRAME\n",
            b"YUV4MPEG2 W4 H2 F1:1 C420\nFRAME\n\x00\x00",  # truncated
            b"YUV4MPEG2 W4 H2 F1:1 C999x\nFRAME\n" + bytes(12),
        ):
            with pytest.raises(ValueError):
                decode_y4m(bad)
        # extended-plane colorspaces are REJECTED with the specific
        # diagnostic, never prefix-misparsed as their base layout
        with pytest.raises(ValueError, match="unsupported Y4M colorspace"):
            decode_y4m(
                b"YUV4MPEG2 W2 H2 F1:1 C444alpha\nFRAME\n" + bytes(16)
            )
        with pytest.raises(ValueError):
            encode_y4m(5, 4, 1, 0)  # odd width under 4:2:0

    def test_resize_plan(self, ray_session):
        import pyarrow as pa
        import ray.data

        from retired_operators import resize_plan_fn

        tbl = pa.table({
            "media_id": pa.array(["a", "b", "c"], pa.string()),
            "width": pa.array([1024, 256, -1], pa.int32()),
            "height": pa.array([768, 512, -1], pa.int32()),
        })
        rows = (
            ray.data.from_arrow(tbl)
            .map_batches(resize_plan_fn, batch_format="pyarrow")
            .take_all()
        )
        by_id = {r["media_id"]: r for r in rows}
        assert (by_id["a"]["target_width"], by_id["a"]["target_height"]) == (512, 384)
        assert (by_id["b"]["target_width"], by_id["b"]["target_height"]) == (256, 512)
        assert by_id["c"]["target_width"] == -1

    def test_frame_sample_plan(self, ray_session):
        import pyarrow as pa
        import ray.data

        from retired_operators import frame_sample_fn

        tbl = pa.table({
            "media_id": pa.array(["v1", "v2", "img"], pa.string()),
            "kind": pa.array(["video", "video", "image"], pa.string()),
            "duration_ms": pa.array([5000, 500000, -1], pa.int32()),
        })
        rows = (
            ray.data.from_arrow(tbl)
            .map_batches(frame_sample_fn, batch_format="pyarrow")
            .take_all()
        )
        by_id = {r["media_id"]: r for r in rows}
        assert by_id["v1"]["frame_times_ms"] == [0, 1000, 2000, 3000, 4000, 5000]
        assert len(by_id["v2"]["frame_times_ms"]) == 32  # cap binds, re-spaced
        assert by_id["img"]["frame_times_ms"] == []


class TestGroupCap:
    def _tbl(self):
        import numpy as np

        rng = np.random.default_rng(13)
        keys = rng.integers(0, 9, 120)
        return pa.table({
            "k": pa.array([f"h{x}" for x in keys], pa.string()),
            "o": pa.array(rng.permutation(120).astype("int64")),
            "payload": pa.array(range(120), pa.int64()),
        })

    @pytest.mark.parametrize("layout", [1, 5])
    def test_keeps_k_smallest_per_key(self, ray_session, layout):
        from collections import defaultdict

        import ray.data

        from ocr_pipeline_ray.stages.dedup import group_cap

        tbl = self._tbl()
        got = group_cap(
            ray.data.from_arrow(tbl).repartition(layout),
            key_col="k", order_col="o", k=3, n_buckets=8,
        ).take_all()
        expect = defaultdict(list)
        for k, o in zip(tbl.column("k").to_pylist(),
                        tbl.column("o").to_pylist()):
            expect[k].append(o)
        want = {k: sorted(v)[:3] for k, v in expect.items()}
        seen = defaultdict(list)
        for r in got:
            seen[r["k"]].append(r["o"])
        assert {k: sorted(v) for k, v in seen.items()} == want

    def test_k1_equals_dedup_first(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.dedup import dedup_first, group_cap

        tbl = self._tbl()
        a = group_cap(ray.data.from_arrow(tbl), key_col="k",
                      order_col=["o", "payload"], k=1).take_all()
        b = dedup_first(ray.data.from_arrow(tbl), key_col="k",
                        order_col=["o", "payload"]).take_all()
        key = lambda r: (r["k"], r["o"], r["payload"])
        assert sorted(map(key, a)) == sorted(map(key, b))

    def test_cap_larger_than_group_keeps_all(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.dedup import group_cap

        tbl = self._tbl()
        got = group_cap(ray.data.from_arrow(tbl), key_col="k",
                        order_col="o", k=1000).take_all()
        assert len(got) == tbl.num_rows


class TestSemanticDedup:
    def _vecs(self):
        import numpy as np

        # two tight directions + noise vectors; ids interleaved
        rng = np.random.default_rng(5)
        base_a = np.array([1.0, 0.0, 0.0, 0.0])
        base_b = np.array([0.0, 1.0, 0.0, 0.0])
        rows = []
        for i in range(40):
            if i % 3 == 0:
                v = base_a + rng.normal(0, 0.01, 4)
            elif i % 3 == 1:
                v = base_b + rng.normal(0, 0.01, 4)
            else:
                v = rng.normal(0, 1, 4)
            rows.append((i, [float(x) for x in v]))
        return rows

    def test_keep_rule_matches_reference(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.stages.kmeans import (
            _assign, kmeans_int, quantize_batch)
        from ocr_pipeline_ray.stages.similarity import semantic_dedup

        rows = self._vecs()
        tbl = pa.table({
            "vec_id": pa.array([r[0] for r in rows], pa.int64()),
            "embedding": pa.array([r[1] for r in rows],
                                  pa.list_(pa.float64())),
        })
        ds = ray.data.from_arrow(tbl)
        got = {r["vec_id"]: (r["cluster"], r["keep"])
               for r in semantic_dedup(
                   ds, k=4, iters=2, threshold=0.95,
                   scale=1_000_000).take_all()}

        # reference: same centroids -> same assignment, then the
        # keep-lowest-id rule per cluster on exact cosine
        _, cents = kmeans_int(ray.data.from_arrow(tbl), k=4, iters=2,
                              scale=1_000_000)
        q = quantize_batch(tbl.column("embedding"), 1_000_000)
        cl = _assign(q, cents)
        mat = np.array([r[1] for r in rows])
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        expect = {}
        for i, r in enumerate(rows):
            dup = any(
                cl[j] == cl[i] and rows[j][0] < r[0]
                and float(mat[i] @ mat[j]) > 0.95
                for j in range(len(rows)))
            expect[r[0]] = (int(cl[i]), not dup)
        assert got == expect
        # sanity: the tight directions actually deduplicate
        assert sum(1 for _, k in got.values() if not k) > 5

    def test_oversize_cluster_raises(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data

        from ocr_pipeline_ray.stages.similarity import semantic_dedup

        tbl = pa.table({
            "vec_id": pa.array(list(range(30)), pa.int64()),
            "embedding": pa.array(
                [[1.0, 0.0]] * 30, pa.list_(pa.float64())),
        })
        with pytest.raises(Exception):
            semantic_dedup(ray.data.from_arrow(tbl), k=2, iters=1,
                           max_cluster=5).take_all()


class TestScalarQuantize:
    def test_codes_match_numpy_reference(self, ray_session):
        import numpy as np
        import ray
        from ocr_pipeline_ray.stages.similarity import scalar_quantize

        rng = np.random.RandomState(7)
        vecs = rng.uniform(-1, 1, size=(40, 6)).astype(np.float32)
        tbl = pa.table({
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float32())),
        })
        out = scalar_quantize(
            ray.data.from_arrow(tbl).repartition(4)
        ).to_pandas().sort_values("vec_id").reset_index(drop=True)

        x = np.floor(vecs.astype(np.float64) * 1e6).astype(np.int64)
        mn, mx = x.min(axis=0), x.max(axis=0)
        rng_ = mx - mn
        expect = np.where(
            rng_ > 0, ((x - mn) * 510 + rng_) // (2 * rng_), 0)
        got = np.array([list(c) for c in out["codes"]])
        assert (got == expect).all()
        assert got.min() >= 0 and got.max() <= 255
        assert out["n_dims"].tolist() == [6] * 40

    def test_constant_dimension_codes_zero(self, ray_session):
        import numpy as np
        import ray
        from ocr_pipeline_ray.stages.similarity import scalar_quantize

        tbl = pa.table({
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array(
                [[0.5, 0.1], [0.5, 0.9], [0.5, 0.4]],
                pa.list_(pa.float32())),
        })
        out = scalar_quantize(
            ray.data.from_arrow(tbl)).to_pandas().sort_values(
            "vec_id").reset_index(drop=True)
        codes = np.array([list(c) for c in out["codes"]])
        assert (codes[:, 0] == 0).all()
        assert codes[1, 1] == 255 and codes[0, 1] == 0


class TestPqCodes:
    def test_codes_layout_independent_and_reconstruct(self, ray_session):
        import numpy as np
        import pandas.testing as pdt
        import ray
        from ocr_pipeline_ray.stages.kmeans import pq_codes

        rng = np.random.RandomState(3)
        vecs = rng.uniform(-1, 1, size=(60, 8)).astype(np.float32)
        tbl = pa.table({
            "vec_id": pa.array(range(60), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float32())),
        })
        ref = books_ref = None
        for parts in (1, 4):
            ds = ray.data.from_arrow(tbl).repartition(parts)
            codes, books = pq_codes(ds, m=2, k=3, iters=2)
            got = codes.to_pandas().sort_values("vec_id").reset_index(
                drop=True)
            if ref is None:
                ref, books_ref = got, books
            else:
                pdt.assert_frame_equal(ref, got)
                for a, b in zip(books_ref, books):
                    assert (a == b).all()
        assert set(ref.columns) == {"vec_id", "code_0", "code_1"}
        assert ref["code_0"].between(0, 2).all()
        assert ref["code_1"].between(0, 2).all()
        # codes must be the argmin against the returned codebooks
        x = np.floor(vecs.astype(np.float64) * 1e6).astype(np.int64)
        for j, book in enumerate(books_ref):
            sub = x[:, j * 4:(j + 1) * 4]
            d = ((sub[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
            assert (d.argmin(axis=1) == ref[f"code_{j}"].values).all()

    def test_dim_not_divisible_raises(self, ray_session):
        import numpy as np
        import pytest as _pytest
        import ray
        from ocr_pipeline_ray.stages.kmeans import pq_codes

        tbl = pa.table({
            "vec_id": pa.array(range(5), pa.int64()),
            "embedding": pa.array(
                [[0.1, 0.2, 0.3]] * 5, pa.list_(pa.float32())),
        })
        with _pytest.raises(ValueError):
            pq_codes(ray.data.from_arrow(tbl), m=2, k=2, iters=1)


class TestGroupCapDescending:
    def test_latest_k(self, ray_session):
        import ray
        from ocr_pipeline_ray.stages.dedup import group_cap

        tbl = pa.table({
            "url": pa.array(["a", "a", "a", "b"], pa.string()),
            "ts": pa.array([1, 3, 2, 9], pa.int64()),
        })
        out = group_cap(
            ray.data.from_arrow(tbl).repartition(2), key_col="url",
            order_col="ts", k=2, descending=True,
        ).to_pandas().sort_values(["url", "ts"]).reset_index(drop=True)
        assert list(map(tuple, out.itertuples(index=False))) == [
            ("a", 2), ("a", 3), ("b", 9)]


