"""Rate bursts, calibration, script mix, adaptive join and other
operators."""

import numpy as np
import pyarrow as pa


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


class TestRateBursts:
    def _events(self, hours_by_type):
        """hours_by_type: {type: [count for hour0, hour1, ...]} —
        expand into one row per event at the given hour."""
        types, ts = [], []
        base = np.datetime64("2024-01-01T00:00:00", "us")
        hour = np.timedelta64(3600, "s").astype("timedelta64[us]")
        for t, counts in hours_by_type.items():
            for h, c in enumerate(counts):
                for _ in range(c):
                    types.append(t)
                    ts.append(base + h * hour)
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        })

    def test_burst_detected_above_2_sigma(self, ray_session):
        from retired_temporal import rate_bursts

        # 11 quiet hours at 2/hour, one storm hour at 30: mean≈4.3,
        # σ≈7.7 → 30 is > mean + 2σ; 2 is not.
        tbl = self._events({"click": [2] * 11 + [30]})
        out = rate_bursts(_ds(tbl)).to_pandas()
        assert out.loc[0, "n_hours"] == 12
        assert out.loc[0, "n_bursts"] == 1
        assert out.loc[0, "max_n"] == 30

    def test_uniform_rate_has_no_bursts(self, ray_session):
        from retired_temporal import rate_bursts

        tbl = self._events({"view": [5] * 8})
        out = rate_bursts(_ds(tbl)).to_pandas()
        # zero variance: c·H − S == 0 for every hour → no burst
        assert out.loc[0, "n_bursts"] == 0

    def test_per_key_baselines_independent(self, ray_session):
        from retired_temporal import rate_bursts

        # 9 would be a huge burst for 'quiet' but is baseline for
        # 'busy' — baselines must not bleed across keys.
        tbl = self._events({
            "quiet": [1] * 11 + [9],
            "busy": [9] * 12,
        })
        out = rate_bursts(_ds(tbl)).to_pandas().set_index("event_type")
        assert out.loc["quiet", "n_bursts"] == 1
        assert out.loc["busy", "n_bursts"] == 0

    def test_block_layout_invariance(self, ray_session):
        from retired_temporal import rate_bursts

        tbl = self._events({"a": [1, 1, 1, 20], "b": [3, 3, 3, 3]})
        one = rate_bursts(_ds(tbl)).to_pandas()
        many = rate_bursts(
            _ds(tbl).repartition(7), n_buckets=3).to_pandas()
        assert one.equals(many)


class TestScoreCalibration:
    def test_bins_and_floor_division(self, ray_session):
        from ocr_pipeline_ray.stages.profile import score_calibration

        tbl = pa.table({
            "logit": pa.array([-17, -1, 0, 15, 16, 33], pa.int64()),
            "label_true": pa.array(
                [False, False, True, True, True, False]),
        })
        out = score_calibration(_ds(tbl), width=16).to_pandas()
        # floor division: -17 → bin -2, -1 → bin -1 (NOT 0), 0..15
        # → bin 0, 16 → bin 1, 33 → bin 2
        assert out["bin"].tolist() == [-2, -1, 0, 1, 2]
        assert out["n_docs"].tolist() == [1, 1, 2, 1, 1]
        assert out["n_pos"].tolist() == [0, 0, 2, 1, 0]
        assert out["sum_score"].tolist() == [-17, -1, 15, 16, 33]

    def test_partials_merge_across_blocks(self, ray_session):
        from ocr_pipeline_ray.stages.profile import score_calibration

        n = 100
        tbl = pa.table({
            "logit": pa.array(list(range(n)), pa.int64()),
            "label_true": pa.array([i % 2 == 0 for i in range(n)]),
        })
        out = score_calibration(
            _ds(tbl).repartition(9), width=25).to_pandas()
        assert out["n_docs"].tolist() == [25, 25, 25, 25]
        assert out["n_pos"].sum() == 50
        assert out["sum_score"].sum() == n * (n - 1) // 2


class TestScriptMix:
    def _run(self, texts):
        from ocr_pipeline_ray.stages.textstats import script_mix_fn

        batch = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        return script_mix_fn(batch).to_pandas()

    def test_pure_and_mixed_scripts(self):
        out = self._run([
            "abc XYZ",          # pure latin + 1 space → other
            "привет",           # pure cyrillic
            "cафé42",           # mixed: latin c, cyrillic а, é=other
        ])
        assert out.loc[0, "n_latin"] == 6
        assert out.loc[0, "n_other"] == 1
        assert not out.loc[0, "mixed"]
        assert out.loc[1, "n_cyrillic"] == 6
        assert not out.loc[1, "mixed"]
        assert out.loc[2, "n_latin"] == 1   # c
        assert out.loc[2, "n_cyrillic"] == 2  # а, ф
        assert out.loc[2, "n_digit"] == 2
        assert out.loc[2, "n_other"] == 1   # é (Latin-1 Supplement)
        assert bool(out.loc[2, "mixed"])

    def test_null_and_empty_kept_with_zeros(self):
        out = self._run([None, "", "ok"])
        assert len(out) == 3
        assert out.loc[0].drop("doc_id").tolist() == [0, 0, 0, 0, False]
        assert out.loc[1, "n_latin"] == 0
        assert out.loc[2, "n_latin"] == 2


class TestAggRefresh:
    def test_refresh_equals_recompute_and_chains(self, ray_session):
        from ray.data.aggregate import Sum

        from ocr_pipeline_ray.stages.stats import (
            agg_refresh, partial_sum_count)

        def raw(lo, hi):
            return pa.table({
                "t": pa.array(
                    ["a" if i % 3 else "b" for i in range(lo, hi)],
                    pa.string()),
                "v": pa.array(
                    [float(i) for i in range(lo, hi)], pa.float64()),
            })

        def agg_of(tbl):
            return _ds(tbl).map_batches(
                lambda b: partial_sum_count(
                    b, ["t"], "v", sum_name="sum_value",
                    count_name="n"),
                batch_format="pyarrow",
            ).groupby("t").aggregate(
                Sum("n", alias_name="n"),
                Sum("sum_value", alias_name="sum_value"))

        base = agg_of(raw(0, 80))
        once = agg_refresh(base, _ds(raw(80, 100)), ["t"], "v")
        # chain a second delta on the refreshed view
        twice = agg_refresh(once, _ds(raw(100, 120)), ["t"], "v")
        full = agg_of(raw(0, 120)).to_pandas().sort_values(
            "t").reset_index(drop=True)
        got = twice.to_pandas().sort_values("t").reset_index(drop=True)
        assert got["n"].tolist() == full["n"].tolist()
        assert np.allclose(got["sum_value"], full["sum_value"])


class TestCompactionPlan:
    def _stage(self, tmp_path, sizes):
        import pyarrow.parquet as pq

        paths = []
        for i, n in enumerate(sizes):
            p = str(tmp_path / f"f{i:02d}.parquet")
            pq.write_table(
                pa.table({"x": pa.array(range(n), pa.int64())}), p)
            paths.append(p)
        return paths

    def test_packing_order_and_groups(self, tmp_path):
        from ocr_pipeline_ray.stages.bucketed import compaction_plan

        # sizes: one big anchor + small tail, target 10
        paths = self._stage(tmp_path, [9, 2, 3, 1, 8])
        plan, n_groups = compaction_plan(paths, 10)
        df = plan.to_pandas()
        # packing order: 9(f0), 8(f4), 3(f2), 2(f1), 1(f3);
        # preceding totals 0,9,17,20,22 → groups 0,0,1,2,2
        assert df["file_id"].tolist() == [0, 4, 2, 1, 3]
        assert df["group_id"].tolist() == [0, 0, 1, 2, 2]
        assert n_groups == 3

    def test_empty_files_pack_last_deterministically(self, tmp_path):
        from ocr_pipeline_ray.stages.bucketed import compaction_plan

        paths = self._stage(tmp_path, [0, 5, 0])
        plan, _ = compaction_plan(paths, 5)
        df = plan.to_pandas()
        # 5-row file first, empty files after in file_id order
        assert df["file_id"].tolist() == [1, 0, 2]
        assert df["group_id"].tolist() == [0, 1, 1]


class TestSilenceDetector:
    def _detect(self, samples, threshold=16):
        from ocr_pipeline_ray.stages.multimodal import (
            SilenceDetector, encode_wav)

        det = SilenceDetector(threshold)
        batch = pa.table({
            "media_id": pa.array(["m0"], pa.string()),
            "payload": pa.array(
                [encode_wav(np.asarray(samples, np.int16))],
                pa.binary()),
        })
        return det(batch).to_pandas().iloc[0]

    def test_runs_and_longest(self):
        # silence | tone | silence-silence → 2 runs, longest 2
        row = self._detect([0, 0, 500, 0, 0, 0] + [500] * 2)
        assert row["n_samples"] == 8
        assert row["n_active"] == 3
        assert row["n_silence_runs"] == 2
        # longest run 3 samples at 8000 Hz → 3*1000//8000 = 0 ms
        assert row["longest_silence_ms"] == 0

    def test_all_silent_is_one_run(self):
        row = self._detect([0] * 16000)  # 2 s of silence
        assert row["n_silence_runs"] == 1
        assert row["n_active"] == 0
        assert row["longest_silence_ms"] == 2000

    def test_threshold_boundary(self):
        # |s| < threshold is silent; exactly threshold is ACTIVE
        row = self._detect([15, 16, -16, -15], threshold=16)
        assert row["n_active"] == 2
        assert row["n_silence_runs"] == 2

    def test_garbage_payload_errors_not_fails(self):
        from ocr_pipeline_ray.stages.multimodal import SilenceDetector

        det = SilenceDetector()
        batch = pa.table({
            "media_id": pa.array(["bad"], pa.string()),
            "payload": pa.array([b"not a wav"], pa.binary()),
        })
        row = det(batch).to_pandas().iloc[0]
        assert row["decode_error"] is not None
        assert row["n_samples"] is None or np.isnan(row["n_samples"])


class TestSeedFilter:
    def test_exact_seed_match_dropped_orthogonal_kept(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import seed_filter

        seeds = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        tbl = pa.table({
            "vec_id": pa.array([10, 11, 12], pa.int64()),
            "embedding": pa.array(
                [[2.0, 0.0, 0.0],   # parallel to seed 0 → sim 1.0
                 [0.0, 0.0, 5.0],   # orthogonal to both → sim 0.0
                 [1.0, 1.0, 0.0]],  # 45° to both → sim ~0.707
                pa.list_(pa.float64())),
        })
        out = seed_filter(_ds(tbl), seeds, threshold=0.8).to_pandas()
        out = out.set_index("vec_id")
        assert not out.loc[10, "kept"]
        assert out.loc[11, "kept"]
        assert out.loc[12, "kept"]          # 0.707107 < 0.8
        assert out.loc[10, "max_sim"] == 1.0
        assert abs(out.loc[12, "max_sim"] - 0.707107) < 1e-9

    def test_max_over_seeds_not_first(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import seed_filter

        # similar only to the SECOND seed — max must span all seeds
        seeds = [[1.0, 0.0], [0.0, 1.0]]
        tbl = pa.table({
            "vec_id": pa.array([1], pa.int64()),
            "embedding": pa.array([[0.0, 3.0]], pa.list_(pa.float64())),
        })
        out = seed_filter(_ds(tbl), seeds, threshold=0.5).to_pandas()
        assert out.loc[0, "max_sim"] == 1.0
        assert not out.loc[0, "kept"]


class TestHardNegatives:
    def test_band_excludes_dups_and_dissimilar(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import hard_negatives

        anchors = [(0, [1.0, 0.0])]
        # sims vs anchor: 1.0 (dup), 0.894, 0.447, 0.0
        tbl = pa.table({
            "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
            "embedding": pa.array(
                [[2.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0]],
                pa.list_(pa.float64())),
        })
        out = hard_negatives(_ds(tbl), anchors, lo=0.1, hi=0.9,
                             k=5).to_pandas()
        # 1.0 > hi excluded; 0.0 <= lo excluded; band keeps 2 rows
        assert out["vec_id"].tolist() == [2, 3]
        assert out["sim"].tolist() == [0.894427, 0.447214]

    def test_topk_and_tie_by_id_across_blocks(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import hard_negatives

        anchors = [(99, [1.0, 0.0])]
        # six vectors with identical in-band sim — ties break to
        # ascending id, and the global k must hold across blocks
        tbl = pa.table({
            "vec_id": pa.array([5, 3, 8, 1, 9, 7], pa.int64()),
            "embedding": pa.array(
                [[1.0, 1.0]] * 6, pa.list_(pa.float64())),
        })
        out = hard_negatives(
            _ds(tbl).repartition(3), anchors, lo=0.5, hi=0.8,
            k=4).to_pandas()
        assert out["vec_id"].tolist() == [1, 3, 5, 7]


class TestVocabGrowth:
    def test_curve_and_first_doc_semantics(self, ray_session):
        from ocr_pipeline_ray.stages.textstats import vocab_growth

        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                ["a b", "a c", "a b c", "d"], pa.string()),
        })
        out = vocab_growth(_ds(tbl), [1, 2, 4]).to_pandas()
        assert out["cp"].tolist() == [1, 2, 4]
        assert out["n_tokens"].tolist() == [2, 4, 8]
        # distinct: {a,b} → {a,b,c} → {a,b,c,d}
        assert out["n_distinct"].tolist() == [2, 3, 4]

    def test_block_layout_invariance(self, ray_session):
        from ocr_pipeline_ray.stages.textstats import vocab_growth

        tbl = pa.table({
            "doc_id": pa.array(list(range(20)), pa.int64()),
            "text": pa.array(
                [f"t{i % 7} common x{i}" for i in range(20)],
                pa.string()),
        })
        one = vocab_growth(_ds(tbl), [5, 10, 20]).to_pandas()
        many = vocab_growth(
            _ds(tbl).repartition(6), [5, 10, 20]).to_pandas()
        assert one.equals(many)


class TestInferenceBuckets:
    def test_caps_counts_and_waste(self, ray_session):
        from ocr_pipeline_ray.queries._composites import q_inference_buckets
        import pyarrow.parquet as pq
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            pq.write_table(pa.table({
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                # 2, 3, 5 tokens → caps 2, 4, 8
                "text": pa.array(["a b", "a b c", "a b c d e"]),
            }), os.path.join(d, "documents.parquet"))
            out = q_inference_buckets(d).to_pandas()
        assert out["bucket_cap"].tolist() == [2, 4, 8]
        assert out["n_docs"].tolist() == [1, 1, 1]
        assert out["padding_waste"].tolist() == [0, 1, 3]


class TestDomainHoldoutSplit:
    def test_all_docs_of_a_host_share_a_split(self, ray_session):
        from ocr_pipeline_ray.queries._composites import q_domain_holdout_split

        out = q_domain_holdout_split(
            "/root/testdata/sf0.001").to_pandas()
        # host id rule: doc_id%3==0 → host0 else doc_id%97
        def host(i):
            return 0 if i % 3 == 0 else i % 97
        out["host"] = out["doc_id"].map(host)
        per_host = out.groupby("host")["split"].nunique()
        assert (per_host == 1).all()
        assert set(out["split"]) == {"train", "test"}


class TestParseSitemap:
    def _parse(self, xml):
        from ocr_pipeline_ray.stages.web import parse_sitemap

        batch = pa.table({
            "host": pa.array(["h.example.com"], pa.string()),
            "sitemap_xml": pa.array([xml], pa.string()),
        })
        return parse_sitemap(batch).to_pandas()

    def test_namespace_and_optional_fields(self):
        out = self._parse(
            '<urlset xmlns="http://www.sitemaps.org/schemas/'
            'sitemap/0.9">'
            "<url><loc>http://h/a</loc><lastmod>2024-02-01</lastmod>"
            "</url>"
            "<url><loc>http://h/b</loc><priority>0.5</priority></url>"
            "</urlset>")
        assert out["loc"].tolist() == ["http://h/a", "http://h/b"]
        assert out["entry_idx"].tolist() == [0, 1]
        assert out.loc[0, "lastmod"] == "2024-02-01"
        assert out.loc[0, "priority"] is None
        assert out.loc[1, "priority"] == "0.5"

    def test_locless_skipped_and_malformed_yields_zero(self):
        out = self._parse(
            "<urlset><url><priority>1.0</priority></url>"
            "<url><loc>http://h/x</loc></url></urlset>")
        assert out["loc"].tolist() == ["http://h/x"]
        assert out["entry_idx"].tolist() == [0]
        assert len(self._parse("<urlset><url>")) == 0
        assert len(self._parse("<sitemapindex></sitemapindex>")) == 0


class TestFixMojibake:
    def test_repairs_computed_digraphs(self):
        from ocr_pipeline_ray.stages.normalize import fix_mojibake_fn

        batch = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(
                ["cafÃ© â€” rÃ©sumÃ©â€¦", "plain ascii"], pa.string()),
        })
        out = fix_mojibake_fn(batch).to_pandas()
        assert out.loc[0, "text_fixed"] == "café — résumé…"
        assert out.loc[1, "text_fixed"] == "plain ascii"

    def test_table_is_exact_roundtrip(self):
        from ocr_pipeline_ray.stages.normalize import MOJIBAKE

        for moji, target in MOJIBAKE.items():
            assert target.encode("utf-8").decode("cp1252") == moji


class TestReviewRegressions:
    """Pins for the session-10 review findings."""

    def test_silence_stereo_frames_not_interleaved(self):
        import io
        import wave

        from ocr_pipeline_ray.stages.multimodal import SilenceDetector

        # 1 s of stereo silence at 8000 fps: longest must be 1000 ms
        # (frames), not 2000 (interleaved samples)
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(b"\x00\x00" * 2 * 8000)
        det = SilenceDetector()
        row = det(pa.table({
            "media_id": pa.array(["s"], pa.string()),
            "payload": pa.array([buf.getvalue()], pa.binary()),
        })).to_pandas().iloc[0]
        assert row["n_samples"] == 8000
        assert row["longest_silence_ms"] == 1000

    def test_silence_zero_framerate_is_error_row(self):
        import io
        import wave

        from ocr_pipeline_ray.stages.multimodal import SilenceDetector

        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(1)
            wf.writeframes(b"\x00\x00" * 4)
        # corrupt the header's sample-rate field to 0
        raw = bytearray(buf.getvalue())
        at = raw.find((1).to_bytes(4, "little"), 20)
        raw[at:at + 4] = (0).to_bytes(4, "little")
        det = SilenceDetector()
        row = det(pa.table({
            "media_id": pa.array(["z"], pa.string()),
            "payload": pa.array([bytes(raw)], pa.binary()),
        })).to_pandas().iloc[0]
        assert row["decode_error"] is not None

    def test_rate_bursts_int_keys(self, ray_session):
        from retired_temporal import rate_bursts

        ts = pa.array(
            [np.datetime64("2024-01-01T00", "us")] * 3
            + [np.datetime64("2024-01-01T01", "us")] * 3,
            pa.timestamp("us"))
        tbl = pa.table({
            "user_id": pa.array([7, 7, 8, 7, 8, 8], pa.int64()),
            "ts": ts,
        })
        out = rate_bursts(_ds(tbl), key_col="user_id").to_pandas()
        assert out["user_id"].tolist() == [7, 8]
        assert str(out["user_id"].dtype) == "int64"

    def test_vocab_growth_duplicate_checkpoints(self, ray_session):
        from ocr_pipeline_ray.stages.textstats import vocab_growth

        tbl = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["a b", "c"], pa.string()),
        })
        out = vocab_growth(_ds(tbl), [2, 2, 2]).to_pandas()
        assert len(out) == 1
        assert out.loc[0, "n_tokens"] == 3
        assert out.loc[0, "n_distinct"] == 3
