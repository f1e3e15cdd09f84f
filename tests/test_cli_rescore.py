"""CLI entry point + post-only rescore pipeline."""

import glob
import os

from ocr_pipeline_ray.__main__ import _collect_inputs, main
from ocr_pipeline_ray.pipelines.rescore import rescore_pipeline


class TestCollectInputs:
    def test_dedup_and_sort(self, small_corpus):
        d = os.path.dirname(small_corpus[0])
        got = _collect_inputs([d, small_corpus[0]])
        assert got == sorted(set(small_corpus))

    def test_comma_list_and_glob(self, small_corpus):
        d = os.path.dirname(small_corpus[0])
        got = _collect_inputs([f"{small_corpus[0]},{small_corpus[1]}"])
        assert got == sorted(small_corpus[:2])
        got = _collect_inputs([os.path.join(d, "pages-*.parquet")])
        assert got == sorted(small_corpus)

    def test_recursive_walk(self, tmp_path):
        """-r walks nested shard trees (reference input_sorted
        recursive=True, ocr_pipeline.py:271-336 + its test)."""
        (tmp_path / "a" / "deep").mkdir(parents=True)
        (tmp_path / "b").mkdir()
        expected = []
        for rel in ("a/x-0.parquet", "a/deep/x-1.parquet", "b/y-0.parquet"):
            p = tmp_path / rel
            p.write_bytes(b"")
            expected.append(str(p))
        (tmp_path / "a" / "notes.txt").write_text("skip me")
        # non-recursive sees only the top level of the given dir
        assert _collect_inputs([str(tmp_path / "a")]) == [
            str(tmp_path / "a" / "x-0.parquet")
        ]
        got = _collect_inputs([str(tmp_path)], recursive=True)
        assert got == sorted(expected)
        # dedup across overlapping roots
        got = _collect_inputs(
            [str(tmp_path), str(tmp_path / "a")], recursive=True
        )
        assert got == sorted(expected)


class TestCli:
    def test_extract_report_resume(self, ray_session, small_corpus, tmp_path):
        out = str(tmp_path / "out")
        rc = main([*small_corpus, "-o", out, "--report"])
        assert rc == 0
        assert glob.glob(os.path.join(out, "pid=*", "*.parquet"))
        wtrs = glob.glob(os.path.join(out, "*.wtr"))
        assert len(wtrs) == 1
        header = open(wtrs[0], encoding="UTF-8").readline().split(",")
        assert len(header) == 8
        # resume: second run processes nothing
        rc = main([*small_corpus, "-o", out])
        assert rc == 0

    def test_report_parts_mode(self, ray_session, small_corpus, tmp_path):
        """--report-parts writes the at-scale partitioned report and
        its rows round-trip in ascending-ratio order."""
        from ocr_pipeline_ray.stages.report import iter_report_parts

        out = str(tmp_path / "out")
        rc = main([*small_corpus, "-o", out, "--report-parts"])
        assert rc == 0
        parts_dir = os.path.join(out, "report_parts")
        assert os.path.isfile(os.path.join(parts_dir, "_summary.json"))
        assert glob.glob(os.path.join(parts_dir, "*.parquet"))
        summary, rows_iter = iter_report_parts(parts_dir)
        rows = list(rows_iter)
        assert summary["total"] == 240
        ratios = [r["hit_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert len(rows) == summary["total"] - summary["invalid"]

    def test_config_driven_run(self, ray_session, small_corpus, tmp_path):
        out = str(tmp_path / "out")
        ini = os.path.join(os.path.dirname(__file__), "..",
                           "conf", "extract_default.ini")
        rc = main([*small_corpus, "-o", out, "-c", ini])
        assert rc == 0
        # the INI-driven run must actually EXTRACT (regression: string
        # min_len='2' used to TypeError on every row, silently writing
        # 100% error rows while still exiting 0)
        import pyarrow.parquet as pq

        files = glob.glob(os.path.join(out, "pid=*", "*.parquet"))
        tbl = pq.read_table(files, columns=["error", "n_lines",
                                            "extracted_text"])
        errors = [e for e in tbl.column("error").to_pylist() if e]
        # the corpus contains a few INTENTIONAL error docs (malformed
        # PAGE XML, non-UTF8) — but none may be TypeErrors, and they
        # must stay a small minority
        assert not any("TypeError" in e for e in errors), errors[:3]
        assert len(errors) < tbl.num_rows * 0.2, f"{len(errors)} error rows"
        n_lines = tbl.column("n_lines").to_pylist()
        assert sum(1 for n in n_lines if n > 0) > len(n_lines) * 0.8
        assert any(t for t in tbl.column("extracted_text").to_pylist())

    def test_ini_params_are_typed(self):
        from ocr_pipeline_ray.config import load_steps_ini

        specs = load_steps_ini(
            os.path.join(os.path.dirname(__file__), "..",
                         "conf", "extract_default.ini"))
        extract = next(s for s in specs if s.type == "HtmlExtract")
        assert extract.params["min_len"] == 2  # int, not '2'
        regex = next(s for s in specs if s.type == "ReplaceCharsRegex")
        assert regex.params["old"] == "3"  # literal '3' must STAY a string

    def test_set_overrides(self, ray_session, small_corpus, tmp_path):
        """--set merges CLI params over the INI (merge_args analogue,
        ocr_pipeline.py:74-93): min_len=100000 drops every line."""
        import pyarrow.parquet as pq

        out = str(tmp_path / "out")
        ini = os.path.join(os.path.dirname(__file__), "..",
                           "conf", "extract_default.ini")
        rc = main([*small_corpus, "-o", out, "-c", ini,
                   "--set", "step_01.min_len=100000"])
        assert rc == 0
        files = glob.glob(os.path.join(out, "pid=*", "*.parquet"))
        tbl = pq.read_table(files, columns=["n_lines"])
        assert all(n == 0 for n in tbl.column("n_lines").to_pylist())
        # type-name addressing + defaults chain (no -c)
        out2 = str(tmp_path / "out2")
        rc = main([*small_corpus, "-o", out2,
                   "--set", "HtmlExtract.min_len=100000"])
        assert rc == 0
        tbl2 = pq.read_table(
            glob.glob(os.path.join(out2, "pid=*", "*.parquet")),
            columns=["n_lines"])
        assert all(n == 0 for n in tbl2.column("n_lines").to_pylist())

    def test_set_override_errors(self):
        import pytest

        from ocr_pipeline_ray.config import apply_overrides, default_steps

        with pytest.raises(ValueError, match="out of range"):
            apply_overrides(default_steps(), ["step_99.min_len=3"])
        with pytest.raises(ValueError, match="no step of type"):
            apply_overrides(default_steps(), ["NopeStep.x=1"])
        with pytest.raises(ValueError, match="must look like"):
            apply_overrides(default_steps(), ["min_len=3"])

    def test_emit_alto_via_ini_chain(self, ray_session, small_corpus,
                                     tmp_path):
        """An INI chain ending in EmitAlto drives the S4 writer through
        the step registry (a whole-batch step after the compiled
        chain)."""
        import pyarrow.parquet as pq

        ini = tmp_path / "with_alto.ini"
        ini.write_text(
            "[step_01]\ntype = HtmlExtract\nmin_len = 2\n"
            "[step_02]\ntype = ReplaceChars\n"
            "dict_chars = {'ic)': 'ich', 's<': 'sc', '<': 'c'}\n"
            "[step_03]\ntype = ReplaceCharsRegex\n"
            "pattern = r'([aeioubcglnt]3[:-]*\")'\nold = 3\nnew = s\n"
            "[step_04]\ntype = FinalizeText\n"
            "[step_05]\ntype = QualityEstimate\n"
            "[step_06]\ntype = EmitAlto\n"
        )
        out = str(tmp_path / "out")
        rc = main([*small_corpus, "-o", out, "-c", str(ini)])
        assert rc == 0
        tbl = pq.read_table(
            glob.glob(os.path.join(out, "pid=*", "*.parquet")),
            columns=["alto_xml"])
        payloads = [p for p in tbl.column("alto_xml").to_pylist() if p]
        assert len(payloads) > 200
        assert all(b"\r\n" in p and b"<alto" in p for p in payloads[:10])

    def test_emit_xml_flag_matches_ini_chain(self, ray_session,
                                             small_corpus, tmp_path):
        """--emit-xml appends the same EmitAlto step an INI chain
        names, so both write byte-equal alto_xml."""
        import pyarrow.parquet as pq

        ini = tmp_path / "with_alto.ini"
        ini.write_text(
            "[step_01]\ntype = HtmlExtract\n"
            "[step_02]\ntype = ReplaceChars\n"
            "dict_chars = {'ic)': 'ich', 's<': 'sc', '<': 'c'}\n"
            "[step_03]\ntype = ReplaceCharsRegex\n"
            "pattern = r'([aeioubcglnt]3[:-]*\")'\nold = 3\nnew = s\n"
            "[step_04]\ntype = FinalizeText\n"
            "[step_05]\ntype = QualityEstimate\n"
            "[step_06]\ntype = EmitAlto\n"
        )
        outputs = []
        for name, extra in (("flag", ["--emit-xml"]),
                            ("ini", ["-c", str(ini)])):
            out = str(tmp_path / name)
            assert main([*small_corpus, "-o", out, *extra]) == 0
            tbl = pq.read_table(
                glob.glob(os.path.join(out, "pid=*", "*.parquet")),
                columns=["url", "warc_ts", "alto_xml"])
            outputs.append(sorted(zip(*(tbl.column(c).to_pylist()
                                        for c in tbl.column_names))))
        assert len(outputs[0]) == 240
        assert outputs[0] == outputs[1]

    def test_profile_flag_adds_timing_column(self, ray_session,
                                             small_corpus, tmp_path):
        import pyarrow.parquet as pq

        out = str(tmp_path / "out")
        rc = main([small_corpus[0], "-o", out, "--profile"])
        assert rc == 0
        tbl = pq.read_table(
            glob.glob(os.path.join(out, "pid=*", "*.parquet")),
            columns=["step_wall_us"])
        timing = dict(tbl.column("step_wall_us")[0].as_py())
        assert "HtmlExtract" in timing and "QualityEstimate" in timing

    def test_logdir_writes_dated_logfile(self, ray_session, small_corpus,
                                         tmp_path):
        """--logdir: dated run log (init_logger analogue,
        ocr_pipeline.py:120-158)."""
        out = str(tmp_path / "out")
        logdir = str(tmp_path / "logs")
        rc = main([*small_corpus, "-o", out, "--logdir", logdir])
        assert rc == 0
        logs = os.listdir(logdir)
        assert len(logs) == 1 and logs[0].startswith("ocr_pipeline_ray_")
        content = open(os.path.join(logdir, logs[0]), encoding="UTF-8").read()
        assert "input shard(s) discovered" in content
        assert "partitions: 4 processed" in content

    def test_missing_inputs(self, ray_session, tmp_path):
        rc = main(["/nonexistent/dir/x.parquet".replace("x", "*"),
                   "-o", str(tmp_path / "o")])
        assert rc == 2


class TestRescore:
    def test_rescore_matches_original_quality(
        self, ray_session, small_corpus, tmp_path
    ):
        from ocr_pipeline_ray.pipelines.extraction import extraction_pipeline

        out = str(tmp_path / "extracted")
        extraction_pipeline(small_corpus).write_parquet(out)
        rescored = rescore_pipeline(out).take_all()
        original = extraction_pipeline(small_corpus).take_all()
        orig_by_key = {(r["url"], r["warc_ts"]): r for r in original}
        assert len(rescored) == len(original)
        for row in rescored:
            orig = orig_by_key[(row["url"], row["warc_ts"])]
            for key in ("hit_ratio", "n_words", "n_errs", "n_lines_in",
                        "n_wraps", "n_shorts", "n_lines_out"):
                assert row[key] == orig[key], (row["url"], key)

    def test_rescore_cli(self, ray_session, small_corpus, tmp_path):
        from ocr_pipeline_ray.pipelines.extraction import extraction_pipeline

        src = str(tmp_path / "extracted")
        extraction_pipeline(small_corpus).write_parquet(src)
        out = str(tmp_path / "rescored_out")
        rc = main([os.path.join(src, "*.parquet"), "-o", out, "--rescore"])
        assert rc == 0
        assert glob.glob(os.path.join(out, "rescored", "*.parquet"))
        assert glob.glob(os.path.join(out, "*.wtr"))


    def test_rescore_rerun_counts_each_doc_once(self, ray_session,
                                                small_corpus, tmp_path):
        """A second --rescore into the same out dir replaces
        rescored/, so the report counts each doc once."""
        import pyarrow.parquet as pq

        from ocr_pipeline_ray.pipelines.extraction import extraction_pipeline

        src = str(tmp_path / "extracted")
        extraction_pipeline(small_corpus).write_parquet(src)
        out = str(tmp_path / "rescored_out")
        for _ in range(2):
            for wtr in glob.glob(os.path.join(out, "*.wtr")):
                os.remove(wtr)
            rc = main([os.path.join(src, "*.parquet"), "-o", out,
                       "--rescore"])
            assert rc == 0
        rescored = pq.read_table(os.path.join(out, "rescored"))
        assert rescored.num_rows == 240
        (wtr,) = glob.glob(os.path.join(out, "*.wtr"))
        with open(wtr, encoding="UTF-8") as fh:
            total = int(fh.readline().split(",")[6])
        assert total == 240


class TestRescoreHonorsConfig:
    def test_rescore_cli_with_ini(self, ray_session, small_corpus, tmp_path):
        """--rescore -c passes the RescoreQuality params through
        (regression: -c used to be silently ignored in rescore mode)."""
        import pyarrow.parquet as pq

        from ocr_pipeline_ray.pipelines.extraction import extraction_pipeline

        src = str(tmp_path / "extracted")
        extraction_pipeline(small_corpus).write_parquet(src)
        ini = tmp_path / "rescore_strict.ini"
        ini.write_text(
            "[step_01]\ntype = RescoreQuality\n"
            "text_col = extracted_text\nminlen = 100000\n"
        )
        out = str(tmp_path / "rescored_strict")
        rc = main([os.path.join(src, "*.parquet"), "-o", out,
                   "--rescore", "-c", str(ini)])
        assert rc == 0
        tbl = pq.read_table(
            glob.glob(os.path.join(out, "rescored", "*.parquet")),
            columns=["n_lines_out"])
        # minlen=100000 means no line is ever dense
        assert all(n == 0 for n in tbl.column("n_lines_out").to_pylist())

    def test_rescore_cli_bad_ini(self, ray_session, small_corpus, tmp_path):
        from ocr_pipeline_ray.pipelines.extraction import extraction_pipeline

        src = str(tmp_path / "extracted")
        extraction_pipeline(small_corpus).write_parquet(src)
        ini = tmp_path / "no_rescore.ini"
        ini.write_text("[step_01]\ntype = HtmlExtract\n")
        rc = main([os.path.join(src, "*.parquet"),
                   "-o", str(tmp_path / "o"), "--rescore", "-c", str(ini)])
        assert rc == 2


class TestRescoreIniConfig:
    def test_post_only_ini_chain(self, ray_session, small_corpus, tmp_path):
        """conf/rescore_post.ini drives a post-only chain through the
        step registry (the reference's ocr_config_post.ini mode)."""
        import ray.data

        from ocr_pipeline_ray.config import load_steps_ini
        from ocr_pipeline_ray.pipelines.extraction import (
            build_pipeline,
            extraction_pipeline,
        )

        src = str(tmp_path / "extracted")
        extraction_pipeline(small_corpus).write_parquet(src)
        specs = load_steps_ini(
            os.path.join(os.path.dirname(__file__), "..",
                         "conf", "rescore_post.ini")
        )
        assert [s.type for s in specs] == ["RescoreQuality"]
        ds = ray.data.read_parquet(src)
        rows = build_pipeline(ds, steps=specs).take_all()
        assert rows and all("hit_ratio" in r for r in rows)


class TestCliJsonlFormat:
    def test_jsonl_ingest_run_matches_parquet_run(
        self, ray_session, small_corpus, tmp_path
    ):
        """--format jsonl: wire files ingest to parquet staging once,
        then the normal resumable run produces the same totals as the
        parquet path; a second run reuses the staging AND the
        lineage."""
        import duckdb
        import ray.data

        from ocr_pipeline_ray.sources import pages_to_jsonl

        wire = str(tmp_path / "wire")
        pages_to_jsonl(ray.data.read_parquet(list(small_corpus)), wire)

        out_j = str(tmp_path / "out_jsonl")
        rc = main([wire, "-o", out_j, "--format", "jsonl"])
        assert rc == 0
        staging = os.path.join(out_j, "_ingest_parquet")
        assert glob.glob(os.path.join(staging, "*.parquet"))

        out_p = str(tmp_path / "out_parquet")
        assert main([*small_corpus, "-o", out_p]) == 0

        q = ("SELECT count(*) n, CAST(sum(n_words) AS BIGINT) w FROM "
             "read_parquet('{}/pid=*/*.parquet')")
        con = duckdb.connect()
        assert (con.sql(q.format(out_j)).fetchone()
                == con.sql(q.format(out_p)).fetchone())

        # resume: staging + all partitions reused
        rc = main([wire, "-o", out_j, "--format", "jsonl"])
        assert rc == 0


class TestCliWarcFormat:
    def test_warc_ingest_run_matches_parquet_run(
        self, ray_session, small_corpus, tmp_path
    ):
        """--format warc: raw crawl shards ingest to parquet staging,
        then the normal run matches the parquet path's totals."""
        import duckdb
        import ray.data

        from ocr_pipeline_ray.sources import pages_to_warc

        wire = str(tmp_path / "crawl")
        pages_to_warc(ray.data.read_parquet(list(small_corpus)), wire)
        assert glob.glob(os.path.join(wire, "*.warc.gz"))

        out_w = str(tmp_path / "out_warc")
        rc = main([wire, "-o", out_w, "--format", "warc"])
        assert rc == 0

        out_p = str(tmp_path / "out_parquet")
        assert main([*small_corpus, "-o", out_p]) == 0

        q = ("SELECT count(*) n, CAST(sum(n_words) AS BIGINT) w FROM "
             "read_parquet('{}/pid=*/*.parquet')")
        con = duckdb.connect()
        assert (con.sql(q.format(out_w)).fetchone()
                == con.sql(q.format(out_p)).fetchone())


class TestCliTrainingData:
    def test_training_tail_end_to_end(self, ray_session, small_corpus,
                                      tmp_path):
        import duckdb

        out = str(tmp_path / "out")
        rc = main([*small_corpus, "-o", out, "--training-data",
                   "--min-ratio", "50"])
        assert rc == 0
        con = duckdb.connect()
        got = con.execute(
            "SELECT count(*), count(DISTINCT md5(coalesce("
            "extracted_text, ''))) FROM "
            f"read_parquet('{out}/training/*/*.parquet', "
            "hive_partitioning=1)").fetchone()
        n_rows, n_distinct = got
        assert n_rows == n_distinct          # exact dedup held
        # gate: every surviving row satisfies the quality threshold
        bad = con.execute(
            "SELECT count(*) FROM "
            f"read_parquet('{out}/training/*/*.parquet', "
            "hive_partitioning=1) WHERE hit_ratio < 50").fetchone()[0]
        assert bad == 0
        # split column matches the content-hash rule
        mism = con.execute(
            "WITH t AS (SELECT split, CAST(('0x' || substr(md5("
            "coalesce(extracted_text, '')), 1, 8)) AS UBIGINT) % 100 "
            "AS b FROM "
            f"read_parquet('{out}/training/*/*.parquet', "
            "hive_partitioning=1)) SELECT count(*) FROM t WHERE "
            "split <> CASE WHEN b < 90 THEN 'train' "
            "WHEN b < 95 THEN 'val' ELSE 'test' END").fetchone()[0]
        assert mism == 0
        con.close()

    def test_rerun_replaces_not_appends(self, ray_session,
                                        small_corpus, tmp_path):
        import duckdb

        out = str(tmp_path / "out2")
        assert main([*small_corpus, "-o", out, "--training-data"]) == 0
        con = duckdb.connect()
        q = (f"SELECT count(*) FROM read_parquet("
             f"'{out}/training/*/*.parquet', hive_partitioning=1)")
        n1 = con.execute(q).fetchone()[0]
        # second run: extraction resumes (skips), tail replaces
        assert main([*small_corpus, "-o", out, "--training-data"]) == 0
        n2 = con.execute(q).fetchone()[0]
        con.close()
        assert n1 == n2


class TestCliAudit:
    def test_audit_artifact(self, ray_session, small_corpus, tmp_path):
        import json

        out = str(tmp_path / "out_audit")
        rc = main([*small_corpus, "-o", out, "--audit"])
        assert rc == 0
        with open(os.path.join(out, "audit.json"), encoding="UTF-8") as fh:
            audit = json.load(fh)
        assert audit["n_rows"] == 240
        # the synthetic corpus plants duplicate-url fixtures — the
        # audit must find exactly the count DuckDB sees in the input
        import duckdb

        want_dups = duckdb.sql(
            "SELECT count(*) - count(DISTINCT url) FROM read_parquet("
            f"{small_corpus!r})").fetchone()[0]
        assert audit["dup_urls"] == want_dups > 0
        assert audit["null_text"] == 0
        assert audit["error_rows"] > 0         # invalid-UTF-8 fixtures
        assert audit["unscored_rows"] >= audit["error_rows"]
        assert audit["n_hosts"] > 1
        assert 0.0 <= audit["host_gini"] <= 1.0


class TestCliEmbed:
    def test_embed_tail_writes_embeddings(self, ray_session,
                                          small_corpus, tmp_path):
        """--embed runs the actor-pool inference tail over the
        published output and writes (url, 16-dim int64 embedding)
        parquet; rerunning replaces the dir deterministically."""
        import duckdb

        from ocr_pipeline_ray.__main__ import main

        out = str(tmp_path / "out")
        rc = main([*small_corpus, "-o", out, "--embed"])
        assert rc == 0
        q = duckdb.sql(
            f"SELECT count(*), min(len(embedding)), "
            f"max(len(embedding)), count(DISTINCT url) "
            f"FROM read_parquet('{out}/embeddings/*.parquet')"
        ).fetchone()
        n, lo, hi, nurl = q
        # the fixture corpus plants duplicate urls, so distinct < n
        assert n > 0 and lo == hi == 16 and 0 < nurl <= n
        # deterministic replace on rerun
        rc = main([*small_corpus, "-o", out, "--embed"])
        assert rc == 0
        q2 = duckdb.sql(
            f"SELECT count(*) FROM "
            f"read_parquet('{out}/embeddings/*.parquet')").fetchone()
        assert q2[0] == n
