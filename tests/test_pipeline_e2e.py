"""End-to-end: Ray pipeline output byte-identical to the oracle."""

import pyarrow.parquet as pq
import pytest

from ocr_pipeline_ray.functions.oracle import process_page
from ocr_pipeline_ray.pipelines.extraction import extraction_pipeline
from ocr_pipeline_ray.stages.normalize import merge_repl_stats
from ocr_pipeline_ray.stages.report import (
    quality_summary,
    sorted_report,
    write_wtr,
)


@pytest.fixture(scope="module")
def pipeline_rows(ray_session, small_corpus):
    ds = extraction_pipeline(small_corpus)
    rows = ds.take_all()
    return rows


@pytest.fixture(scope="module")
def source_rows(small_corpus):
    rows = []
    for path in small_corpus:
        rows.extend(pq.read_table(path).to_pylist())
    return {(r["url"], r["warc_ts"]): r for r in rows}


class TestParity:
    def test_row_count(self, pipeline_rows, source_rows):
        assert len(pipeline_rows) == len(source_rows)

    def test_byte_identical_text_and_quality(self, pipeline_rows, source_rows):
        assert pipeline_rows, "pipeline produced no rows"
        for row in pipeline_rows:
            expected = process_page(source_rows[(row["url"], row["warc_ts"])]["html"])
            assert row["extracted_text"] == expected["extracted_text"], row["url"]
            for key in (
                "hit_ratio", "n_words", "n_errs", "n_lines_in",
                "n_wraps", "n_shorts", "n_lines_out", "n_lines",
            ):
                assert row[key] == expected[key], (row["url"], key)

    def test_line_spans(self, pipeline_rows):
        checked = 0
        for row in pipeline_rows:
            text = row["extracted_text"]
            for ln in row["lines"] or []:
                assert text[ln["start"]:ln["stop"]] == ln["text"]
                checked += 1
        assert checked > 100

    def test_repl_stats_match_oracle(self, pipeline_rows, source_rows):
        for row in pipeline_rows:
            expected = process_page(source_rows[(row["url"], row["warc_ts"])]["html"])
            got = dict(row["repl_stats"] or [])
            assert got == expected["repl_stats"], row["url"]

    def test_error_rows_isolated(self, pipeline_rows):
        errs = [r for r in pipeline_rows if r["error"]]
        assert errs, "fixture should contain invalid-utf8 rows"
        for row in errs:
            assert row["extracted_text"] == ""
            assert row["hit_ratio"] == -1.0


class TestReport:
    def test_summary_matches_driver_side(self, ray_session, small_corpus, pipeline_rows):
        ds = extraction_pipeline(small_corpus)
        summary = quality_summary(ds)
        ratios = [r["hit_ratio"] for r in pipeline_rows if r["hit_ratio"] != -1.0]
        from ocr_pipeline_ray.functions.text import analyze

        mean, bins = analyze(ratios)
        assert summary["mean"] == mean
        assert [summary[f"b{i+1}"] for i in range(5)] == bins
        assert summary["total"] == len(pipeline_rows)
        assert summary["invalid"] == len(pipeline_rows) - len(ratios)

    def test_sorted_report_and_wtr(self, ray_session, small_corpus, tmp_path):
        ds = extraction_pipeline(small_corpus)
        summary = quality_summary(ds)
        rows = sorted_report(extraction_pipeline(small_corpus)).take_all()
        ratios = [r["hit_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert all(r != -1.0 for r in ratios)
        out = write_wtr(str(tmp_path / "report.wtr"), summary, rows)
        lines = open(out, encoding="UTF-8").read().splitlines()
        header = lines[0].split(",")
        assert len(header) == 8  # mean,b1..b5,total,invalid
        # header + rows + trailing blank line (reference S5 format)
        assert len(lines) == 1 + len(rows) + 1
        assert lines[-1] == ""
        first_doc = lines[1].split(",")
        assert len(first_doc) == 8


    def test_stream_wtr_byte_identical(self, ray_session, small_corpus,
                                       tmp_path):
        """Streamed writer (iter_batches, constant driver memory) ==
        the take_all path, byte for byte."""
        from ocr_pipeline_ray.stages.report import stream_wtr

        ds = extraction_pipeline(small_corpus)
        summary = quality_summary(ds)
        rows = sorted_report(extraction_pipeline(small_corpus)).take_all()
        old = write_wtr(str(tmp_path / "old.wtr"), summary, rows)
        new = stream_wtr(str(tmp_path / "new.wtr"), summary,
                         sorted_report(extraction_pipeline(small_corpus)),
                         batch_size=7)  # force multi-batch streaming
        assert open(new, "rb").read() == open(old, "rb").read()

    def test_report_parts_round_trip(self, ray_session, small_corpus,
                                     tmp_path):
        """Partitioned report parts stream back in global
        ascending-ratio order with the same summary."""
        from ocr_pipeline_ray.stages.report import (
            iter_report_parts,
            write_report_parts,
        )

        ds = extraction_pipeline(small_corpus)
        summary = quality_summary(ds)
        expected = sorted_report(extraction_pipeline(small_corpus)).take_all()
        out = write_report_parts(
            str(tmp_path / "parts"), summary,
            sorted_report(extraction_pipeline(small_corpus)),
        )
        got_summary, rows_iter = iter_report_parts(out)
        got = list(rows_iter)
        assert got_summary == summary
        assert [r["url"] for r in got] == [r["url"] for r in expected]
        assert [r["hit_ratio"] for r in got] == [
            r["hit_ratio"] for r in expected
        ]


    def test_report_parts_rerun_replaces(self, ray_session, small_corpus,
                                         tmp_path):
        """A second write into the same parts dir REPLACES the report
        (regression: old part files interleaved into the stream)."""
        from ocr_pipeline_ray.stages.report import (
            iter_report_parts,
            write_report_parts,
        )

        ds = extraction_pipeline(small_corpus)
        summary = quality_summary(ds)
        out = str(tmp_path / "parts")
        for _ in range(2):
            write_report_parts(
                out, summary,
                sorted_report(extraction_pipeline(small_corpus)),
            )
        got_summary, rows_iter = iter_report_parts(out)
        rows = list(rows_iter)
        assert len(rows) == got_summary["total"] - got_summary["invalid"]
        ratios = [r["hit_ratio"] for r in rows]
        assert ratios == sorted(ratios)


class TestStats:
    def test_merge_repl_stats(self, ray_session, small_corpus, pipeline_rows):
        ds = extraction_pipeline(small_corpus)
        merged = merge_repl_stats(ds)
        expected = {}
        for row in pipeline_rows:
            for key, val in row["repl_stats"] or []:
                expected[key] = expected.get(key, 0) + val
        assert merged == expected
        assert merged, "corpus should produce replacement hits"


class TestReplaceCharsBackup:
    def test_backup_column_holds_pre_replacement_text(
        self, ray_session, small_corpus
    ):
        """backup=True (StepPostReplaceChars backup analogue,
        lib/ocr_step.py:231-243): the pre-replacement text is kept as
        a column; replaying the replacement over it reproduces the
        replaced line texts."""
        from ocr_pipeline_ray.config import default_steps
        from ocr_pipeline_ray.functions.text import (
            replace_chars,
            replace_chars_regex,
        )
        from ocr_pipeline_ray.pipelines.extraction import (
            build_pipeline,
            read_pages,
        )

        steps = default_steps()
        repl = next(s for s in steps if s.type == "ReplaceChars")
        repl.params["backup"] = True
        dict_chars = repl.params["dict_chars"]
        rx = next(s for s in steps if s.type == "ReplaceCharsRegex").params
        rows = build_pipeline(read_pages(small_corpus[:1]), steps=steps).take_all()
        assert any(r["text_before_replace_chars"] for r in rows)
        hit = 0
        for r in rows:
            before = r["text_before_replace_chars"]
            after_lines = [ln["text"] for ln in r["lines"] or []]
            # replay the full downstream normalization over the backup
            replayed, stats = replace_chars(
                before.split("\n") if before else [], dict_chars
            )
            replayed, _ = replace_chars_regex(
                replayed, rx["pattern"], rx["old"], rx["new"]
            )
            assert replayed == after_lines, r["url"]
            if stats:
                hit += 1
        assert hit, "corpus should contain replacement hits"


class TestStepProfile:
    def test_profile_column_covers_every_step(self, ray_session, small_corpus):
        """build_pipeline(profile=True): per-step wall-time map (the
        reference's per-step profile() log at batch granularity)."""
        from ocr_pipeline_ray.pipelines.extraction import (
            build_pipeline,
            read_pages,
        )

        rows = build_pipeline(read_pages(small_corpus[:1]),
                              profile=True).take_all()
        expected = {"HtmlExtract", "ReplaceChars", "ReplaceCharsRegex",
                    "FinalizeText", "QualityEstimate", "arrow_assembly"}
        for r in rows[:5]:
            timing = dict(r["step_wall_us"])
            assert set(timing) == expected
            assert all(v >= 0 for v in timing.values())
        assert sum(dict(rows[0]["step_wall_us"]).values()) > 0
        # default output has NO profile column
        plain = build_pipeline(read_pages(small_corpus[:1])).take(1)
        assert "step_wall_us" not in plain[0]


def _chain_shapes():
    from ocr_pipeline_ray.config import StepSpec, default_steps

    def without(step_type):
        return [s for s in default_steps() if s.type != step_type]

    backup = default_steps()
    backup[1].params["backup"] = True
    extract, repl, regex, finalize, quality = default_steps()
    return {
        "default": default_steps(),
        "backup": backup,
        # the replace-free chain of queries/_composites.py
        "no_replace": [StepSpec("HtmlExtract"), StepSpec("FinalizeText"),
                       StepSpec("QualityEstimate")],
        "quality_first": [extract, quality, repl, regex, finalize],
        "no_finalize": without("FinalizeText"),
        "no_quality": without("QualityEstimate"),
        "emit_alto": default_steps() + [StepSpec("EmitAlto")],
    }


def _replay_row(page, steps):
    """One page through ``steps`` single-process, one step at a time:
    each step rewrites its columns at the end of the row, as a
    drop-then-append of Arrow columns does."""
    from ocr_pipeline_ray.functions.extract import ExtractConfig, extract_lines
    from ocr_pipeline_ray.functions.quality import estimate_quality
    from ocr_pipeline_ray.functions.text import (
        doc_id_from_url,
        page_id_from_url,
        replace_chars,
        replace_chars_regex,
    )
    from ocr_pipeline_ray.functions.xmlout import doc_to_alto_xml

    row = {k: v for k, v in page.items() if k != "html"}

    def put(name, value):
        row.pop(name, None)
        row[name] = value

    cfg = ExtractConfig(**steps[0].params)
    lines, n_raw, error = [], 0, None
    if page["html"] is None:
        error = "empty html"
    else:
        try:
            lines, stats = extract_lines(page["html"], cfg)
            n_raw = stats["n_raw_lines"]
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    put("lines", lines)
    put("n_raw_lines", n_raw)
    put("error", error)
    for step in steps[1:]:
        params = step.params
        texts = [ln["text"] for ln in row["lines"]]
        if step.type in ("ReplaceChars", "ReplaceCharsRegex"):
            before = "\n".join(texts)
            if step.type == "ReplaceChars":
                texts, stats = replace_chars(texts, params["dict_chars"])
            else:
                texts, stats = replace_chars_regex(
                    texts, params["pattern"], params["old"], params["new"])
            merged = dict(row.get("repl_stats") or [])
            for key, val in stats.items():
                merged[key] = merged.get(key, 0) + val
            put("lines", [dict(ln, text=t)
                          for ln, t in zip(row["lines"], texts)])
            put("repl_stats", list(merged.items()))
            if params.get("backup"):
                put("text_before_replace_chars", before)
        elif step.type == "FinalizeText":
            spans, pos = [], 0
            for ln in row["lines"]:
                spans.append(dict(ln, start=pos, stop=pos + len(ln["text"])))
                pos += len(ln["text"]) + 1
            put("lines", spans)
            put("extracted_text", "\n".join(texts))
            put("n_lines", len(texts))
            put("doc_id", doc_id_from_url(row["url"]))
            put("page_id", page_id_from_url(row["url"]))
        elif step.type == "QualityEstimate":
            for key, val in estimate_quality(texts).items():
                put(key, val)
        elif step.type == "EmitAlto":
            put("alto_xml", doc_to_alto_xml(row["doc_id"] or "",
                                            row["page_id"] or "",
                                            row["lines"]))
    return row


class TestChainShapeParity:
    """The compiled chain equals a single-process step-by-step replay
    on every column, in column order, for every chain shape."""

    @pytest.mark.parametrize("shape", list(_chain_shapes()))
    def test_matches_replay(self, ray_session, small_corpus, shape):
        from ocr_pipeline_ray.pipelines.extraction import (
            build_pipeline,
            read_pages,
        )

        steps = _chain_shapes()[shape]
        columns = ["url", "warc_ts", "html", "lang"]  # read_pages' scan
        pages = {(r["url"], r["warc_ts"]): r
                 for path in small_corpus[:2]
                 for r in pq.read_table(path, columns=columns).to_pylist()}
        rows = build_pipeline(read_pages(small_corpus[:2]),
                              steps=steps).take_all()
        assert len(rows) == len(pages)
        for row in rows:
            key = (row["url"], row["warc_ts"])
            expected = _replay_row(pages[key], steps)
            assert list(row) == list(expected), key
            for col, val in expected.items():
                assert row[col] == val, (key, col)

    def test_chain_errors_at_build_time(self, ray_session, small_corpus):
        from ocr_pipeline_ray.config import StepSpec
        from ocr_pipeline_ray.pipelines.extraction import (
            build_pipeline,
            read_pages,
        )

        ds = read_pages(small_corpus[:1])
        late_row = [StepSpec("HtmlExtract"), StepSpec("EmitAlto"),
                    StepSpec("FinalizeText")]
        with pytest.raises(ValueError, match="EmitAlto"):
            build_pipeline(ds, steps=late_row)
        with pytest.raises(ValueError, match="HtmlExtract"):
            build_pipeline(ds, steps=[StepSpec("FinalizeText")])
        with pytest.raises(ValueError, match="HtmlExtract"):
            build_pipeline(ds, steps=[StepSpec("HtmlExtract"),
                                      StepSpec("HtmlExtract")])
        with pytest.raises(KeyError, match="unknown step type 'NopeStep'"):
            build_pipeline(ds, steps=[StepSpec("HtmlExtract"),
                                      StepSpec("NopeStep")])


class TestFatPages:
    def test_multi_mb_documents_small_batches(self, ray_session):
        """Memory-aware path: multi-MB html rows flow through the
        full chain with a small batch_size (the documented fat-page
        knob) and stay byte-identical to the oracle."""
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.config import PipelineContext
        from ocr_pipeline_ray.pipelines.extraction import build_pipeline
        from ocr_pipeline_ray.schema import PAGES_SCHEMA

        para = "lorem ipsum dolor sit amet " * 60_000   # ~1.6 MB
        htmls = []
        for i in range(6):
            htmls.append(
                "<html><body><nav>menu home</nav><main><p>"
                f"doc {i} {para}</p></main>"
                "<footer>copyright</footer></body></html>".encode()
            )
        tbl = pa.table({
            "url": pa.array([f"doc://fat/{i}" for i in range(6)]),
            "warc_ts": pa.array([1_700_000_000_000_000 + i
                                 for i in range(6)],
                                pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array([""] * 6),
            "lang": pa.array(["en"] * 6),
        }, schema=PAGES_SCHEMA)
        ds = ray.data.from_arrow(tbl).repartition(3).drop_columns(
            ["text"]
        )
        ctx = PipelineContext(batch_size=2)
        rows = build_pipeline(ds, ctx=ctx).take_all()
        assert len(rows) == 6
        for row in rows:
            i = int(row["url"].rsplit("/", 1)[1])
            expected = process_page(htmls[i])
            assert row["extracted_text"] == expected["extracted_text"]
            assert row["hit_ratio"] == expected["hit_ratio"]


class TestMixedFormatCorpus:
    """Opt-in ``pdf_fraction``: one corpus mixing HTML/ALTO/PAGE/PDF
    payloads flows through the UNCHANGED pipeline, every row
    byte-identical to the single-process oracle."""

    def test_pdf_fraction_zero_is_pinned_default(self):
        from ocr_pipeline_ray.corpus import generate_pages_table

        base = generate_pages_table(60, seed=7, shard=3)
        explicit = generate_pages_table(60, seed=7, shard=3,
                                        pdf_fraction=0.0)
        assert base.equals(explicit)
        assert not any(
            (h or b"").startswith(b"%PDF-")
            for h in base.column("html").to_pylist()
        )

    def test_mixed_corpus_byte_identical_to_oracle(self, ray_session):
        import ray

        from ocr_pipeline_ray.corpus import generate_pages_table
        from ocr_pipeline_ray.pipelines.extraction import build_pipeline

        tbl = generate_pages_table(120, seed=11, shard=0,
                                   pdf_fraction=0.3)
        htmls = {
            (u, t): h for u, t, h in zip(
                tbl.column("url").to_pylist(),
                tbl.column("warc_ts").to_pylist(),
                tbl.column("html").to_pylist(),
            )
        }
        n_pdf = sum(
            1 for h in htmls.values()
            if (h or b"").startswith(b"%PDF-")
        )
        assert n_pdf >= 10  # the mix really happened
        ds = ray.data.from_arrow(tbl).repartition(4)
        rows = build_pipeline(ds).take_all()
        assert len(rows) == tbl.num_rows
        n_pdf_seen = 0
        for row in rows:
            src = htmls[(row["url"], row["warc_ts"])]
            expected = process_page(src)
            assert row["extracted_text"] == expected["extracted_text"]
            assert row["hit_ratio"] == expected["hit_ratio"]
            assert row["error"] == expected["error"]
            if (src or b"").startswith(b"%PDF-"):
                n_pdf_seen += 1
                assert row["error"] is None
                assert row["extracted_text"]
        assert n_pdf_seen == n_pdf


class TestDeterminism:
    def test_run_twice_byte_identical(self, ray_session, small_corpus,
                                      pipeline_rows):
        """The north rule demands byte-identical per-url text: a
        SECOND full pipeline execution over the same shards must
        reproduce every row exactly (no wall-clock, no RNG, no
        block-layout sensitivity anywhere in the chain)."""
        second = {
            (r["url"], r["warc_ts"]): r
            for r in extraction_pipeline(small_corpus).take_all()
        }
        assert len(second) == len(pipeline_rows)
        for r in pipeline_rows:
            s = second[(r["url"], r["warc_ts"])]
            assert s["extracted_text"] == r["extracted_text"]
            assert s["hit_ratio"] == r["hit_ratio"]
            assert s.get("error") == r.get("error")
