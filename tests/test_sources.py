"""JSONL/CSV source adapters: byte-identical pipeline results vs
the native Parquet path on the same corpus."""

import base64
import csv as csv_mod
import io

import pyarrow as pa
import pytest


def _flagship_by_url(ds):
    from ocr_pipeline_ray.pipelines.extraction import build_pipeline

    rows = build_pipeline(ds).take_all()
    return {
        r["url"]: (r["extracted_text"], r["hit_ratio"])
        for r in rows
    }


def _diff_msg(got, want):
    """Which urls differ between two ``_flagship_by_url`` dicts: the
    count and the first three, with both sides' values, so a failure
    log tells a wrong fixture from a wrong adapter."""
    urls = sorted(u for u in set(got) | set(want)
                  if got.get(u, "<missing>") != want.get(u, "<missing>"))
    first = [(u, got.get(u, "<missing>"), want.get(u, "<missing>"))
             for u in urls[:3]]
    return (f"{len(urls)} of {len(want)} urls differ "
            f"(got {len(got)} rows); first (url, got, want): {first}")


def test_diff_msg_counts_the_differing_urls_and_shows_three():
    want = {f"u{i}": (i, "x") for i in range(6)}
    got = dict(want, u1=(1, "y"), u4=(4, "y"), u5=(5, "z"), extra=(9, "x"))
    del got["u0"]
    msg = _diff_msg(got, want)
    assert msg.startswith("5 of 6 urls differ (got 6 rows)")
    # the first three differing urls in sorted order, both sides shown
    assert msg.endswith("[('extra', (9, 'x'), '<missing>'), "
                        "('u0', '<missing>', (0, 'x')), "
                        "('u1', (1, 'y'), (1, 'x'))]")
    assert _diff_msg(want, dict(want)).startswith("0 of 6 urls differ")


@pytest.fixture(scope="module")
def pages_tbl():
    from ocr_pipeline_ray.corpus import generate_pages_table

    return generate_pages_table(120, seed=13)


@pytest.fixture(scope="module")
def native_results(ray_session, pages_tbl):
    import ray.data

    return _flagship_by_url(ray.data.from_arrow(pages_tbl))


class TestSourceAdapters:
    def test_jsonl_round_trip_matches_parquet_path(
        self, ray_session, pages_tbl, native_results, tmp_path
    ):
        import ray.data

        from fixture_writers import pages_to_jsonl
        from ocr_pipeline_ray.sources import pages_from_jsonl

        out = str(tmp_path / "jsonl")
        pages_to_jsonl(
            ray.data.from_arrow(pages_tbl).repartition(3), out
        )
        ingested = pages_from_jsonl(out)
        assert ingested.schema().names == [
            "url", "warc_ts", "html", "text", "lang"
        ]
        via_jsonl = _flagship_by_url(ingested)
        assert via_jsonl == native_results, _diff_msg(via_jsonl,
                                                      native_results)

    def test_csv_ingest_matches_parquet_path(
        self, ray_session, pages_tbl, native_results, tmp_path
    ):
        import ray.data

        # write wire-encoded CSV by hand (export format under test is
        # ingestion, not csv writing)
        buf = io.StringIO()
        w = csv_mod.writer(buf)
        w.writerow(["url", "warc_ts", "html_b64", "text", "lang"])
        for row in pages_tbl.to_pylist():
            w.writerow([
                row["url"],
                str(row["warc_ts"]),
                base64.b64encode(row["html"] or b"").decode("ascii"),
                row["text"],
                row["lang"],
            ])
        path = tmp_path / "pages.csv"
        path.write_text(buf.getvalue())

        from ocr_pipeline_ray.sources import pages_from_csv

        ingested = pages_from_csv(str(path))
        via_csv = _flagship_by_url(ingested)
        assert via_csv == native_results, _diff_msg(via_csv,
                                                    native_results)

    def test_column_projection(self, ray_session, pages_tbl, tmp_path):
        import ray.data

        from fixture_writers import pages_to_jsonl
        from ocr_pipeline_ray.sources import pages_from_jsonl

        out = str(tmp_path / "jsonl")
        pages_to_jsonl(ray.data.from_arrow(pages_tbl), out)
        ds = pages_from_jsonl(out, columns=["url", "lang"])
        assert ds.schema().names == ["url", "lang"]
        assert ds.count() == pages_tbl.num_rows


class TestWarcAdapter:
    def test_warc_round_trip_matches_parquet_path(
        self, ray_session, pages_tbl, native_results, tmp_path
    ):
        import ray.data

        from fixture_writers import pages_to_warc
        from ocr_pipeline_ray.sources import pages_from_warc

        out = str(tmp_path / "warc")
        pages_to_warc(
            ray.data.from_arrow(pages_tbl).repartition(3), out
        )
        ingested = pages_from_warc(out)
        assert ingested.schema().names == [
            "url", "warc_ts", "html", "text", "lang"
        ]
        # raw WARC carries no pre-extracted text column
        assert all(r["text"] is None
                   for r in ingested.take(5))
        via_warc = _flagship_by_url(ingested)
        assert via_warc == native_results, _diff_msg(via_warc,
                                                     native_results)

    def test_columns_round_trip_exactly(self, ray_session, pages_tbl,
                                        tmp_path):
        """url/warc_ts/html/lang survive the WARC wire byte-exactly,
        including µs timestamps and non-UTF-8 html bytes."""
        import ray.data

        from fixture_writers import pages_to_warc
        from ocr_pipeline_ray.sources import pages_from_warc

        out = str(tmp_path / "warc2")
        pages_to_warc(ray.data.from_arrow(pages_tbl), out,
                      compress=False)
        got = {r["url"]: (r["warc_ts"], r["html"], r["lang"])
               for r in pages_from_warc(out).take_all()}
        want = {
            u: (t, h, lg)
            for u, t, h, lg in zip(
                pages_tbl.column("url").to_pylist(),
                pages_tbl.column("warc_ts").to_pylist(),
                pages_tbl.column("html").to_pylist(),
                pages_tbl.column("lang").to_pylist(),
            )
        }
        assert got == want

    def test_parser_edge_cases(self):
        """Bodies containing CRLFCRLF, missing Content-Language,
        non-response records skipped, multi-member gzip."""
        import gzip

        from fixture_writers import response_record
        from ocr_pipeline_ray.sources.warc import (
            parse_warc_bytes,
            _maybe_gunzip,
            _warcinfo_record,
        )

        tricky = b"<p>a</p>\r\n\r\n<p>b</p>\x00\xff"
        rec1 = response_record("http://x/1", 1_700_000_000_123_456,
                               tricky, "de")
        rec2 = response_record("http://x/2", 1_700_000_000_000_000,
                               b"<i>c</i>", None)
        raw = _warcinfo_record() + rec1 + rec2
        rows = list(parse_warc_bytes(raw))
        assert rows == [
            ("http://x/1", 1_700_000_000_123_456, tricky, "de"),
            ("http://x/2", 1_700_000_000_000_000, b"<i>c</i>", None),
        ]
        # per-record gzip members concatenated = valid .warc.gz
        multi = (gzip.compress(_warcinfo_record() + rec1, mtime=0)
                 + gzip.compress(rec2, mtime=0))
        assert list(parse_warc_bytes(_maybe_gunzip(multi))) == rows


class TestWetExport:
    def test_wet_round_trip(self, ray_session, pages_tbl, tmp_path):
        """extraction output → WET shards → read back: every
        non-error doc's extracted text survives byte-identically;
        error rows (null text) are excluded by the format."""
        import ray.data

        from ocr_pipeline_ray.pipelines.extraction import build_pipeline
        from fixture_writers import text_from_wet
        from ocr_pipeline_ray.sources import extracted_to_wet

        extracted = build_pipeline(
            ray.data.from_arrow(pages_tbl)).materialize()
        want = {r["url"]: (r["warc_ts"], r["extracted_text"])
                for r in extracted.take_all()
                if r["extracted_text"]}
        out = str(tmp_path / "wet")
        extracted_to_wet(extracted.repartition(3), out)
        got = {r["url"]: (r["warc_ts"], r["text"])
               for r in text_from_wet(out).take_all()}
        assert got == want
        assert len(want) < pages_tbl.num_rows  # error rows dropped

    def test_cli_emit_wet(self, ray_session, pages_tbl, tmp_path):
        import glob as globmod

        import pyarrow.parquet as pq

        from ocr_pipeline_ray.__main__ import main

        src = str(tmp_path / "pages.parquet")
        pq.write_table(pages_tbl, src)
        out = str(tmp_path / "out")
        assert main([src, "-o", out, "--emit-wet"]) == 0
        wet_files = globmod.glob(f"{out}/wet/*.warc.wet.gz")
        assert wet_files

        from fixture_writers import text_from_wet

        import duckdb

        n = text_from_wet(wet_files).count()
        # exactly the successful non-empty conversions make it to WET
        n_ok = duckdb.sql(
            f"SELECT count(*) FROM read_parquet('{out}/pid=*/*.parquet')"
            " WHERE extracted_text IS NOT NULL AND extracted_text <> ''"
        ).fetchone()[0]
        assert n == n_ok and 0 < n < pages_tbl.num_rows


class TestWarcReviewRegressions:
    def test_microsecond_timestamp_precision(self):
        """int(float_ts*1e6) truncated ~1.6% of µs values one low —
        the parse must be integer arithmetic end to end."""
        from fixture_writers import response_record
        from ocr_pipeline_ray.sources.warc import parse_warc_bytes

        bad = 1083088848922968  # reproduced float-truncation case
        for ts in (bad, 0, 1, 999_999, 1_700_000_000_000_001):
            rec = response_record("http://x/", ts, b"<p>t</p>", None)
            (_, got, _, _), = parse_warc_bytes(rec)
            assert got == ts, ts

    def test_null_warc_ts_round_trips_null(self):
        from fixture_writers import response_record
        from ocr_pipeline_ray.sources.warc import (
            conversion_record,
            parse_warc_bytes,
        )

        rec = response_record("http://x/", None, b"<p>t</p>", "en")
        assert b"WARC-Date" not in rec
        (_, got, _, _), = parse_warc_bytes(rec)
        assert got is None
        assert b"WARC-Date" not in conversion_record("http://x/", None,
                                                     "t")

    def test_shard_tags_collision_proof(self, ray_session, tmp_path):
        """Two blocks sharing first url AND row count must not
        overwrite each other's shard file."""
        import ray.data

        from fixture_writers import pages_to_warc
        from ocr_pipeline_ray.sources import pages_from_warc
        from ocr_pipeline_ray.schema import PAGES_SCHEMA

        def _block(second_url):
            return pa.table({
                "url": pa.array(["http://dup/", second_url]),
                "warc_ts": pa.array([1_000_000, 2_000_000],
                                    pa.timestamp("us")),
                "html": pa.array([b"<p>a</p>", b"<p>b</p>"],
                                 pa.binary()),
                "text": pa.nulls(2, pa.string()),
                "lang": pa.array(["en", "en"]),
            }, schema=PAGES_SCHEMA)

        ds = ray.data.from_arrow_refs([
            __import__("ray").put(_block("http://one/")),
            __import__("ray").put(_block("http://two/")),
        ])
        out = str(tmp_path / "dupwarc")
        pages_to_warc(ds, out)
        assert pages_from_warc(out).count() == 4

    def test_wet_rerun_replaces_stale_shards(self, ray_session,
                                             tmp_path):
        import ray.data

        from fixture_writers import text_from_wet
        from ocr_pipeline_ray.sources import extracted_to_wet

        def _tbl(urls):
            return pa.table({
                "url": pa.array(urls),
                "warc_ts": pa.array([1] * len(urls),
                                    pa.timestamp("us")),
                "extracted_text": pa.array(["t " + u for u in urls]),
            })

        out = str(tmp_path / "wet")
        extracted_to_wet(
            ray.data.from_arrow(_tbl(["http://a/", "http://b/"])), out)
        # rerun with different content: old shard must be gone
        extracted_to_wet(ray.data.from_arrow(_tbl(["http://c/"])), out)
        got = sorted(r["url"] for r in text_from_wet(out).take_all())
        assert got == ["http://c/"]


class TestSchemaEvolution:
    def test_harmonize_fn(self):
        import pyarrow as pa

        from ocr_pipeline_ray.sources.ingest import harmonize_fn

        target = pa.schema([("a", pa.int64()), ("b", pa.string()),
                            ("c", pa.float64())])
        batch = pa.table({
            "b": pa.array(["x", "y"]),
            "a": pa.array([1, 2], pa.int32()),
            "zz": pa.array([9, 9]),   # extra column dropped
        })
        out = harmonize_fn(batch, target)
        assert out.schema == target
        assert out.column("a").to_pylist() == [1, 2]
        assert out.column("c").null_count == 2

    def test_read_harmonized_union(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq_

        from ocr_pipeline_ray.sources.ingest import read_harmonized

        p1 = str(tmp_path / "gen1.parquet")
        p2 = str(tmp_path / "gen2.parquet")
        pq_.write_table(pa.table({
            "id": pa.array([1, 2], pa.int32()),
        }), p1)
        pq_.write_table(pa.table({
            "id": pa.array([3], pa.int64()),
            "lang": pa.array(["de"]),
        }), p2)
        target = pa.schema([("id", pa.int64()), ("lang", pa.string())])
        df = read_harmonized([[p1], [p2]], target).to_pandas()
        df = df.sort_values("id").reset_index(drop=True)
        assert df["id"].tolist() == [1, 2, 3]
        assert df["lang"].tolist()[:2] == [None, None]
        assert df["lang"].tolist()[2] == "de"
