"""One read path over published output (``state.lineage.read_output``),
the plan of a ``--rescore`` call, and the driver-side ``.wtr`` report."""

import glob
import math
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from ocr_pipeline_ray.__main__ import _write_report, main
from ocr_pipeline_ray.functions.text import round3
from ocr_pipeline_ray.schema import PAGES_SCHEMA
from ocr_pipeline_ray.stages.report import (
    REPORT_SCHEMA,
    _exact_parts,
    quality_summary,
)
from ocr_pipeline_ray.state.lineage import output_files, read_output


def _write(path, keys, rows_per_group=4):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.table({"k": pa.array(keys, pa.string()),
                             "v": pa.array(range(len(keys)), pa.int64())}),
                   path, row_group_size=rows_per_group)
    return path


@pytest.fixture
def ordered_read(ray_session):
    """Collect a Dataset's rows in block order."""
    ctx = DataContext.get_current()
    saved = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    yield lambda ds: pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
    ctx.execution_options.preserve_order = saved


@pytest.fixture
def executions(monkeypatch):
    """The plan string of every Ray Data execution started."""
    from ray.data._internal.execution import streaming_executor as se

    plans = []
    original = se.StreamingExecutor.execute

    def _spy(self, dag, *args, **kwargs):
        if not isinstance(dag, se.InputDataBuffer):
            plans.append(dag.dag_str)
        return original(self, dag, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", _spy)
    return plans


class TestReadOutput:
    def test_files_in_one_pid_dir_keep_the_given_order(self, tmp_path,
                                                       ordered_read):
        d = tmp_path / "pid=s1"
        b = _write(str(d / "b.parquet"), [f"b{i}" for i in range(9)])
        a = _write(str(d / "a.parquet"), [f"a{i}" for i in range(6)])
        got = ordered_read(read_output([b, a]))
        assert got.column_names == ["k", "v", "pid"]
        assert got.column("k").to_pylist() == (
            [f"b{i}" for i in range(9)] + [f"a{i}" for i in range(6)])
        assert set(got.column("pid").to_pylist()) == {"s1"}

    def test_files_outside_a_pid_dir_get_no_pid(self, tmp_path,
                                                ordered_read):
        f = _write(str(tmp_path / "flat" / "x.parquet"), ["x0", "x1", "x2"])
        got = ordered_read(read_output(f))
        assert got.column_names == ["k", "v"]
        assert got.column("k").to_pylist() == ["x0", "x1", "x2"]

    def test_directory_argument(self, tmp_path, ordered_read):
        """A directory reads every ``*.parquet`` under it in path
        order; ``_``-prefixed dirs (lineage, staging) and other files
        are skipped."""
        root = tmp_path / "out"
        _write(str(root / "pid=b" / "0.parquet"), ["b0", "b1"])
        _write(str(root / "pid=a" / "1.parquet"), ["a2"])
        _write(str(root / "pid=a" / "0.parquet"), ["a0", "a1"])
        _write(str(root / "_staging_x" / "pid=z" / "0.parquet"), ["z0"])
        (root / "_lineage").mkdir()
        (root / "_lineage" / "a.json").write_text("{}")
        (root / "notes.txt").write_text("skip me")
        assert output_files(str(root)) == [
            str(root / "pid=a" / "0.parquet"),
            str(root / "pid=a" / "1.parquet"),
            str(root / "pid=b" / "0.parquet")]
        got = ordered_read(read_output(str(root)))
        assert got.column("k").to_pylist() == ["a0", "a1", "a2", "b0", "b1"]
        assert got.column("pid").to_pylist() == ["a", "a", "a", "b", "b"]

    def test_glob_keeps_sorted_matches(self, tmp_path):
        for name in ("c", "a", "b"):
            _write(str(tmp_path / f"pid={name}" / "0.parquet"), [name])
        assert output_files(str(tmp_path / "pid=*" / "*.parquet")) == [
            str(tmp_path / f"pid={n}" / "0.parquet") for n in "abc"]

    def test_zero_row_file(self, tmp_path, ordered_read):
        d = tmp_path / "pid=p"
        files = [_write(str(d / "0.parquet"), ["r0", "r1"]),
                 _write(str(d / "1.parquet"), []),
                 _write(str(d / "2.parquet"), ["r2"])]
        got = ordered_read(read_output(files))
        assert got.column("k").to_pylist() == ["r0", "r1", "r2"]
        assert read_output(files[1:2]).count() == 0

    @pytest.mark.parametrize("columns, expected", [
        (["v"], ["v"]),
        (["k", "pid"], ["k", "pid"]),
        (["pid", "v"], ["v", "pid"]),
        (None, ["k", "v", "pid"]),
    ])
    def test_columns_prune_pid_like_read_parquet(self, tmp_path,
                                                 ordered_read, columns,
                                                 expected):
        f = _write(str(tmp_path / "pid=q" / "0.parquet"),
                   [f"k{i}" for i in range(10)])
        got = ordered_read(read_output([f], columns=columns))
        assert got.column_names == expected
        assert got.num_rows == 10
        if "pid" in expected:
            assert set(got.column("pid").to_pylist()) == {"q"}


def _ratio_rows(ratios, prefix="doc"):
    return pa.table({
        "url": [f"{prefix}://{i}" for i in range(len(ratios))],
        "hit_ratio": pa.array(ratios, pa.float64()),
        **{name: pa.array([i % 7 for i in range(len(ratios))], typ)
           for name, typ in zip(REPORT_SCHEMA.names[2:],
                                REPORT_SCHEMA.types[2:])},
    }, schema=REPORT_SCHEMA)


def _wtr(out_dir):
    (path,) = glob.glob(os.path.join(out_dir, "*.wtr"))
    with open(path, "rb") as fh:
        return fh.read()


class TestReport:
    def test_exact_mean_independent_of_file_layout(self, ray_session,
                                                   tmp_path):
        """The same rows as 1 file and as 7 files give byte-identical
        ``.wtr`` files: mean = round3(fsum / n), ties in input order."""
        import random

        rng = random.Random(11)
        ratios = [round3(rng.uniform(0, 100)) for _ in range(500)]
        ratios += [42.5] * 20 + [-1.0] * 13  # ties and unscored rows
        rng.shuffle(ratios)
        table = _ratio_rows(ratios)
        outs = []
        for n_files in (1, 7):
            out = tmp_path / f"out{n_files}"
            src = out / "rescored"
            src.mkdir(parents=True)
            cuts = [table.num_rows * i // n_files for i in range(n_files + 1)]
            for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
                pq.write_table(table.slice(a, b - a),
                               str(src / f"part-{i:02d}.parquet"))
            _write_report(str(out), paths_rescored=str(src))
            outs.append(_wtr(str(out)).decode())
        assert outs[0] == outs[1]
        head, *body = outs[0].split("\n")
        valid = [r for r in ratios if r != -1.0]
        assert float(head.split(",")[0]) == round3(
            math.fsum(valid) / len(valid))
        body = [ln for ln in body if ln]
        assert len(body) == len(valid)
        tied = [ln.split(",")[0] for ln in body if ln.split(",")[1] == "42.500"]
        urls = table.column("url").to_pylist()
        assert tied == [u for u, r in zip(urls, ratios) if r == 42.5]

    def test_block_partials_sum_exactly(self, ray_session):
        """Per-block partials merge to the exact sum, where per-block
        float sums lose it."""
        blocks = [[1e16, 1.0], [1.0, -1e16]]
        assert sum(sum(b) for b in blocks) == 0.0
        parts = [p for b in blocks for p in _exact_parts(b)]
        assert math.fsum(parts) == 2.0
        import ray.data

        table = _ratio_rows([0.001 * i for i in range(1, 400)] + [97.3] * 7)
        ds = ray.data.from_arrow([table.slice(i, 37)
                                  for i in range(0, table.num_rows, 37)])
        assert quality_summary(ds) == quality_summary(table)

    def test_all_unscored_rows(self, ray_session, tmp_path):
        """Every row unscored: ``--report`` and ``--rescore`` write the
        header ``0.0,0,0,0,0,0,N,N`` and no body rows."""
        n = 12
        bad = b"<html><body><p>kaputt \xff\xfe seite</p></body></html>"
        pages = pa.table({
            "url": [f"http://bad.example/{i}" for i in range(n)],
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "html": [bad] * n, "text": [None] * n, "lang": ["de"] * n,
        }, schema=PAGES_SCHEMA)
        src = str(tmp_path / "pages-bad.parquet")
        pq.write_table(pages, src)
        out = str(tmp_path / "out")
        assert main([src, "-o", out, "--report"]) == 0
        want = f"0.0,0,0,0,0,0,{n},{n}\n\n".encode()
        assert _wtr(out) == want
        rout = str(tmp_path / "rescore")
        assert main([os.path.join(out, "pid=*", "*.parquet"), "-o", rout,
                     "--rescore"]) == 0
        assert _wtr(rout) == want

    def test_zero_row_run_reports(self, ray_session, tmp_path):
        """A zero-row run publishes no parquet file; the report of it
        (``--report``, ``--report-parts`` and ``--rescore``) is empty
        and does not crash."""
        src = str(tmp_path / "pages-empty.parquet")
        pq.write_table(PAGES_SCHEMA.empty_table(), src)
        out = str(tmp_path / "out")
        assert main([src, "-o", out, "--report"]) == 0
        assert not glob.glob(os.path.join(out, "pid=*", "*.parquet"))
        assert _wtr(out) == b"0.0,0,0,0,0,0,0,0\n\n"
        assert main([src, "-o", out, "--report-parts"]) == 0
        assert os.path.isfile(
            os.path.join(out, "report_parts", "_summary.json"))
        rout = str(tmp_path / "rescore")
        assert main([os.path.join(out, "pid=*"), "-o", rout,
                     "--rescore"]) == 0
        assert _wtr(rout) == b"0.0,0,0,0,0,0,0,0\n\n"


class TestPlans:
    def test_rescore_is_one_fused_operator(self, ray_session, small_corpus,
                                           tmp_path, executions,
                                           monkeypatch):
        """A ``--rescore`` call runs ONE Ray Data execution, the fused
        read->quality->write operator; its ``.wtr`` is built on the
        driver."""
        out = str(tmp_path / "out")
        assert main([*small_corpus, "-o", out]) == 0
        del executions[:]
        rout = str(tmp_path / "rescore")
        assert main([os.path.join(out, "pid=*", "*.parquet"), "-o", rout,
                     "--rescore"]) == 0
        assert len(executions) == 1, executions
        assert re.search(r"\[ReadParquetSlice->MapBatches\(\w+\)->Write\]$",
                         executions[0]), executions[0]
        assert _wtr(rout).count(b"\n") > 100

    def test_wtr_report_starts_no_ray_data_execution(
        self, ray_session, small_corpus, tmp_path, executions, monkeypatch
    ):
        import ray.data

        out = str(tmp_path / "out")
        assert main([*small_corpus, "-o", out]) == 0
        rout = str(tmp_path / "rescore")
        assert main([os.path.join(out, "pid=*", "*.parquet"), "-o", rout,
                     "--rescore"]) == 0
        del executions[:]

        def _refuse(*args, **kwargs):
            raise AssertionError("the .wtr report started a Ray Data read")

        monkeypatch.setattr(ray.data, "read_parquet", _refuse)
        monkeypatch.setattr(ray.data, "read_datasource", _refuse)
        _write_report(out)
        _write_report(rout, paths_rescored=os.path.join(rout, "rescored"))
        assert executions == []
        assert len(glob.glob(os.path.join(out, "*.wtr"))) == 1
