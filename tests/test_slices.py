"""Balanced shard-slice reads: the planner, the slice reader, the
chain's own batching, and the one fused operator of a CLI extraction
run."""

import math
import os
from fractions import Fraction

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ray.data import DataContext

from ocr_pipeline_ray.state.lineage import (
    LineageStore,
    ParquetSliceDatasource,
    partition_id,
    plan_slices,
    run_partitioned,
)


def _groups(shards):
    """Non-empty row groups as ``(shard, group, first_row, rows,
    nbytes)``, ``first_row`` shard-local."""
    out = []
    for s, shard in enumerate(shards):
        first = 0
        for g, (rows, nbytes) in enumerate(shard):
            if rows:
                out.append((s, g, first, rows, nbytes))
            first += rows
    return out


def _share(pieces, by_id):
    """The exact uncompressed bytes of a task's rows: each row group's
    bytes pro rata of the rows taken from it."""
    total = Fraction(0)
    for s, row_groups, offset, length, _ in pieces:
        first = by_id[s, row_groups[0]][0]
        taken = range(first + offset, first + offset + length)
        for g in row_groups:
            g_first, rows, nbytes = by_id[s, g]
            n = len(range(max(taken.start, g_first),
                          min(taken.stop, g_first + rows)))
            total += Fraction(nbytes * n, rows)
    return total


def _equal_cut_bytes(shards, n):
    """The exact bytes of each task when the rows, in shard order, are
    cut into ``n`` runs of ``total * i // n`` to ``total * (i + 1) //
    n`` rows: one entry per row, summed per run."""
    per_row = [Fraction(nbytes, rows) for shard in shards
               for rows, nbytes in shard for _ in range(rows)]
    total = len(per_row)
    return [(total * (i + 1) // n - total * i // n,
             sum(per_row[total * i // n:total * (i + 1) // n], Fraction(0)))
            for i in range(n)]


def _check_plan(shards, n_cpus, cap):
    tasks = plan_slices(shards, n_cpus, cap)
    groups = _groups(shards)
    by_id = {(s, g): (first, rows, nbytes)
             for s, g, first, rows, nbytes in groups}
    total = sum(rows for *_, rows, _ in groups)
    if not total:
        assert tasks == []
        return tasks
    nonempty = {}
    for s, g, *_ in groups:
        nonempty.setdefault(s, []).append(g)
    read = []
    for pieces, rows, nbytes in tasks:
        task_rows, share = [], Fraction(0)
        # one piece per shard touched, in shard order
        assert [p[0] for p in pieces] == sorted({p[0] for p in pieces})
        for i, (s, row_groups, offset, length, piece_bytes) in enumerate(
                pieces):
            # a run of the shard's consecutive non-empty row groups
            lo = nonempty[s].index(row_groups[0])
            assert row_groups == nonempty[s][lo:lo + len(row_groups)]
            listed = [(s, r) for g in row_groups
                      for r in range(by_id[s, g][0],
                                     by_id[s, g][0] + by_id[s, g][1])]
            last = by_id[s, row_groups[-1]][1]
            # the piece reads only row groups it takes rows from, and
            # only a task's first piece starts inside a row group: a
            # task decodes its own rows plus at most one group prefix
            assert offset < by_id[s, row_groups[0]][1]
            assert i == 0 or offset == 0
            assert len(listed) - last < offset + length <= len(listed)
            task_rows += listed[offset:offset + length]
            piece_share = _share([(s, row_groups, offset, length, 0)],
                                 by_id)
            assert piece_bytes == round(piece_share)
            share += piece_share
        assert rows == len(task_rows)
        assert nbytes == round(share)
        if cap is not None and rows > 1:
            # no task holds more than the cap unless one row alone does
            assert nbytes <= cap
        read += task_rows
    # every (shard, row) read exactly once, in shard order
    assert read == [(s, r) for s, shard in enumerate(shards)
                    for r in range(sum(rows for rows, _ in shard))]
    # rows cut as evenly as whole rows allow, in that order
    n = len(tasks)
    assert [t[1] for t in tasks] == [total * (i + 1) // n - total * i // n
                                     for i in range(n)]
    # task count: one per CPU, at most one per row, raised only when
    # the equal cut of that many tasks would put a task over the cap,
    # and then to whole waves of that many (or to one task per row)
    base = min(total, max(1, round(n_cpus)))
    if cap is None or all(rows == 1 or round(b) <= cap
                          for rows, b in _equal_cut_bytes(shards, base)):
        assert n == base
    else:
        assert base < n <= total
        assert n % base == 0 or n == total
    return tasks


class TestPlanSlices:
    @pytest.mark.parametrize("shards,n_cpus,cap", [
        # 0-row shards: a 0-row row group and a shard without any
        ([[(0, 0)], [(10, 100)], [], [(5, 50)]], 1, None),
        # a single shard
        ([[(100, 1000)]], 3, None),
        # more shards than tasks
        ([[(5, 50)]] * 20, 1, None),
        # fewer rows than tasks
        ([[(2, 10)], [(1, 5)]], 4, None),
        # multi-row-group shards, the cap raises the task count
        ([[(10, 100), (10, 1000), (10, 100)], [(7, 70), (3, 30)]], 1, 500),
        # cap met by the CPU-based count: unchanged
        ([[(10, 100), (10, 100)]], 2, 10_000),
        # a shard whose one row group is larger than the cap
        ([[(100, 10_000)]], 1, 1_000),
        # every shard empty
        ([[(0, 0)], []], 2, 100),
    ], ids=["zero_row_shards", "single_shard", "more_shards_than_tasks",
            "fewer_rows_than_tasks", "multi_row_group_cap", "cap_met",
            "row_group_over_cap", "all_empty"])
    def test_plan(self, shards, n_cpus, cap):
        _check_plan(shards, n_cpus, cap)

    def test_cap_raises_count(self):
        # 6,000 bytes under a 500-byte cap: 12 tasks of 5 rows, not 1
        tasks = _check_plan([[(30, 3000)], [(30, 3000)]], 1, 500)
        assert [(t[1], t[2]) for t in tasks] == [(5, 500)] * 12

    def test_cap_raises_count_in_whole_waves(self):
        # 4 CPUs: 4 tasks of 1,500 bytes miss a 1,000-byte cap; 6 would
        # fit, 8 keep every CPU busy to the end
        tasks = _check_plan([[(30, 3000)], [(30, 3000)]], 4, 1_000)
        assert [t[1] for t in tasks] == [7, 8] * 4
        assert max(t[2] for t in tasks) == 800

    def test_row_group_over_cap_is_sliced_to_the_cap(self):
        tasks = _check_plan([[(100, 10_000)]], 1, 1_000)
        assert len(tasks) == 10
        assert all(t[2] == 1_000 for t in tasks)

    def test_one_task_per_cpu_across_row_groups_and_shards(self):
        tasks = _check_plan([[(2, 20), (2, 20)]] * 2, 3, None)
        assert [t[0] for t in tasks] == [
            [(0, [0], 0, 2, 20)],
            [(0, [1], 0, 2, 20), (1, [0], 0, 1, 10)],
            [(1, [0, 1], 1, 3, 30)],
        ]

    def test_cuts_fall_inside_row_groups(self):
        tasks = _check_plan([[(4, 40)]] * 2, 3, None)
        assert [t[0] for t in tasks] == [
            [(0, [0], 0, 2, 20)],
            [(0, [0], 2, 2, 20), (1, [0], 0, 1, 10)],
            [(1, [0], 1, 3, 30)],
        ]

    def test_fractional_cpus_round(self):
        shards = [[(12, 120)]]
        assert len(_check_plan(shards, 2.5, None)) == 2
        assert len(_check_plan(shards, 3.5, None)) == 4
        assert len(_check_plan(shards, 0.4, None)) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        shards=st.lists(
            st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5_000)),
                     max_size=4),
            min_size=1, max_size=8),
        n_cpus=st.integers(1, 6),
        cap=st.one_of(st.none(), st.integers(1, 20_000)),
    )
    def test_plan_properties(self, shards, n_cpus, cap):
        _check_plan(shards, n_cpus, cap)


class TestSliceReader:
    def _shards(self, tmp_path):
        """Three shards: 23 rows in row groups of 5, 0 rows, 9 rows in
        row groups of 4."""
        paths = {}
        for name, n, rg in (("a", 23, 5), ("b", 0, 5), ("c", 9, 4)):
            tbl = pa.table({
                "x": pa.array([f"{name}{i}" for i in range(n)], pa.string()),
                "y": pa.array(range(n), pa.int64()),
            })
            path = str(tmp_path / f"{name}.parquet")
            pq.write_table(tbl, path, row_group_size=rg)
            paths[name] = path
        return paths

    @staticmethod
    def _read(source):
        return [b for task in source.get_read_tasks(1) for b in task()]

    # one task per CPU; cuts inside row groups and across shards
    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 10])
    def test_reads_each_row_once_with_pid(self, tmp_path, n_cpus):
        paths = self._shards(tmp_path)
        source = ParquetSliceDatasource(
            sorted((f, pid) for pid, f in paths.items()), ["x"], n_cpus=n_cpus)
        assert len(source.tasks) == n_cpus
        got = pa.concat_tables(self._read(source))
        assert got.column_names == ["x", "pid"]
        expected = [(f"{name}{i}", name)
                    for name, n in (("a", 23), ("c", 9)) for i in range(n)]
        assert list(zip(got.column("x").to_pylist(),
                        got.column("pid").to_pylist())) == expected

    def test_row_group_over_cap_streams_in_capped_blocks(self, tmp_path):
        """One shard, one row group over the cap: more tasks, each
        within the cap, and each yields blocks of at most the cap's
        worth of rows."""
        n = 60
        tbl = pa.table({"x": [f"{i:04d}" + "z" * 996 for i in range(n)]})
        path = str(tmp_path / "big.parquet")
        pq.write_table(tbl, path)
        assert pq.ParquetFile(path).num_row_groups == 1
        cap = 10_000
        rg_bytes = pq.read_metadata(path).row_group(0).total_byte_size
        ctx = DataContext.get_current()
        saved, ctx.target_max_block_size = ctx.target_max_block_size, cap
        try:
            source = ParquetSliceDatasource([(path, "big")], None, n_cpus=1)
        finally:
            ctx.target_max_block_size = saved
        assert rg_bytes > cap
        assert len(source.tasks) >= math.ceil(rg_bytes / cap)
        read_tasks = source.get_read_tasks(1)
        assert all(t.metadata.size_bytes <= cap for t in read_tasks)
        assert source.estimate_inmemory_data_size() == sum(
            t.metadata.size_bytes for t in read_tasks)
        blocks = [b for task in read_tasks for b in task()]
        per_block = n * cap // rg_bytes
        assert all(b.num_rows <= per_block for b in blocks)
        got = pa.concat_tables(blocks)
        assert got.column("x").to_pylist() == tbl.column("x").to_pylist()
        assert set(got.column("pid").to_pylist()) == {"big"}

    def test_corrupt_footer_raises_on_driver(self, tmp_path):
        paths = self._shards(tmp_path)
        with open(paths["c"], "wb") as fh:
            fh.write(b"PAR1 this is not a parquet file")
        with pytest.raises(Exception):
            ParquetSliceDatasource(
                sorted((f, pid) for pid, f in paths.items()), None, n_cpus=1)


class TestFusedRun:
    def test_cli_run_is_one_fused_operator(
        self, ray_session, small_corpus, tmp_path
    ):
        """Read, compiled chain and partitioned write run as ONE Ray
        Data operator; a ``batch_size=`` on the chain's map_batches
        would split it and fail here."""
        from ocr_pipeline_ray.__main__ import main

        out = str(tmp_path / "out")
        assert main([*small_corpus, "-o", out]) == 0
        stages = LineageStore(out).read(
            partition_id(small_corpus[0]))["stages"]
        assert len(stages) == 1, stages
        name = stages[0]["stage"]
        assert "ReadParquet" in name and "_fused_fn" in name, name
        assert name.endswith("Write"), name

    @pytest.mark.parametrize("with_rows", [True, False],
                             ids=["mixed", "all_empty"])
    def test_zero_row_shard_publishes_empty_partition(
        self, ray_session, small_corpus, tmp_path, with_rows
    ):
        from ocr_pipeline_ray.pipelines.extraction import build_pipeline
        from ocr_pipeline_ray.schema import PAGES_SCHEMA

        empty = str(tmp_path / "pages-empty.parquet")
        pq.write_table(PAGES_SCHEMA.empty_table(), empty)
        files = [empty] + (list(small_corpus) if with_rows else [])
        out = str(tmp_path / "out")
        summary = run_partitioned(files, out, build_pipeline,
                                  "2026-01-01 10:00:00")
        assert summary["rows_written"] == (240 if with_rows else 0)
        store = LineageStore(out)
        rec = store.read("pages-empty")
        assert rec["status"] == "done"
        assert rec["rows"] == 0
        assert os.listdir(os.path.join(out, "pid=pages-empty")) == []
        assert store.done_partitions() == {
            partition_id(f) for f in files}


class TestBlockSize:
    def test_run_datasets_carry_the_planned_block_size(
        self, ray_session, tmp_path
    ):
        """The extract and rescore Datasets plan with their largest
        task's bytes (at least 1 MiB); the process-global DataContext
        keeps its value through both runs."""
        from ocr_pipeline_ray.pipelines.extraction import build_pipeline
        from ocr_pipeline_ray.pipelines.rescore import rescore_pipeline
        from ocr_pipeline_ray.state.lineage import MIN_BLOCK_BYTES, _ray_cpus

        # 2 shards of 3,000 pages of about 1 kB: tasks over 1 MiB
        files = []
        for k in range(2):
            path = str(tmp_path / f"pages-{k}.parquet")
            pq.write_table(pa.table({
                "url": [f"doc://{k}/{i}" for i in range(3000)],
                "warc_ts": ["2020-01-01T00:00:00Z"] * 3000,
                "html": pa.array([f"<p>{i} " + "wort " * 200 + "</p>"
                                  for i in range(3000)], pa.binary()),
                "lang": ["de"] * 3000,
            }), path)
            files.append(path)
        columns = ["url", "warc_ts", "html", "lang"]
        shards = sorted((f, partition_id(f)) for f in files)
        source = ParquetSliceDatasource(shards, columns, _ray_cpus())
        planned = max(nbytes for *_, nbytes in source.tasks)
        assert planned > MIN_BLOCK_BYTES

        ctx = DataContext.get_current()
        before = ctx.target_max_block_size
        seen = []

        def pipeline(ds):
            seen.append(ds.context.target_max_block_size)
            return build_pipeline(ds)

        out = str(tmp_path / "out")
        summary = run_partitioned(files, out, pipeline,
                                  "2026-01-01 10:00:00",
                                  read_columns=columns)
        assert summary["rows_written"] == 6000
        assert seen == [planned]
        assert DataContext.get_current().target_max_block_size == before

        published = sorted(str(p) for p in (tmp_path / "out").glob(
            "pid=*/*.parquet"))
        rescored = rescore_pipeline(published)
        expect = max([MIN_BLOCK_BYTES] + [
            nbytes for *_, nbytes in ParquetSliceDatasource(
                [(f, os.path.basename(os.path.dirname(f))[4:])
                 for f in published], None, _ray_cpus()).tasks])
        assert rescored.context.target_max_block_size == expect
        assert rescored.count() == 6000
        assert DataContext.get_current().target_max_block_size == before


class TestChainBatching:
    @pytest.fixture(scope="class")
    def pages(self):
        import random

        from ocr_pipeline_ray.corpus import build_page, generate_pages_table

        tbl = generate_pages_table(40, seed=7, shard=3)
        tbl = tbl.select(["url", "warc_ts", "html", "lang"])
        rng = random.Random(5)
        # an ALTO row, a PAGE row and an error row (no html at all)
        htmls = [build_page(rng, 1, "alto_xml", "de"),
                 build_page(rng, 2, "page_xml", "de"), None]
        extra = pa.table({
            "url": [f"doc://extra/{i}" for i in range(3)],
            "warc_ts": tbl.column("warc_ts")[:3],
            "html": pa.array(htmls, tbl.schema.field("html").type),
            "lang": ["de"] * 3,
        }, schema=tbl.schema)
        # the extra rows sit mid-table, so slices split around them
        return pa.concat_tables(
            [tbl.slice(0, 20), extra, tbl.slice(20)]).combine_chunks()

    def test_sliced_calls_equal_one_call(self, pages):
        from ocr_pipeline_ray.config import default_steps
        from ocr_pipeline_ray.stages.fused import FusedExtractor, make_fused_fn

        n = pages.num_rows
        whole = FusedExtractor(default_steps())(pages)
        assert whole.column("error").null_count < n  # has an error row
        # the ALTO/PAGE rows carry their own line ids, not l00000...
        ids = [line["line_id"]
               for lines in whole.column("lines").to_pylist()[20:22]
               for line in lines]
        assert ids and not any(i.startswith("l0") for i in ids)
        for k in (1, 7, n, n + 1):
            got = make_fused_fn(default_steps(), k)(pages)
            assert got.equals(whole), k


# Runs in its own process with its own Ray: 3 CPUs and a 256 MiB object
# store, the benchmark's setting. A trailing step sleeps in every block
# and records when each Ray task ran it; a warm-up run first imports
# the chain in every worker.
_WAVE_SCRIPT = r'''
import json, os, sys, time
import ray
from ocr_pipeline_ray.config import StepSpec, default_steps, register_step
from ocr_pipeline_ray.corpus import write_pages_corpus
from ocr_pipeline_ray.pipelines.extraction import build_pipeline
from ocr_pipeline_ray.state.lineage import run_partitioned

work = sys.argv[1]
spans = os.path.join(work, "spans")

def _sleep_record(batch):
    t0 = time.time()
    time.sleep(0.3)
    task = ray.get_runtime_context().get_task_id()
    with open(os.path.join(spans, f"{t0}-{os.getpid()}"), "w") as fh:
        json.dump([task, t0, time.time()], fh)
    return batch

@register_step("SleepRecord")
def _build(ds, params, ctx):
    return ds.map_batches(_sleep_record, batch_format="pyarrow",
                          zero_copy_batch=True)

ray.init(address="local", num_cpus=3, object_store_memory=256 * 2**20,
         include_dashboard=False)
files = write_pages_corpus(os.path.join(work, "pages"), 120, seed=3,
                           n_shards=4)
steps = default_steps() + [StepSpec("SleepRecord", {})]
for name in ("warm", "out"):
    os.makedirs(spans, exist_ok=True)
    run_partitioned(files, os.path.join(work, name),
                    lambda ds: build_pipeline(ds, steps),
                    "2026-01-01 10:00:00")
    if name == "warm":
        os.rename(spans, spans + "-warm")
ray.shutdown()
'''


class TestOneWave:
    def test_every_task_starts_before_the_first_ends(self, tmp_path):
        """All read tasks of a run start together, where Ray Data's
        output-size estimate would otherwise let one task run alone."""
        import json
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (root, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-c", _WAVE_SCRIPT, str(tmp_path)],
                       cwd=root, env=env, check=True, timeout=600)
        tasks = {}
        for name in os.listdir(tmp_path / "spans"):
            task, t0, t1 = json.loads((tmp_path / "spans" / name).read_text())
            lo, hi = tasks.get(task, (t0, t1))
            tasks[task] = (min(lo, t0), max(hi, t1))
        assert len(tasks) >= 3, tasks
        starts, ends = zip(*tasks.values())
        assert max(starts) < min(ends), sorted(tasks.values())
