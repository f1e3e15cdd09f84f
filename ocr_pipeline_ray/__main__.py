"""CLI entry point — the ``python ocr_pipeline.py <data_path>`` analogue.

Reference lifecycle (`/root/reference/ocr_pipeline.py:445-538`,
SURVEY.md §3.1): parse args → load config → discover inputs → lock →
parallel per-document chain → merge estimations → ``.wtr`` report →
mark done/fail. This engine's recast::

    python -m ocr_pipeline_ray INPUT... -o OUT [-c conf.ini] [-r]
        [--set SECTION.KEY=VALUE ...] [--num-cpus N] [--report]
        [--rescore] [--emit-xml] [--logdir DIR]

* INPUT: parquet file(s), directory of parquet shards, or a glob.
* resumable by default: shards with a ``done`` lineage record under
  OUT are skipped (the marker-file open/busy/done/fail semantics).
* ``--report`` additionally writes the ``.wtr``-style corpus quality
  report (header mean,b1..b5,total,invalid + rows sorted ascending).
* ``--rescore``: post-processing-only mode over already-extracted
  output (the conf/ocr_config_post.ini analogue).
"""

from __future__ import annotations

import argparse
import glob as globmod
import os
import shutil
import sys
import time


_FORMAT_EXTS = {
    "parquet": (".parquet",),
    "jsonl": (".json", ".jsonl"),
    "csv": (".csv",),
    "warc": (".warc", ".warc.gz"),
}


def _collect_inputs(inputs, recursive: bool = False,
                    fmt: str = "parquet") -> list:
    """Input discovery: files, dirs, comma lists, globs.

    ``recursive=True`` walks nested shard trees — the reference's
    ``input_sorted(recursive=True)`` / ``-r`` flag
    (`/root/reference/ocr_pipeline.py:271-336,457-463`). ``fmt``
    picks the extension filter for directory scans (the reference's
    ``file_ext`` config analogue).
    """
    exts = _FORMAT_EXTS[fmt]
    paths = []
    for item in inputs:
        for sub in item.split(","):
            if os.path.isdir(sub):
                if recursive:
                    for root, _dirs, files in os.walk(sub):
                        paths.extend(
                            os.path.join(root, f)
                            for f in files
                            if f.endswith(exts)
                        )
                else:
                    paths.extend(
                        os.path.join(sub, f)
                        for f in os.listdir(sub)
                        if f.endswith(exts)
                    )
            elif any(ch in sub for ch in "*?["):
                paths.extend(globmod.glob(sub))
            else:
                paths.append(sub)
    # dedup + global sort — deterministic processing order
    # (ocr_pipeline.py:335 parity)
    return sorted(set(paths))


def _ingest_to_parquet(paths, fmt: str, out_root: str, log) -> list:
    """Wire-format corpora (JSONL/CSV/WARC) → parquet staging shards.

    One-time conversion under ``<out>/_ingest_parquet`` so the
    resumable partitioned run keeps its parquet-shard granularity;
    an existing staging dir is REUSED (the conversion itself is the
    resume unit — delete the dir to re-ingest). The conversion writes
    into a temp dir of this process beside it and renames the whole
    dir into place once the write has returned, so the staging dir is
    never partial: a killed ingest leaves only its temp dir, which no
    run reads.
    """
    from ocr_pipeline_ray.sources import (pages_from_csv,
                                          pages_from_jsonl,
                                          pages_from_warc)

    staging = os.path.join(out_root, "_ingest_parquet")
    if os.path.isdir(staging):
        log.info("reusing ingested parquet staging at %s", staging)
    else:
        ds = {"jsonl": pages_from_jsonl, "csv": pages_from_csv,
              "warc": pages_from_warc}[fmt](paths)
        tmp = f"{staging}.tmp-{os.uname().nodename}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        ds.write_parquet(tmp)
        try:
            os.replace(tmp, staging)
        except OSError:
            if not os.path.isdir(staging):
                raise
            # a concurrent driver published its staging first: use it
            shutil.rmtree(tmp, ignore_errors=True)
        log.info("ingested %d %s file(s) → %s", len(paths), fmt, staging)
    return sorted(
        os.path.join(staging, f)
        for f in os.listdir(staging)
        if f.endswith(".parquet")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ocr_pipeline_ray")
    parser.add_argument("inputs", nargs="+",
                        help="parquet files / dirs / globs (comma lists ok)")
    parser.add_argument("-o", "--out", required=True, help="output root")
    parser.add_argument("-c", "--config", default=None,
                        help="INI pipeline config (step_01..NN sections)")
    parser.add_argument("--format",
                        choices=["parquet", "jsonl", "csv", "warc"],
                        default="parquet",
                        help="input format; jsonl/csv (wire encoding: "
                             "base64 html, ISO timestamps) and warc "
                             "(raw crawl shards) are ingested "
                             "once into <out>/_ingest_parquet, then the "
                             "normal resumable parquet flow runs")
    parser.add_argument("-r", "--recursive", action="store_true",
                        help="walk input directories recursively")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE",
                        help="override a step param over the config "
                             "(e.g. --set step_01.min_len=3 or "
                             "--set HtmlExtract.min_len=3); repeatable")
    parser.add_argument("--num-cpus", type=int, default=None)
    parser.add_argument("--report", action="store_true",
                        help="also write the .wtr corpus quality report")
    parser.add_argument("--report-parts", action="store_true",
                        help="write the report as sorted parquet parts "
                             "+ _summary.json (the at-scale report "
                             "mode) instead of one .wtr file")
    parser.add_argument("--emit-xml", action="store_true",
                        help="add an alto_xml column (pretty/CRLF ALTO v4 "
                             "serialization of the extracted lines)")
    parser.add_argument("--emit-wet", action="store_true",
                        help="after the run, export <out>/wet/ WET "
                             "shards (WARC conversion records of the "
                             "extracted text — the Common-Crawl "
                             "derivative format)")
    parser.add_argument("--profile", action="store_true",
                        help="add a step_wall_us column with per-step "
                             "wall timing (the reference's per-step "
                             "profile() log at batch granularity)")
    parser.add_argument("--rescore", action="store_true",
                        help="post-only quality re-scoring of extracted output")
    parser.add_argument("--no-resume", action="store_true",
                        help="ignore existing lineage (reprocess everything)")
    parser.add_argument("--logdir", default=None,
                        help="write a dated run log file here (the "
                             "reference's init_logger analogue)")
    parser.add_argument("--training-data", action="store_true",
                        help="after extraction, run the training-data "
                             "tail: quality gate (--min-ratio) -> exact "
                             "content dedup (first-wins by url) -> "
                             "content-hash 90/5/5 split -> "
                             "out/training/split=*/ parquet")
    parser.add_argument("--min-ratio", type=float, default=50.0,
                        help="quality gate for --training-data "
                             "(keep hit_ratio >= this; default 50)")
    parser.add_argument("--embed", action="store_true",
                        help="after extraction, run the actor-pool "
                             "embedding-inference stage over the "
                             "extracted text (stages/embedder.py "
                             "stub linear model; swap model_loader "
                             "for a real checkpoint) and write "
                             "out/embeddings parquet (url, "
                             "embedding list<int64>)")
    parser.add_argument("--audit", action="store_true",
                        help="after extraction, write out/audit.json: "
                             "data-quality expectation counts (null/"
                             "empty text, duplicate urls, error rows, "
                             "unscored rows) + host concentration "
                             "(gini, n_hosts)")
    args = parser.parse_args(argv)

    log = _init_logger(args.logdir)

    import ray

    from ocr_pipeline_ray import silence_ray_cosmetic_warnings

    silence_ray_cosmetic_warnings()

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)

    from ocr_pipeline_ray.config import (
        StepSpec,
        apply_overrides,
        default_steps,
        load_steps_ini,
    )
    from ocr_pipeline_ray.pipelines.extraction import build_pipeline
    from ocr_pipeline_ray.state.lineage import LineageStore, run_partitioned

    paths = _collect_inputs(args.inputs, recursive=args.recursive,
                            fmt=args.format)
    if not paths:
        print(f"no input {args.format} files found", file=sys.stderr)
        return 2
    log.info("%d input shard(s) discovered", len(paths))
    if args.format != "parquet":
        os.makedirs(args.out, exist_ok=True)
        paths = _ingest_to_parquet(paths, args.format, args.out, log)
    run_ts = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime())

    if args.rescore:
        from ocr_pipeline_ray.pipelines.rescore import rescore_pipeline

        # -c names the post-only chain (the conf/ocr_config_post.ini
        # analogue): pass the RescoreQuality step's params through
        rescore_kwargs = {}
        if args.config:
            specs = load_steps_ini(args.config)
            if args.overrides:
                specs = apply_overrides(specs, args.overrides)
            rescore_specs = [s for s in specs if s.type == "RescoreQuality"]
            if not rescore_specs:
                print(f"--rescore config {args.config} has no "
                      "RescoreQuality step", file=sys.stderr)
                return 2
            params = rescore_specs[0].params
            for key in ("lexicon", "minlen", "text_col"):
                if key in params:
                    rescore_kwargs[key] = params[key]
        os.makedirs(args.out, exist_ok=True)
        rescored = os.path.join(args.out, "rescored")
        shutil.rmtree(rescored, ignore_errors=True)  # rerun = replace
        rescore_pipeline(paths, **rescore_kwargs).write_parquet(rescored)
        # a zero-row rescore writes no file (and maybe no dir at all)
        _write_report(args.out,
                      paths_rescored=os.path.join(rescored, "*.parquet"))
        print("rescored →", args.out)
        return 0

    steps = load_steps_ini(args.config) if args.config else default_steps()
    if args.overrides:
        steps = apply_overrides(steps, args.overrides)
    if args.emit_xml:
        steps.append(StepSpec("EmitAlto"))

    if args.no_resume:
        store = LineageStore(args.out)
        for pid in store.done_partitions():
            os.remove(os.path.join(args.out, "_lineage", f"{pid}.json"))

    def _pipeline(ds):
        return build_pipeline(ds, steps=steps, profile=args.profile)

    try:
        # prune at the read: the chain needs only these four columns
        summary = run_partitioned(
            paths, args.out, _pipeline, run_ts,
            read_columns=["url", "warc_ts", "html", "lang"],
        )
    except Exception as exc:
        log.error("pipeline failed: %s", exc)
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1

    line = (
        f"partitions: {len(summary['processed_partitions'])} processed, "
        f"{len(summary['skipped_partitions'])} skipped (resume), "
        f"{summary['rows_written']} rows written"
    )
    log.info("%s", line)
    print(line)

    if args.report or args.report_parts:
        _write_report(args.out, parts=args.report_parts)
    if args.training_data:
        _write_training_data(args.out, args.min_ratio, log)
    if args.audit:
        _write_audit(args.out, log)
    if args.emit_wet:
        _write_wet(args.out, log)
    if args.embed:
        _write_embeddings(args.out, log)
    return 0


def _published(out_root: str) -> str:
    """Glob of the published extraction output's Parquet files."""
    return os.path.join(out_root, "pid=*", "*.parquet")


def _write_embeddings(out_root: str, log) -> None:
    """Embedding tail: pruned read of the published output (url +
    extracted_text only), one actor-pool inference pass
    (stages/embedder.EmbeddingInference — weights load once per
    actor), embeddings parquet beside the extraction output. The
    tail is deterministic; rerunning replaces ``out/embeddings``."""
    from ocr_pipeline_ray.stages.embedder import embedding_inference_stage
    from ocr_pipeline_ray.state.lineage import output_files, read_output

    files = output_files(_published(out_root))
    if not files:
        return
    ds = read_output(files, columns=["url", "extracted_text"])
    vecs = embedding_inference_stage(
        ds, id_col="url", text_col="extracted_text")
    dst = os.path.join(out_root, "embeddings")
    shutil.rmtree(dst, ignore_errors=True)
    vecs.write_parquet(dst)
    log.info("embeddings → %s", dst)
    print("embeddings →", dst)


def _write_wet(out_root: str, log) -> None:
    """WET export tail: pruned read of the published output
    (url/warc_ts/extracted_text only — the heavy lines/html columns
    never load), conversion records written task-side per block."""
    from ocr_pipeline_ray.sources import extracted_to_wet
    from ocr_pipeline_ray.state.lineage import output_files, read_output

    files = output_files(_published(out_root))
    if not files:
        return
    ds = read_output(files, columns=["url", "warc_ts", "extracted_text"])
    wet_dir = os.path.join(out_root, "wet")
    extracted_to_wet(ds, wet_dir)
    log.info("WET export → %s", wet_dir)


def _write_audit(out_root: str, log) -> None:
    """Corpus-audit tail over the extraction output (the CLI surface
    of the `host_gini` operator): exact expectation
    counts from per-block scalar partials (driver folds blocks-scale
    rows), duplicate urls via ONE url-hash co-shuffle of the key
    column only, and host concentration from the map-side-combined
    host partials. Three pruned reads, no corpus-wide shuffle of
    content columns; the artifact is one small audit.json."""
    import json as jsonmod

    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_pipeline_ray.functions.hashing import bucket_ids
    from ocr_pipeline_ray.stages.web import host_gini
    from ocr_pipeline_ray.state.lineage import output_files, read_output

    files = output_files(_published(out_root))

    def _partial(batch: pa.Table) -> pa.Table:
        text = batch.column("extracted_text")
        lens = pc.utf8_length(pc.fill_null(text, ""))
        return pa.table({
            "n_rows": pa.array([batch.num_rows], pa.int64()),
            "null_text": pa.array([text.null_count], pa.int64()),
            "empty_text": pa.array([pc.sum(pc.cast(pc.and_(
                pc.is_valid(text), pc.equal(lens, 0)),
                pa.int64())).as_py() or 0], pa.int64()),
            "error_rows": pa.array([pc.sum(pc.cast(pc.is_valid(
                batch.column("error")), pa.int64())).as_py() or 0],
                pa.int64()),
            "unscored_rows": pa.array([pc.sum(pc.cast(pc.equal(
                pc.fill_null(batch.column("hit_ratio"), -1.0), -1.0),
                pa.int64())).as_py() or 0], pa.int64()),
        })

    ds = read_output(files, columns=["extracted_text", "error", "hit_ratio"])
    totals = {"n_rows": 0, "null_text": 0, "empty_text": 0,
              "error_rows": 0, "unscored_rows": 0}
    for b in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for k in totals:
            totals[k] += pc.sum(b.column(k)).as_py() or 0

    def _keyed(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        return pa.table({
            "url": urls,
            "_kbucket": pa.array(bucket_ids(urls, 64), pa.int64()),
        })

    def _dups(group: pa.Table) -> pa.Table:
        n = group.num_rows
        uniq = len(pc.unique(group.column("url")))
        return pa.table({"d": pa.array([n - uniq], pa.int64())})

    dup_urls = 0
    for b in read_output(files, columns=["url"]).map_batches(
            _keyed, batch_format="pyarrow").groupby(
            "_kbucket", num_partitions=64).map_groups(
            _dups, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        dup_urls += pc.sum(b.column("d")).as_py() or 0

    hosts = host_gini(read_output(files, columns=["url"]))
    audit = dict(totals)
    audit["dup_urls"] = dup_urls
    audit["n_hosts"] = hosts.column("n_hosts")[0].as_py()
    audit["host_gini"] = hosts.column("gini")[0].as_py()
    path = os.path.join(out_root, "audit.json")
    with open(path, "w", encoding="UTF-8") as fh:
        jsonmod.dump(audit, fh, sort_keys=True)
    line = (f"audit → {path} ({audit['n_rows']} rows, "
            f"{audit['dup_urls']} dup urls, "
            f"{audit['error_rows']} errors, gini {audit['host_gini']})")
    log.info("%s", line)
    print(line)


def _write_training_data(out_root: str, min_ratio: float, log) -> None:
    """The training-data tail over the extraction output: quality
    gate -> exact content dedup (one bucketed keep-first shuffle on
    the content hash, url order breaking ties) -> deterministic
    content-hash 90/5/5 split -> Hive `split=` parquet under
    ``out/training``. The oracle-checked `training_pipeline` query
    pins the same first-wins content dedup and md5 split at sf
    scale; its gate is a C4-style text filter, not the ``hit_ratio``
    threshold used here. The tail is deterministic, so rerunning
    REPLACES the training dir (a partial dir from a killed run never
    survives into the next); the extraction stage upstream stays
    resumable per partition. Reads are pruned to the three columns
    the tail needs."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_pipeline_ray.stages.dedup import dedup_first
    from ocr_pipeline_ray.state.lineage import read_output

    ds = read_output(_published(out_root),
                     columns=["url", "extracted_text", "hit_ratio"])
    thr = float(min_ratio)

    def _gate(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("hit_ratio"), thr))

    gated = ds.map_batches(_gate, batch_format="pyarrow")

    def _fingerprint(batch: pa.Table) -> pa.Table:
        texts = batch.column("extracted_text").to_pylist()
        fps = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
               for t in texts]
        return batch.append_column("fp", pa.array(fps, pa.string()))

    deduped = dedup_first(
        gated.map_batches(_fingerprint, batch_format="pyarrow"),
        key_col="fp", order_col="url")

    def _split(batch: pa.Table) -> pa.Table:
        fps = batch.column("fp").to_pylist()
        buckets = [int(f[:8], 16) % 100 for f in fps]
        splits = ["train" if b < 90 else ("val" if b < 95 else "test")
                  for b in buckets]
        return batch.drop_columns(["fp"]).append_column(
            "split", pa.array(splits, pa.string()))

    out_dir = os.path.join(out_root, "training")
    shutil.rmtree(out_dir, ignore_errors=True)  # rerun = replace
    deduped.map_batches(_split, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["split"])
    log.info("training data → %s", out_dir)
    print(f"training data → {out_dir}")


def _init_logger(logdir):
    """File+console run logger with a dated logfile name.

    The reference's ``init_logger`` contract
    (`/root/reference/ocr_pipeline.py:120-158`): console always;
    ``<logdir>/ocr_pipeline_ray_<%Y-%m-%d_%H-%M>.log`` when a logdir
    is given (created if missing).
    """
    import logging

    log = logging.getLogger("ocr_pipeline_ray.run")
    log.setLevel(logging.INFO)
    log.handlers.clear()
    console = logging.StreamHandler()
    console.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.addHandler(console)
    if logdir:
        os.makedirs(logdir, exist_ok=True)
        stamp = time.strftime("%Y-%m-%d_%H-%M", time.localtime())
        path = os.path.join(logdir, f"ocr_pipeline_ray_{stamp}.log")
        fh = logging.FileHandler(path, encoding="UTF-8")
        fh.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(message)s")
        )
        log.addHandler(fh)
    return log


def _write_report(out_root: str, paths_rescored: str = None,
                  parts: bool = False) -> None:
    """The corpus quality report over the published output (or the
    ``--rescore`` output dir). The ``.wtr`` is built on the driver
    from the 8 report columns of the written files, in file order;
    ``parts`` writes the at-scale report parts through one fused
    read and a distributed sort instead."""
    from ocr_pipeline_ray.functions.text import wtr_filename
    from ocr_pipeline_ray.state.lineage import output_files, read_output
    from ocr_pipeline_ray.stages.report import (
        REPORT_COLUMNS,
        quality_summary,
        read_report,
        sorted_report,
        stream_wtr,
        write_report_parts,
    )

    files = output_files(paths_rescored or _published(out_root))
    if parts:
        ds = read_output(files, columns=REPORT_COLUMNS)
        summary = quality_summary(ds)
        path = write_report_parts(
            os.path.join(out_root, "report_parts"), summary,
            sorted_report(ds)
        )
    else:
        rep = read_report(files)
        summary = quality_summary(rep)
        name = wtr_filename(os.path.basename(os.path.normpath(out_root)),
                            time.localtime())
        path = stream_wtr(os.path.join(out_root, name), summary,
                          sorted_report(rep))
    print(f"report → {path} (mean {summary['mean']}, "
          f"{summary['total']} docs, {summary['invalid']} invalid)")


if __name__ == "__main__":
    sys.exit(main())
