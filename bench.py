"""Benchmark harness — headline extraction throughput + query timings.

Usage:
    python bench.py                 # full bench, one JSON line to stdout
    python bench.py --headline-only # just the extraction pipeline
    python bench.py --scaling       # run headline at 1/2/4/8/16/32 CPUs,
                                    # up to the host's CPU count, in
                                    # fresh processes, report N->4N
                                    # scaling efficiencies

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default: the host's CPU count, os.cpu_count()).

The headline pipeline is the flagship HTML extraction chain over a
deterministic synthetic Common-Crawl-style corpus sized by the sf dir
(generated in parallel once, cached under /tmp). Throughput is
reported as docs/s and MB/s of html payload, measured over the
streaming execution into a parquet sink.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SF_DIR = "/root/testdata/sf0.1"
BENCH_ROOT = "/tmp/ocr_ray_bench"

# queries timed in the full bench (one per operator family)
BENCH_QUERIES = [
    "replace_chars", "sanitize_chars", "nfc_normalize", "token_count",
    "quality_report",
    "dedup_first_rows",
    "ann_topk", "embedding_near_dup",
    "semantic_dedup",
    "pii_redact", "host_stats", "heavy_hitters", "inverted_index",
    "sequence_packing",
    "corpus_filter", "corpus_quantiles", "profile_table",
    "tfidf_top_terms",
    "top_tokens",
    "kmeans_assign", "lm_score",
    "shuffle_shards", "doc_embed", "mix_sample", "packed_windows",
    "lm_buckets",
    "quality_rank", "source_overlap",
    "sample_exact_k", "docs_except",
    "docs_union",
    "bucket_point_lookup",
    "distinct_users_by_type",
    "doc_chunks", "cms_sketch",
    "hll_users_by_type",
    "lang_doc_rank", "source_extract", "quality_classifier",
    "docs_checksum",
    "extraction_flagship",
    "extraction_boilerplate", "media_decode", "training_pipeline",
    # session-3 additions
    "snapshot_diff_summary", "locf_fill", "bucketed_upsert",
    "priority_sample", "bm25_search", "hybrid_search",
    "collocations",
    "label_centroids",
    "value_outliers", "lang_confusion",
    "lang_doc_rank_dist", "ks_drift", "chi2_drift",
    "doc_novelty", "extraction_pdf_roundtrip",
    # session-5 additions
    "dsir_weights",
    "image_dhash",
    "scd2_build",
    "distinctive_terms",
    "lang_top_tokens", "host_gini",
    "wordlist_gate",
    # session-7 additions
    "embedding_quantize",
    "pq_codes", "ann_topk_pq",
    "video_scene_cuts", "zonemap_scan", "range_shards",
    "url_latest_k", "phrase_match",
    "schema_evolution", "deobfuscate",
    "meta_extract", "html_tables",
    # session-8 additions
    "dictionary_tag",
    "char_entropy", "oov_rate",
    "rarity_dispersion", "paragraph_lang_mix",
    # session-9 additions
    "zorder_scan",
    "mutual_nn_pairs", "rendezvous_shards",
    "filter_cascade",
    "coreset_select", "frontier_pipeline",
    # session-10 additions
    "script_mix", "calibration_bins",
    "agg_refresh", "compaction_plan",
    "audio_silence", "semantic_blocklist", "hard_negatives",
    "vocab_growth", "inference_buckets", "domain_holdout_split",
    "fix_mojibake", "seed_pipeline",
    # session-11 additions
    "random_projection", "image_resize",
    "store_repair_plan",
    "embedding_covariance", "stratified_priority_sample",
    "embedding_outliers",
    "column_diff",
]


# the sf1 scale tier (--families): one representative query per
# operator family, runnable against a gen_sf.py-synthesized dir where
# the full query bench would take hours. Shuffle-heavy operators
# lead each family — they are where scale regressions hide (the
# 50-query correctness sample can't see a 10x slowdown).
FAMILY_BENCH = {
    "extraction": ["extraction_flagship", "quality_report"],
    "dedup_exact": ["dedup_first_rows"],
    "similarity": ["ann_topk", "embedding_near_dup", "kmeans_assign"],
    "text_stats": ["token_count", "tfidf_top_terms", "lm_buckets"],
    "training_tail": ["sequence_packing", "mix_sample"],
}


def run_families(sf_dir: str):
    """Per-family timings at the given scale: {family: {query: sec}}."""
    import pandas as pd
    import pyarrow as pa

    from ocr_pipeline_ray.queries import QUERIES

    out = {}
    for family, names in FAMILY_BENCH.items():
        fam = {}
        for name in names:
            t0 = time.time()
            result = QUERIES[name](sf_dir)
            if isinstance(result, (pd.DataFrame, pa.Table)):
                _ = len(result)
            else:
                for _ in result.iter_batches(batch_size=4096):
                    pass
            fam[name] = round(time.time() - t0, 3)
        out[family] = fam
    return out


def family_run(num_cpus: int, sf_dir: str) -> dict:
    import ray

    from ocr_pipeline_ray import silence_ray_cosmetic_warnings

    silence_ray_cosmetic_warnings()
    os.environ.setdefault("OCR_RAY_SCRATCH", "/dev/shm/ocr_ray_scratch")
    os.makedirs(os.environ["OCR_RAY_SCRATCH"], exist_ok=True)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    import ray.data

    ray.data.DataContext.get_current().op_resource_reservation_enabled = False
    t0 = time.time()
    try:
        families = run_families(sf_dir)
    finally:
        ray.shutdown()
    return {
        "metric": "family_bench_wall_seconds",
        "value": round(time.time() - t0, 3),
        "unit": "sec",
        "queries": {q: s for fam in families.values()
                    for q, s in fam.items()},
        "families": families,
        "sf": sf_label(sf_dir),
        "num_cpus": num_cpus,
    }


def sf_label(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return base if base else sf_dir.replace("/", "_")


def corpus_rows_for(sf_dir: str) -> int:
    label = sf_label(sf_dir)
    try:
        sf = float(label.replace("sf", ""))
    except ValueError:
        sf = 0.1
    return max(8000, int(3_000_000 * sf))


def ensure_corpus(sf_dir: str, pdf_fraction: float = 0.0):
    """Parallel, deterministic, cached corpus generation."""
    import ray

    from ocr_pipeline_ray.corpus import generate_pages_table

    rows = corpus_rows_for(sf_dir)
    # fine-grained shards: block count >> max worker count, so the
    # fused read→extract→write tasks load-balance without stragglers
    n_shards = max(64, rows // 1000)
    # v2: corpus generator now emits ALTO/PAGE XML document kinds too
    tag = f"_pdf{int(pdf_fraction * 100)}" if pdf_fraction > 0 else ""
    out_dir = os.path.join(
        BENCH_ROOT, f"pages_{sf_label(sf_dir)}_{rows}_{n_shards}_v2{tag}"
    )
    os.makedirs(out_dir, exist_ok=True)
    per_shard = [rows // n_shards] * n_shards
    for k in range(rows % n_shards):
        per_shard[k] += 1
    paths = [
        os.path.join(out_dir, f"pages-{s:05d}.parquet")
        for s in range(n_shards)
    ]
    meta_path = os.path.join(out_dir, "_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="UTF-8") as fh:
            meta = json.load(fh)
        if all(os.path.exists(p) for p in paths):
            return paths, meta["html_mb"]

    @ray.remote
    def _gen(shard: int, n: int, path: str) -> float:
        import pyarrow.parquet as pq

        table = generate_pages_table(n, seed=42, shard=shard,
                                     pdf_fraction=pdf_fraction)
        pq.write_table(table, path + ".tmp", compression="zstd")
        os.replace(path + ".tmp", path)
        return sum(len(x) for x in table.column("html").to_pylist()) / 1e6

    html_mb = sum(
        ray.get([
            _gen.remote(s, per_shard[s], paths[s]) for s in range(n_shards)
        ])
    )
    with open(meta_path, "w", encoding="UTF-8") as fh:
        json.dump({"rows": rows, "html_mb": html_mb}, fh)
    return paths, html_mb


def run_headline(paths, html_mb: float, num_cpus: int):
    from ocr_pipeline_ray.config import PipelineContext
    from ocr_pipeline_ray.pipelines.extraction import (
        build_pipeline,
        read_pages,
    )

    import pyarrow.parquet as pq

    # sink on tmpfs: the sandbox disk writes at ~44 MB/s and its
    # write-back stalls would measure the disk, not the engine (a real
    # cluster writes to a distributed FS with aggregate bandwidth)
    out_dir = "/dev/shm/ocr_ray_bench_headline_out"
    # fused chain runs as a task pool: scales with every CPU, and Ray
    # fuses read → extract-chain → write into a single pass per block.
    # GRAFT_BATCH_SIZE / GRAFT_TARGET_BLOCK_MB exist for the saturation
    # sweep (BASELINE.md): default batch 256 rows, default Ray block
    # size untouched.
    import ray.data

    blk_mb = os.environ.get("GRAFT_TARGET_BLOCK_MB")
    if blk_mb:
        ray.data.DataContext.get_current().target_max_block_size = (
            int(blk_mb) * 1024 * 1024)
    # default 512 after the round-4 sweep (BASELINE.md): best cell at
    # 32 CPUs, ~4% over 256 (within ambient noise; the sweep's real
    # finding is that sizing has NO large effect — the host saturates)
    ctx = PipelineContext(
        batch_size=int(os.environ.get("GRAFT_BATCH_SIZE", "512")))

    def _one_run() -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        ds = build_pipeline(read_pages(paths), ctx=ctx)
        t0 = time.time()
        ds.write_parquet(out_dir, compression="zstd")
        return time.time() - t0

    _one_run()  # warmup: spawn worker pool + imports, fill page cache
    n_timed = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))
    wall = min(_one_run() for _ in range(n_timed))
    n_docs = 0
    for f in os.listdir(out_dir):
        if f.endswith(".parquet"):
            n_docs += pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "seconds": round(wall, 3),
        "n_docs": n_docs,
        "html_mb": round(html_mb, 1),
        "docs_per_sec": round(n_docs / wall, 1),
        "mb_per_sec": round(html_mb / wall, 2),
    }


def run_queries(sf_dir: str):
    import pandas as pd
    import pyarrow as pa

    from ocr_pipeline_ray.queries import QUERIES

    timings = {}
    for name in BENCH_QUERIES:
        fn = QUERIES[name]
        t0 = time.time()
        result = fn(sf_dir)
        if isinstance(result, (pd.DataFrame, pa.Table)):
            _ = len(result)
        else:
            for _ in result.iter_batches(batch_size=4096):
                pass
        timings[name] = round(time.time() - t0, 3)
    return timings


def single_run(num_cpus: int, sf_dir: str, headline_only: bool) -> dict:
    import ray

    from ocr_pipeline_ray import silence_ray_cosmetic_warnings

    silence_ray_cosmetic_warnings()
    # checkpoint/store scratch on tmpfs for the same reason as the
    # headline sink: the sandbox disk writes at ~44 MB/s and would
    # measure the disk, not the engine (a real cluster's OCR_RAY_STORE
    # is a distributed FS with aggregate bandwidth)
    os.environ.setdefault("OCR_RAY_SCRATCH", "/dev/shm/ocr_ray_scratch")
    os.makedirs(os.environ["OCR_RAY_SCRATCH"], exist_ok=True)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    import ray.data

    # one heavy operator dominates this pipeline: don't reserve 50% of
    # the CPUs for the (trivial) read operator
    ray.data.DataContext.get_current().op_resource_reservation_enabled = False
    try:
        paths, html_mb = ensure_corpus(sf_dir)
        headline = run_headline(paths, html_mb, num_cpus)
        queries = {} if headline_only else run_queries(sf_dir)
    finally:
        ray.shutdown()
    return {
        "metric": "extraction_pipeline_wall_seconds",
        "value": headline["seconds"],
        "unit": "sec",
        "queries": queries,
        "sf": sf_label(sf_dir),
        "num_cpus": num_cpus,
        "n_docs": headline["n_docs"],
        "html_mb": headline["html_mb"],
        "docs_per_sec": headline["docs_per_sec"],
        "mb_per_sec": headline["mb_per_sec"],
    }


def scaling_run(sf_dir: str) -> dict:
    """The same headline job at N and 4N CPUs in fresh processes.

    The ladder is 1/2/4/8/16/32 CPUs, cut at the host's CPU count: a
    rung above it would measure oversubscription, not scaling. Every
    (N, 4N) pair on the ladder gets an efficiency. Primary pair (2, 8)
    when the host has 8 CPUs: both ends sit in the uncontended regime
    (per-core throughput is flat from 2 to 8 busy cores), which models
    an N-node vs 4N-node cluster where every node keeps its own
    frequency/memory envelope; beyond ~8 busy cores a single box
    saturates its memory/frequency envelope (per-task UDF time
    inflates 35-40% with all cores busy; see BASELINE.md). On a
    smaller host the primary pair is the largest one that fits.
    """
    host = os.cpu_count() or 1
    cpus_list = [c for c in (1, 2, 4, 8, 16, 32) if c <= host]
    pairs = [(lo, 4 * lo) for lo in cpus_list if 4 * lo in cpus_list]
    primary = (2, 8) if (2, 8) in pairs else (pairs[-1] if pairs else None)
    results = {}
    # the primary pair is measured back-to-back first: the shared
    # host's ambient speed drifts over minutes, so adjacent
    # measurement keeps the pair comparable
    first = list(primary) if primary else []
    for cpus in first + [c for c in cpus_list if c not in first]:
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env.setdefault("GRAFT_BENCH_REPEATS", "2")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--headline-only",
             "--sf-dir", sf_dir],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        line = [l for l in proc.stdout.strip().splitlines()
                if l.startswith("{")][-1]
        results[cpus] = json.loads(line)
    def _eff(lo, hi):
        return round(
            (results[hi]["docs_per_sec"] / results[lo]["docs_per_sec"]) / 4.0,
            3,
        )

    out = {
        "metric": "scaling_efficiency_N_to_4N",
        "value": _eff(*primary) if primary else None,
        "unit": "ratio",
        "queries": {},
        "sf": sf_label(sf_dir),
        "num_cpus": cpus_list[-1],
        "cpu_count": host,
        "pair_primary": f"{primary[0]}->{primary[1]}" if primary else None,
    }
    for lo, hi in pairs:
        out[f"efficiency_{lo}_to_{hi}"] = _eff(lo, hi)
    out["docs_per_sec"] = {
        str(c): results[c]["docs_per_sec"] for c in cpus_list}
    out["mb_per_sec"] = {str(c): results[c]["mb_per_sec"] for c in cpus_list}
    out["wall_sec"] = {str(c): results[c]["value"] for c in cpus_list}
    return out


def default_cpus() -> int:
    """``$RAY_GRAFT_CPUS``, else every CPU of the host."""
    return int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scaling", action="store_true")
    parser.add_argument("--headline-only", action="store_true")
    parser.add_argument(
        "--families", action="store_true",
        help="per-family scale tier (run against a gen_sf.py sf1 dir)")
    parser.add_argument(
        "--sf-dir", default=os.environ.get("GRAFT_SF_DIR", DEFAULT_SF_DIR)
    )
    args = parser.parse_args()
    if args.scaling:
        out = scaling_run(args.sf_dir)
    elif args.families:
        out = family_run(default_cpus(), args.sf_dir)
    else:
        cpus = default_cpus()
        out = single_run(cpus, args.sf_dir, args.headline_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
