"""Dead-code and bench-list gates.

``scripts/reachability.py`` walks the checkout's ASTs from the product
roots (every CLI flag, ``__ray_entry__.entry/queries/oracle_sql``,
``bench.py``, ``scripts/``, ``clibench/``) and from ``tests/``. Code
neither reaches is dead and goes. Code only tests reach may not grow:
an operator needs a product caller, and ``TEST_ONLY`` below is the
backlog of defs that have none, to shrink as they are deleted. A query
name ``bench.py --families`` lists must be a registered query.
"""

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from scripts.reachability import audit  # noqa: E402

# top-level defs under ocr_pipeline_ray/ that only tests reach
TEST_ONLY = {
    "functions/text.py": {"textlines2data", "analyze", "line_center"},
    "pipelines/extraction.py": {"extraction_pipeline"},
    "sources/ingest.py": {"_encode_wire", "pages_to_jsonl"},
    "sources/warc.py": {"response_record", "write_warc_file",
                        "pages_to_warc", "text_from_wet"},
    "stages/bpe.py": {"bpe_reference", "bpe_apply"},
    "stages/bucketed.py": {"probe_join_tables", "bucketed_join",
                           "bucketed_aggregate"},
    "stages/dedup.py": {"simhash64", "jaccard"},
    "stages/join.py": {"expand_join", "_as_i64", "_range_pairs",
                       "range_join", "hot_keys", "skew_join", "_BLOOM_MIX",
                       "_int_bit_indices", "bloom_join"},
    "stages/multimodal.py": {"MEDIA_SCHEMA", "resize_plan_fn",
                             "frame_sample_fn"},
    "stages/normalize.py": {"merge_repl_stats"},
    "stages/pii.py": {"pii_redact"},
    "stages/report.py": {"write_wtr", "iter_report_parts"},
    "stages/stats.py": {"grouped_moments", "grouped_corr", "_cross_moments",
                        "cms_estimate", "_skyline_mask", "skyline_2d"},
    "stages/temporal.py": {"_round6", "sessionize", "grouped_running_sum",
                           "peak_concurrency", "frame_window",
                           "interval_union", "funnel_counts",
                           "event_transitions", "rate_bursts",
                           "watermark_windows", "rolling_percentile",
                           "linear_attribution"},
}


@pytest.fixture(scope="module")
def report():
    return audit()


def test_every_package_def_is_reached(report):
    dead = {r["module"]: r["dead_defs"] for r in report["modules"]
            if r["dead_defs"]}
    assert not dead, f"top-level defs no product root or test reaches: {dead}"
    # a module nothing loads has dead lines but may bind no name
    dead_lines = {r["module"]: r["dead"] for r in report["modules"]
                  if r["dead"]}
    assert not dead_lines, f"lines no root reaches: {dead_lines}"


def test_test_only_defs_do_not_grow(report):
    new = {}
    for r in report["modules"]:
        module = os.path.relpath(r["module"], "ocr_pipeline_ray")
        names = {d.split(":")[0] for d in r["test_only_defs"]}
        extra = sorted(names - TEST_ONLY.get(module, set()))
        if extra:
            new[module] = extra
    assert not new, f"defs only tests reach (give them a product caller): {new}"


def test_lines_add_up(report):
    for r in report["modules"]:
        with open(os.path.join(REPO, r["module"]), encoding="utf-8") as fh:
            assert r["total"] == len(fh.read().splitlines()), r["module"]
        assert r["product"] + r["test_only"] + r["dead"] == r["total"]


def test_family_bench_names_are_registered_queries():
    """``bench.py --families`` names (``BENCH_QUERIES`` is pinned by
    ``test_curation.test_bench_queries_exist``)."""
    import bench
    from ocr_pipeline_ray.queries import QUERIES

    listed = {name for names in bench.FAMILY_BENCH.values()
              for name in names}
    missing = sorted(listed - set(QUERIES))
    assert not missing, f"--families names with no QUERIES entry: {missing}"
