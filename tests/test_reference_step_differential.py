"""DIFFERENTIAL parity vs the reference's OWN step text functions.

Companion to tests/test_reference_differential.py (line model): here
the reference's `lib/ocr_step.py` pure text machinery — char/regex
replacement, wrap sanitation, char sanitation, textlines2data,
parse_dict — is imported (read-only from /root/reference; its
module-level `lxml`/`requests` imports are satisfied with empty stub
modules since only pure-Python text paths are exercised) and run
side-by-side with `functions/text.py` on hypothesis-generated line
sets. Byte-identical outputs AND identical statistics required.
"""
import os
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# ocr_step imports lxml.etree and requests at module level; neither is
# needed by the pure text functions under test, so satisfy the imports
# with empty stubs BEFORE the import (never touching the real deps).
for _mod in ("lxml", "lxml.etree", "requests"):
    sys.modules.setdefault(_mod, types.ModuleType(_mod))
sys.modules["lxml"].etree = sys.modules["lxml.etree"]
sys.path.insert(0, "/root/reference")

ref_step = pytest.importorskip("lib.ocr_step")

from ocr_pipeline_ray.functions.text import (  # noqa: E402
    parse_dict,
    replace_chars,
    replace_chars_regex,
    sanitize_chars,
    sanitize_wraps,
)
from replicas import textlines2data  # noqa: E402

# line alphabet exercises every sanitize_chars branch: digits, quotes,
# bad punctuation, long-s, dots, double spaces, hyphens at EOL
_LINE = st.text(
    alphabet="abc deſf0123.–-\"'?!*;:()[]| „“=",
    min_size=0, max_size=30,
)
_LINES = st.lists(_LINE, min_size=0, max_size=12)


def _ref_replace_chars(lines, dict_chars):
    step = ref_step.StepPostReplaceChars({"dict_chars": "{}"})
    step.dict_chars = dict(dict_chars)
    step._replace(list(lines))
    return step.lines_new, dict(step._replacements)


def _ref_replace_regex(lines, pattern, old, new):
    step = ref_step.StepPostReplaceCharsRegex(
        {"pattern": pattern, "old": old, "new": new})
    step._replace(list(lines))
    return step.lines_new, dict(step._replacements)


class TestStepDifferential:
    @given(_LINES)
    @settings(max_examples=200, deadline=None)
    def test_replace_chars_matches(self, lines):
        dict_chars = {"ſ": "s", "aa": "a", "c ": "k"}
        ours, our_stats = replace_chars(lines, dict_chars)
        ref, ref_stats = _ref_replace_chars(lines, dict_chars)
        assert ours == ref
        assert our_stats == ref_stats

    @given(_LINES)
    @settings(max_examples=200, deadline=None)
    def test_replace_regex_matches(self, lines):
        pattern, old, new = r"([funkce]{2,})", "f", "g"
        ours, our_stats = replace_chars_regex(lines, pattern, old, new)
        ref, ref_stats = _ref_replace_regex(lines, pattern, old, new)
        assert ours == ref
        assert our_stats == ref_stats

    @given(_LINES)
    @settings(max_examples=300, deadline=None)
    def test_sanitize_wraps_matches(self, lines):
        # the reference MUTATES its input list in place — give it a copy
        ref_norm, ref_n = ref_step._sanitize_wraps(list(lines))
        our_norm, our_n = sanitize_wraps(list(lines))
        assert our_norm == ref_norm
        assert our_n == ref_n

    @given(_LINES)
    @settings(max_examples=300, deadline=None)
    def test_sanitize_chars_matches(self, lines):
        assert sanitize_chars(list(lines)) == \
            ref_step._sanitize_chars(list(lines))

    @given(_LINES, st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_textlines2data_matches(self, lines, minlen):
        class _FakeLine:
            def __init__(self, text):
                self._t = text

            def get_textline_content(self):
                return self._t

        ref = ref_step.textlines2data(
            [_FakeLine(t) for t in lines], minlen=minlen)
        ours = textlines2data(list(lines), minlen=minlen)
        assert ours == ref

    def test_parse_dict_quirk_mirrored_divergence_pinned(self):
        """The single-pair→{} quirk is mirrored; the quote handling
        is a PINNED DELIBERATE DIVERGENCE: the reference keeps the
        quote characters inside keys/values (so an INI-configured
        ``{'ſ':'s'}`` yields the key ``'ſ'`` WITH quotes — which can
        never match document text, silently no-op'ing the replace
        step), while this engine strips them so config-driven
        replacement actually fires. Found by this differential
        suite; if the reference ever fixes it, this test will flag
        the change."""
        # mirrored behaviors
        for case in ("{}", "{'a':'b'}"):   # empty + single-pair quirk
            assert parse_dict(case) == ref_step.parse_dict(case) == {}
        assert parse_dict({"a": "b"}) == \
            ref_step.parse_dict({"a": "b"}) == {"a": "b"}
        # pinned divergence: quotes kept (ref) vs stripped (ours)
        case = "{'ſ':'s', 'aa':'a'}"
        assert ref_step.parse_dict(case) == {"'ſ'": "'s'",
                                             "'aa'": "'a'"}
        assert parse_dict(case) == {"ſ": "s", "aa": "a"}


class TestEstimateDifferential:
    """StepEstimateOCR math vs functions/quality + functions/text."""

    def test_hit_ratio_matches_reference_postprocess(self):
        from ocr_pipeline_ray.functions.quality import score_ratio

        step = ref_step.StepEstimateOCR.__new__(ref_step.StepEstimateOCR)
        for n_words, n_errs in [(0, 0), (10, 0), (10, 3), (10, 10),
                                (10, 15), (7, 2), (3, 1), (1000, 1),
                                (16, 3), (12, 5)]:
            step.n_words = n_words
            step.postprocess_response(
                {"matches": [None] * n_errs})
            assert score_ratio(n_words, n_errs) == step.hit_ratio, (
                n_words, n_errs)

    def test_analyze_matches_reference_bins_and_mean(self):
        """Our analyze returns per-bin COUNTS; the reference returns
        per-bin result lists — counts and mean must agree. Ratio
        values are reference-rounded (3 decimals), where half-up
        round3 and Python's bankers round agree; exact .0005 ties
        cannot arise from a 3-decimal input."""
        from replicas import analyze

        cases = [
            [],
            [12.5],
            [0.0, 14.999, 15.0, 29.9, 44.999, 45.0, 60.0, 74.9,
             75.0, 99.9, 100.0],
            [7.0, 7.0, 88.8, 91.2, 100.0, 3.3],
        ]
        for ratios in cases:
            ref = ref_step.StepEstimateOCR.analyze(
                [("p%d" % i, r) for i, r in enumerate(ratios)])
            ours_mean, ours_bins = analyze(ratios)
            if not ratios:
                assert ref is None  # reference returns None on empty
                assert (ours_mean, ours_bins) == (0.0, [0] * 5)
                continue
            ref_mean, ref_bins = ref
            assert ours_mean == ref_mean, ratios
            assert ours_bins == [len(b) for b in ref_bins], ratios


class TestInputDiscoveryDifferential:
    """S1 discovery order: the reference's OCRPipeline.input_sorted
    vs __main__._collect_inputs on the same file tree — same ext
    filtering, same dedup, same global sort (the deterministic
    processing order both engines' resume logic keys on)."""

    @staticmethod
    def _ref_input_sorted(data_path, exts, recursive=False):
        import configparser
        import logging

        sys.path.insert(0, "/root/reference")
        import ocr_pipeline as ref_pipe

        inst = ref_pipe.OCRPipeline.__new__(ref_pipe.OCRPipeline)
        cfg = configparser.ConfigParser()
        cfg.add_section("pipeline")
        cfg.set("pipeline", "file_ext", ",".join(exts))
        inst.cfg = cfg
        inst.data_path = data_path
        inst.logger = logging.getLogger("ref-diff")
        return inst.input_sorted(recursive=recursive)

    def _tree(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "nested").mkdir()
        for rel in ("x2.parquet", "x1.parquet", "skip.txt",
                    "a/y1.parquet", "a/skip.json",
                    "a/nested/z1.parquet"):
            (tmp_path / rel).write_bytes(b"")
        return str(tmp_path)

    def test_flat_dir_matches(self, tmp_path):
        from ocr_pipeline_ray.__main__ import _collect_inputs

        root = self._tree(tmp_path)
        ref = self._ref_input_sorted(root, ["parquet"])
        ours = _collect_inputs([root], recursive=False, fmt="parquet")
        assert ours == ref
        assert ours == sorted(ours)            # deterministic order

    def test_recursive_matches(self, tmp_path):
        from ocr_pipeline_ray.__main__ import _collect_inputs

        root = self._tree(tmp_path)
        ref = self._ref_input_sorted(root, ["parquet"],
                                     recursive=True)
        ours = _collect_inputs([root], recursive=True, fmt="parquet")
        assert ours == ref

    def test_multi_dir_dedup_matches(self, tmp_path):
        """Comma-list of dirs incl. a REPEAT: both engines dedup to
        one path per file and sort globally."""
        from ocr_pipeline_ray.__main__ import _collect_inputs

        root = self._tree(tmp_path)
        dirs = [root, os.path.join(root, "a"), root]
        ref = self._ref_input_sorted(dirs, ["parquet"])
        ours = _collect_inputs([",".join(dirs)], recursive=False,
                               fmt="parquet")
        assert ours == ref
