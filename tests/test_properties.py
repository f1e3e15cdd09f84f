"""Property-based tests (hypothesis) for the semantic core.

The reference tests only with golden resources; these add randomized
invariants the golden set can't cover.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_pipeline_ray.functions.quality import estimate_quality, score_ratio
from ocr_pipeline_ray.functions.text import (
    replace_chars,
    replace_chars_regex,
    round3,
    sanitize_chars,
    sanitize_wraps,
)
from replicas import textlines2data

token = st.text(
    alphabet=string.ascii_letters + "äöüß0123456789ſ.-\"'<)", min_size=1,
    max_size=8,
)
line = st.lists(token, min_size=0, max_size=8).map(" ".join)
lines = st.lists(line, min_size=0, max_size=12)


class TestReplaceInvariants:
    @given(lines)
    def test_empty_dict_is_identity(self, ls):
        out, stats = replace_chars(ls, {})
        assert out == list(ls) and stats == {}

    @given(lines)
    def test_line_count_preserved(self, ls):
        out, _ = replace_chars(ls, {"ſ": "s", "ic)": "ich"})
        assert len(out) == len(ls)

    @given(lines)
    def test_stats_bounded_by_line_count(self, ls):
        _, stats = replace_chars(ls, {"ſ": "s", "a": "b"})
        assert all(1 <= v <= len(ls) for v in stats.values())

    @given(lines)
    def test_keys_fully_replaced(self, ls):
        # a key whose replacement cannot re-create it disappears
        out, _ = replace_chars(ls, {"ſ": "s"})
        assert all("ſ" not in l for l in out)

    @given(lines)
    def test_regex_line_count_and_stats(self, ls):
        out, stats = replace_chars_regex(ls, "(s[a-z]*k)", "ar", "er")
        assert len(out) == len(ls)
        assert sum(stats.values()) <= len(ls)  # first match per line only


class TestWrapInvariants:
    @given(lines)
    def test_output_never_longer(self, ls):
        out, n = sanitize_wraps(ls)
        assert len(out) <= len(ls)
        assert n >= 0

    @given(lines)
    def test_no_wraps_means_identity(self, ls):
        ls = [l for l in ls if not l.endswith("-")]
        out, n = sanitize_wraps(ls)
        assert out == ls and n == 0

    @given(lines)
    def test_deterministic(self, ls):
        assert sanitize_wraps(ls) == sanitize_wraps(list(ls))


class TestSanitizeInvariants:
    @given(lines)
    def test_no_bad_chars_survive(self, ls):
        from ocr_pipeline_ray.functions.text import BAD_CHARS

        for out in sanitize_chars(ls):
            assert not any(c in out for c in BAD_CHARS)
            assert "ſ" not in out

    @given(lines)
    def test_tokens_min_length(self, ls):
        for out in sanitize_chars(ls):
            assert all(len(t) > 1 for t in out.split())


class TestQualityInvariants:
    @given(st.integers(0, 10_000), st.integers(0, 20_000))
    def test_ratio_range(self, n_words, n_errs):
        r = score_ratio(n_words, n_errs)
        assert 0.0 <= r <= 100.0

    @given(lines)
    def test_record_consistency(self, ls):
        rec = estimate_quality(ls)
        if rec["hit_ratio"] == -1.0:
            assert rec["n_words"] == 0
        else:
            assert rec["n_words"] >= 1
            assert 0 <= rec["n_errs"] <= rec["n_words"]
            assert rec["n_lines_out"] + rec["n_shorts"] <= rec["n_lines_in"]

    @given(lines)
    def test_counts_tie_out(self, ls):
        word_string, n_lines, n_wraps, n_shorts, n_dense = textlines2data(ls)
        assert n_lines == len(ls)
        non_empty = [l for l in ls if len(l) > 0]
        # dense + sparse = lines surviving the wrap pass
        survived, _ = sanitize_wraps(non_empty)
        assert n_dense + n_shorts == len(survived)
        assert len(word_string.split()) == sum(
            len(l.split()) for l in sanitize_chars(survived) if len(l) > 2
        )


class TestRound3Properties:
    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_within_half_milli(self, x):
        assert abs(round3(x) - x) <= 0.0005 + 1e-9

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_idempotent(self, x):
        assert round3(round3(x)) == round3(x)


class TestExtractorProperties:
    @settings(max_examples=30)
    @given(st.text(alphabet=string.printable, max_size=400))
    def test_never_crashes_on_ascii_garbage(self, garbage):
        from ocr_pipeline_ray.functions.extract import extract_lines

        html = f"<html><body><p>{garbage}</p></body></html>".encode(
            "utf-8", "ignore"
        )
        lines, stats = extract_lines(html)
        for ln in lines:
            assert len(ln["text"]) >= 2

    @settings(max_examples=30)
    @given(st.text(alphabet=string.printable, max_size=400))
    def test_deterministic_on_garbage(self, garbage):
        from ocr_pipeline_ray.functions.extract import extract_lines

        html = garbage.encode("utf-8", "ignore")
        try:
            first = extract_lines(html)
        except Exception as exc:
            first = type(exc).__name__
        try:
            second = extract_lines(html)
        except Exception as exc:
            second = type(exc).__name__
        assert first == second
