"""Golden unit tests for the reference-parity text semantics.

Mirrors the reference's test strategy (exact-count assertions on known
inputs, `/root/reference/tests/test_steps.py`), re-targeted at this
engine's row-local functions.
"""

from ocr_pipeline_ray.functions.quality import (
    count_errors,
    estimate_quality,
    score_ratio,
)
from ocr_pipeline_ray.functions.text import (
    parse_dict,
    replace_chars,
    replace_chars_regex,
    round3,
    sanitize_chars,
    sanitize_wraps,
    strip_raw_wrapper,
)
from replicas import analyze, textlines2data


class TestRound3:
    def test_half_up_boundary_is_a_known_reference_deviation(self):
        """round3 = floor(x*1000+0.5)/1000 (half-up, DuckDB-matching).

        The reference uses Python round() (banker's, lib/ocr_step.py:
        403-412); values landing exactly on a .0005 boundary differ by
        0.001. Pinned DELIBERATE deviation — see BASELINE.md."""
        v = (64 - 3) / 64 * 100.0  # == 95.3125 exactly in binary
        assert round3(v) == 95.313       # this engine + DuckDB oracle
        assert round(v, 3) == 95.312     # reference (banker's)

    def test_matches_python_round_off_boundary(self):
        for v in (0.0, 1.2344, 1.2346, 99.9994, 99.9996, 87.123):
            assert round3(v) == round(v, 3)


class TestReplaceChars:
    def test_counts_once_per_line_per_key(self):
        lines = ["ſieben ſachen", "nichts", "ſo"]
        out, stats = replace_chars(lines, {"ſ": "s"})
        assert out == ["sieben sachen", "nichts", "so"]
        # two lines contained 'ſ' → count 2, NOT 3 occurrences
        assert stats == {"ſ": 2}

    def test_ordered_cascade(self):
        # 's<' handled before residual '<' — order is semantic
        out, stats = replace_chars(["es< a<b"], {"s<": "sc", "<": "c"})
        assert out == ["esc acb"]
        assert stats == {"s<": 1, "<": 1}

    def test_reverse_order_changes_result(self):
        out, _ = replace_chars(["es< a<b"], {"<": "c", "s<": "sc"})
        assert out == ["esc acb"] or out == ["esc acb"]  # '<' first eats both
        assert out[0] == "esc acb"

    def test_no_hits_no_stats(self):
        out, stats = replace_chars(["abc"], {"x": "y"})
        assert out == ["abc"] and stats == {}


class TestReplaceCharsRegex:
    PATTERN = '([aeioubcglnt]3[:-]*")'

    def test_first_match_only_then_replace_that_literal(self):
        # two DIFFERENT matchable literals; only the first is acted on
        line = 'da3" und de3" ende'
        out, stats = replace_chars_regex([line], self.PATTERN, "3", "s")
        assert out == ['das" und de3" ende']
        assert stats == {'a3"=>as"': 1}

    def test_replaces_every_occurrence_of_matched_literal(self):
        line = 'da3" und da3" nochmal'
        out, stats = replace_chars_regex([line], self.PATTERN, "3", "s")
        assert out == ['das" und das" nochmal']
        assert stats == {'a3"=>as"': 1}

    def test_stat_key_format_and_accumulation(self):
        lines = ['u3" eins', 'u3" zwei', 'l3" drei']
        _, stats = replace_chars_regex(lines, self.PATTERN, "3", "s")
        assert stats == {'u3"=>us"': 2, 'l3"=>ls"': 1}

    def test_strip_raw_wrapper(self):
        stored = "r'([aeioubcglnt]3[:-]*\")'"
        assert strip_raw_wrapper(stored) == '([aeioubcglnt]3[:-]*")'
        assert strip_raw_wrapper("plain") == "plain"


class TestSanitizeWraps:
    def test_basic_merge(self):
        lines = ["das Was-", "ser ist tief"]
        out, n = sanitize_wraps(lines)
        assert out == ["das Wasser", "ist tief"]
        assert n == 1

    def test_empty_next_line_drops_hyphen_line(self):
        # reference quirk: lib/ocr_step.py:485-487
        lines = ["das Was-", "   ", "weiter gehts"]
        out, n = sanitize_wraps(lines)
        assert out == ["   ", "weiter gehts"]
        assert n == 0

    def test_last_line_hyphen_kept(self):
        out, n = sanitize_wraps(["ende mit strich-"])
        assert out == ["ende mit strich-"] and n == 0

    def test_chained_wraps_mutate_in_place(self):
        lines = ["Wa-", "sser-", "fall kommt"]
        out, n = sanitize_wraps(lines)
        # line0 takes 'sser-' → 'Wasser-'... wait: takes first token of
        # line1 ('sser-') giving 'Wasser-'; line1 becomes '' so line1
        # ('') is appended as-is; line2 untouched.
        assert out == ["Wasser-", "", "fall kommt"]
        assert n == 1

    def test_next_line_single_token_leaves_empty(self):
        lines = ["zusam-", "men", "und mehr"]
        out, n = sanitize_wraps(lines)
        assert out == ["zusammen", "", "und mehr"]
        assert n == 1


class TestSanitizeChars:
    def test_bad_chars_removed(self):
        out = sanitize_chars(['Ha"us? 123 gut;'])
        assert out == ["Haus gut"]

    def test_long_s_mapped(self):
        assert sanitize_chars(["ſachen"]) == ["sachen"]

    def test_short_tokens_dropped(self):
        assert sanitize_chars(["a bb c dd"]) == ["bb dd"]

    def test_single_pass_double_space(self):
        # 'a   b' → one pass collapses only non-overlapping pairs
        out = sanitize_chars(["xx   yy"])
        assert out == ["xx yy"]  # token join normalizes in the end


class TestTextlines2Data:
    def test_counts(self):
        lines = ["das Was-", "ser ist tief", "ab", "", "gute lange zeile hier"]
        word_string, n_lines, n_wraps, n_shorts, n_dense = textlines2data(lines)
        assert n_lines == 5
        assert n_wraps == 1
        # 'ab' sanitizes to '' (len<=1 tokens dropped) → sparse
        assert n_shorts == 1
        assert n_dense == 3
        assert word_string == "das Wasser ist tief gute lange zeile hier"

    def test_empty(self):
        assert textlines2data([]) == ("", 0, 0, 0, 0)


class TestQualityFusionParity:
    def test_fused_estimate_equals_textlines2data_path(self):
        """estimate_quality's fused token path == the reference-shaped
        textlines2data composition, over adversarial line shapes
        (hyphen wraps, empties, bad chars, ſ, short tokens, marks)."""
        import random

        from ocr_pipeline_ray.functions.quality import (
            count_errors,
            estimate_quality,
            score_ratio,
        )
        rng = random.Random(17)
        pieces = [
            "der alte turm", "steht-", "", "  ", "am 123 fluss!",
            "ab", "x", "ſtraße und „gassen“", "unter dem (hohen) berg-",
            "zu|sammen ge..setzt", "a b c d", "drüben;", "--", "-",
        ]
        for _ in range(300):
            lines = [rng.choice(pieces) for _ in range(rng.randint(0, 9))]
            for minlen in (0, 2, 5):
                got = estimate_quality(lines, minlen=minlen)
                ws, n_lines, n_wraps, n_shorts, n_dense = textlines2data(
                    lines, minlen=minlen
                )
                if not lines or not ws:
                    assert got["hit_ratio"] == -1.0
                    assert got["n_words"] == 0
                    continue
                toks = ws.split()
                n_errs = min(count_errors(toks), len(toks))
                assert got["n_lines_in"] == n_lines
                assert got["n_wraps"] == n_wraps
                assert got["n_shorts"] == n_shorts
                assert got["n_lines_out"] == n_dense
                assert got["n_words"] == len(toks)
                assert got["n_errs"] == n_errs
                assert got["hit_ratio"] == score_ratio(len(toks), n_errs)


class TestAnalyze:
    def test_bins_last_bin_from_60(self):
        ratios = [0.0, 14.9, 15.0, 44.9, 59.9, 60.0, 75.0, 100.0]
        mean, bins = analyze(ratios)
        # round(r // 15): 0,0,1,2,3,4,5→4,6→4
        assert bins == [2, 1, 1, 1, 3]
        assert mean == round3(sum(ratios) / len(ratios))

    def test_empty(self):
        assert analyze([]) == (0.0, [0, 0, 0, 0, 0])


class TestParseDict:
    def test_single_pair_quirk_returns_empty(self):
        assert parse_dict("{'a':'b'}") == {}

    def test_multi_pair(self):
        parsed = parse_dict("{'ic)': 'ich', 's<': 'sc', '<': 'c'}")
        assert parsed == {"ic)": "ich", "s<": "sc", "<": "c"}

    def test_dict_passthrough(self):
        assert parse_dict({"a": "b"}) == {"a": "b"}


class TestQuality:
    def test_sentinel_empty_doc(self):
        rec = estimate_quality([])
        assert rec["hit_ratio"] == -1.0 and rec["n_words"] == 0

    def test_sentinel_blank_lines(self):
        rec = estimate_quality(["", "  "])
        assert rec["hit_ratio"] == -1.0

    def test_error_cap_and_zero_ratio(self):
        assert score_ratio(3, 5) == 0.0
        assert score_ratio(3, 3) == 0.0

    def test_ratio_math(self):
        assert score_ratio(4, 1) == 75.0
        assert score_ratio(3, 1) == round3(2 / 3 * 100)

    def test_count_errors_default_rule(self):
        assert count_errors(["gut", "stra,ße", "Haus", "x<y"]) == 2

    def test_count_errors_with_lexicon(self):
        lex = frozenset({"gut", "haus"})
        assert count_errors(["gut", "Haus", "berg"], lex) == 1

    def test_full_record(self):
        rec = estimate_quality(["das gute Haus-", "halten hier steht"])
        assert rec["n_lines_in"] == 2
        assert rec["n_wraps"] == 1
        assert rec["n_words"] == 5
        assert rec["n_errs"] == 0
        assert rec["hit_ratio"] == 100.0


class TestRound3:
    def test_half_up(self):
        assert round3(1.0005) == 1.001  # deterministic half-up, not banker's
        assert round3(2.6665) == 2.667
        assert round3(79.2106) == 79.211


class TestIdsAndHelpers:
    def test_doc_id_first_dot_quirk(self):
        from ocr_pipeline_ray.functions.text import doc_id_from_url

        # split('.')[0], NOT splitext — reference lib/ocr_step.py:41-46
        assert doc_id_from_url("http://h.example/seite-7.min.html") == "seite-7"
        assert doc_id_from_url("http://h.example/a/b/scan0001.tif") == "scan0001"
        assert doc_id_from_url("doc://123") == "123"

    def test_page_id_prefix(self):
        from ocr_pipeline_ray.functions.text import page_id_from_url

        assert page_id_from_url("http://h/x.html") == "px"
        assert page_id_from_url("http://h/x.html", "page_") == "page_x"

    def test_line_center(self):
        from replicas import line_center

        assert line_center(80, 100, 120, 24) == 140.0
        assert line_center(80, 100, 120, 24, vertical=True) == 112.0

    def test_wtr_filename(self):
        import time

        from ocr_pipeline_ray.functions.text import wtr_filename

        ts = time.struct_time((2026, 1, 2, 13, 45, 0, 0, 0, 0))
        assert wtr_filename("mydir", ts) == "mydir_2026-01-02_13-45.wtr"


class TestNfcNormalize:
    """Unicode NFC stage fn: ASCII fast path + Python compose path."""

    def _run(self, texts):
        import pyarrow as pa

        from ocr_pipeline_ray.stages.normalize import nfc_normalize_fn

        batch = pa.table({"text": pa.array(texts, pa.string())})
        return nfc_normalize_fn(batch).column("text_nfc").to_pylist()

    def test_composes_decomposed_accents(self):
        assert self._run(["cafe\u0301"]) == ["caf\u00e9"]

    def test_ascii_rows_pass_through_identity(self):
        import pyarrow as pa

        from ocr_pipeline_ray.stages.normalize import nfc_normalize_fn

        batch = pa.table({"text": pa.array(["plain ascii", "more"], pa.string())})
        out = nfc_normalize_fn(batch)
        # All-ASCII batch takes the zero-copy branch: same backing array.
        assert out.column("text_nfc").combine_chunks() == batch.column(
            "text").combine_chunks()

    def test_mixed_batch_with_nulls(self):
        import unicodedata

        texts = ["ascii", None, "über", "", "ñ"]
        want = [
            None if t is None else unicodedata.normalize("NFC", t)
            for t in texts
        ]
        assert self._run(texts) == want

    def test_already_nfc_nonascii_unchanged(self):
        assert self._run(["café über"]) == ["café über"]


class TestChunkDocuments:
    def _chunk_ref(self, text, chunk, step):
        toks = text.split(" ")
        n = len(toks)
        out = []
        s = 0
        i = 0
        while True:
            out.append((i, " ".join(toks[s:s + chunk]),
                        min(s + chunk, n) - s))
            if s + chunk >= n:
                break
            s += step
            i += 1
        return out

    def test_matches_reference_chunker(self):
        import random

        import pyarrow as pa

        from ocr_pipeline_ray.stages.textstats import chunk_documents

        rng = random.Random(3)
        texts = ["", "one",
                 " ".join(f"t{i}" for i in range(64)),     # == chunk
                 " ".join(f"t{i}" for i in range(65)),     # one over
                 None]
        texts += [" ".join(f"w{rng.randrange(99)}"
                           for _ in range(rng.randrange(1, 300)))
                  for _ in range(30)]
        batch = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        got = chunk_documents(batch, chunk_tokens=64, step=48)
        by_doc = {}
        for r in got.to_pylist():
            by_doc.setdefault(r["doc_id"], []).append(
                (r["chunk_id"], r["chunk_text"], r["n_tokens"]))
        for i, t in enumerate(texts):
            if t is None:
                assert i not in by_doc
                continue
            assert sorted(by_doc[i]) == self._chunk_ref(t, 64, 48), i
        # overlap really overlaps: doc with 65 tokens -> 2 chunks,
        # second starts at token 48
        c = sorted(by_doc[3])
        assert len(c) == 2 and c[1][1].startswith("t48 ")

    def test_validation(self):
        import pyarrow as pa
        import pytest as _pytest

        from ocr_pipeline_ray.stages.textstats import chunk_documents

        b = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["x"], pa.string())})
        with _pytest.raises(ValueError):
            chunk_documents(b, chunk_tokens=0)
        with _pytest.raises(ValueError):
            chunk_documents(b, step=0)


class TestRegexExtract:
    def test_duckdb_parity_incl_nomatch_and_null(self):
        import duckdb
        import pyarrow as pa

        from ocr_pipeline_ray.stages.textstats import regex_extract_fn

        tbl = pa.table({
            "s": pa.array(["src12", "nope", None, "src7x", ""],
                          pa.string()),
        })
        got = regex_extract_fn(
            tbl, "s", r"^src(?P<num>\d+)").column("num").to_pylist()
        con = duckdb.connect()
        con.register("t", tbl)
        want = [r[0] for r in con.execute(
            r"SELECT regexp_extract(s, '^src(\d+)', 1) FROM t"
        ).fetchall()]
        con.close()
        assert got == want == ["12", "", None, "7", ""]


class TestBm25Topk:
    def test_vs_reference_formula(self, ray_session):
        import math

        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.stages.textstats import bm25_topk

        docs = [
            "window merge stream window",
            "merge merge merge",
            "stream",
            "nothing relevant here",
            "window stream window stream window",
            "",
        ]
        tbl = pa.table({
            "doc_id": pa.array(list(range(len(docs))), pa.int64()),
            "text": pa.array(docs, pa.string()),
        })
        toks = ["window", "merge", "stream"]
        # naive reference
        lens = [len(d.split(" ")) for d in docs]
        n, avgdl = len(docs), sum(lens) / len(docs)
        dfs = {t: sum(1 for d in docs if t in d.split(" "))
               for t in toks}
        k1, b = 1.2, 0.75
        want = {}
        for i, d in enumerate(docs):
            s = 0.0
            for t in toks:
                tf = d.split(" ").count(t)
                if tf == 0:
                    continue
                idf = math.log((n - dfs[t] + 0.5) / (dfs[t] + 0.5) + 1)
                s += idf * tf * (k1 + 1) / (
                    tf + k1 * (1 - b + b * lens[i] / avgdl))
            if s > 0:
                want[i] = math.floor(s * 1e6 + 0.5) / 1e6
        expect = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
        for parts in (1, 3):
            got = bm25_topk(
                ray.data.from_arrow(tbl).repartition(parts),
                toks, k=4).to_pandas()
            assert list(zip(got["doc_id"], got["score"])) == expect[:4]

    def test_no_match_empty(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.stages.textstats import bm25_topk

        tbl = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a b", "c d"], pa.string()),
        })
        got = bm25_topk(ray.data.from_arrow(tbl), ["zzz"], k=5)
        assert got.count() == 0


class TestDeobfuscate:
    def test_homoglyphs_restored_ascii_passthrough(self):
        import pyarrow as pa

        from ocr_pipeline_ray.stages.normalize import deobfuscate_fn

        batch = pa.table({
            "text": pa.array(
                ["сliсk here", "plain ascii", None,
                 "οk аnd ЕX"], pa.string()),
        })
        out = deobfuscate_fn(batch)
        assert out.column("text_clean").to_pylist() == [
            "click here", "plain ascii", None, "ok and EX"]
