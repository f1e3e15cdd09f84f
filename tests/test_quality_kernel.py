"""The batch quality kernel equals the scalar oracle.

``functions.quality.quality_arrays`` scores a ``list<string>`` batch
with Arrow kernels; ``estimate_quality`` scores one document in
Python and stays the oracle. These properties compare the two field
by field on documents built to hit every branch of the dehyphenation
row pattern and of the sanitize/token rules: hyphen wraps onto blank
and non-blank lines, chained wraps (the scalar fallback), Unicode
whitespace, ``BAD_CHARS``, ``ſ`` and non-Latin letters.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_pipeline_ray.functions.quality import estimate_quality, quality_arrays
from ocr_pipeline_ray.functions.text import _BAD_RE, BAD_CHARS, BAD_CLASS
from ocr_pipeline_ray.schema import QUALITY_FIELDS

WHITESPACE = "\x1c\x1d\x1e\x1f\x85\xa0 　\t"
ALPHABET = ("abcdeXYZ" + "-" + BAD_CHARS + "ſ" + "äöüÄÖÜß" + "яλ中"
            + WHITESPACE)
LEXICON = frozenset({"ab", "abc", "äb", "xyz", "dass", "schön"})

# whole lines that hit the row pattern's edge cases
SPECIAL_LINES = st.sampled_from([
    "", " ", "\xa0", "　 ", "-", "foo -", "x-", "y-", "a-", "b c-",
    "d", " ab-cd ", "ab- ", "  ef gh", "ſchön", "dass-", "ab　-",
])
LINE = st.one_of(st.text(ALPHABET, max_size=14), SPECIAL_LINES)
# the shapes of the issue: a chained wrap, single-token targets and a
# lone hyphen as the last token
RUNS = st.sampled_from([
    ["a-", "b c-", "d"], ["x-", "y-"], ["foo -", "bar baz"],
    ["ab-", "", "cd"], ["ab-", " ", "cd ef"], ["ab-", "cd-", "ef-"],
    ["ab-", "  cd ef"], ["xy-", "\xa0zz　"],
])
DOC = st.one_of(
    st.none(),
    st.lists(st.one_of(LINE.map(lambda x: [x]), RUNS), max_size=6).map(
        lambda parts: [line for part in parts for line in part]),
)


def _expected(docs, lexicon, minlen):
    recs = [estimate_quality(d or [], lexicon, minlen) for d in docs]
    return {name: [r[name] for r in recs] for name, _ in QUALITY_FIELDS}


def _assert_matches(docs, lexicon=None, minlen=2):
    arr = pa.array(docs, pa.list_(pa.string()))
    got = quality_arrays(arr, lexicon, minlen)
    assert list(got) == [name for name, _ in QUALITY_FIELDS]
    expected = _expected(docs, lexicon, minlen)
    for name, typ in QUALITY_FIELDS:
        assert got[name].type == typ, name
        assert got[name].to_pylist() == expected[name], (name, docs)


class TestQualityKernel:
    @settings(max_examples=300, deadline=None)
    @given(docs=st.lists(DOC, max_size=10),
           minlen=st.sampled_from([0, 2, 5]),
           lexicon=st.sampled_from([None, LEXICON]))
    def test_equals_scalar_oracle(self, docs, minlen, lexicon):
        _assert_matches(docs, lexicon, minlen)

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(st.one_of(
        st.none(), st.text(ALPHABET + "\n", max_size=40)), max_size=8))
    def test_newline_split_texts(self, texts):
        """The ``--rescore`` shape: stored texts split on newlines,
        null and ``""`` texts included."""
        lines = pc.split_pattern(pa.array(texts, pa.string()), "\n")
        got = quality_arrays(lines)
        expected = _expected(
            [t.split("\n") if t else [] for t in texts], None, 2)
        for name, _ in QUALITY_FIELDS:
            assert got[name].to_pylist() == expected[name], name

    def test_zero_rows(self):
        _assert_matches([])
        got = quality_arrays(pa.chunked_array([], pa.list_(pa.string())))
        assert all(len(col) == 0 for col in got.values())

    def test_every_doc_falls_back(self):
        docs = [["a-", "b c-", "d"], ["xx-", "yy zz-", "ww vv"],
                ["foo -", "bar -", "baz"], [" p-", "q r-  ", "s t"]]
        for minlen in (0, 2, 5):
            _assert_matches(docs, None, minlen)
            _assert_matches(docs, LEXICON, minlen)

    def test_sliced_and_chunked_input(self):
        docs = [["das gute Haus-", "halten hier steht"], None,
                ["a-", "b c-", "d"], ["", "ſchöne Straße-", "  ", "x"]]
        arr = pa.array(docs, pa.list_(pa.string()))
        got = quality_arrays(pa.chunked_array([arr.slice(0, 1),
                                               arr.slice(1)]))
        sliced = quality_arrays(arr.slice(1))
        expected = _expected(docs, None, 2)
        for name, _ in QUALITY_FIELDS:
            assert got[name].to_pylist() == expected[name], name
            assert sliced[name].to_pylist() == expected[name][1:], name


class TestBadCharClass:
    @pytest.mark.parametrize("sample", [
        BAD_CHARS + "abc xyz äöüß ſ ^\\/_{}<>–—«»#&%$@~`",
        "^-]" + BAD_CHARS[::-1] + "\\" + "　\xa0я中",
    ])
    def test_python_and_re2_strip_the_same(self, sample):
        """One class, two engines: ``re`` and Arrow's RE2 agree."""
        got = pc.replace_substring_regex(pa.array([sample]), BAD_CLASS, "")
        assert got.to_pylist() == [_BAD_RE.sub("", sample)]
        assert not any(c in got[0].as_py() for c in BAD_CHARS)


class TestProductCallers:
    def test_rescore_fn_matches_oracle(self):
        from ocr_pipeline_ray.pipelines.rescore import make_rescore_fn

        texts = ["das gute Haus-\nhalten hier steht", None, "",
                 "a-\nb c-\nd", "x\n\nſchön straße 12"]
        batch = pa.table({"url": [f"u{i}" for i in range(len(texts))],
                          "extracted_text": pa.array(texts, pa.string())})
        out = make_rescore_fn(lexicon={"Haus", "halten"}, minlen=5)(batch)
        lex = frozenset({"haus", "halten"})
        for i, text in enumerate(texts):
            rec = estimate_quality(text.split("\n") if text else [], lex, 5)
            for name, typ in QUALITY_FIELDS:
                assert out.column(name).type == typ
                assert out.column(name)[i].as_py() == rec[name], (i, name)

    def test_doc_quality_fn_scores_one_line_docs(self):
        from ocr_pipeline_ray.stages.textstats import doc_quality_fn

        texts = ["gute zeile hier", None, "", "ab- cd", "x\ny zz 12"]
        out = doc_quality_fn(pa.table({"text": pa.array(texts, pa.string())}))
        assert out.schema.field("n_words").type == pa.int64()
        assert out.schema.field("n_errs").type == pa.int64()
        for i, text in enumerate(texts):
            rec = estimate_quality([text or ""])
            for name in ("hit_ratio", "n_words", "n_errs"):
                assert out.column(name)[i].as_py() == rec[name], (i, name)
