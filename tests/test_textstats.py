"""Row-local text operators: token counts, stopword language ID,
quality heuristics and single-line document quality, on worked
examples."""

import pyarrow as pa
import pytest

from ocr_pipeline_ray.stages.textstats import (
    doc_quality_fn,
    lang_id_fn,
    quality_heuristics_fn,
    token_count_fn,
)


def _texts(texts):
    return pa.table({"text": pa.array(texts, pa.string())})


def test_token_count_is_single_spaces_plus_one():
    out = token_count_fn(_texts(["a b c", "", "x  y", None]))
    assert out.column("n_tokens").to_pylist() == [3, 1, 3, None]
    assert out.schema.field("n_tokens").type == pa.int64()


def test_lang_id_counts_stopwords_case_sensitively():
    out = lang_id_fn(_texts([
        "the cat and a dog",
        "der hund und die katze",
        "the der",
        "The A",
        "",
        None,
    ]))
    assert out.column("s_en").to_pylist() == [2, 0, 1, 0, 0, 0]
    assert out.column("s_de").to_pylist() == [0, 3, 1, 0, 0, 0]
    assert out.column("lang_pred").to_pylist() == [
        "en", "de", "unk", "unk", "unk", "unk"]


def test_quality_heuristics_worked_examples():
    out = quality_heuristics_fn(_texts(["the ab cdef", "", "a  b"]))
    cols = ("n_chars_text", "n_tokens", "short_ratio", "stop_ratio",
            "mean_token_len")
    got = list(zip(*(out.column(c).to_pylist() for c in cols)))
    # "the ab cdef": 11 chars, 3 tokens; "ab" is short, "the" a stopword;
    # mean token length = (11 chars - 2 spaces) / 3 tokens
    assert got[0] == (11, 3, pytest.approx(1 / 3), pytest.approx(1 / 3),
                      3.0)
    # "" is one empty token, and an empty token is short
    assert got[1] == (0, 1, 1.0, 0.0, 0.0)
    # a double space makes an empty middle token
    assert got[2] == (4, 3, 1.0, pytest.approx(1 / 3),
                      pytest.approx(2 / 3))


def test_doc_quality_keeps_the_sentinel_for_empty_text():
    out = doc_quality_fn(_texts(["", None]))
    assert out.column("hit_ratio").to_pylist() == [-1.0, -1.0]
    assert out.column("n_words").to_pylist() == [0, 0]
    assert out.column("n_errs").to_pylist() == [0, 0]
    assert out.column("text").to_pylist() == ["", None]
