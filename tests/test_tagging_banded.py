"""Phrase-dictionary tagging and per-doc text statistics."""

import pyarrow as pa
import pytest

from ocr_pipeline_ray.stages.textstats import DictionaryTagger, dictionary_tag


def _ds(rows):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))


class TestDictionaryTagger:
    def test_overlapping_counts(self):
        tagger = DictionaryTagger(["batch batch"])
        out = tagger(pa.table({
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array(["batch batch batch"], pa.string()),
        }))
        assert out.to_pylist() == [
            {"doc_id": 7, "term": "batch batch", "n_hits": 2}
        ]

    def test_longest_phrase_wins_at_shared_offset(self):
        tagger = DictionaryTagger(["x y", "x y z"])
        out = tagger(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["x y z x y"], pa.string()),
        })).to_pylist()
        by_term = {r["term"]: r["n_hits"] for r in out}
        # offset 0 matches the longer "x y z"; "x y" only at offset 6
        assert by_term == {"x y z": 1, "x y": 1}

    def test_null_and_empty_text_skipped(self):
        tagger = DictionaryTagger(["a b"])
        out = tagger(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array([None, ""], pa.string()),
        }))
        assert out.num_rows == 0

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            DictionaryTagger([])
        with pytest.raises(ValueError):
            DictionaryTagger([""])  # '' matches at every offset

    def test_empty_string_terms_filtered(self):
        tagger = DictionaryTagger(["a b", ""])
        out = tagger(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["a b c"], pa.string()),
        })).to_pylist()
        assert out == [{"doc_id": 1, "term": "a b", "n_hits": 1}]

    def test_actor_pool_stage(self, ray_session):
        ds = _ds([
            (1, "slow join after slow join"),
            (2, "no dictionary words here"),
        ])
        rows = dictionary_tag(ds, ["slow join"], concurrency=2).take_all()
        assert rows == [{"doc_id": 1, "term": "slow join", "n_hits": 2}]


class TestCharEntropy:
    def test_uniform_and_degenerate(self):
        from ocr_pipeline_ray.stages.textstats import char_entropy_fn
        import math

        out = char_entropy_fn(pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["aaaa", "ab", None, ""], pa.string()),
        })).to_pylist()
        # null/empty dropped; single-char alphabet → 0; 50/50 → ln 2
        assert [r["doc_id"] for r in out] == [1, 2]
        assert out[0]["char_entropy"] == 0.0
        assert abs(out[1]["char_entropy"] - math.log(2)) < 1e-6
        assert out[1]["n_chars"] == 2

    def test_multibyte_codepoints(self):
        from ocr_pipeline_ray.stages.textstats import char_entropy_fn
        import math

        out = char_entropy_fn(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["日本語日本語"], pa.string()),
        })).to_pylist()
        assert out[0]["n_chars"] == 6
        assert abs(out[0]["char_entropy"] - math.log(3)) < 1e-6


class TestOovRate:
    def test_top_v_coverage(self, ray_session):
        from ocr_pipeline_ray.stages.textstats import oov_rate

        # 'a' dominates; with v=1 the vocab is exactly {'a'}
        ds = _ds([(1, "a a a rare"), (2, "a a"), (3, "x y")])
        rows = {r["doc_id"]: r for r in oov_rate(ds, v=1).take_all()}
        assert rows[1]["n_oov"] == 1 and rows[1]["n_tokens"] == 4
        assert rows[2]["n_oov"] == 0 and rows[2]["oov_rate"] == 0.0
        assert rows[3]["n_oov"] == 2 and rows[3]["oov_rate"] == 1.0

    def test_tie_break_token_asc(self, ray_session):
        from ocr_pipeline_ray.stages.textstats import oov_rate

        # 'b' and 'c' tie on count; token-asc keeps 'b' at v=1
        ds = _ds([(1, "b c"), (2, "c b")])
        rows = {r["doc_id"]: r for r in oov_rate(ds, v=1).take_all()}
        assert rows[1]["n_oov"] == 1 and rows[2]["n_oov"] == 1


class TestRarityDispersion:
    def test_uniform_vs_mixed_dispersion(self, ray_session):
        from ocr_pipeline_ray.stages.textstats import rarity_dispersion

        # docs 1-3 share 'common' (df=4); 'rare*' tokens have df=1.
        # doc 4 is all-common (zero variance); doc 1 mixes df=4 and
        # df=1 tokens (positive variance).
        ds = _ds([
            (1, "common rare1 rare2"),
            (2, "common rarex"),
            (3, "common rarey"),
            (4, "common common common"),
        ])
        rows = {r["doc_id"]: r for r in rarity_dispersion(ds).take_all()}
        assert rows[4]["var_df"] == 0.0
        assert rows[4]["mean_df"] == 4.0
        assert rows[1]["var_df"] > 0.0
        # doc 1: dfs (4,1,1) -> mean 2, var = (16+1+1)/3 - 4 = 2
        assert rows[1]["mean_df"] == 2.0 and rows[1]["var_df"] == 2.0


class TestParagraphLangMix:
    def test_mixing_and_majority(self):
        from ocr_pipeline_ray.stages.textstats import paragraph_lang_mix_fn

        out = paragraph_lang_mix_fn(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([
                "the a here\n\nder die das\n\nthe a again",  # en,de,en
                "der und die\n\nder die",                    # de,de
                "nichts here",                               # unk only
            ], pa.string()),
        })).to_pylist()
        r = {x["doc_id"]: x for x in out}
        assert r[1]["n_paras"] == 3 and r[1]["n_langs"] == 2
        assert r[1]["major_lang"] == "en"
        assert abs(r[1]["mix_frac"] - (1.0 - 2 / 3)) < 1e-12
        assert r[2] == {"doc_id": 2, "n_paras": 2, "n_langs": 1,
                        "major_lang": "de", "mix_frac": 0.0}
        assert r[3]["major_lang"] == "unk" and r[3]["mix_frac"] == 0.0

    def test_tie_breaks_lexicographic(self):
        from ocr_pipeline_ray.stages.textstats import paragraph_lang_mix_fn

        # one en para, one de para: tie -> 'de' (lexicographic min)
        out = paragraph_lang_mix_fn(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["the a\n\nder die"], pa.string()),
        })).to_pylist()
        assert out[0]["major_lang"] == "de" and out[0]["n_langs"] == 2
