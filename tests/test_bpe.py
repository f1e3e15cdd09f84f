"""BPE trainer vs the sequential reference implementation."""

from collections import Counter

import pyarrow as pa
import pytest

CORPUS = [
    "low lower lowest low low",
    "newer newest new new newer",
    "wider wide wide widest",
    "low new wide lower",
    "",
]


def _word_counts():
    c = Counter()
    for t in CORPUS:
        c.update(w for w in t.split(" ") if w)
    return dict(c)


class TestBpeTrain:
    @pytest.mark.parametrize("layout,n_merges", [(1, 12), (3, 5)])
    def test_matches_reference(self, ray_session, layout, n_merges):
        import ray.data

        from ocr_pipeline_ray.stages.bpe import bpe_train
        from replicas import bpe_reference

        ds = ray.data.from_arrow(pa.table({
            "text": pa.array(CORPUS, pa.string()),
        })).repartition(layout)
        got = bpe_train(ds, n_merges=n_merges)
        want = bpe_reference(_word_counts(), n_merges=n_merges)
        got_rows = list(zip(got.column("left").to_pylist(),
                            got.column("right").to_pylist(),
                            got.column("count").to_pylist()))
        assert got_rows == want

    def test_early_stop_below_min_count(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.bpe import bpe_train

        ds = ray.data.from_arrow(pa.table({
            "text": pa.array(["a bb ccc"], pa.string()),
        }))
        got = bpe_train(ds, n_merges=50, min_count=2)
        # all words unique → every pair count is 1 → zero merges
        assert got.num_rows == 0

    def test_apply_roundtrip(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.bpe import bpe_train
        from retired_operators import bpe_apply

        ds = ray.data.from_arrow(pa.table({
            "text": pa.array(CORPUS, pa.string()),
        }))
        merges = bpe_train(ds, n_merges=10)
        out = bpe_apply(ds, merges).take_all()
        for row in out:
            toks = row["bpe_tokens"]
            # detokenize: strip word-end markers, concat, one word per
            # marker — must reproduce the input exactly
            words, cur = [], ""
            for t in toks:
                if t.endswith("</w>"):
                    words.append(cur + t[:-4])
                    cur = ""
                else:
                    cur += t
            assert cur == ""
            assert words == [w for w in row["text"].split(" ") if w]

    def test_merges_compress(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.bpe import bpe_train
        from retired_operators import bpe_apply

        ds = ray.data.from_arrow(pa.table({
            "text": pa.array(CORPUS, pa.string()),
        }))
        merges = bpe_train(ds, n_merges=10)
        assert merges.num_rows > 0
        with_m = bpe_apply(ds, merges).take_all()
        without = bpe_apply(ds, merges.slice(0, 0)).take_all()
        n_with = sum(len(r["bpe_tokens"]) for r in with_m)
        n_without = sum(len(r["bpe_tokens"]) for r in without)
        assert n_with < n_without
