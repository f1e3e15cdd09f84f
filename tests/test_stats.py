"""Exact distributed quantiles vs DuckDB quantile_disc."""

import random

import duckdb
import pyarrow as pa
import pytest

from ocr_pipeline_ray.stages.stats import exact_quantiles

QS = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def _duck_quantiles(values, qs):
    con = duckdb.connect()
    tbl = pa.table({"x": values})  # noqa: F841 — registered by name
    con.register("t", tbl)
    row = con.sql(
        f"SELECT quantile_disc(x, {qs}) FROM t"
    ).fetchone()[0]
    return list(row)


class TestExactQuantiles:
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 501])
    def test_matches_duckdb_random(self, ray_session, n):
        import ray.data

        rng = random.Random(n)
        # heavy duplication stresses the cumsum index math
        vals = [rng.randrange(0, max(2, n // 3)) for _ in range(n)]
        ds = ray.data.from_arrow(
            pa.table({"x": pa.array(vals, pa.int64())})
        ).repartition(4)
        got = exact_quantiles(ds, "x", QS)
        assert got.column("q").to_pylist() == QS
        assert got.column("value").to_pylist() == _duck_quantiles(
            pa.array(vals, pa.int64()), QS
        )

    def test_ignores_nulls(self, ray_session):
        import ray.data

        vals = pa.array([None, 5, None, 1, 3], pa.int64())
        ds = ray.data.from_arrow(pa.table({"x": vals}))
        got = exact_quantiles(ds, "x", [0.5])
        assert got.column("value").to_pylist() == _duck_quantiles(
            vals, [0.5]
        )

    def test_all_null_raises(self, ray_session):
        import ray.data

        ds = ray.data.from_arrow(
            pa.table({"x": pa.array([None, None], pa.int64())})
        )
        with pytest.raises(ValueError):
            exact_quantiles(ds, "x", [0.5])


class TestTfidfNullText:
    def test_null_text_emits_no_rows(self, ray_session):
        """SQL NULL semantics: a NULL text contributes no tf rows
        (and no df inflation); empty string contributes token ''."""
        import ray.data

        from ocr_pipeline_ray.stages.textstats import tfidf_top_terms

        tbl = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b a", None, ""], pa.string()),
        })
        out = tfidf_top_terms(
            ray.data.from_arrow(tbl), k=3, n_buckets=4
        ).take_all()
        by_doc = {}
        for r in out:
            by_doc.setdefault(r["doc_id"], []).append(r["token"])
        assert 2 not in by_doc
        assert sorted(by_doc[1]) == ["a", "b"]
        assert by_doc[3] == [""]


class TestGroupedQuantiles:
    def test_matches_duckdb_per_group(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.stats import grouped_quantiles

        rng = random.Random(5)
        n = 400
        tbl = pa.table({
            "g": pa.array([rng.choice(["a", "b", "c"])
                           for _ in range(n)], pa.string()),
            "x": pa.array(
                [rng.randrange(0, 40) if rng.random() > 0.05 else None
                 for _ in range(n)], pa.int64()),
        })
        qs = [0.0, 0.25, 0.5, 0.9, 1.0]
        got = grouped_quantiles(
            ray.data.from_arrow(tbl).repartition(4), "g", "x", qs
        )
        got_map = {
            (k, q): v for k, q, v in zip(
                got.column("key").to_pylist(),
                got.column("q").to_pylist(),
                got.column("value").to_pylist(),
            )
        }
        con = duckdb.connect()
        con.register("t", tbl)
        expect = {}
        for g, vals in con.sql(
            f"SELECT g, quantile_disc(x, {qs}) FROM t GROUP BY g"
        ).fetchall():
            for q, v in zip(qs, vals):
                expect[(g, q)] = v
        assert got_map == expect


class TestRepetitionStats:
    """Gopher-style duplicate/top bigram fractions (textstats)."""

    def _run(self, texts):
        from ocr_pipeline_ray.stages.textstats import repetition_stats_fn

        tbl = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        out = repetition_stats_fn(tbl)
        return {
            d: (n, dup, top) for d, n, dup, top in zip(
                out.column("doc_id").to_pylist(),
                out.column("n_bigrams").to_pylist(),
                out.column("dup_bigram_frac").to_pylist(),
                out.column("top_bigram_frac").to_pylist(),
            )
        }

    def test_known_values(self):
        got = self._run([
            "a b a b a",      # bigrams: ab ba ab ba -> 4 occ, 2 distinct
            "x x x x",        # xx xx xx -> 3 occ, 1 distinct
            "u v w",          # uv vw -> 2 occ, 2 distinct
        ])
        assert got[0] == (4, 1 - 2 / 4, 2 / 4)
        assert got[1] == (3, 1 - 1 / 3, 3 / 3)
        assert got[2] == (2, 0.0, 1 / 2)

    def test_short_null_and_empty_docs_dropped(self):
        # <2 tokens => no bigram => row dropped (matches the SQL twin)
        got = self._run(["solo", None, "", "a b"])
        assert set(got) == {3}
        assert got[3] == (1, 0.0, 1.0)

    def test_adjacent_single_token_docs_no_straddle(self):
        # the bigram position between two docs must be masked out
        got = self._run(["p", "q"])
        assert got == {}

    def test_empty_batch(self):
        got = self._run([])
        assert got == {}

    def test_matches_duckdb_random(self, ray_session):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "dd", "e"]
        texts = [
            " ".join(rng.choice(vocab)
                     for _ in range(rng.randrange(0, 12)))
            for _ in range(200)
        ]
        tbl = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        con = duckdb.connect()
        con.register("documents", tbl)
        from ocr_pipeline_ray.queries import ORACLE_SQL

        expect = {
            d: (n, dup, top) for d, n, dup, top in con.sql(
                ORACLE_SQL["repetition_stats"]
            ).fetchall()
        }
        got = self._run(texts)
        assert got == expect


class TestTokenRarity:
    def test_null_and_empty_text(self, ray_session):
        """NULL text emits no row; '' contributes the single token ''
        (SQL string_split semantics on both engines)."""
        import ray.data

        from ocr_pipeline_ray.stages.textstats import token_rarity

        tbl = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["a b a", None, "", "a c"], pa.string()),
        })
        out = token_rarity(ray.data.from_arrow(tbl), n_buckets=4)
        got = {r["doc_id"]: (r["n_tokens"], r["mean_df"])
               for r in out.take_all()}
        # df: a->2 docs, b->1, c->1, ''->1
        assert set(got) == {1, 3, 4}
        assert got[1] == (3, (2 * 2 + 1 * 1) / 3)
        assert got[3] == (1, 1.0)
        assert got[4] == (2, (2 + 1) / 2)

    def test_matches_duckdb_random(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.queries import ORACLE_SQL
        from ocr_pipeline_ray.stages.textstats import token_rarity

        rng = random.Random(23)
        vocab = [f"w{i}" for i in range(30)]
        texts = [
            " ".join(rng.choice(vocab)
                     for _ in range(rng.randrange(1, 25)))
            if rng.random() > 0.05 else None
            for _ in range(300)
        ]
        tbl = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        con = duckdb.connect()
        con.register("documents", tbl)
        expect = {d: (n, m) for d, n, m in con.sql(
            ORACLE_SQL["token_rarity"]).fetchall()}
        out = token_rarity(
            ray.data.from_arrow(tbl).repartition(5), n_buckets=8
        )
        got = {r["doc_id"]: (r["n_tokens"], r["mean_df"])
               for r in out.take_all()}
        assert got == expect


class TestHeavyHitters:
    def _run(self, texts, num, den, n_blocks=3, **kw):
        import ray.data

        from ocr_pipeline_ray.stages.stats import heavy_hitters

        ds = ray.data.from_arrow(pa.table({
            "text": pa.array(texts, pa.string()),
        })).repartition(n_blocks)
        return {r["token"]: r["n"]
                for r in heavy_hitters(ds, min_frac_num=num,
                                       min_frac_den=den, **kw).take_all()}

    def _exact(self, texts, num, den):
        toks = [t for x in texts if x is not None for t in x.split(" ")]
        from collections import Counter
        c = Counter(toks)
        return {t: n for t, n in c.items()
                if n * den >= num * len(toks)}

    def test_matches_exact_counts(self, ray_session):
        rng = random.Random(5)
        # zipf-ish: token i appears ~ 1/(i+1)
        texts = [
            " ".join(f"w{min(int(1 / max(rng.random(), 1e-9)), 20)}"
                     for _ in range(rng.randrange(3, 15)))
            for _ in range(200)
        ]
        for num, den in [(1, 100), (5, 100), (20, 100)]:
            assert self._run(texts, num, den) == \
                self._exact(texts, num, den)

    def test_completeness_across_skewed_blocks(self, ray_session):
        # heavy token concentrated in ONE block: the local threshold
        # must still surface it (it is locally heavy there)
        texts = ["hot " * 50] + ["cold%d x" % i for i in range(50)]
        got = self._run(texts, 10, 100, n_blocks=5)
        assert got == self._exact(texts, 10, 100)
        assert "hot" in got

    def test_block_layout_invariant(self, ray_session):
        texts = ["a b c a", "a d", "b b e"] * 10
        one = self._run(texts, 10, 100, n_blocks=1)
        many = self._run(texts, 10, 100, n_blocks=8)
        assert one == many == self._exact(texts, 10, 100)

    def test_candidate_cap_is_loud(self, ray_session):
        texts = [" ".join(f"u{i}_{j}" for j in range(20))
                 for i in range(10)]
        with pytest.raises(ValueError, match="max_candidates"):
            self._run(texts, 1, 10**9, max_candidates=10)


class TestProfileTable:
    def test_nulls_and_empty_columns(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.stages.profile import profile_table

        tbl = pa.table({
            "x": pa.array([1, None, 3, None, 5], pa.int64()),
            "s": pa.array(["b", "a", None, "c", "a"], pa.string()),
            "empty": pa.array([None] * 5, pa.string()),
        })
        out = profile_table(
            ray.data.from_arrow(tbl).repartition(3),
            numeric_cols=["x"], string_cols=["s", "empty"], kmv_k=8,
        ).to_pydict()
        prof = {c: i for i, c in enumerate(out["col"])}
        i = prof["x"]
        assert out["n_rows"][i] == 5 and out["n_nulls"][i] == 2
        assert out["vmin"][i] == 1.0 and out["vmax"][i] == 5.0
        assert out["mean"][i] == 3.0
        assert out["n_distinct_kmv"][i] == 3.0  # < k → exact
        i = prof["s"]
        assert out["smin"][i] == "a" and out["smax"][i] == "c"
        assert out["n_distinct_kmv"][i] == 3.0
        i = prof["empty"]
        assert out["n_nulls"][i] == 5
        assert out["smin"][i] is None
        assert out["n_distinct_kmv"][i] == 0.0

    def test_layout_invariant(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ocr_pipeline_ray.stages.profile import profile_table

        rng = np.random.default_rng(5)
        tbl = pa.table({
            "v": pa.array(rng.integers(0, 500, 400), pa.int64()),
        })
        outs = []
        for layout in (1, 7):
            outs.append(profile_table(
                ray.data.from_arrow(tbl).repartition(layout),
                numeric_cols=["v"], string_cols=[], kmv_k=16,
            ).to_pydict())
        assert outs[0] == outs[1]


class TestHashEmbed:
    """Feature-hashing embedder: hand-check + ANN-stack compatibility."""

    def test_hand_computed_cells(self, ray_session):
        import hashlib

        import ray.data

        from ocr_pipeline_ray.stages.textstats import hash_embed

        docs = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a a b", None, ""], pa.string()),
        })
        ds = ray.data.from_arrow(docs).repartition(2)
        rows = {r["doc_id"]: r["embedding"]
                for r in hash_embed(ds, dim=8).take_all()}

        def cell(tok):
            h = int(hashlib.md5(tok.encode()).hexdigest()[:8], 16)
            return h % 8, (1 if (h >> 16) & 1 else -1)

        want0 = [0] * 8
        for tok in ["a", "a", "b"]:
            d, s = cell(tok)
            want0[d] += s
        assert rows[0] == want0
        assert rows[1] == [0] * 8          # NULL text -> zero vector
        d, s = cell("")                    # empty text -> one '' token
        want2 = [0] * 8
        want2[d] += s
        assert rows[2] == want2

    def test_feeds_ann_stack(self, ray_session):
        """The output column plugs straight into brute_force_topk."""
        import ray.data

        from ocr_pipeline_ray.stages.similarity import brute_force_topk
        from ocr_pipeline_ray.stages.textstats import hash_embed

        docs = pa.table({
            "doc_id": pa.array(list(range(20)), pa.int64()),
            "text": pa.array(
                ["common words here"] * 10
                + [f"unique text {i} entirely" for i in range(10)],
                pa.string()),
        })
        ds = ray.data.from_arrow(docs).repartition(3)
        vecs = hash_embed(ds, dim=32).materialize()
        q = vecs.take_all()[0]["embedding"]
        top = brute_force_topk(vecs, q, k=10, id_col="doc_id",
                               exclude_id=0).take_all()
        # the 9 other copies of the identical doc outrank the uniques
        ids = {r["doc_id"] for r in top[:9]}
        assert ids == set(range(1, 10))


class TestMixSample:
    """Deterministic data-mix rebalancer."""

    def _ds(self, ray_session, blocks=3):
        import ray.data

        # heavily skewed groups: a=300, b=60, c=30, d(null)=10
        groups = ["a"] * 300 + ["b"] * 60 + ["c"] * 30 + [None] * 10
        tbl = pa.table({
            "doc_id": pa.array(range(len(groups)), pa.int64()),
            "g": pa.array(groups, pa.string()),
        })
        return ray.data.from_arrow(tbl).repartition(blocks)

    def test_even_mix_caps_groups(self, ray_session):
        from ocr_pipeline_ray.stages.stats import mix_sample

        ds = self._ds(ray_session)
        rows = mix_sample(ds, "g", {"a": 1, "b": 1, "c": 1},
                          key_col="doc_id").take_all()
        by_g = {}
        for r in rows:
            by_g.setdefault(r["g"], []).append(r["doc_id"])
        # binding group c keeps everything (rate hits 2^32)
        assert sorted(by_g["c"]) == list(range(360, 390))
        # each group targets T/W = 30 rows; Bernoulli keeps land near
        assert 15 <= len(by_g["a"]) <= 45
        assert 15 <= len(by_g["b"]) <= 45
        # unlisted (None) groups dropped
        assert set(by_g) == {"a", "b", "c"}

    def test_layout_invariance_and_dup_safety(self, ray_session):
        from ocr_pipeline_ray.stages.stats import mix_sample

        want = None
        for blocks in (1, 4, 8):
            ds = self._ds(ray_session, blocks)
            got = sorted(
                (r["doc_id"], r["g"]) for r in
                mix_sample(ds, "g", {"a": 2, "b": 1},
                           key_col="doc_id").take_all())
            if want is None:
                want = got
            assert got == want

    def test_weighted_mix_shares(self, ray_session):
        from ocr_pipeline_ray.stages.stats import mix_sample

        ds = self._ds(ray_session)
        rows = mix_sample(ds, "g", {"a": 3, "b": 1},
                          key_col="doc_id").take_all()
        n_a = sum(1 for r in rows if r["g"] == "a")
        n_b = sum(1 for r in rows if r["g"] == "b")
        # T = min(300*4//3, 60*4//1) = 240 -> targets a:180, b:60(all)
        assert n_b == 60              # binding group keeps all
        assert 140 <= n_a <= 220      # binomial around 180

    def test_all_zero_weights_raise(self, ray_session):
        from ocr_pipeline_ray.stages.stats import mix_sample

        with pytest.raises(ValueError):
            mix_sample(self._ds(ray_session), "g", {"a": 0},
                       key_col="doc_id")


class TestGroupedDistinctCount:
    """COUNT(DISTINCT v) GROUP BY k — differential vs DuckDB with
    NULL keys/values across block layouts."""

    @pytest.mark.parametrize("layout", [1, 4])
    def test_differential_vs_duckdb(self, ray_session, layout):
        import random

        import duckdb
        import ray.data

        from ocr_pipeline_ray.stages.stats import grouped_distinct_count

        rng = random.Random(1234)
        n = 300
        tbl = pa.table({
            "k": pa.array(
                [None if rng.random() < 0.1 else f"k{rng.randrange(6)}"
                 for _ in range(n)], pa.string()),
            "v": pa.array(
                [None if rng.random() < 0.1 else rng.randrange(40)
                 for _ in range(n)], pa.int64()),
        })
        got = grouped_distinct_count(
            ray.data.from_arrow(tbl).repartition(layout),
            "k", "v", out_col="n", n_buckets=5,
        ).take_all()
        got = sorted(((r["k"], r["n"]) for r in got), key=repr)
        con = duckdb.connect()
        con.register("t", tbl)
        want = sorted(
            ((k, c) for k, c in con.execute(
                "SELECT k, CAST(count(DISTINCT v) AS BIGINT) "
                "FROM t GROUP BY k").fetchall()),
            key=repr)
        con.close()
        assert got == want

    def test_all_null_values_key_kept_with_zero(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.stats import grouped_distinct_count

        tbl = pa.table({
            "k": pa.array(["a", "a", "b"], pa.string()),
            "v": pa.array([None, None, 7], pa.int64()),
        })
        rows = grouped_distinct_count(
            ray.data.from_arrow(tbl), "k", "v", out_col="n"
        ).take_all()
        assert sorted((r["k"], r["n"]) for r in rows) == [
            ("a", 0), ("b", 1)]


class TestGroupedMoments:
    @pytest.mark.parametrize("layout", [1, 5])
    def test_differential_vs_duckdb(self, ray_session, layout):
        import math
        import random

        import duckdb
        import ray.data

        from retired_operators import grouped_moments

        rng = random.Random(7)
        n = 400
        tbl = pa.table({
            "k": pa.array([f"k{rng.randrange(5)}" for _ in range(n)],
                          pa.string()),
            "v": pa.array(
                [None if rng.random() < 0.1
                 else rng.uniform(-50, 200) for _ in range(n)],
                pa.float64()),
        })

        def grid(x):
            return (None if x is None or
                    (isinstance(x, float) and math.isnan(x))
                    else math.floor(x * 1e6 + 0.5) / 1e6)

        got = grouped_moments(
            ray.data.from_arrow(tbl).repartition(layout), "k", "v"
        ).take_all()
        got = sorted((r["k"], r["n"], grid(r["mean_value"]),
                      grid(r["var_value"])) for r in got)
        con = duckdb.connect()
        con.register("t", tbl)
        want = sorted(
            (k, nn, grid(m), grid(vv)) for k, nn, m, vv in con.execute(
                "SELECT k, CAST(count(v) AS BIGINT), avg(v), "
                "var_samp(v) FROM t GROUP BY k").fetchall())
        con.close()
        assert got == want

    def test_degenerate_groups(self, ray_session):
        import ray.data

        from retired_operators import grouped_moments

        tbl = pa.table({
            "k": pa.array(["a", "a", "b", "c"], pa.string()),
            "v": pa.array([None, None, 3.0, None], pa.float64()),
        })
        rows = {r["k"]: r for r in grouped_moments(
            ray.data.from_arrow(tbl), "k", "v").take_all()}
        assert rows["a"]["n"] == 0 and rows["a"]["mean_value"] is None
        assert rows["b"]["n"] == 1 and rows["b"]["mean_value"] == 3.0
        assert rows["b"]["var_value"] is None   # var_samp of n=1
        assert rows["c"]["n"] == 0


class TestCmsSketch:
    def _corpus(self):
        import random

        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(50)]
        texts = [" ".join(rng.choices(vocab, k=rng.randrange(3, 30)))
                 for _ in range(200)] + [None]
        return pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })

    def test_overestimate_only_and_layout_invariant(self, ray_session):
        import collections

        import ray.data

        from ocr_pipeline_ray.stages.stats import cms_sketch
        from replicas import cms_estimate

        tbl = self._corpus()
        truth = collections.Counter(
            t for x in tbl.column("text").to_pylist()
            if x is not None for t in x.split(" "))
        sk1 = pa.concat_tables(list(cms_sketch(
            ray.data.from_arrow(tbl).repartition(1), width=256
        ).iter_batches(batch_format="pyarrow", batch_size=None)))
        sk4 = pa.concat_tables(list(cms_sketch(
            ray.data.from_arrow(tbl).repartition(4), width=256
        ).iter_batches(batch_format="pyarrow", batch_size=None)))
        key = lambda t: sorted(map(tuple, t.to_pylist()), key=repr)  # noqa: E731
        assert key(sk1) == key(sk4)
        # total mass per row == total token count
        n_tok = sum(truth.values())
        per_row = collections.Counter()
        for row in sk1.to_pylist():
            per_row[row["r"]] += row["c"]
        assert set(per_row.values()) == {n_tok}
        est = cms_estimate(sk1, list(truth), width=256)
        for tok, e in zip(est.column("token").to_pylist(),
                          est.column("est").to_pylist()):
            assert e >= truth[tok]                    # never under
            assert e <= truth[tok] + 4 * n_tok // 256  # CM bound-ish

    def test_depth_validation(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.stats import cms_sketch

        with pytest.raises(ValueError):
            cms_sketch(ray.data.from_arrow(self._corpus()), depth=5)


class TestLinearScore:
    def test_dot_matches_embed_and_handles_nulls(self, ray_session):
        import numpy as np
        import ray.data

        from ocr_pipeline_ray.stages.textstats import (
            hash_embed,
            linear_score,
        )

        texts = ["big fast scan", "a a a", None, ""]
        tbl = pa.table({
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        w = [((d * 37) % 21) - 10 for d in range(64)]
        got = {r["doc_id"]: (r["logit"], r["label"])
               for r in linear_score(
                   ray.data.from_arrow(tbl), w, bias=3).take_all()}
        embs = {r["doc_id"]: np.array(r["embedding"], dtype=np.int64)
                for r in hash_embed(
                    ray.data.from_arrow(tbl)).take_all()}
        for i in range(4):
            want = int(embs[i] @ np.array(w, dtype=np.int64)) + 3
            assert got[i] == (want, want >= 0), i
        assert got[2][0] == 3  # NULL text = zero vector = bias


class TestTableChecksum:
    def test_order_and_layout_invariant_change_sensitive(
            self, ray_session):
        import random

        import ray.data

        from ocr_pipeline_ray.stages.stats import table_checksum

        rng = random.Random(2)
        rows = [(i, None if rng.random() < 0.1 else f"s{i % 7}")
                for i in range(200)]
        tbl = pa.table({
            "id": pa.array([r[0] for r in rows], pa.int64()),
            "s": pa.array([r[1] for r in rows], pa.string()),
        })
        rng.shuffle(rows)
        perm = pa.table({
            "id": pa.array([r[0] for r in rows], pa.int64()),
            "s": pa.array([r[1] for r in rows], pa.string()),
        })
        a = table_checksum(ray.data.from_arrow(tbl).repartition(1),
                           ["id", "s"]).to_pylist()[0]
        b = table_checksum(ray.data.from_arrow(perm).repartition(5),
                           ["id", "s"]).to_pylist()[0]
        assert a == b and a["n_rows"] == 200
        # a single mutated row changes the checksum
        mut = tbl.set_column(1, "s", pa.array(
            [("XX" if i == 57 else v) for i, v in
             enumerate(tbl.column("s").to_pylist())], pa.string()))
        c = table_checksum(ray.data.from_arrow(mut),
                           ["id", "s"]).to_pylist()[0]
        assert c["checksum"] != a["checksum"]


class TestGroupedCorr:
    def test_matches_numpy_and_null_semantics(self, ray_session):
        import numpy as np
        import ray.data

        from retired_operators import grouped_corr

        rng = np.random.RandomState(7)
        xs = rng.rand(60) * 10
        ys = 2.0 * xs + rng.rand(60)            # strongly correlated
        tbl = pa.table({
            "key": pa.array(
                ["a"] * 30 + ["b"] * 26 + ["one"] + ["flat"] * 3,
                pa.string()),
            # "one": n=1 -> NULL; "flat": zero x variance -> NULL
            "x": pa.array(
                list(xs[:30]) + list(xs[30:56]) + [1.0] + [5.0] * 3,
                pa.float64()),
            "y": pa.array(
                list(ys[:30]) + list(-ys[30:56]) + [1.0, 1.0, 2.0, 3.0],
                pa.float64()),
        })
        out = {
            r["key"]: (r["n"], r["corr_xy"])
            for r in grouped_corr(
                ray.data.from_arrow(tbl).repartition(4),
                "key", "x", "y").take_all()
        }
        assert out["one"] == (1, None)
        assert out["flat"] == (3, None)
        na, ra = out["a"]
        nb, rb = out["b"]
        assert (na, nb) == (30, 26)
        assert abs(ra - np.corrcoef(xs[:30], ys[:30])[0, 1]) < 1e-9
        assert abs(rb - np.corrcoef(xs[30:56], -ys[30:56])[0, 1]) < 1e-9
        assert rb < 0

    def test_null_rows_ignored(self, ray_session):
        import ray.data

        from retired_operators import grouped_corr

        tbl = pa.table({
            "key": pa.array(["k"] * 4, pa.string()),
            "x": pa.array([1.0, 2.0, None, 3.0], pa.float64()),
            "y": pa.array([1.0, 2.0, 9.0, None], pa.float64()),
        })
        (row,) = grouped_corr(
            ray.data.from_arrow(tbl), "key", "x", "y").take_all()
        # only (1,1) and (2,2) survive -> perfect correlation, n=2
        assert row["n"] == 2
        assert abs(row["corr_xy"] - 1.0) < 1e-12


class TestGroupedHll:
    @pytest.mark.parametrize("layout", [1, 8])
    def test_matches_reference_sketch(self, ray_session, layout):
        import hashlib
        import math
        import random

        import ray
        import ray.data

        from ocr_pipeline_ray.stages.stats import grouped_hll

        rng = random.Random(23)
        n = 800
        ks = [f"g{rng.randrange(3)}" for _ in range(n)]
        vs = [None if rng.random() < 0.05 else rng.randrange(300)
              for _ in range(n)]
        tbl = pa.table({"k": pa.array(ks, pa.string()),
                        "v": pa.array(vs, pa.int64())})

        def ref():
            byk = {}
            for kk, vv in zip(ks, vs):
                if vv is None:
                    continue
                byk.setdefault(kk, set()).add(vv)
            out = {}
            for kk, vals in byk.items():
                regs = {}
                for v in vals:
                    d = hashlib.md5(str(v).encode()).hexdigest()
                    h1, h2 = int(d[:8], 16), int(d[8:16], 16)
                    if h2 == 0:
                        rho = 33
                    else:
                        rho = ((h2 & -h2).bit_length() - 1) + 1
                    j = h1 % 64
                    regs[j] = max(regs.get(j, 0), rho)
                nset = len(regs)
                s = sum(2.0 ** -r for r in regs.values())
                raw = 0.709 * 4096.0 / (s + (64 - nset))
                if raw <= 160.0 and nset < 64:
                    est = 64.0 * math.log(64.0 / (64.0 - nset))
                else:
                    est = raw
                out[kk] = (nset, math.floor(est * 1e6 + 0.5) / 1e6)
            return out

        if layout == 1:
            ds = ray.data.from_arrow(tbl)
        else:
            step = (n + layout - 1) // layout
            ds = ray.data.from_arrow_refs([
                ray.put(tbl.slice(i, step))
                for i in range(0, n, step)])
        got = {r["k"]: (r["n_registers_set"], r["hll_estimate"])
               for r in grouped_hll(ds, "k", "v",
                                    n_buckets=4).take_all()}
        assert got == ref()

    def test_estimate_accuracy(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.stats import grouped_hll

        n_distinct = 1000
        tbl = pa.table({
            "k": pa.array(["a"] * n_distinct, pa.string()),
            "v": pa.array(list(range(n_distinct)), pa.int64()),
        })
        [row] = grouped_hll(
            ray.data.from_arrow(tbl), "k", "v",
            n_buckets=2).take_all()
        # m=64 standard error is ~1.04/sqrt(64) = 13%; allow 3 sigma
        assert abs(row["hll_estimate"] - n_distinct) < 0.4 * n_distinct


class TestRangePartition:
    def test_balanced_contiguous_shards(self, ray_session):
        import numpy as np
        import ray
        from ocr_pipeline_ray.stages.stats import range_partition

        vals = list(range(1000))
        tbl = pa.table({
            "doc_id": pa.array(range(1000), pa.int64()),
            "n_chars": pa.array(vals, pa.int64()),
        })
        ds = ray.data.from_arrow(tbl).repartition(6)
        asn, splits = range_partition(
            ds, "n_chars", n_shards=4, lo=0, bin_width=10, n_bins=100)
        df = asn.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert len(splits) == 3 and list(splits) == sorted(splits)
        # contiguity: shard is monotone in the key
        order = np.argsort(tbl.column("n_chars").to_numpy())
        shards = df["shard"].values[order]
        assert (np.diff(shards) >= 0).all()
        # balance: each shard within bin_width-resolution of n/4
        counts = df["shard"].value_counts()
        assert set(counts.index) == {0, 1, 2, 3}
        assert counts.max() - counts.min() <= 2 * 10  # 2 bins slack

    def test_null_keys_get_minus_one(self, ray_session):
        import ray
        from ocr_pipeline_ray.stages.stats import range_partition

        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "n_chars": pa.array([5, None, 15, 25], pa.int64()),
        })
        asn, _ = range_partition(
            ray.data.from_arrow(tbl), "n_chars",
            n_shards=2, lo=0, bin_width=10, n_bins=10)
        df = asn.to_pandas().sort_values("doc_id")
        assert df["shard"].tolist()[1] == -1


class TestHeavyHittersEmptySchema:
    def test_query_empty_result_keeps_schema(self, ray_session, tmp_path):
        """A corpus where NO token clears the threshold must still
        yield the (token, n) schema — a 0-row Dataset loses its
        schema through to_pandas(), which fails the driver compare
        (regression found at the synthesized sf1 scale)."""
        import pyarrow.parquet as pq

        from ocr_pipeline_ray.queries import QUERIES

        # 40 docs, every token unique -> max frequency 1/80 < 3.3%
        tbl = pa.table({
            "doc_id": pa.array(range(40), pa.int64()),
            "text": pa.array([f"tok{i}a tok{i}b" for i in range(40)],
                             pa.string()),
            "lang": pa.array(["en"] * 40, pa.string()),
            "source": pa.array(["src0"] * 40, pa.string()),
            "n_chars": pa.array([11] * 40, pa.int64()),
        })
        pq.write_table(tbl, str(tmp_path / "documents.parquet"))
        out = QUERIES["heavy_hitters"](str(tmp_path))
        assert out.num_rows == 0
        assert out.schema.names == ["token", "n"]
