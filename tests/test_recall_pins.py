"""Recall lower-bound pins for the approximate (rows-only) paths.

The LSH / IVF scale paths are recall<1 BY DESIGN, so
their driver entries are telemetry rather than exact oracles. These
pins turn each measured recall into a CI floor: a silent regression
(banding bug, probe-order bug, normalization drift) FAILS here instead
of just shifting a telemetry number. Bounds sit one notch below the
values measured at the bench params (VERDICT r3 item 6).
"""
import numpy as np
import pyarrow as pa
import pytest

SF_001 = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def planted_embeddings(ray_session):
    """60 deterministic unit vectors: 20 bases, 20 near-twins
    (cos > 0.99), 20 unrelated — ground truth = the 20 twin pairs."""
    import ray.data

    rng = np.random.RandomState(11)
    base = rng.randn(20, 16)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    twins = base + rng.randn(20, 16) * 0.02
    twins /= np.linalg.norm(twins, axis=1, keepdims=True)
    other = rng.randn(20, 16)
    other /= np.linalg.norm(other, axis=1, keepdims=True)
    mat = np.vstack([base, twins, other])
    tbl = pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
    })
    truth = {(i, i + 20) for i in range(20)}
    return ray.data.from_arrow(tbl), truth


class TestRecallPins:

    def test_ivf_topk_recall_floor(self, ray_session):
        """IVF probe path recall@10 vs the exact scan at the bench
        params (nprobe=8/16; measured 0.8 at sf0.01)."""
        from ocr_pipeline_ray.queries import QUERIES

        exact = {r["vec_id"] for r in QUERIES["ann_topk"](SF_001).take_all()}
        ivf = {r["vec_id"]
               for r in QUERIES["ann_topk_ivf"](SF_001).take_all()}
        assert len(exact) == 10  # exact scan returns a full top-10
        assert 0 < len(ivf) <= 10  # probe path non-empty, k-capped
        assert len(ivf & exact) / 10 >= 0.7

    def test_lsh_topk_recall_floor(self, ray_session):
        """Hyperplane-LSH top-10 recall vs exact at the bench params
        (measured 1.0 at sf0.01)."""
        from ocr_pipeline_ray.queries import QUERIES

        exact = {r["vec_id"] for r in QUERIES["ann_topk"](SF_001).take_all()}
        lsh = {r["vec_id"]
               for r in QUERIES["ann_topk_lsh"](SF_001).take_all()}
        assert len(lsh & exact) / 10 >= 0.9

    def test_bucketed_near_dup_recall_floor(self, planted_embeddings):
        """LSH-bucketed near-dup pairs vs planted ground truth: the
        single-band 8-plane construction recovers 0.85 of cos>0.999
        twins on this seed (theory: ~0.94^pair expected); pin the
        floor one notch below so a banding/normalization regression
        fails loudly (exact twin path recovers them all)."""
        from ocr_pipeline_ray.stages.similarity import (
            bucketed_near_dup_pairs,
            embedding_near_dup_pairs,
        )

        ds, truth = planted_embeddings
        exact = {(r["v1"], r["v2"])
                 for r in embedding_near_dup_pairs(ds, 0.95).take_all()}
        assert truth <= exact
        lsh = {(r["v1"], r["v2"])
               for r in bucketed_near_dup_pairs(ds, threshold=0.95)
               .take_all()}
        assert lsh <= exact
        assert len(lsh & truth) / len(truth) >= 0.8

    def test_embedding_lsh_recall_floor(self, planted_embeddings):
        """The recall-telemetry operator itself reports >= 0.9 on the
        planted corpus (so the telemetry path and the pinned bound
        can't drift apart silently)."""
        from ocr_pipeline_ray.stages.similarity import embedding_lsh_recall

        ds, _ = planted_embeddings
        row = embedding_lsh_recall(ds, threshold=0.95).to_pylist()[0]
        assert row["n_exact"] >= 20
        assert row["recall"] >= 0.8
