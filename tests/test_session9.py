"""Skyline, mutual-NN, rendezvous sharding and other operators."""

import numpy as np
import pyarrow as pa


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


class TestSkyline:
    def test_mask_semantics(self):
        from retired_operators import _skyline_mask

        x = np.array([5, 3, 5, 1, 4, 5])
        y = np.array([1, 9, 1, 10, 9, 0])
        # (5,1) twice: duplicates both kept; (4,9) dominated by nothing
        # with greater x... x=5 rows have y=1 < 9 so (4,9) survives;
        # (3,9) dominated by (4,9); (1,10) survives; (5,0) dominated
        # by (5,1).
        keep = _skyline_mask(x, y)
        assert keep.tolist() == [True, False, True, True, True, False]

    def test_distributed_matches_bruteforce(self, ray_session):
        from retired_operators import _skyline_mask, skyline_2d

        rng = np.random.RandomState(11)
        x = rng.randint(0, 50, 400).astype(np.int64)
        y = rng.randint(0, 50, 400).astype(np.int64)
        tbl = pa.table({"i": np.arange(400), "x": x, "y": y})
        out = skyline_2d(_ds(tbl).repartition(7), "x", "y").to_pandas()
        brute = {
            (int(a), int(b))
            for a, b, k in zip(x, y, _skyline_mask(x, y)) if k
        }
        got = set(map(tuple, out[["x", "y"]].values.tolist()))
        assert got == brute
        # every surviving row id maps back to a frontier point
        assert all((r.x, r.y) in brute for r in out.itertuples())


class TestMutualNN:
    def _emb(self, ids, vecs):
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float32())),
        })

    def test_reciprocal_only(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import mutual_nn_pairs

        # A0 <-> B1 mutual; A2's NN is B1 but B1 prefers A0 (hub
        # filtered); B3's NN is A0 but A0 prefers B1.
        a = self._emb([0, 2], [[1.0, 0.0], [0.9, 0.4359]])
        b = self._emb([1, 3], [[0.999, 0.0447], [0.6, 0.8]])
        out = mutual_nn_pairs(
            _ds(a).repartition(2), _ds(b).repartition(2),
            max_blocks=4).to_pandas()
        pairs = sorted(map(tuple,
                           out[["a_id", "b_id"]].values.tolist()))
        assert pairs == [(0, 1)]

    def test_layout_invariance(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import mutual_nn_pairs

        rng = np.random.RandomState(5)
        va = rng.randn(30, 8)
        vb = rng.randn(25, 8)
        a = self._emb(list(range(0, 60, 2)), va)
        b = self._emb(list(range(1, 51, 2)), vb)
        got = {}
        for parts in (1, 5):
            out = mutual_nn_pairs(
                _ds(a).repartition(parts), _ds(b).repartition(parts),
                max_blocks=parts).to_pandas()
            got[parts] = sorted(map(tuple, out.values.tolist()))
        assert got[1] == got[5]
        assert len(got[1]) > 0


class TestRendezvous:
    def test_minimal_movement(self):
        from ocr_pipeline_ray.functions.hashing import rendezvous_pick

        keys = list(range(500))
        n5 = [f"n{i}" for i in range(5)]
        a5 = rendezvous_pick(keys, n5)
        a6 = rendezvous_pick(keys, n5 + ["n5"])
        moved = [(x, y) for x, y in zip(a5, a6) if x != y]
        # every moved key moved TO the new node, nothing reshuffled
        assert all(y == "n5" for _, y in moved)
        # expected movement ~ 1/6 of keys; assert a sane band
        assert 30 < len(moved) < 150
        # node order in the input list must not matter
        assert rendezvous_pick(keys, list(reversed(n5))) == a5
        assert rendezvous_pick([None], n5) == ["n0"]


class TestFilterCascade:
    def test_first_fail_attribution(self, ray_session):
        from ocr_pipeline_ray.stages.profile import filter_cascade

        tbl = pa.table({
            "a": pa.array([1, 0, 1, 1, 0], pa.int64()),
            "b": pa.array([1, 1, 0, 1, 0], pa.int64()),
        })
        out = filter_cascade(_ds(tbl).repartition(3), [
            ("ga", lambda b: b.column("a").to_numpy() == 1),
            ("gb", lambda b: b.column("b").to_numpy() == 1),
        ]).to_pandas().sort_values("stage").reset_index(drop=True)
        # rows 1 and 4 fail ga; row 2 (passed ga) fails gb
        assert out["n_in"].tolist() == [5, 3]
        assert out["n_kept"].tolist() == [3, 2]
        assert out["stage_name"].tolist() == ["ga", "gb"]


class TestKCenter:
    def test_picks_spread_points(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import kcenter_select

        # three tight angular clusters + the seed's cluster: greedy
        # must visit a different cluster each round
        base = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [-1.0, 0.2]}
        ids, vecs = [], []
        for i in range(9):
            c = i % 3
            v = np.array(base[c]) + 0.01 * (i // 3)
            ids.append(i)
            vecs.append(list(v / np.linalg.norm(v)))
        tbl = pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        })
        out = kcenter_select(_ds(tbl).repartition(4), k=3)
        rounds = out.column("round").to_pylist()
        picked = out.column("vec_id").to_pylist()
        assert rounds == [0, 1, 2]
        assert picked[0] == 0  # smallest id seeds
        # each pick lands in a distinct angular cluster
        assert len({p % 3 for p in picked}) == 3

    def test_k_exceeding_n(self, ray_session):
        from ocr_pipeline_ray.stages.similarity import kcenter_select

        tbl = pa.table({
            "vec_id": pa.array([5, 9], pa.int64()),
            "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                  pa.list_(pa.float32())),
        })
        out = kcenter_select(_ds(tbl), k=6)
        assert out.column("vec_id").to_pylist() == [5, 9]


