"""Stitching, skyline, mutual-NN, rendezvous sharding and other
operators."""

import numpy as np
import pyarrow as pa


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


class TestStitchPairs:
    def _docs(self, texts):
        return pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })

    def test_tail_head_overlap_detected(self, ray_session):
        from ocr_pipeline_ray.stages.dedup import stitch_pairs

        tbl = self._docs([
            "alpha beta one two three",      # 0: tail = one two three
            "one two three gamma delta",     # 1: head matches 0's tail
            "unrelated words entirely here",  # 2
            "x y one two three",             # 3: same tail as 0
        ])
        out = stitch_pairs(_ds(tbl), k=3).to_pandas()
        pairs = sorted(map(tuple, out[["a_id", "b_id"]].values.tolist()))
        assert pairs == [(0, 1), (3, 1)]

    def test_short_docs_and_self_excluded(self, ray_session):
        from ocr_pipeline_ray.stages.dedup import stitch_pairs

        tbl = self._docs([
            "a b",                 # < k tokens: emits nothing
            "one two three",       # head == tail == whole text
            None,
        ])
        out = stitch_pairs(_ds(tbl), k=3).to_pandas()
        # doc 1's own head/tail collide but self pairs are excluded
        assert len(out) == 0


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


def _lpa_reference(n_nodes, edges, rounds):
    """Brute-force synchronous LPA replay (ties -> smallest label)."""
    from collections import Counter

    nbrs = {v: [] for v in range(n_nodes)}
    for s, d in edges:
        nbrs[s].append(d)
        nbrs[d].append(s)
    lbl = list(range(n_nodes))
    for _ in range(rounds):
        nxt = list(lbl)
        for v in range(n_nodes):
            if not nbrs[v]:
                continue
            c = Counter(lbl[u] for u in nbrs[v])
            best = max(c.items(), key=lambda kv: (kv[1], -kv[0]))
            nxt[v] = best[0]
        lbl = nxt
    return lbl


class TestLabelPropagation:
    def _run(self, n_nodes, edges, rounds, parts=3):
        import ray.data

        from ocr_pipeline_ray.stages.graph import label_propagation

        nodes = ray.data.from_arrow(pa.table({
            "node": pa.array(range(n_nodes), pa.int64())}))
        etbl = pa.table({
            "src": pa.array([s for s, _ in edges], pa.int64()),
            "dst": pa.array([d for _, d in edges], pa.int64()),
        })
        out = label_propagation(
            nodes.repartition(parts),
            ray.data.from_arrow(etbl).repartition(parts),
            rounds=rounds).to_pandas()
        return dict(zip(out["node"], out["label"]))

    def test_bridge_splits_communities(self, ray_session):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                 (2, 3)]
        got = self._run(6, edges, rounds=2)
        ref = _lpa_reference(6, edges, 2)
        assert got == {v: ref[v] for v in range(6)}
        # two triangles joined by a bridge: labels of the two sides
        # must not mix (connected components WOULD merge them)
        assert {got[0], got[1], got[2]} & {got[3], got[4], got[5]} == set()

    def test_random_graph_matches_reference(self, ray_session):
        rng = np.random.RandomState(3)
        n = 40
        edges = [(int(rng.randint(n)), int(rng.randint(n)))
                 for _ in range(80)]
        edges = [(s, d) for s, d in edges if s != d]
        for rounds in (1, 3):
            got = self._run(n, edges, rounds, parts=5)
            ref = _lpa_reference(n, edges, rounds)
            assert got == {v: ref[v] for v in range(n)}

    def test_isolated_nodes_keep_label(self, ray_session):
        got = self._run(4, [(0, 1)], rounds=2)
        assert got[2] == 2 and got[3] == 3


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


class TestPersonalizedPagerank:
    def test_unreachable_scores_zero(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.graph import pagerank_int

        # chain 0->1->2, isolated node 3; seed = {0}
        nodes = ray.data.from_arrow(pa.table({
            "node": pa.array([0, 1, 2, 3], pa.int64())}))
        edges = ray.data.from_arrow(pa.table({
            "src": pa.array([0, 1], pa.int64()),
            "dst": pa.array([1, 2], pa.int64())}))
        out = pagerank_int(nodes, edges, iters=2,
                           seed_ids=np.array([0])).to_pandas()
        d = dict(zip(out["node"], out["rank"]))
        # teleport only to the seed: node 3 gets nothing
        assert d[3] == 0
        assert d[0] == 150_000_000
        # hand-computed pulse: iter1 r = (150M, 850M, 0, 0); iter2
        # node1 <- 85%*150M, node2 <- 85%*850M
        assert d[1] == 127_500_000
        assert d[2] == 722_500_000

    def test_none_seed_matches_uniform(self, ray_session):
        import ray.data

        from ocr_pipeline_ray.stages.graph import pagerank_int

        nodes = ray.data.from_arrow(pa.table({
            "node": pa.array([0, 1, 2], pa.int64())}))
        edges = ray.data.from_arrow(pa.table({
            "src": pa.array([0, 1, 2], pa.int64()),
            "dst": pa.array([1, 2, 0], pa.int64())}))
        base = pagerank_int(nodes, edges, iters=2).to_pandas()
        d = dict(zip(base["node"], base["rank"]))
        # 3-cycle: uniform ranks stay uniform
        assert len(set(d.values())) == 1


class TestParseRobots:
    def test_group_scoping_and_noise(self):
        from ocr_pipeline_ray.stages.web import parse_robots

        txt = "\n".join([
            "User-agent: badbot",
            "Disallow: /",
            "",
            "User-agent: googlebot",
            "User-agent: *",          # contiguous UA block: both
            "Disallow: /a  # inline comment",
            "Crawl-delay: 7",
            "allow: /a/b",            # case-insensitive keys
            "",
            "User-agent: other",
            "Disallow: /c",           # scoped out
            "Disallow:",              # empty value even if active
        ])
        out = parse_robots(pa.table({
            "host": pa.array(["h1", "h2"]),
            "robots_txt": pa.array([txt, None]),
        }))
        rows = list(zip(out.column("host").to_pylist(),
                        out.column("rule_idx").to_pylist(),
                        out.column("allow").to_pylist(),
                        out.column("prefix").to_pylist()))
        assert rows == [("h1", 0, False, "/a"), ("h1", 1, True, "/a/b")]

    def test_rules_after_second_ua_line_reset(self):
        from ocr_pipeline_ray.stages.web import parse_robots

        # a UA line AFTER rules starts a NEW group (not contiguous)
        txt = "User-agent: *\nDisallow: /x\nUser-agent: badbot\nDisallow: /y"
        out = parse_robots(pa.table({
            "host": pa.array(["h"]),
            "robots_txt": pa.array([txt]),
        }))
        assert out.column("prefix").to_pylist() == ["/x"]
