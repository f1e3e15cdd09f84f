"""Link-graph operators: distributed integer PageRank.

A webtext pipeline's documents form a link graph (page → outlink);
rank-style centrality is the classic signal over it (Page et al.
1999). The fixpoint is approximated by a FIXED number of power
iterations so the result is deterministic and SQL-expressible, and
all arithmetic is **int64** (scaled ranks, integer division) so
summation order cannot perturb the result — the DuckDB oracle is
bit-exact, unlike any float formulation.

Semantics per iteration (damping d = d_num/d_den, start rank ``r0``):

    contrib(u→v)  = R(u) // outdeg(u)          (edge multiset degree)
    R'(v)         = (r0 * (d_den - d_num)) // d_den
                    + (d_num * Σ contrib(·→v)) // d_den

Dangling nodes (no outlinks) simply don't propagate — the standard
simplified formulation. Nodes with no inlinks get the base term.

Scale shape — **one exchange per iteration, plus one final**, nothing
ever broadcast (a web-scale rank vector does not fit one worker):

* ``bucket_ids`` is the same hash for a node id whether it appears as
  a contribution target, a rank row, or an edge ``src`` — so "sum the
  incoming partials per node", "compute the new rank", "join ranks
  onto edges by src" and "emit next contributions" all happen INSIDE
  one whole-bucket UDF on one co-shuffle (iteration fusion: the
  classic join + aggregate pair collapses into a single exchange).
* The tagged edge rows and the node-universe zero rows are
  loop-invariant: materialized ONCE (edge-/node-scale, object store
  spills) and re-union'd per iteration, never recomputed from source.
* Between exchanges only ``(dst, partial)`` contribution rows move,
  pre-combined map-side (``np.add.at``) so the exchange carries at
  most one row per distinct dst per batch — not one per edge.

The remaining per-iteration cost is the edge rows flowing through
each exchange — inherent to rank propagation over a Dataset. The
module therefore ships TWO physical plans with identical int64
semantics: :func:`pagerank_int` (uniform Dataset shuffle operators,
Ray's fault model for free) and :func:`pagerank_pregel` (edges
pinned ONCE in shard actors, per-iteration point-to-point node-scale
partial routing — no sort barrier; the shape a real iterative rank
job wants, at the cost of actor lifecycle management).
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_INVARIANT_CTR = itertools.count()


def _loop_invariant(ds, tag: str, threshold_rows=None):
    """Pin a loop-invariant dataset (tagged edge multiset) for
    repeated per-iteration reuse — ADAPTIVELY.

    ``materialize()`` pins the rows in the cluster OBJECT STORE for
    the whole loop; fine for node-scale sides, but a 100-TB web
    graph's edge multiset is the one corpus-scale table an iterative
    operator would otherwise hold pinned for its entire runtime,
    forcing spill of everything else. So: materialize once to count
    (one pass — the count is then a metadata fold), and above
    ``threshold_rows`` (``$OCR_RAY_GRAPH_PIN_ROWS``, default 5M)
    dump the blocks to a storage-backed parquet checkpoint
    (:func:`..stages.bucketed.checkpoint_bucketed`, ``key_col=None``
    — the per-iteration ``groupby`` re-shuffles anyway, so no key
    alignment needed) and return the lazy re-read; the transient
    materialized copy is released when this frame returns. Below the
    threshold the materialized dataset is returned unchanged — the
    small-graph fast path keeps zero extra I/O.
    """
    import os

    if threshold_rows is None:
        threshold_rows = int(os.environ.get(
            "OCR_RAY_GRAPH_PIN_ROWS", 5_000_000))
    mat = ds.materialize()
    if mat.count() <= threshold_rows:
        return mat
    from .bucketed import checkpoint_bucketed

    return checkpoint_bucketed(
        mat, f"ginv_{tag}_{next(_INVARIANT_CTR)}", key_col=None)


def pagerank_int(nodes, edges, iters: int = 3, node_col: str = "node",
                 src_col: str = "src", dst_col: str = "dst",
                 r0: int = 10 ** 9, d_num: int = 85, d_den: int = 100,
                 n_buckets: int = 32, seed_ids=None):
    """Integer power-iteration PageRank over an edge Dataset.

    ``nodes``: Dataset with int64 ``node_col`` (the node universe);
    ``edges``: Dataset with int64 ``src_col`` / ``dst_col`` (a
    multiset — parallel edges count twice; every src/dst must be in
    ``nodes``). Returns ``(node, rank)`` int64 rows after ``iters``
    iterations.

    ``seed_ids`` (optional int64 ndarray) switches to PERSONALIZED
    PageRank: initial mass and the per-iteration teleport land ONLY
    on the seed nodes (crawl prioritization from trusted hosts,
    TrustRank-style) — everything else about the exchange plan is
    identical. The seed set is closure-broadcast (small by
    definition: seeds are curated).
    """
    from ..functions.hashing import bucket_ids

    base = (r0 * (d_den - d_num)) // d_den
    seeds = None if seed_ids is None else np.asarray(
        seed_ids, dtype=np.int64)

    # union row: edges (side 0, _key=src), node-universe zeros /
    # contribution partials (side 1, _key=node, val=partial)
    union_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), (dst_col, pa.int64()),
        ("val", pa.int64()),
    ])

    def _tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = pc.cast(batch.column(src_col), pa.int64())
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.zeros(n, np.int32)),
            "_key": key,
            dst_col: pc.cast(batch.column(dst_col), pa.int64()),
            "val": pa.nulls(n, pa.int64()),
        }, schema=union_schema)

    def _tag_zeros(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = pc.cast(batch.column(node_col), pa.int64())
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.ones(n, np.int32)),
            "_key": key,
            dst_col: pa.nulls(n, pa.int64()),
            "val": pa.array(np.zeros(n, np.int64)),
        }, schema=union_schema)

    def _partial_tagged(batch: pa.Table) -> pa.Table:
        """Map-side combine of contribution rows → tagged side-1
        partials for the next exchange."""
        ids = batch.column(node_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        vals = batch.column("contrib").combine_chunks().to_numpy(
            zero_copy_only=False)
        uniq, inv = np.unique(ids, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, vals)
        key = pa.array(uniq, pa.int64())
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.ones(len(uniq), np.int32)),
            "_key": key,
            dst_col: pa.nulls(len(uniq), pa.int64()),
            "val": pa.array(sums, pa.int64()),
        }, schema=union_schema)

    def _node_ranks(group: pa.Table, first: bool):
        """Within one bucket: per-node rank from the side-1 partials
        (all partials of a node land in its bucket)."""
        sides = group.column("_side").combine_chunks().to_numpy()
        part_t = group.filter(pa.array(sides == 1))
        keys = part_t.column("_key").combine_chunks()
        codes_arr = pc.dictionary_encode(keys)
        codes = codes_arr.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        node_ids = codes_arr.dictionary.to_numpy(zero_copy_only=False)
        sums = np.zeros(len(node_ids), np.int64)
        np.add.at(sums, codes, part_t.column("val").combine_chunks()
                  .to_numpy(zero_copy_only=False))
        if seeds is None:
            base_v = base
            init_v = np.int64(r0)
        else:
            is_seed = np.isin(node_ids, seeds)
            base_v = np.where(is_seed, base, 0).astype(np.int64)
            init_v = np.where(is_seed, r0, 0).astype(np.int64)
        if first:
            ranks = np.broadcast_to(
                init_v, (len(node_ids),)).astype(np.int64)
        else:
            ranks = base_v + (d_num * sums) // d_den
        return node_ids, ranks, sides, group

    def _make_step(first: bool):
        def _step(group: pa.Table) -> pa.Table:
            empty = pa.table({node_col: pa.array([], pa.int64()),
                              "contrib": pa.array([], pa.int64())})
            if group.num_rows == 0:
                return empty
            node_ids, ranks, sides, g = _node_ranks(group, first)
            edges_t = g.filter(pa.array(sides == 0))
            if edges_t.num_rows == 0:
                return empty
            srcs = edges_t.column("_key").combine_chunks()
            pos = pc.index_in(
                srcs, value_set=pa.array(node_ids, pa.int64())
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            ecodes = pc.dictionary_encode(srcs).indices.to_numpy(
                zero_copy_only=False).astype(np.int64)
            deg = np.bincount(ecodes)
            contrib = ranks[pos] // deg[ecodes]
            return pa.table({
                node_col: edges_t.column(dst_col),
                "contrib": pa.array(contrib, pa.int64()),
            })
        return _step

    def _make_final(first: bool):
        def _final(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                return pa.table({node_col: pa.array([], pa.int64()),
                                 "rank": pa.array([], pa.int64())})
            node_ids, ranks, _, _ = _node_ranks(group, first)
            return pa.table({
                node_col: pa.array(node_ids, pa.int64()),
                "rank": pa.array(ranks, pa.int64()),
            })
        return _final

    # loop-invariant sides cached ONCE; re-union'd per iteration.
    # The edge multiset is corpus-scale on a web graph — pinned
    # adaptively (object store below threshold, storage-backed
    # checkpoint above); the node-universe zeros stay materialized
    # (node-scale, an order smaller than edges).
    tagged_edges = _loop_invariant(
        edges.map_batches(_tag_edges, batch_format="pyarrow"),
        "pr_edges")
    tagged_zeros = nodes.select_columns([node_col]).map_batches(
        _tag_zeros, batch_format="pyarrow").materialize()

    partials = tagged_zeros
    for i in range(iters):
        # repartition pins the layout: union grows block count by
        # |edges| blocks per iteration and the groupby's sort keeps
        # them, so without it round fixed costs grow with i
        partials = tagged_edges.union(partials).groupby(
            "_bucket", num_partitions=n_buckets
        ).map_groups(
            _make_step(first=(i == 0)), batch_format="pyarrow"
        ).map_batches(
            _partial_tagged, batch_format="pyarrow"
        ).repartition(n_buckets)
        if i + 1 < iters:
            partials = partials.union(tagged_zeros)
    if iters == 0:
        return tagged_zeros.groupby(
            "_bucket", num_partitions=n_buckets
        ).map_groups(_make_final(first=True), batch_format="pyarrow")
    return partials.union(tagged_zeros).groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_make_final(first=False), batch_format="pyarrow")

def _route_by_bucket(tbl, key_col, k):
    from ..functions.hashing import bucket_ids

    b = bucket_ids(tbl.column(key_col), k)
    return tuple(
        tbl.filter(pa.array(b == i)) for i in range(k)
    )


# ray.remote(num_returns=k) task wrapper created inside pagerank_pregel


class _PagerankShard:
    """One shard: owns ranks for its node bucket + edges by src."""

    def __init__(self, shard_id, n_shards, r0, d_num, d_den):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.r0 = r0
        self.d_num = d_num
        self.d_den = d_den
        self.base = (r0 * (d_den - d_num)) // d_den
        self._edge_parts = []
        self._node_parts = []
        self.nodes = None      # np.int64 sorted unique node ids
        self.ranks = None      # np.int64 aligned to self.nodes
        self._src = None       # np int64 edge srcs (positions into nodes)
        self._dst = None       # np int64 edge dsts (raw ids)
        self._deg = None       # per-edge degree of its src
        self._incoming = []    # partial tables for the current round

    def ingest_edges(self, tbl: pa.Table):
        if tbl.num_rows:
            self._edge_parts.append(tbl)

    def ingest_nodes(self, tbl: pa.Table):
        if tbl.num_rows:
            self._node_parts.append(tbl)

    def build(self):
        nodes = (
            pa.concat_tables(self._node_parts).column("node")
            .combine_chunks().to_numpy(zero_copy_only=False)
            .astype(np.int64)
            if self._node_parts else np.empty(0, np.int64)
        )
        self.nodes = np.unique(nodes)
        self.ranks = np.full(len(self.nodes), self.r0, np.int64)
        if self._edge_parts:
            e = pa.concat_tables(self._edge_parts)
            src = e.column("src").combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            self._dst = e.column("dst").combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            self._src = np.searchsorted(self.nodes, src)
            # degree per src (multiset)
            deg_per_node = np.bincount(
                self._src, minlength=len(self.nodes))
            self._deg = deg_per_node[self._src]
        else:
            self._src = np.empty(0, np.int64)
            self._dst = np.empty(0, np.int64)
            self._deg = np.empty(0, np.int64)
        self._edge_parts = self._node_parts = None
        return len(self.nodes)

    def contribute(self):
        """Emit per-target-shard (node, partial) tables; num_returns
        = n_shards on the caller side."""
        from ..functions.hashing import bucket_ids

        contrib = self.ranks[self._src] // self._deg
        # combine per dst locally
        uniq, inv = np.unique(self._dst, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, contrib)
        tbl = pa.table({"node": pa.array(uniq, pa.int64()),
                        "partial": pa.array(sums, pa.int64())})
        parts = _route_by_bucket(tbl, "node", self.n_shards)
        return parts if self.n_shards > 1 else parts[0]

    def receive(self, part: pa.Table):
        self._incoming.append(part)

    def apply(self):
        sums = np.zeros(len(self.nodes), np.int64)
        for p in self._incoming:
            ids = p.column("node").combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            vals = p.column("partial").combine_chunks().to_numpy(
                zero_copy_only=False)
            pos = np.searchsorted(self.nodes, ids)
            np.add.at(sums, pos, vals)
        self._incoming = []
        self.ranks = self.base + (self.d_num * sums) // self.d_den

    def result(self) -> pa.Table:
        return pa.table({"node": pa.array(self.nodes, pa.int64()),
                         "rank": pa.array(self.ranks, pa.int64())})


def pagerank_pregel(nodes, edges, iters: int = 3,
                    node_col: str = "node", src_col: str = "src",
                    dst_col: str = "dst", r0: int = 10 ** 9,
                    d_num: int = 85, d_den: int = 100,
                    n_shards: int = 8):
    """Actor-pinned (Pregel-style) integer PageRank — identical math
    to :func:`pagerank_int`, different physical plan: edges are
    partitioned ONCE into shard actors and never move again; per
    iteration only node-scale contribution partials flow point-to-
    point between shards (no sort barrier, no re-shuffle of edges).
    The Dataset formulation (:func:`pagerank_int`) remains the
    uniform-operator default; this is the iterate-fast path and the
    shape a real rank job at scale wants.
    """
    import ray

    shard_cls = ray.remote(_PagerankShard)
    shards = [shard_cls.remote(i, n_shards, r0, d_num, d_den)
              for i in range(n_shards)]

    @ray.remote(num_returns=n_shards)
    def route_edges(tbl: pa.Table):
        t = pa.table({
            "src": pc.cast(tbl.column(src_col), pa.int64()),
            "dst": pc.cast(tbl.column(dst_col), pa.int64()),
        })
        parts = _route_by_bucket(t, "src", n_shards)
        return parts if n_shards > 1 else parts[0]

    @ray.remote(num_returns=n_shards)
    def route_nodes(tbl: pa.Table):
        t = pa.table({
            "node": pc.cast(tbl.column(node_col), pa.int64())})
        parts = _route_by_bucket(t, "node", n_shards)
        return parts if n_shards > 1 else parts[0]

    pending = []
    for bundle in edges.iter_internal_ref_bundles():
        for block_ref in bundle.block_refs:
            parts = route_edges.remote(block_ref)
            parts = parts if isinstance(parts, list) else [parts]
            for i, ref in enumerate(parts):
                pending.append(shards[i].ingest_edges.remote(ref))
    for bundle in nodes.iter_internal_ref_bundles():
        for block_ref in bundle.block_refs:
            parts = route_nodes.remote(block_ref)
            parts = parts if isinstance(parts, list) else [parts]
            for i, ref in enumerate(parts):
                pending.append(shards[i].ingest_nodes.remote(ref))
    ray.get(pending)
    ray.get([s.build.remote() for s in shards])

    for _ in range(iters):
        recv = []
        for s in shards:
            parts = s.contribute.options(
                num_returns=n_shards).remote()
            parts = parts if isinstance(parts, list) else [parts]
            for i, ref in enumerate(parts):
                recv.append(shards[i].receive.remote(ref))
        ray.get(recv)
        ray.get([s.apply.remote() for s in shards])

    import ray.data

    return ray.data.from_arrow_refs(
        [s.result.remote() for s in shards])




def triangle_count(edges, src_col: str = "src", dst_col: str = "dst",
                   n_buckets: int = 64):
    """EXACT triangle count of the undirected simple graph underlying
    ``edges`` — the compact-forward / node-iterator algorithm
    (Latapy 2008), fused into FIVE exchanges:

    1. canonicalize: drop self-loops, fold direction (u<v), dedup
       parallel edges (one pair-hash shuffle, whole-bucket boundary
       mask over lexsorted pairs). Materialized once — it feeds the
       half-edge explode AND the closing-edge keys.
    2. degrees + attach, FUSED: each edge emits one half-row per
       endpoint keyed by that node; within a node's bucket the
       segment length IS the node's degree (every incident edge
       contributes exactly one half-row), so the same exchange that
       computes degrees also attaches them — the degree groupby and
       both orientation joins of the textbook plan collapse into one
       barrier.
    3. orient: the two degree-carrying halves of each edge meet in a
       pair-hash bucket; the edge orients from its (degree,
       id)-smaller endpoint — the skew fix that bounds every
       out-neighborhood at O(sqrt m), so a 10^9-degree hub never
       produces a quadratic wedge explosion.
    4. wedges: oriented edges re-key by SOURCE; per source, all
       out-neighbor pairs expand via one ``np.triu_indices``
       broadcast per DISTINCT out-degree (loop count = distinct
       degrees, not nodes).
    5. close: wedges co-shuffle with the closing-edge keys by pair
       hash; a sort-merge boundary mask over (u, v, side) counts the
       wedges whose pair leads with an edge row. Counted once by
       construction.

    Pairs co-locate via an INTEGER mix of both endpoints (never a
    string key). Returns a one-row table ``(n_triangles,)``. Node
    ids are int64; NULL endpoints are dropped with the self-loops.
    """
    from ..functions.hashing import bucket_ids

    _M1 = np.uint64(0x9E3779B97F4A7C15)
    _M2 = np.uint64(0xC2B2AE3D27D4EB4F)
    _NB = np.uint64(n_buckets)

    def _pair_bucket(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Deterministic pair → bucket (same formula on every side
        of a co-shuffle; value-only, layout-independent)."""
        h = (u.astype(np.uint64) * _M1) ^ (v.astype(np.uint64) * _M2)
        h = (h * _M1) >> np.uint64(33)
        return (h % _NB).astype(np.int64)

    def _canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col).combine_chunks()
        d = batch.column(dst_col).combine_chunks()
        ok = pc.and_(pc.is_valid(s), pc.is_valid(d))
        s = s.filter(ok).to_numpy(zero_copy_only=False).astype(np.int64)
        d = d.filter(ok).to_numpy(zero_copy_only=False).astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pa.table({
            "_bucket": pa.array(_pair_bucket(u, v), pa.int64()),
            "u": pa.array(u, pa.int64()),
            "v": pa.array(v, pa.int64()),
        })

    def _dedup(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        first = np.ones(len(u), dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table({"u": pa.array(u[first], pa.int64()),
                         "v": pa.array(v[first], pa.int64())})

    # two consumers (half-edge explode, closing-edge keys):
    # materialize ONCE or the canon+dedup exchange re-executes per
    # consumer (lazy-lineage re-execution)
    simple = edges.map_batches(_canon, batch_format="pyarrow").groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_dedup, batch_format="pyarrow").materialize()

    def _halves(batch: pa.Table) -> pa.Table:
        """One half-row per endpoint, keyed by that node."""
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        key = np.concatenate([u, v])
        other = np.concatenate([v, u])
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(pa.array(key, pa.int64()), n_buckets),
                pa.int64()),
            "k": pa.array(key, pa.int64()),
            "o": pa.array(other, pa.int64()),
        })

    def _deg_attach(group: pa.Table) -> pa.Table:
        """Within a node bucket: segment length per node = its
        degree; emit each half-row with the keyed endpoint's degree
        and a flag saying whether that endpoint is the canonical-lo
        end (so the pair merge knows which degree is whose)."""
        k = group.column("k").to_numpy(zero_copy_only=False)
        o = group.column("o").to_numpy(zero_copy_only=False)
        if len(k) == 0:
            return pa.table({
                "_pb": pa.array([], pa.int64()),
                "lo": pa.array([], pa.int64()),
                "hi": pa.array([], pa.int64()),
                "deg_is_lo": pa.array([], pa.int64()),
                "deg": pa.array([], pa.int64()),
            })
        order = np.argsort(k, kind="stable")
        k, o = k[order], o[order]
        seg = np.ones(len(k), dtype=bool)
        seg[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(seg)
        lens = np.diff(np.append(starts, len(k)))
        deg = np.repeat(lens, lens).astype(np.int64)
        lo = np.minimum(k, o)
        hi = np.maximum(k, o)
        return pa.table({
            "_pb": pa.array(_pair_bucket(lo, hi), pa.int64()),
            "lo": pa.array(lo, pa.int64()),
            "hi": pa.array(hi, pa.int64()),
            "deg_is_lo": pa.array((k == lo).astype(np.int64),
                                  pa.int64()),
            "deg": pa.array(deg, pa.int64()),
        })

    halves = simple.map_batches(
        _halves, batch_format="pyarrow"
    ).groupby("_bucket", num_partitions=n_buckets).map_groups(
        _deg_attach, batch_format="pyarrow")

    def _orient(group: pa.Table) -> pa.Table:
        """Pair bucket: the two degree halves of each edge meet;
        orient from the (deg, id)-smaller endpoint and re-key by the
        oriented SOURCE (wedge building needs a source's whole
        out-neighborhood, which only a node-keyed exchange
        co-locates)."""
        lo = group.column("lo").to_numpy(zero_copy_only=False)
        hi = group.column("hi").to_numpy(zero_copy_only=False)
        flag = group.column("deg_is_lo").to_numpy(zero_copy_only=False)
        deg = group.column("deg").to_numpy(zero_copy_only=False)
        if len(lo) == 0:
            return pa.table({
                "_bucket": pa.array([], pa.int64()),
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
            })
        # sort so each pair's two halves are adjacent, lo-degree row
        # first (flag desc: deg_is_lo=1 sorts first via 1-flag)
        order = np.lexsort((1 - flag, hi, lo))
        lo, hi, deg = lo[order], hi[order], deg[order]
        du = deg[0::2]      # deg_is_lo row
        dv = deg[1::2]      # the hi endpoint's degree
        eu, ev = lo[0::2], hi[0::2]
        # orient from (deg, id)-smaller to larger; eu < ev always,
        # so ties break toward eu
        fwd = du <= dv
        a = np.where(fwd, eu, ev)
        b = np.where(fwd, ev, eu)
        return pa.table({
            "_bucket": pa.array(
                bucket_ids(pa.array(a, pa.int64()), n_buckets),
                pa.int64()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
        })

    oriented = halves.groupby(
        "_pb", num_partitions=n_buckets
    ).map_groups(_orient, batch_format="pyarrow")

    def _wedges(group: pa.Table) -> pa.Table:
        """Per oriented source: all out-neighbor pairs — one triu
        broadcast per DISTINCT out-degree."""
        a = group.column("a").to_numpy(zero_copy_only=False)
        b = group.column("b").to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return pa.table({
                "_pb": pa.array([], pa.int64()),
                "u": pa.array([], pa.int64()),
                "v": pa.array([], pa.int64()),
                "is_edge": pa.array([], pa.int64()),
            })
        worder = np.lexsort((b, a))
        a, b = a[worder], b[worder]
        seg = np.ones(len(a), dtype=bool)
        seg[1:] = a[1:] != a[:-1]
        starts = np.flatnonzero(seg)
        lens = np.diff(np.append(starts, len(a)))
        xs, ys = [], []
        for kk in np.unique(lens):
            if kk < 2:
                continue
            sel = starts[lens == kk]
            i0, i1 = np.triu_indices(int(kk), 1)
            xs.append(b[(sel[:, None] + i0[None, :]).ravel()])
            ys.append(b[(sel[:, None] + i1[None, :]).ravel()])
        if xs:
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            wlo, whi = np.minimum(x, y), np.maximum(x, y)
        else:
            wlo = whi = np.empty(0, dtype=np.int64)
        return pa.table({
            "_pb": pa.array(_pair_bucket(wlo, whi), pa.int64()),
            "u": pa.array(wlo, pa.int64()),
            "v": pa.array(whi, pa.int64()),
            "is_edge": pa.array(
                np.zeros(len(wlo), dtype=np.int64), pa.int64()),
        })

    wedges = oriented.groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_wedges, batch_format="pyarrow")

    def _edge_keys(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        return pa.table({
            "_pb": pa.array(_pair_bucket(u, v), pa.int64()),
            "u": pa.array(u, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "is_edge": pa.array(
                np.ones(len(u), dtype=np.int64), pa.int64()),
        })

    edge_keys = simple.map_batches(_edge_keys, batch_format="pyarrow")

    def _close(group: pa.Table) -> pa.Table:
        """Sort-merge close: rows group by (u, v) with the single
        edge row (deduped upstream) sorted first; a group that leads
        with an edge contributes its wedge-row count."""
        u = group.column("u").to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        tag = group.column("is_edge").to_numpy(zero_copy_only=False)
        if len(u) == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        order = np.lexsort((1 - tag, v, u))
        u, v, tag = u[order], v[order], tag[order]
        seg = np.ones(len(u), dtype=bool)
        seg[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        starts = np.flatnonzero(seg)
        sizes = np.diff(np.append(starts, len(u)))
        closed = tag[starts] == 1
        n = int((sizes[closed] - 1).sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    counts = wedges.union(edge_keys).groupby(
        "_pb", num_partitions=n_buckets
    ).map_groups(_close, batch_format="pyarrow")

    total = 0
    for b in counts.iter_batches(batch_format="pyarrow",
                                 batch_size=None):
        if b.num_rows:
            total += int(pc.sum(b.column("n")).as_py() or 0)
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def hits_int(nodes, edges, iters: int = 2, scale: int = 10 ** 9,
             n_buckets: int = 32, node_col: str = "node",
             src_col: str = "src", dst_col: str = "dst"):
    """Integer fixed-point HITS (Kleinberg 1999): mutually-reinforcing
    hub/authority scores over a directed edge multiset — the classic
    companion to PageRank for web-corpus source weighting (authority
    as a per-host quality prior).

    Semantics (bit-exact vs the unrolled SQL twin):

    * ``h0 = scale`` for every node;
    * authority half-step: ``a_raw(v) = sum of h(u) over edges
      (u, v)`` (parallel edges count twice), then L1-style
      renormalization in pure int64: ``a = a_raw // max(A // scale,
      1)`` where ``A = sum of a_raw`` — keeps every value
      ~``scale``-sized so int64 never overflows and summation order
      cannot perturb the result;
    * hub half-step: symmetric, ``h_raw(u) = sum of a(v)`` over the
      node's OUT-edges; missing nodes read as 0 (LEFT-JOIN parity).

    Physical plan (the pagerank_int exchange, alternating key sides):
    the edge multiset is tagged+bucketed TWICE up front (once keyed
    by src for h->a, once by dst for a->h) and cached; each half-step
    is ONE bucket exchange — union(keyed edges, score partials,
    node-universe zeros) -> whole-bucket UDF folds partials into
    node scores, emits one contribution row per edge keyed by the
    opposite endpoint -> map-side combine back to partials. The
    normalization total is folded on the driver from PER-BLOCK
    partial sums (blocks-scale, never node-scale) and injected into
    the next half-step's closure. Driver state: one int per
    half-step.

    Returns (node, auth, hub) int64 rows for the full node universe.
    """
    from ..functions.hashing import bucket_ids

    union_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), ("_other", pa.int64()),
        ("val", pa.int64()),
    ])

    def _tag_edges(key_name: str, other_name: str):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = pc.cast(batch.column(key_name), pa.int64())
            return pa.table({
                "_bucket": pa.array(bucket_ids(key, n_buckets),
                                    pa.int64()),
                "_side": pa.array(np.zeros(n, np.int32)),
                "_key": key,
                "_other": pc.cast(batch.column(other_name), pa.int64()),
                "val": pa.nulls(n, pa.int64()),
            }, schema=union_schema)
        return _fn

    def _tag_nodes(val: int, side: int = 1):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = pc.cast(batch.column(node_col), pa.int64())
            return pa.table({
                "_bucket": pa.array(bucket_ids(key, n_buckets),
                                    pa.int64()),
                "_side": pa.array(np.full(n, side, np.int32)),
                "_key": key,
                "_other": pa.nulls(n, pa.int64()),
                "val": pa.array(np.full(n, val, np.int64)),
            }, schema=union_schema)
        return _fn

    def _fold_scores(tbl: pa.Table, div: int):
        """Partial side-1 rows -> (unique node ids, score = sum//div)."""
        keys = tbl.column("_key").combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = enc.dictionary.to_numpy(zero_copy_only=False)
        sums = np.zeros(len(ids), np.int64)
        np.add.at(sums, codes, tbl.column("val").combine_chunks()
                  .to_numpy(zero_copy_only=False))
        return ids, sums // div

    def _make_halfstep(div: int):
        def _step(group: pa.Table) -> pa.Table:
            empty = pa.table({node_col: pa.array([], pa.int64()),
                              "contrib": pa.array([], pa.int64())})
            if group.num_rows == 0:
                return empty
            sides = group.column("_side").combine_chunks().to_numpy()
            ids, score = _fold_scores(
                group.filter(pa.array(sides == 1)), div)
            edges_t = group.filter(pa.array(sides == 0))
            if edges_t.num_rows == 0:
                return empty
            pos = pc.index_in(
                edges_t.column("_key").combine_chunks(),
                value_set=pa.array(ids, pa.int64()),
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({
                node_col: edges_t.column("_other"),
                "contrib": pa.array(score[pos], pa.int64()),
            })
        return _step

    def _partial_tagged(batch: pa.Table) -> pa.Table:
        ids = batch.column(node_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        vals = batch.column("contrib").combine_chunks().to_numpy(
            zero_copy_only=False)
        uniq, inv = np.unique(ids, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, vals)
        key = pa.array(uniq, pa.int64())
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.ones(len(uniq), np.int32)),
            "_key": key,
            "_other": pa.nulls(len(uniq), pa.int64()),
            "val": pa.array(sums, pa.int64()),
        }, schema=union_schema)

    def _total(parts) -> int:
        def _bs(b: pa.Table) -> pa.Table:
            s = int(np.sum(b.column("val").combine_chunks().to_numpy(
                zero_copy_only=False), dtype=np.int64))
            return pa.table({"s": pa.array([s], pa.int64())})
        return sum(r["s"] for r in parts.select_columns(
            ["val"]).map_batches(
            _bs, batch_format="pyarrow", batch_size=None).take_all())

    node_sel = nodes.select_columns([node_col])
    if iters == 0:
        # fixed point of zero iterations: the h0 init, no authority
        def _init_out(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                node_col: pc.cast(batch.column(node_col), pa.int64()),
                "auth": pa.array(np.zeros(n, np.int64)),
                "hub": pa.array(np.full(n, scale, np.int64)),
            })
        return node_sel.map_batches(_init_out, batch_format="pyarrow")

    edges_by_src = _loop_invariant(
        edges.map_batches(_tag_edges(src_col, dst_col),
                          batch_format="pyarrow"), "hits_src")
    edges_by_dst = _loop_invariant(
        edges.map_batches(_tag_edges(dst_col, src_col),
                          batch_format="pyarrow"), "hits_dst")
    tagged_zeros = node_sel.map_batches(
        _tag_nodes(0), batch_format="pyarrow").materialize()

    cur = node_sel.map_batches(
        _tag_nodes(scale), batch_format="pyarrow")  # h0
    div = 1
    a_parts = h_parts = None
    div_a = div_h = 1
    for _ in range(iters):
        # repartition pins the half-step block layout (union + sort
        # otherwise compound block count across iterations)
        a_parts = edges_by_src.union(cur).union(tagged_zeros).groupby(
            "_bucket", num_partitions=n_buckets
        ).map_groups(
            _make_halfstep(div), batch_format="pyarrow"
        ).map_batches(_partial_tagged, batch_format="pyarrow"
                      ).repartition(n_buckets).materialize()
        div_a = max(_total(a_parts) // scale, 1)
        h_parts = edges_by_dst.union(a_parts).union(
            tagged_zeros).groupby(
            "_bucket", num_partitions=n_buckets
        ).map_groups(
            _make_halfstep(div_a), batch_format="pyarrow"
        ).map_batches(_partial_tagged, batch_format="pyarrow"
                      ).repartition(n_buckets).materialize()
        div_h = max(_total(h_parts) // scale, 1)
        cur, div = h_parts, div_h

    # one final exchange folds BOTH score sets per node: re-tag the
    # authority partials as side 2 so the bucket UDF can split them.
    def _retag_auth(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            1, "_side",
            pa.array(np.full(batch.num_rows, 2, np.int32)))

    def _final(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({node_col: pa.array([], pa.int64()),
                             "auth": pa.array([], pa.int64()),
                             "hub": pa.array([], pa.int64())})
        sides = group.column("_side").combine_chunks().to_numpy()
        a_ids, a_sc = _fold_scores(
            group.filter(pa.array(sides == 2)), div_a)
        h_ids, h_sc = _fold_scores(
            group.filter(pa.array(sides == 1)), div_h)
        all_ids = np.union1d(a_ids, h_ids)
        auth = np.zeros(len(all_ids), np.int64)
        auth[np.searchsorted(all_ids, a_ids)] = a_sc
        hub = np.zeros(len(all_ids), np.int64)
        hub[np.searchsorted(all_ids, h_ids)] = h_sc
        return pa.table({
            node_col: pa.array(all_ids, pa.int64()),
            "auth": pa.array(auth, pa.int64()),
            "hub": pa.array(hub, pa.int64()),
        })

    return a_parts.map_batches(
        _retag_auth, batch_format="pyarrow"
    ).union(h_parts).union(tagged_zeros).groupby(
        "_bucket", num_partitions=n_buckets
    ).map_groups(_final, batch_format="pyarrow")


def resolve_chains(mapping, key_col: str = "src",
                   ptr_col: str = "dst", n_buckets: int = 32,
                   max_rounds: int = 40):
    """Functional-graph chain resolution by pointer doubling — the
    crawl-curation primitive behind redirect-chain collapsing (every
    url resolves to its FINAL target through any number of 3xx hops)
    and symlink/alias flattening.

    ``mapping`` is a Dataset of (key, ptr) rows, one outgoing pointer
    per key (a functional graph). A node that never appears as a key
    is terminal. Returns one row per input key: ``(key_col, final,
    resolved)`` where ``final`` is the chain's terminal and
    ``resolved`` is false only for keys trapped in a pointer CYCLE
    (redirect loops — real crawls have them; after ``max_rounds``
    doublings anything unresolved is loop-bound by construction,
    since a chain of length L resolves in ceil(log2 L) rounds and
    2^40 exceeds any acyclic chain).

    Physical plan per round: the current mapping is scanned twice —
    side 0 keyed by its POINTER (rows seeking their next hop), side
    1 keyed by its KEY (the lookup table) — into ONE bucket
    co-shuffle; the whole-bucket UDF rewrites ``ptr -> lookup[ptr]``
    where defined (pointer doubling: M' = M∘M, so chains halve every
    round — log-depth, like the label compression in
    stages/cluster.py but for DIRECTED functional graphs, where
    min-label CC semantics do not apply). Convergence is detected
    from blocks-scale changed-count partials folded on the driver;
    per-round cost is two scans + one exchange of (key, ptr) pairs
    only.
    """
    from ..functions.hashing import bucket_ids

    union_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), ("_val", pa.int64()),
    ])

    def _tag(side: int, by_col: str):
        other = {key_col: ptr_col, ptr_col: key_col}[by_col]

        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            by = pc.cast(batch.column(by_col), pa.int64())
            return pa.table({
                "_bucket": pa.array(bucket_ids(by, n_buckets),
                                    pa.int64()),
                "_side": pa.array(np.full(n, side, np.int32)),
                "_key": by,
                "_val": pc.cast(batch.column(other), pa.int64()),
            }, schema=union_schema)
        return _fn

    def _jump(group: pa.Table) -> pa.Table:
        """side 0: (_key=ptr, _val=key) seeking; side 1:
        (_key=key, _val=ptr) lookup. Emit (key, new_ptr, changed)."""
        empty = pa.table({key_col: pa.array([], pa.int64()),
                          ptr_col: pa.array([], pa.int64()),
                          "_chg": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        sides = group.column("_side").combine_chunks().to_numpy()
        seek = group.filter(pa.array(sides == 0))
        if seek.num_rows == 0:
            return empty
        look = group.filter(pa.array(sides == 1))
        ptrs = seek.column("_key").combine_chunks()
        keys = seek.column("_val").combine_chunks().to_numpy(
            zero_copy_only=False)
        cur = ptrs.to_numpy(zero_copy_only=False).copy()
        if look.num_rows:
            lk = look.column("_key").combine_chunks().to_numpy(
                zero_copy_only=False)
            lv = look.column("_val").combine_chunks().to_numpy(
                zero_copy_only=False)
            pos = pc.index_in(
                ptrs, value_set=pa.array(lk, pa.int64())
            ).to_numpy(zero_copy_only=False)
            hit = ~np.isnan(pos)
            idx = pos[hit].astype(np.int64)
            cur[hit] = lv[idx]
        else:
            hit = np.zeros(len(cur), bool)
        changed = hit & (cur != ptrs.to_numpy(zero_copy_only=False))
        return pa.table({
            key_col: pa.array(keys, pa.int64()),
            ptr_col: pa.array(cur, pa.int64()),
            "_chg": pa.array(changed.astype(np.int64), pa.int64()),
        })

    def _changed_total(ds) -> int:
        def _bs(b: pa.Table) -> pa.Table:
            s = int(np.sum(b.column("_chg").combine_chunks()
                           .to_numpy(zero_copy_only=False),
                           dtype=np.int64))
            return pa.table({"s": pa.array([s], pa.int64())})
        return sum(r["s"] for r in ds.select_columns(
            ["_chg"]).map_batches(
            _bs, batch_format="pyarrow", batch_size=None).take_all())

    cur = mapping.select_columns([key_col, ptr_col]).materialize()
    rounds = 0
    while rounds < max_rounds:
        # without the repartition, block count DOUBLES per round
        # (union emits 2B blocks and the groupby's sort keeps them),
        # so round fixed costs grow geometrically — pin the layout
        # to n_buckets blocks every round
        nxt = cur.map_batches(
            _tag(0, ptr_col), batch_format="pyarrow"
        ).union(cur.map_batches(
            _tag(1, key_col), batch_format="pyarrow"
        )).groupby("_bucket", num_partitions=n_buckets).map_groups(
            _jump, batch_format="pyarrow").repartition(
            n_buckets).materialize()
        rounds += 1
        cur = nxt
        if _changed_total(nxt) == 0:
            break
        # `_chg` rides along into the next round unread (`_tag`
        # rebuilds its output from named columns) — dropping it
        # would cost a second full materialize per round
    # resolved = final pointer is terminal (not itself a key):
    # one more half-exchange marks cycle members
    def _mark(group: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], pa.int64()),
                          "final": pa.array([], pa.int64()),
                          "resolved": pa.array([], pa.bool_())})
        if group.num_rows == 0:
            return empty
        sides = group.column("_side").combine_chunks().to_numpy()
        seek = group.filter(pa.array(sides == 0))
        if seek.num_rows == 0:
            return empty
        look = group.filter(pa.array(sides == 1))
        ptrs = seek.column("_key").combine_chunks()
        if look.num_rows:
            lk = look.column("_key").combine_chunks()
            isin = pc.is_in(ptrs, value_set=pc.unique(lk)).to_numpy(
                zero_copy_only=False)
        else:
            isin = np.zeros(seek.num_rows, bool)
        return pa.table({
            key_col: seek.column("_val"),
            "final": ptrs,
            "resolved": pa.array(~isin, pa.bool_()),
        })

    final_ds = cur.select_columns([key_col, ptr_col])
    return final_ds.map_batches(
        _tag(0, ptr_col), batch_format="pyarrow"
    ).union(mapping.select_columns([key_col, ptr_col]).map_batches(
        _tag(1, key_col), batch_format="pyarrow"
    )).groupby("_bucket", num_partitions=n_buckets).map_groups(
        _mark, batch_format="pyarrow")


def bfs_levels(edges, seeds, src_col: str = "src", dst_col: str = "dst",
               max_iters: int = 10, n_buckets: int = 32):
    """Multi-source BFS hop distances — crawl-DEPTH labeling from a
    seed set over the link graph (the frontier metric crawl policies
    budget on), also reachability-within-k.

    Frontier iteration, two exchanges per hop (the `pagerank_int`
    exchange shape — never a driver-side visited set):

    1. expand: tagged edges (key=src) co-shuffle with the current
       frontier (key=node); each whole bucket emits the DEDUPED
       out-neighbors of its frontier members (one ``is_in`` mask —
       every frontier node this hop has the same distance, so
       candidates carry no payload).
    2. merge: candidates co-shuffle with the known (node, dist) set;
       per node the earliest hop wins (BFS invariant: existing known
       rows are always older), newly discovered nodes form the next
       frontier.

    Stops when the frontier empties or after ``max_iters`` hops.
    ``seeds`` is a small int list (crawl seed sets are tiny by
    nature); the known set lives distributed, materialized per hop
    (two consumers: continue + next merge). Returns ``(node,
    dist:int64)`` for every node within ``max_iters`` hops.
    """
    import ray.data

    from ..functions.hashing import bucket_ids

    seeds = sorted(set(int(s) for s in seeds))
    if not seeds:
        raise ValueError("bfs_levels: empty seed set")

    edge_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), (dst_col, pa.int64()),
    ])

    def _tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = pc.cast(batch.column(src_col), pa.int64())
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.zeros(n, np.int32)),
            "_key": key,
            dst_col: pc.cast(batch.column(dst_col), pa.int64()),
        }, schema=edge_schema)

    tagged_edges = _loop_invariant(
        edges.map_batches(_tag_edges, batch_format="pyarrow"),
        "bfs_edges")

    def _tag_nodes(ds, side: int, schema, extra=None):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = pc.cast(batch.column("node"), pa.int64())
            cols = {
                "_bucket": pa.array(
                    bucket_ids(key, n_buckets), pa.int64()),
                "_side": pa.array(np.full(n, side, np.int32)),
                "_key": key,
            }
            for name in schema.names[3:]:
                if extra and name in extra:
                    cols[name] = pc.cast(batch.column(extra[name]),
                                         schema.field(name).type) \
                        if extra[name] in batch.column_names else \
                        pa.nulls(n, schema.field(name).type)
                elif name in batch.column_names:
                    cols[name] = pc.cast(batch.column(name),
                                         schema.field(name).type)
                else:
                    cols[name] = pa.nulls(n, schema.field(name).type)
            return pa.table(cols, schema=schema)
        return ds.map_batches(_fn, batch_format="pyarrow")

    def _expand_bucket(group: pa.Table) -> pa.Table:
        side = group.column("_side")
        frontier = group.filter(pc.equal(side, 1)).column("_key")
        if isinstance(frontier, pa.ChunkedArray):
            frontier = frontier.combine_chunks()
        out_empty = pa.table({"node": pa.array([], pa.int64())})
        if len(frontier) == 0:
            return out_empty
        e = group.filter(pc.equal(side, 0))
        if e.num_rows == 0:
            return out_empty
        hit = pc.is_in(e.column("_key"), value_set=frontier)
        dsts = e.filter(hit).column(dst_col)
        if isinstance(dsts, pa.ChunkedArray):
            dsts = dsts.combine_chunks()
        uniq = np.unique(dsts.to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(uniq, pa.int64())})

    merge_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), ("dist", pa.int64()),
    ])

    def _merge_bucket(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64()),
                             "is_new": pa.array([], pa.bool_())})
        g = group.sort_by([("_key", "ascending"), ("_side", "ascending")])
        keys = g.column("_key").combine_chunks().to_numpy(
            zero_copy_only=False)
        side = g.column("_side").combine_chunks().to_numpy(
            zero_copy_only=False)
        dist = g.column("dist").combine_chunks().to_numpy(
            zero_copy_only=False)
        first = np.r_[True, keys[1:] != keys[:-1]]
        idx = np.flatnonzero(first)
        return pa.table({
            "node": pa.array(keys[idx], pa.int64()),
            "dist": pa.array(dist[idx], pa.int64()),
            "is_new": pa.array(side[idx] == 1),
        })

    known = ray.data.from_arrow(pa.table({
        "node": pa.array(seeds, pa.int64()),
        "dist": pa.array(np.zeros(len(seeds), np.int64), pa.int64()),
    })).materialize()
    frontier = known

    for hop in range(1, max_iters + 1):
        cand = (
            tagged_edges.union(_tag_nodes(frontier, 1, edge_schema))
            .groupby("_bucket", num_partitions=n_buckets)
            .map_groups(_expand_bucket, batch_format="pyarrow")
        )

        def _cand_dist(batch: pa.Table, *, _d=hop) -> pa.Table:
            return batch.append_column(
                "dist", pa.array(
                    np.full(batch.num_rows, _d, np.int64), pa.int64()))

        cand = cand.map_batches(_cand_dist, batch_format="pyarrow")
        # repartition pins the per-hop block layout (union + sort
        # otherwise compound block count across hops)
        merged = (
            _tag_nodes(known, 0, merge_schema)
            .union(_tag_nodes(cand, 1, merge_schema))
            .groupby("_bucket", num_partitions=n_buckets)
            .map_groups(_merge_bucket, batch_format="pyarrow")
        ).repartition(n_buckets).materialize()
        frontier = merged.filter(expr="is_new == True").select_columns(
            ["node", "dist"]).materialize()
        known = merged.select_columns(["node", "dist"])
        if frontier.count() == 0:
            break
        known = known.materialize()

    return known


def _degrees(edges, n_buckets: int = 32):
    """Undirected degree per node: explode both endpoints with
    map-side combine, one node-hash exchange, whole-bucket sums."""
    from ..functions.hashing import bucket_ids

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("u").combine_chunks().to_numpy(
            zero_copy_only=False)
        v = batch.column("v").combine_chunks().to_numpy(
            zero_copy_only=False)
        both = np.concatenate([u, v])
        uniq, cnt = np.unique(both, return_counts=True)
        arr = pa.array(uniq, pa.int64())
        return pa.table({
            "node": arr,
            "deg": pa.array(cnt.astype(np.int64), pa.int64()),
            "_nbucket": pa.array(
                bucket_ids(arr, n_buckets), pa.int64()),
        })

    def _fold(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "deg": pa.array([], pa.int64())})
        g = group.sort_by([("node", "ascending")])
        nodes = g.column("node").combine_chunks().to_numpy(
            zero_copy_only=False)
        deg = g.column("deg").combine_chunks().to_numpy(
            zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]])
        return pa.table({
            "node": pa.array(nodes[starts], pa.int64()),
            "deg": pa.array(np.add.reduceat(deg, starts), pa.int64()),
        })

    return (
        edges.map_batches(_partial, batch_format="pyarrow")
        .groupby("_nbucket", num_partitions=n_buckets)
        .map_groups(_fold, batch_format="pyarrow")
    )


def kcore_prune(edges, k: int = 3, rounds: int = 4,
                src_col: str = "src", dst_col: str = "dst",
                n_buckets: int = 32):
    """Iterated k-CORE pruning of the (undirected) link graph — the
    link-farm/spam-web signal: repeatedly drop nodes of degree < k
    and the edges touching them. Runs EXACTLY ``rounds`` pruning
    rounds (fixed rounds keep it bit-reproducible against a
    chained-CTE SQL twin; the true k-core is the fixpoint, reached
    when a round removes nothing).

    Per round: one degree exchange (map-side combined endpoint
    counts) + two SEMI co-shuffles (edges × surviving nodes on each
    endpoint — the engine's own `repartition_join`). Iterative
    multi-exchange like `pagerank_int`; nothing driver-sized.

    Returns the degree table ``(node, deg:int64)`` of the surviving
    edge set after ``rounds`` rounds.
    """
    import pyarrow.compute as pc_

    from ..functions.hashing import bucket_ids
    from .join import repartition_join

    def _canon(batch: pa.Table) -> pa.Table:
        s = pc_.cast(batch.column(src_col), pa.int64())
        d = pc_.cast(batch.column(dst_col), pa.int64())
        u = pc_.min_element_wise(s, d)
        v = pc_.max_element_wise(s, d)
        keep = pc_.not_equal(u, v)
        tbl = pa.table({"u": u, "v": v}).filter(keep)
        key = pc_.add(pc_.multiply(tbl.column("u"),
                                   pa.scalar(1 << 20, pa.int64())),
                      tbl.column("v"))
        return tbl.append_column(
            "_ebucket", pa.array(bucket_ids(key, n_buckets), pa.int64()))

    def _dedup(group: pa.Table) -> pa.Table:
        g = group.sort_by([("u", "ascending"), ("v", "ascending")])
        n = g.num_rows
        if n == 0:
            return pa.table({"u": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        u = g.column("u").combine_chunks().to_numpy(zero_copy_only=False)
        v = g.column("v").combine_chunks().to_numpy(zero_copy_only=False)
        first = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
        return pa.table({
            "u": pa.array(u[first], pa.int64()),
            "v": pa.array(v[first], pa.int64()),
        })

    # the surviving-edge iterate is edge-scale each round; pin it
    # adaptively (storage-backed checkpoint above the threshold)
    # instead of holding an edge-scale object-store pin per round
    cur = _loop_invariant(
        edges.map_batches(_canon, batch_format="pyarrow")
        .groupby("_ebucket", num_partitions=n_buckets)
        .map_groups(_dedup, batch_format="pyarrow"), "kcore_cur")

    for _ in range(rounds):
        deg = _degrees(cur, n_buckets)
        surv = deg.filter(expr=f"deg >= {k}").select_columns(["node"])

        def _as(name):
            def _fn(batch: pa.Table) -> pa.Table:
                return pa.table({name: batch.column("node")})
            return _fn

        surv = surv.materialize()
        cur = repartition_join(
            cur, surv.map_batches(_as("u"), batch_format="pyarrow"),
            on="u", how="semi", n_buckets=n_buckets)
        cur = _loop_invariant(repartition_join(
            cur, surv.map_batches(_as("v"), batch_format="pyarrow"),
            on="v", how="semi", n_buckets=n_buckets), "kcore_cur")

    return _degrees(cur, n_buckets)


def label_propagation(nodes, edges, rounds: int = 2,
                      node_col: str = "node", src_col: str = "src",
                      dst_col: str = "dst", n_buckets: int = 32):
    """Synchronous LABEL-PROPAGATION community detection (Raghavan et
    al. 2007, the deterministic fixed-round variant): labels start as
    the node id; each round every node adopts the most frequent label
    among its UNDIRECTED neighbors (parallel edges vote once each,
    ties break to the SMALLEST label — determinism instead of the
    paper's random tie-break), isolated nodes keep their label.
    Communities are DENSITY clusters — different from connected
    components (one bridge edge merges two components but not two
    communities), which is the link-farm / mirror-cluster signal.

    Scale shape, two exchanges per round (the BFS cadence):
    exchange 1 joins current labels onto edge sources in whole-bucket
    UDFs and emits ``(dst, label)`` votes; exchange 2 co-shuffles
    votes with the current label rows and finishes per node with one
    Arrow multi-column group_by + sort + boundary mask — never a
    per-node UDF. The symmetrized edge table is tagged and
    materialized ONCE; label state is node-scale.
    """
    from ..functions.hashing import bucket_ids

    e1_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), ("_dst", pa.int64()),
        ("_lbl", pa.int64()),
    ])

    def _tag_sym_edges(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column(src_col), pa.int64())
        d = pc.cast(batch.column(dst_col), pa.int64())
        key = pa.concat_arrays([s.combine_chunks(), d.combine_chunks()])
        dst = pa.concat_arrays([d.combine_chunks(), s.combine_chunks()])
        n = len(key)
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.zeros(n, np.int32)),
            "_key": key, "_dst": dst,
            "_lbl": pa.nulls(n, pa.int64()),
        }, schema=e1_schema)

    def _tag_labels_e1(batch: pa.Table) -> pa.Table:
        key = pc.cast(batch.column(node_col), pa.int64())
        n = len(key)
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets), pa.int64()),
            "_side": pa.array(np.ones(n, np.int32)),
            "_key": key, "_dst": pa.nulls(n, pa.int64()),
            "_lbl": pc.cast(batch.column("label"), pa.int64()),
        }, schema=e1_schema)

    def _emit_votes(group: pa.Table) -> pa.Table:
        empty = pa.table({node_col: pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        sides = group.column("_side").combine_chunks().to_numpy()
        lbl_t = group.filter(pa.array(sides == 1))
        edge_t = group.filter(pa.array(sides == 0))
        if edge_t.num_rows == 0 or lbl_t.num_rows == 0:
            return empty
        lbl_nodes = lbl_t.column("_key").combine_chunks()
        lbls = lbl_t.column("_lbl").combine_chunks().to_numpy(
            zero_copy_only=False)
        pos = pc.index_in(
            edge_t.column("_key").combine_chunks(), value_set=lbl_nodes
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            node_col: edge_t.column("_dst"),
            "label": pa.array(lbls[pos], pa.int64()),
        })

    e2_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        (node_col, pa.int64()), ("label", pa.int64()),
    ])

    def _tag_e2(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            key = pc.cast(batch.column(node_col), pa.int64())
            n = len(key)
            return pa.table({
                "_bucket": pa.array(bucket_ids(key, n_buckets),
                                    pa.int64()),
                "_side": pa.array(np.full(n, side, np.int32)),
                node_col: key,
                "label": pc.cast(batch.column("label"), pa.int64()),
            }, schema=e2_schema)
        return _fn

    def _mode(group: pa.Table) -> pa.Table:
        empty = pa.table({node_col: pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        sides = group.column("_side").combine_chunks().to_numpy()
        votes = group.filter(pa.array(sides == 0))
        cur = group.filter(pa.array(sides == 1))
        if votes.num_rows:
            counts = votes.select([node_col, "label"]).group_by(
                [node_col, "label"]).aggregate([([], "count_all")])
            counts = counts.sort_by([
                (node_col, "ascending"),
                ("count_all", "descending"),
                ("label", "ascending")])
            nodes_arr = counts.column(node_col).combine_chunks()
            codes = pc.dictionary_encode(nodes_arr).indices.to_numpy(
                zero_copy_only=False)
            first = np.ones(len(codes), dtype=bool)
            first[1:] = codes[1:] != codes[:-1]
            win = counts.take(pa.array(np.flatnonzero(first),
                                       pa.int64()))
            win_nodes = win.column(node_col).combine_chunks()
        else:
            win = None
            win_nodes = pa.array([], pa.int64())
        # isolated / vote-less nodes fall back to their current label
        keep = pc.invert(pc.is_in(
            cur.column(node_col).combine_chunks(),
            value_set=win_nodes))
        fallback = cur.filter(keep)
        out_nodes = [fallback.column(node_col).combine_chunks()]
        out_lbls = [fallback.column("label").combine_chunks()]
        if win is not None:
            out_nodes.append(win_nodes)
            out_lbls.append(win.column("label").combine_chunks())
        return pa.table({
            node_col: pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                 else a for a in out_nodes]),
            "label": pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                 else a for a in out_lbls]),
        })

    tagged_edges = _loop_invariant(
        edges.map_batches(_tag_sym_edges, batch_format="pyarrow"),
        "lp_edges")

    def _init(batch: pa.Table) -> pa.Table:
        key = pc.cast(batch.column(node_col), pa.int64())
        return pa.table({node_col: key, "label": key})

    labels = nodes.map_batches(_init, batch_format="pyarrow")
    for _ in range(rounds):
        votes = (
            tagged_edges.union(labels.map_batches(
                _tag_labels_e1, batch_format="pyarrow"))
            .groupby("_bucket", num_partitions=n_buckets)
            .map_groups(_emit_votes, batch_format="pyarrow")
        )
        # repartition pins the per-round block layout (union + sort
        # otherwise compound block count across rounds)
        labels = (
            votes.map_batches(_tag_e2(0), batch_format="pyarrow")
            .union(labels.map_batches(_tag_e2(1),
                                      batch_format="pyarrow"))
            .groupby("_bucket", num_partitions=n_buckets)
            .map_groups(_mode, batch_format="pyarrow")
        ).repartition(n_buckets).materialize()
    return labels


def sssp_int(edges, seeds, rounds: int = 8, src_col: str = "src",
             dst_col: str = "dst", w_col: str = "w",
             n_buckets: int = 32):
    """Weighted single-source(s) shortest paths — ``rounds`` frontier
    Bellman-Ford relaxations over non-negative int64 edge weights.

    After k rounds the table holds, for every reached node, the EXACT
    minimum weight over paths of **at most k edges** (the textbook
    Bellman-Ford invariant) — so a fixed ``rounds`` makes the result
    deterministic and expressible as a depth-bounded recursive CTE,
    like :func:`bfs_levels` (the unweighted special case). If the
    frontier empties earlier the loop stops: distances have converged
    to true shortest paths, which equal every deeper hop bound.

    Scale shape — the :func:`bfs_levels` exchange pair per round,
    generalized to carry weights:

    1. relax: loop-invariant tagged edges (key=src) co-shuffle with
       the current FRONTIER (nodes whose distance improved last
       round, key=node); each whole bucket joins frontier distances
       onto its edges (sorted searchsorted probe) and emits per-dst
       LOCAL MIN candidates — the exchange carries at most one row
       per distinct dst per bucket, never one per edge.
    2. merge: candidates co-shuffle with the known (node, dist) set;
       per node the minimum wins, and rows that improved (or are
       newly reached) form the next frontier.

    All-integer arithmetic: summation order cannot perturb a min of
    int64 path weights, so the oracle is bit-exact.
    """
    import ray.data

    from ..functions.hashing import bucket_ids

    seeds = sorted(set(int(s) for s in seeds))
    if not seeds:
        raise ValueError("sssp_int: empty seed set")
    if rounds < 0:
        raise ValueError("sssp_int: negative rounds")

    edge_schema = pa.schema([
        ("_bucket", pa.int64()), ("_side", pa.int32()),
        ("_key", pa.int64()), ("dst", pa.int64()),
        ("dist", pa.int64()),
    ])

    def _tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = pc.cast(batch.column(src_col), pa.int64())
        return pa.table({
            "_bucket": pa.array(bucket_ids(key, n_buckets),
                                pa.int64()),
            "_side": pa.array(np.zeros(n, np.int32)),
            "_key": key,
            "dst": pc.cast(batch.column(dst_col), pa.int64()),
            "dist": pc.cast(batch.column(w_col), pa.int64()),
        }, schema=edge_schema)

    tagged_edges = _loop_invariant(
        edges.map_batches(_tag_edges, batch_format="pyarrow"),
        "sssp_edges")

    def _tag_nodes(ds, side: int) -> "ray.data.Dataset":
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = pc.cast(batch.column("node"), pa.int64())
            return pa.table({
                "_bucket": pa.array(bucket_ids(key, n_buckets),
                                    pa.int64()),
                "_side": pa.array(np.full(n, side, np.int32)),
                "_key": key,
                "dst": pa.nulls(n, pa.int64()),
                "dist": pc.cast(batch.column("dist"), pa.int64()),
            }, schema=edge_schema)
        return ds.map_batches(_fn, batch_format="pyarrow")

    def _relax_bucket(group: pa.Table) -> pa.Table:
        out_empty = pa.table({"node": pa.array([], pa.int64()),
                              "dist": pa.array([], pa.int64())})
        side = group.column("_side")
        fr = group.filter(pc.equal(side, 1))
        if fr.num_rows == 0:
            return out_empty
        e = group.filter(pc.equal(side, 0))
        if e.num_rows == 0:
            return out_empty
        fk = fr.column("_key").combine_chunks().to_numpy(
            zero_copy_only=False)
        fd = fr.column("dist").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.argsort(fk, kind="stable")
        fk, fd = fk[order], fd[order]
        ek = e.column("_key").combine_chunks().to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(fk, ek)
        pos_c = np.minimum(pos, len(fk) - 1)
        hit = fk[pos_c] == ek
        if not hit.any():
            return out_empty
        eh = e.filter(pa.array(hit))
        cand = fd[pos_c[hit]] + eh.column("dist").combine_chunks(
            ).to_numpy(zero_copy_only=False)
        dsts = eh.column("dst").combine_chunks().to_numpy(
            zero_copy_only=False)
        # per-dst local min (lexsort + first-per-key mask)
        o = np.lexsort((cand, dsts))
        dsts, cand = dsts[o], cand[o]
        first = np.r_[True, dsts[1:] != dsts[:-1]]
        return pa.table({
            "node": pa.array(dsts[first], pa.int64()),
            "dist": pa.array(cand[first], pa.int64()),
        })

    def _merge_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"node": pa.array([], pa.int64()),
                          "dist": pa.array([], pa.int64()),
                          "improved": pa.array([], pa.bool_())})
        n = group.num_rows
        if n == 0:
            return empty
        keys = group.column("_key").combine_chunks().to_numpy(
            zero_copy_only=False)
        side = group.column("_side").combine_chunks().to_numpy(
            zero_copy_only=False)
        dist = group.column("dist").combine_chunks().to_numpy(
            zero_copy_only=False)
        # sort by (key, dist, side): the winner is the segment head;
        # ties prefer side 0 (known) so an equal candidate does NOT
        # count as an improvement.
        o = np.lexsort((side, dist, keys))
        keys, side, dist = keys[o], side[o], dist[o]
        first = np.r_[True, keys[1:] != keys[:-1]]
        idx = np.flatnonzero(first)
        return pa.table({
            "node": pa.array(keys[idx], pa.int64()),
            "dist": pa.array(dist[idx], pa.int64()),
            "improved": pa.array(side[idx] == 1),
        })

    import ray.data as rd

    known = rd.from_arrow(pa.table({
        "node": pa.array(seeds, pa.int64()),
        "dist": pa.array(np.zeros(len(seeds), np.int64), pa.int64()),
    })).materialize()
    frontier = known

    for _ in range(rounds):
        cand = (
            tagged_edges.union(_tag_nodes(frontier, 1))
            .groupby("_bucket", num_partitions=n_buckets)
            .map_groups(_relax_bucket, batch_format="pyarrow")
        )
        merged = (
            _tag_nodes(known, 0).union(_tag_nodes(cand, 1))
            .groupby("_bucket", num_partitions=n_buckets)
            .map_groups(_merge_bucket, batch_format="pyarrow")
        ).repartition(n_buckets).materialize()
        frontier = merged.filter(
            expr="improved == True").select_columns(
            ["node", "dist"]).materialize()
        known = merged.select_columns(["node", "dist"])
        if frontier.count() == 0:
            break
        known = known.materialize()

    return known
