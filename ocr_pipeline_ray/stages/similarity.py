"""Similarity search over an embedding column (``list<float>``).

* ``brute_force_topk`` — the exact baseline: the query matrix is
  broadcast ONCE (``ray.put`` / closure capture, read zero-copy by
  every task), each batch does one numpy matmul, emits only its local
  top-k, and a tiny candidate set (blocks × k rows) goes through the
  final sort+limit. The full dataset never concentrates anywhere.
* ``lsh_bucketed_topk`` — the scale path: random-hyperplane signatures
  bucket the vectors; only the query's bucket (± probes) is scanned.
* ``embedding_near_dup_pairs`` — all-pairs cosine ≥ threshold; exact
  at test scale, with the same broadcast-matmul shape per batch.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _round6(x: float) -> float:
    """floor(x*1e6 + 0.5)/1e6 — matches the DuckDB oracle formula."""
    return math.floor(x * 1000000.0 + 0.5) / 1000000.0


def _to_matrix(col) -> np.ndarray:
    """``list<float>`` column → (n, dim) float64 matrix, zero-copy.

    For the common case — non-null fixed-dim embeddings — this reads
    the flat Arrow values buffer directly (``flatten()`` + numpy view
    + reshape): no per-row pylist round trip, no per-vector copies.
    Ragged or null-bearing columns fall back to the slow path.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, (pa.ListArray, pa.LargeListArray,
                        pa.FixedSizeListArray)) and col.null_count == 0:
        n = len(col)
        if n == 0:
            return np.empty((0, 0), dtype=np.float64)
        lengths = np.asarray(pc.list_value_length(col))
        if (lengths == lengths[0]).all():
            flat = col.flatten()  # offset-correct child values
            return np.asarray(flat).astype(
                np.float64, copy=False
            ).reshape(n, int(lengths[0]))
    return np.array(col.to_pylist(), dtype=np.float64)


def _from_matrix(mat: np.ndarray) -> pa.Array:
    """(n, dim) float64 matrix → ``list<double>`` array, zero-copy:
    one flat values buffer plus a uniform offsets vector (no
    per-vector Python lists). Degenerate (0-row / 0-dim) matrices
    yield a valid empty-list array instead of a zero-step arange."""
    n, dim = (mat.shape + (0,))[:2] if mat.ndim == 2 else (0, 0)
    offsets = pa.array(
        (np.arange(n + 1, dtype=np.int32) * dim).astype(np.int32),
        pa.int32(),
    )
    values = pa.array(np.ascontiguousarray(mat).ravel(), pa.float64())
    return pa.ListArray.from_arrays(offsets, values)


def _nonempty_block_refs(ds):
    """Block refs of a MATERIALIZED dataset, skipping zero-row blocks
    (empty input blocks can pass through map_batches un-called and
    carry an empty schema — reading their columns would KeyError)."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(ref)
    return refs


def brute_force_topk(
    ds,
    query_vec: Sequence[float],
    k: int = 10,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_id: Optional[int] = None,
):
    """Exact cosine top-k vs one query vector, float64.

    Returns a Dataset of (id, sim) with sim rounded via ``_round6``
    (ties broken by ascending id in the final sort).
    """
    q = np.asarray(query_vec, dtype=np.float64)
    qn = np.linalg.norm(q)

    def _local_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(batch.column(emb_col))
        if mat.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "sim_exact": pa.array([], pa.float64())})
        sims = (mat @ q) / (np.linalg.norm(mat, axis=1) * qn)
        if exclude_id is not None:
            mask = ids != exclude_id
            ids, sims = ids[mask], sims[mask]
        if len(ids) > k:
            part = np.argpartition(-sims, k)[:k]
            ids, sims = ids[part], sims[part]
        return pa.table({
            id_col: pa.array(ids.tolist(), pa.int64()),
            "sim_exact": pa.array(sims.tolist(), pa.float64()),
        })

    cands = ds.map_batches(_local_topk, batch_format="pyarrow")
    top = cands.sort(key=["sim_exact", id_col], descending=[True, False]).limit(k)

    def _finalize(batch: pa.Table) -> pa.Table:
        sims = [_round6(s) for s in batch.column("sim_exact").to_pylist()]
        return pa.table({
            id_col: batch.column(id_col),
            "sim": pa.array(sims, pa.float64()),
        })

    return top.map_batches(_finalize, batch_format="pyarrow")


def lsh_bucketed_topk(
    ds,
    query_vec: Sequence[float],
    k: int = 10,
    n_planes: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_id: Optional[int] = None,
    probes: int = 2,
):
    """Approximate top-k: random-hyperplane buckets, scan matching ±
    ``probes``-hamming buckets only.

    The plane matrix is seeded+deterministic and closure-broadcast.
    At 10^12 scale this turns a full scan into a bucket-pruned scan;
    recall grows with ``probes``.
    """
    dim = len(query_vec)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, dim))
    q = np.asarray(query_vec, dtype=np.float64)
    q_sig = (planes @ q > 0).astype(np.uint8)

    def _bucket_filter(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(batch.column(emb_col))
        if mat.size == 0:
            return batch
        sigs = (mat @ planes.T > 0).astype(np.uint8)
        ham = (sigs != q_sig[None, :]).sum(axis=1)
        mask = ham <= probes
        if exclude_id is not None:
            mask &= ids != exclude_id
        return batch.filter(pa.array(mask))

    pruned = ds.map_batches(_bucket_filter, batch_format="pyarrow")
    return brute_force_topk(pruned, query_vec, k, id_col, emb_col, exclude_id)


def _norm_blocks(ds, id_col: str, emb_col: str, max_blocks: int):
    """Materialize (id, L2-normalized embedding) compactly in the
    OBJECT STORE and return its block refs — the driver holds only
    refs, never the vectors."""
    def _normalize(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(batch.column(emb_col))
        if mat.size:
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            emb_col: _from_matrix(mat),
        })

    norm = ds.map_batches(_normalize, batch_format="pyarrow").materialize()
    refs = _nonempty_block_refs(norm)
    if len(refs) > max_blocks:
        norm = norm.repartition(max_blocks).materialize()
        refs = _nonempty_block_refs(norm)
    return refs


def embedding_near_dup_pairs(
    ds,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_blocks: int = 24,
):
    """All pairs (v1 < v2) with cosine similarity > threshold — EXACT,
    computed as a distributed block-pair join.

    The normalized matrix lives in the object store as B blocks; a
    Dataset of the B·(B+1)/2 block-index pairs fans out one task per
    pair, each pulling its two blocks zero-copy and doing ONE matmul.
    Nothing materializes on the driver (it holds only block refs), and
    no single task ever sees more than two blocks. Exact all-pairs is
    inherently O(N²) compute — at 10^12 scale use
    :func:`bucketed_near_dup_pairs` (LSH buckets prune the pair space
    at the cost of exactness) and keep this as the verifier inside
    buckets.
    """
    import ray

    refs = _norm_blocks(ds, id_col, emb_col, max_blocks)
    n = len(refs)
    idx_pairs = [{"i": i, "j": j} for i in range(n) for j in range(i, n)]

    def _block_pair(batch: pa.Table) -> pa.Table:
        d1, d2 = [], []
        for i, j in zip(batch.column("i").to_pylist(),
                        batch.column("j").to_pylist()):
            blk_a, blk_b = ray.get([refs[i], refs[j]])
            ids_a = blk_a.column(id_col).combine_chunks().to_numpy()
            ids_b = blk_b.column(id_col).combine_chunks().to_numpy()
            mat_a = _to_matrix(blk_a.column(emb_col))
            mat_b = _to_matrix(blk_b.column(emb_col))
            if not mat_a.size or not mat_b.size:
                continue
            sims = mat_a @ mat_b.T
            r, c = np.where(sims > threshold)
            if i == j:
                keep = r < c  # upper triangle: no self / mirrored pairs
                r, c = r[keep], c[keep]
            lo = np.minimum(ids_a[r], ids_b[c])
            hi = np.maximum(ids_a[r], ids_b[c])
            d1.extend(int(x) for x in lo)
            d2.extend(int(x) for x in hi)
        return pa.table({
            "v1": pa.array(d1, pa.int64()),
            "v2": pa.array(d2, pa.int64()),
        })

    import ray.data

    return ray.data.from_items(idx_pairs).map_batches(
        _block_pair, batch_size=1, batch_format="pyarrow"
    )


def bucketed_near_dup_pairs(
    ds,
    threshold: float = 0.95,
    n_planes: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_bucket: int = 10000,
):
    """Approximate near-dup pairs: hyperplane-signature buckets, then
    exact in-bucket cosine — the 10^12-scale path.

    One groupby shuffle on the 8-bit signature; each bucket does a
    local matmul. Recall < 1 by construction (a pair split across
    buckets is missed) — that is the explicit trade against the
    O(N²) block-pair join of :func:`embedding_near_dup_pairs`.
    """
    def _sign(batch: pa.Table) -> pa.Table:
        # plane matrix rebuilt per worker from the seed — cheap and
        # deterministic, no broadcast needed
        mat = _to_matrix(batch.column(emb_col))
        if not mat.size:
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: pa.array([], pa.list_(pa.float64())),
                             "sig": pa.array([], pa.int64())})
        local_planes = np.random.default_rng(seed).standard_normal(
            (n_planes, mat.shape[1]))
        bits = (mat @ local_planes.T > 0).astype(np.int64)
        sig = bits @ (1 << np.arange(n_planes, dtype=np.int64))
        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        return pa.table({
            id_col: batch.column(id_col),
            emb_col: _from_matrix(norm),
            "sig": pa.array(sig, pa.int64()),
        })

    def _bucket_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows > max_bucket:
            # deterministic truncation: keep the max_bucket smallest
            # ids (shuffle order is run-dependent; a slice of the raw
            # group would drop DIFFERENT ids each run)
            group = group.sort_by([(id_col, "ascending")]).slice(
                0, max_bucket
            )
        ids = group.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(group.column(emb_col))
        empty = pa.table({"v1": pa.array([], pa.int64()),
                          "v2": pa.array([], pa.int64())})
        if len(ids) < 2:
            return empty
        sims = mat @ mat.T
        r, c = np.where(sims > threshold)
        keep = r < c
        r, c = r[keep], c[keep]
        lo = np.minimum(ids[r], ids[c])
        hi = np.maximum(ids[r], ids[c])
        return pa.table({"v1": pa.array(lo, pa.int64()),
                         "v2": pa.array(hi, pa.int64())})

    signed = ds.map_batches(_sign, batch_format="pyarrow")
    return signed.groupby("sig").map_groups(
        _bucket_pairs, batch_format="pyarrow"
    )


def embedding_lsh_recall(
    ds,
    threshold: float = 0.95,
    n_planes: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_blocks: int = 24,
    max_bucket: int = 10000,
):
    """Measured recall of the LSH near-dup path vs its exact twin
    (one row: n_exact, n_lsh, n_common, recall·round6).

    The LSH path ships recall < 1 BY DESIGN; this makes the loss a
    measured number instead of a shrug. Both pair sets are computed
    distributed; only the (int64, int64) pair sets land on the driver
    (bounded by the near-dup count, not the corpus). The plane matmul
    is not SQL-expressible, so this is telemetry (rows-only check).
    """
    exact = {
        (r["v1"], r["v2"])
        for r in embedding_near_dup_pairs(
            ds, threshold, id_col, emb_col, max_blocks
        ).take_all()
    }
    approx = {
        (r["v1"], r["v2"])
        for r in bucketed_near_dup_pairs(
            ds, threshold, n_planes, seed, id_col, emb_col, max_bucket
        ).take_all()
    }
    common = len(exact & approx)
    recall = 1.0 if not exact else _round6(common / len(exact))
    return pa.table({
        "n_exact": pa.array([len(exact)], pa.int64()),
        "n_lsh": pa.array([len(approx)], pa.int64()),
        "n_common": pa.array([common], pa.int64()),
        "recall": pa.array([recall], pa.float64()),
    })


def train_centroids(ds, n_centroids: int = 16, sample_size: int = 2048,
                    n_iters: int = 8, seed: int = 42,
                    id_col: str = "vec_id", emb_col: str = "embedding"):
    """Deterministic mini k-means coarse quantizer (IVF training).

    Trains on a bounded SAMPLE (the first ``sample_size`` rows of the
    dataset — at 10^12 scale the quantizer is always trained on a
    sample and broadcast, never on the corpus), seeded
    initialization, fixed Lloyd iterations, empty clusters keep their
    previous centroid. Returns an (n_centroids, dim) float64 matrix
    of L2-NORMALIZED centroids (cosine ≡ dot on normalized vectors).
    """
    sample = _to_matrix(
        pa.concat_tables([
            b.select([emb_col]) for b in
            ds.limit(sample_size).iter_batches(batch_format="pyarrow")
        ]).column(emb_col)
    )
    if sample.size == 0:
        raise ValueError("cannot train centroids on an empty dataset")
    sample = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    n_centroids = min(n_centroids, len(sample))
    rng = np.random.default_rng(seed)
    centroids = sample[
        rng.choice(len(sample), size=n_centroids, replace=False)
    ].copy()
    for _ in range(n_iters):
        assign = (sample @ centroids.T).argmax(axis=1)
        for c in range(n_centroids):
            members = sample[assign == c]
            if len(members):
                mean = members.mean(axis=0)
                norm = np.linalg.norm(mean)
                if norm > 0:
                    centroids[c] = mean / norm
    return centroids


def ivf_topk(
    ds,
    query_vec: Sequence[float],
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    sample_size: int = 2048,
    seed: int = 42,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_id: Optional[int] = None,
):
    """Approximate top-k via an IVF coarse quantizer (scale path #2).

    A sample-trained k-means quantizer partitions the space into
    ``n_centroids`` inverted lists; the scan keeps only vectors whose
    nearest centroid is among the query's ``nprobe`` closest
    centroids, then exact cosine top-k runs on the pruned set. The
    centroid matrix is closure-broadcast (KBs); each batch does two
    matmuls. Recall < 1 by construction and grows with ``nprobe`` —
    measured by the subset property in pytest (the plane/centroid
    math is not SQL-expressible, so this is a rows-only query like
    the LSH paths). At 10^12 scale the assignment becomes a
    partitioning key: write each inverted list as its own partition
    and the probe reads ``nprobe`` partitions instead of scanning.
    """
    centroids = train_centroids(
        ds, n_centroids, sample_size, seed=seed,
        id_col=id_col, emb_col=emb_col,
    )
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / np.linalg.norm(q)
    order = np.argsort(-(centroids @ q))
    probed = frozenset(int(c) for c in order[:nprobe])

    def _probe_filter(batch: pa.Table) -> pa.Table:
        mat = _to_matrix(batch.column(emb_col))
        if mat.size == 0:
            return batch
        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        assign = (norm @ centroids.T).argmax(axis=1)
        mask = np.isin(assign, list(probed))
        if exclude_id is not None:
            ids = batch.column(id_col).combine_chunks().to_numpy()
            mask &= ids != exclude_id
        return batch.filter(pa.array(mask))

    pruned = ds.map_batches(_probe_filter, batch_format="pyarrow")
    return brute_force_topk(pruned, query_vec, k, id_col, emb_col,
                            exclude_id)


def semantic_dedup(
    ds,
    k: int = 8,
    iters: int = 3,
    threshold: float = 0.5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_cluster: int = 200_000,
    scale: int = None,
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means
    cluster the embedding space, then search for cosine near-dups
    WITHIN each cluster only — the pair space shrinks from O(N²) to
    sum over clusters of O(|c|²), and k is chosen so clusters stay
    small at scale. A row is dropped iff a SAME-CLUSTER neighbor
    with a smaller id exceeds the threshold (the deterministic
    keep-one-representative rule; no RNG, no transitive closure).

    Output: one row per vector — ``(id_col, cluster, keep)``.

    Shape: integer Lloyd's (``stages/kmeans.kmeans_int`` — bit-exact
    centroids) runs first; ONE labeling pass then recomputes the
    final assignment from the broadcast centroid matrix fused with
    L2 normalization, so the cluster groupby is the only exchange
    the vectors ride. In-cluster the kernel is a single matmul +
    lower-triangle any() over ids sorted ascending. A cluster
    larger than ``max_cluster`` raises (never a silent cap) — at
    real scale raise k, which is the algorithm's own knob.
    """
    from .kmeans import DEFAULT_SCALE, _assign, kmeans_int, \
        quantize_batch

    if scale is None:
        scale = DEFAULT_SCALE
    _, centroids = kmeans_int(ds, k=k, iters=iters, scale=scale,
                              id_col=id_col, emb_col=emb_col)

    def _label_norm(batch: pa.Table) -> pa.Table:
        mat = _to_matrix(batch.column(emb_col))
        if not mat.size:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                emb_col: pa.array([], pa.list_(pa.float64())),
            })
        qmat = quantize_batch(batch.column(emb_col), scale)
        cl = _assign(qmat, centroids)
        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(cl.astype(np.int64), pa.int64()),
            emb_col: _from_matrix(norm),
        })

    def _cluster_dedup(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                "keep": pa.array([], pa.bool_()),
            })
        if group.num_rows > max_cluster:
            raise ValueError(
                f"semantic_dedup: cluster of {group.num_rows} rows "
                f"exceeds max_cluster={max_cluster}; raise k")
        g = group.sort_by([(id_col, "ascending")])
        ids = g.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(g.column(emb_col))
        sims = mat @ mat.T
        dup = np.tril(sims > threshold, -1).any(axis=1)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "cluster": g.column("cluster"),
            "keep": pa.array(~dup, pa.bool_()),
        })

    labeled = ds.map_batches(_label_norm, batch_format="pyarrow")
    return labeled.groupby("cluster").map_groups(
        _cluster_dedup, batch_format="pyarrow")


def scalar_quantize(ds, emb_col: str = "embedding", id_col: str = "vec_id",
                    scale: int = 1_000_000, levels: int = 255):
    """Int8-style SCALAR QUANTIZATION of an embedding column — the
    standard 4× memory-compression step before a 100-TB ANN index
    (each float32 dimension becomes one code in ``0..levels``).

    Exact-integer design so the result is bit-reproducible and
    SQL-oracle-checkable: values are first fixed-pointed to int64
    (``x = floor(v * scale)``, the `stages/kmeans.py` trick), then

        code_d = round((x_d - mn_d) * levels / (mx_d - mn_d))

    evaluated as ``((x-mn)*2*levels + rng) // (2*rng)`` — pure int64,
    no float rounding divergence. Constant dimensions (rng = 0) code
    to 0.

    Scale shape: pass 1 is SHUFFLE-FREE — each block emits one
    (mn, mx) per-dimension partial row, and the blocks-scale partial
    set is folded on the driver (Ray's groupby barrier costs more
    than the fold for a dim-sized vector; see BASELINE notes). Pass 2
    is map-only: the dim-sized (mn, rng) arrays are closure-broadcast
    to every task (bytes, not a shuffle) and each batch encodes with
    three vectorized int64 ops. The dataset streams twice but never
    concentrates.

    Returns ``(id_col, codes: list<int64>, n_dims: int64)``.
    """
    import ray

    def _fixed_point(tbl_col) -> np.ndarray:
        return np.floor(_to_matrix(tbl_col) * float(scale)).astype(np.int64)

    def _minmax_partial(batch: pa.Table) -> pa.Table:
        x = _fixed_point(batch.column(emb_col))
        if x.size == 0:
            return pa.table({"mn": pa.array([], pa.list_(pa.int64())),
                             "mx": pa.array([], pa.list_(pa.int64()))})
        return pa.table({
            "mn": pa.array([x.min(axis=0).tolist()], pa.list_(pa.int64())),
            "mx": pa.array([x.max(axis=0).tolist()], pa.list_(pa.int64())),
        })

    mn = mx = None
    for row in ds.map_batches(
            _minmax_partial, batch_format="pyarrow").iter_rows():
        bmn = np.asarray(row["mn"], dtype=np.int64)
        bmx = np.asarray(row["mx"], dtype=np.int64)
        mn = bmn if mn is None else np.minimum(mn, bmn)
        mx = bmx if mx is None else np.maximum(mx, bmx)
    if mn is None:
        raise ValueError("scalar_quantize: empty dataset")
    rng = mx - mn

    def _encode(batch: pa.Table) -> pa.Table:
        x = _fixed_point(batch.column(emb_col))
        n, dim = x.shape
        num = (x - mn) * (2 * levels)
        codes = np.where(rng > 0, (num + rng) // (2 * rng), 0)
        offsets = pa.array(
            (np.arange(n + 1, dtype=np.int64) * dim).astype(np.int32))
        lst = pa.ListArray.from_arrays(
            offsets, pa.array(codes.reshape(-1), pa.int64()))
        return pa.table({
            id_col: batch.column(id_col),
            "codes": lst,
            "n_dims": pa.array(np.full(n, dim, dtype=np.int64), pa.int64()),
        })

    return ds.map_batches(_encode, batch_format="pyarrow")


def mutual_nn_pairs(ds_a, ds_b, id_col: str = "vec_id",
                    emb_col: str = "embedding", max_blocks: int = 16,
                    n_buckets: int = 64):
    """MUTUAL nearest-neighbor pairs across two embedding sets — the
    bitext-mining / cross-snapshot alignment primitive (Artetxe &
    Schwenk's margin-mining keeps a candidate only when the match is
    reciprocal): ``(a, b)`` such that b is a's cosine-NN in B AND a
    is b's cosine-NN in A. One-directional NN drags every vector to a
    hub; mutuality is the standard hub filter.

    Scale shape: both sides normalize into object-store blocks
    (driver holds refs); one task per (i, j) block pair does ONE
    matmul and reduces it LOCALLY to per-row best-candidate partials
    (argmax is associative), so the exchange carries 2·|A∪B| partial
    rows per block pair, never the similarity matrix. A key-hash
    groupby arg-max (stats.grouped_argmax) finishes each direction,
    and one pair-scale co-shuffle join keeps the reciprocal rows.

    Exactness: similarities are quantized to the repo-wide 1e-6 grid
    BEFORE any argmax (int64 thereafter), so tie-breaks (smaller id
    wins) and fold order are bit-deterministic and SQL-replicable.
    Output: ``(a_id, b_id, sim)`` with sim on the grid.
    """
    import ray
    import ray.data

    from .join import repartition_join
    from .stats import grouped_argmax

    refs_a = _norm_blocks(ds_a, id_col, emb_col, max_blocks)
    refs_b = _norm_blocks(ds_b, id_col, emb_col, max_blocks)
    idx_pairs = [{"i": i, "j": j}
                 for i in range(len(refs_a))
                 for j in range(len(refs_b))]

    def _block_pair(batch: pa.Table) -> pa.Table:
        skeys, cands, sqs = [], [], []
        for i, j in zip(batch.column("i").to_pylist(),
                        batch.column("j").to_pylist()):
            blk_a, blk_b = ray.get([refs_a[i], refs_b[j]])
            ids_a = blk_a.column(id_col).combine_chunks().to_numpy()
            ids_b = blk_b.column(id_col).combine_chunks().to_numpy()
            mat_a = _to_matrix(blk_a.column(emb_col))
            mat_b = _to_matrix(blk_b.column(emb_col))
            if not mat_a.size or not mat_b.size:
                continue
            # candidate axes sorted by id so argmax's first-max rule
            # IS the smallest-id tie-break
            oa, ob = np.argsort(ids_a), np.argsort(ids_b)
            ids_a, mat_a = ids_a[oa], mat_a[oa]
            ids_b, mat_b = ids_b[ob], mat_b[ob]
            sq = np.floor(
                (mat_a @ mat_b.T) * 1e6 + 0.5).astype(np.int64)
            best_b = np.argmax(sq, axis=1)
            skeys.append(ids_a * 2)
            cands.append(ids_b[best_b])
            sqs.append(sq[np.arange(len(ids_a)), best_b])
            best_a = np.argmax(sq, axis=0)
            skeys.append(ids_b * 2 + 1)
            cands.append(ids_a[best_a])
            sqs.append(sq[best_a, np.arange(len(ids_b))])
        if not skeys:
            return pa.table({
                "skey": pa.array([], pa.int64()),
                "sq": pa.array([], pa.int64()),
                "cand": pa.array([], pa.int64()),
            })
        return pa.table({
            "skey": pa.array(np.concatenate(skeys), pa.int64()),
            "sq": pa.array(np.concatenate(sqs), pa.int64()),
            "cand": pa.array(np.concatenate(cands), pa.int64()),
        })

    partials = ray.data.from_items(idx_pairs).map_batches(
        _block_pair, batch_size=1, batch_format="pyarrow")
    # consumed twice (one projection per direction): pin the id-scale
    # arg-max result in the object store so the block-pair matmul
    # plan does not re-execute per consumer
    best = grouped_argmax(partials, "skey", "sq", "cand",
                          n_buckets=n_buckets).materialize()

    def _a_side(batch: pa.Table) -> pa.Table:
        sk = batch.column("skey").to_numpy()
        m = sk % 2 == 0
        return pa.table({
            "a_id": pa.array(sk[m] // 2, pa.int64()),
            "b_id": batch.column("cand").filter(pa.array(m)),
            "sq": batch.column("sq").filter(pa.array(m)),
        })

    def _b_side(batch: pa.Table) -> pa.Table:
        sk = batch.column("skey").to_numpy()
        m = sk % 2 == 1
        return pa.table({
            "b_id": pa.array(sk[m] // 2, pa.int64()),
            "a_back": batch.column("cand").filter(pa.array(m)),
        })

    a_best = best.map_batches(_a_side, batch_format="pyarrow")
    b_best = best.map_batches(_b_side, batch_format="pyarrow")
    joined = repartition_join(a_best, b_best, on="b_id",
                              n_buckets=n_buckets)

    def _mutual(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("a_id"), batch.column("a_back"))
        sub = batch.filter(keep)
        return pa.table({
            "a_id": sub.column("a_id"),
            "b_id": sub.column("b_id"),
            "sim": pc.divide(
                pc.cast(sub.column("sq"), pa.float64()), 1e6),
        })

    return joined.map_batches(_mutual, batch_format="pyarrow")


def kcenter_select(ds, k: int = 4, id_col: str = "vec_id",
                   emb_col: str = "embedding"):
    """Greedy k-CENTER (farthest-point) coreset selection over an
    embedding column — the classic 2-approximation (Gonzalez 1985)
    used for DIVERSE training-subset picking: start from the
    smallest-id vector, then repeatedly take the point LEAST similar
    to every already-chosen center (cosine; ties → smallest id).
    Complements k-means (which averages) and semantic_dedup (which
    removes): this SELECTS spread-out exemplars.

    Scale shape per round: the centers picked so far (≤ k rows —
    driver state by design, like k-means centroids) broadcast into a
    map-only scan; each block emits ONE local candidate (its argmin
    of max-similarity-to-centers), and a candidate-scale sort+limit
    picks the global winner. Similarities are quantized to the 1e-6
    grid BEFORE min/argmax so every comparison is int64 — the greedy
    trajectory is bit-deterministic and SQL-replicable. k scans
    total; nothing input-scale ever concentrates.

    Returns a driver-side ``(round, vec_id)`` pyarrow Table.
    """
    import ray.data  # noqa: F401  (plan construction)

    def _normalize(batch: pa.Table) -> pa.Table:
        mat = _to_matrix(batch.column(emb_col))
        if mat.size:
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        return pa.table({
            id_col: pc.cast(batch.column(id_col), pa.int64()),
            emb_col: _from_matrix(mat),
        })

    norm = ds.map_batches(_normalize, batch_format="pyarrow") \
             .materialize()
    first_id = norm.min(id_col)
    first_row = norm.filter(
        expr=f"{id_col} == {int(first_id)}").take(1)[0]
    centers = [(int(first_id), np.asarray(first_row[emb_col],
                                          dtype=np.float64))]

    n_total = norm.count()
    for _ in range(1, min(k, n_total)):
        cmat = np.stack([v for _, v in centers])
        chosen = np.array([i for i, _ in centers], dtype=np.int64)

        def _local_best(batch: pa.Table, cmat=cmat, chosen=chosen):
            empty = pa.table({
                id_col: pa.array([], pa.int64()),
                "m": pa.array([], pa.int64()),
                emb_col: batch.column(emb_col).slice(0, 0),
            })
            ids = batch.column(id_col).combine_chunks().to_numpy()
            keep = ~np.isin(ids, chosen)
            if not keep.any():
                return empty
            mat = _to_matrix(batch.column(emb_col))[keep]
            ids = ids[keep]
            sq = np.floor(
                (mat @ cmat.T) * 1e6 + 0.5).astype(np.int64)
            m = sq.max(axis=1)
            order = np.lexsort((ids, m))
            b = order[0]
            src_idx = np.flatnonzero(keep)[b]
            return pa.table({
                id_col: pa.array([ids[b]], pa.int64()),
                "m": pa.array([m[b]], pa.int64()),
                emb_col: batch.column(emb_col).take(
                    pa.array([src_idx], pa.int64())),
            })

        cand = norm.map_batches(_local_best, batch_format="pyarrow")
        win = cand.sort(["m", id_col]).take(1)
        if not win:
            break
        row = win[0]
        centers.append((int(row[id_col]),
                        np.asarray(row[emb_col], dtype=np.float64)))

    return pa.table({
        "round": pa.array(range(len(centers)), pa.int64()),
        id_col: pa.array([i for i, _ in centers], pa.int64()),
    })


def seed_filter(ds, seeds, threshold: float, id_col: str = "vec_id",
                emb_col: str = "embedding"):
    """Seed-set SEMANTIC blocklist — embedding-level decontamination:
    every row scores its MAX cosine against a small set of seed
    embeddings (eval-set exemplars, unsafe-topic centroids, known-bad
    pages) and rows above ``threshold`` are flagged for removal.
    Embedding similarity catches rewrites that a shared-shingle
    check, which sees only verbatim leakage, misses; it is also the
    exemplar-driven topic scrubber.

    100-TB shape: the seed matrix is tiny by construction and ships
    ONCE in the task closure; each batch does one (rows × seeds)
    matmul and a row max — scan speed, NO shuffle, corpus never
    moves. Output keeps EVERY row with ``(id, max_sim, kept)`` so
    the gate is auditable (and `filter_cascade`-composable);
    ``max_sim`` is quantized to the repo-wide 1e-6 grid BEFORE the
    threshold compare so the kept decision is bit-stable against
    the SQL twin.
    """
    s = np.asarray(seeds, dtype=np.float64)
    sn = np.linalg.norm(s, axis=1)
    thr = float(threshold)

    def _score(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(batch.column(emb_col))
        if mat.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "max_sim": pa.array([], pa.float64()),
                             "kept": pa.array([], pa.bool_())})
        sims = (mat @ s.T) / (
            np.linalg.norm(mat, axis=1)[:, None] * sn[None, :])
        mx = np.floor(sims.max(axis=1) * 1e6 + 0.5) / 1e6
        return pa.table({
            id_col: pa.array(ids.tolist(), pa.int64()),
            "max_sim": pa.array(mx, pa.float64()),
            "kept": pa.array(~(mx > thr), pa.bool_()),
        })

    return ds.map_batches(_score, batch_format="pyarrow")


def hard_negatives(ds, anchors, lo: float, hi: float, k: int = 5,
                   id_col: str = "vec_id", emb_col: str = "embedding"):
    """HARD-NEGATIVE mining for retrieval/embedding training: for
    each anchor vector, the top-``k`` corpus vectors whose cosine
    falls in the band ``(lo, hi]`` — similar enough to be confusable
    (hard), below the near-dup line (negative: ``hi`` excludes
    positives/duplicates). The standard contrastive-training data
    op (DPR/SimCSE-style mining).

    ``anchors`` is a small ``[(anchor_id, vector), ...]`` list —
    anchor sets are query/exemplar-scale by construction — shipped
    ONCE in the task closure. Per batch: one (rows × anchors)
    matmul, band mask, per-anchor local top-k by argpartition; the
    global finish sorts only ``blocks × anchors × k`` candidate
    rows. No shuffle of the corpus. Sims are quantized to the 1e-6
    grid BEFORE the band compare and ranking (ties then break to
    ascending id), so selection is bit-stable vs the SQL twin.

    Output: ``(anchor_id, vec_id, sim)``, the global top-k per
    anchor, sorted ``(anchor_id, sim desc, vec_id)``.
    """
    a_ids = [int(a) for a, _ in anchors]
    A = np.asarray([v for _, v in anchors], dtype=np.float64)
    an = np.linalg.norm(A, axis=1)
    lo_f, hi_f = float(lo), float(hi)

    def _local(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "anchor_id": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64()),
        })
        ids = batch.column(id_col).combine_chunks().to_numpy()
        mat = _to_matrix(batch.column(emb_col))
        if mat.size == 0:
            return empty
        sims = (mat @ A.T) / (
            np.linalg.norm(mat, axis=1)[:, None] * an[None, :])
        sims = np.floor(sims * 1e6 + 0.5) / 1e6  # grid BEFORE band
        out_a, out_i, out_s = [], [], []
        for j, aid in enumerate(a_ids):
            col = sims[:, j]
            band = (col > lo_f) & (col <= hi_f) & (ids != aid)
            bi, bs = ids[band], col[band]
            if len(bi) > k:
                # top-k by (sim desc, id asc) — lexsort on the grid
                order = np.lexsort((bi, -bs))[:k]
                bi, bs = bi[order], bs[order]
            out_a.extend([aid] * len(bi))
            out_i.extend(bi.tolist())
            out_s.extend(bs.tolist())
        return pa.table({
            "anchor_id": pa.array(out_a, pa.int64()),
            id_col: pa.array(out_i, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        })

    cands = ds.map_batches(_local, batch_format="pyarrow")

    def _finish(group: pa.Table) -> pa.Table:
        g = group.sort_by([("anchor_id", "ascending"),
                           ("sim", "descending"),
                           (id_col, "ascending")])
        a = g.column("anchor_id").combine_chunks().to_numpy()
        n = len(a)
        if n == 0:
            return g
        first = np.r_[True, a[1:] != a[:-1]]
        grp_start = np.flatnonzero(first)
        rank = np.arange(n) - np.repeat(
            grp_start, np.diff(np.append(grp_start, n)))
        return g.filter(pa.array(rank < k))

    # candidates are anchors×k×blocks — tiny; one-partition finish
    return cands.repartition(1).map_batches(
        _finish, batch_format="pyarrow", batch_size=None)


# --------------------------------------- random projection (JL) codes

def _rp_sign_matrix(d_in: int, d_out: int) -> np.ndarray:
    """Deterministic ±1 projection matrix: sign(j,k) = +1 when the
    first hex char of md5('j:k') is 0-7 (1-based indices — the SQL
    twin's generate_subscripts convention). No RNG; every worker
    rebuilds the same matrix from the formula."""
    import hashlib

    m = np.empty((d_in, d_out), np.int64)
    for j in range(1, d_in + 1):
        for k in range(1, d_out + 1):
            h = hashlib.md5(f"{j}:{k}".encode()).hexdigest()
            m[j - 1, k - 1] = 1 if int(h[0], 16) < 8 else -1
    return m


_RP_CACHE: dict = {}


def random_projection(ds, d_out: int = 16,
                      scale: int = 1_000_000,
                      id_col: str = "vec_id",
                      vec_col: str = "embedding"):
    """Johnson-Lindenstrauss ±1 random projection — the
    dimensionality-reduction front end for ANN / clustering at scale
    (Achlioptas 2003 database-friendly projections).

    All-integer: inputs floor-quantize to int64 (the `kmeans_int`
    rule) and the ±1 matrix makes each output an exact int64 dot —
    summation order cannot perturb it, so the unnest-join SQL twin is
    bit-exact. Row-local, NO shuffle: the (d_in × d_out) sign matrix
    is formula-derived per worker (memoized), never shipped.

    Output: one row per (vec_id, dim 1..d_out) with the projected
    int64 code — the exploded layout the oracle gate hashes.
    """
    def _project(batch: pa.Table) -> pa.Table:
        mat = _to_matrix(batch.column(vec_col))
        q = np.floor(mat * scale).astype(np.int64)
        d_in = q.shape[1]
        key = (d_in, d_out)
        if key not in _RP_CACHE:
            _RP_CACHE[key] = _rp_sign_matrix(d_in, d_out)
        codes = q @ _RP_CACHE[key]
        n = len(q)
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        return pa.table({
            id_col: pa.array(np.repeat(ids, d_out), pa.int64()),
            "dim": pa.array(
                np.tile(np.arange(1, d_out + 1, dtype=np.int64), n),
                pa.int64()),
            "x": pa.array(codes.reshape(-1), pa.int64()),
        })

    return ds.map_batches(_project, batch_format="pyarrow")


def embedding_second_moment(ds, scale: int = 1_000_000,
                            vec_col: str = "embedding"):
    """Distributed second-moment (Gram) matrix ``Σ x xᵀ`` over the
    embedding corpus — the sufficient statistic for covariance / PCA
    / whitening. NO shuffle: every block reduces to ONE (d × d)
    int64 matrix (``Qᵀ Q`` over floor-quantized vectors — the
    `kmeans_int` rule, so sums are exact and order-free) and the
    driver folds blocks-scale matrices; only the upper triangle is
    emitted as ``(i, j, s)`` rows (1-based dims, the
    generate_subscripts convention).

    int64 bound: |q| ≤ scale ⇒ each cell ≤ scale² · n_rows; at
    10^9+ rows drop ``scale`` to 10^3 or fold per-shard partials
    into Python ints (driver fold here already is exact).
    """
    import ray.data

    acc: dict = {}

    def _partial(batch: pa.Table) -> pa.Table:
        q = np.floor(_to_matrix(batch.column(vec_col)) * scale
                     ).astype(np.int64)
        g = q.T @ q
        d = g.shape[0]
        return pa.table({
            "d": pa.array([d], pa.int64()),
            "g": pa.array([g.reshape(-1).tobytes()], pa.binary()),
        })

    dim = None
    total = None
    for b in ds.map_batches(_partial,
                            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for d, payload in zip(b.column("d").to_pylist(),
                              b.column("g").to_pylist()):
            m = np.frombuffer(payload, np.int64).reshape(d, d)
            if total is None:
                dim, total = d, m.astype(object)
            else:
                if d != dim:
                    raise ValueError("ragged embedding dims")
                total = total + m  # object dtype: exact Python ints
    if total is None:
        return ray.data.from_arrow(pa.table({
            "i": pa.array([], pa.int64()),
            "j": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64())}))
    iu, ju = np.triu_indices(dim)
    return ray.data.from_arrow(pa.table({
        "i": pa.array(iu + 1, pa.int64()),
        "j": pa.array(ju + 1, pa.int64()),
        "s": pa.array([int(total[a, b]) for a, b in zip(iu, ju)],
                      pa.int64()),
    }))
