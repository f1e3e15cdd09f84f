"""Full-corpus distributed k-means (Lloyd's) over an embedding column.

The similarity module already trains a SAMPLE-based coarse quantizer
for IVF (``similarity.train_centroids``) — the right tool when the
quantizer only routes probes. Clustering the corpus itself (topic
bucketing, dedup-block seeding, curriculum binning) needs the full
Lloyd iteration over EVERY row, which is the textbook
broadcast-partials shape and involves **no shuffle at all**:

  per iteration: ONE ``map_batches`` pass over the corpus — each
  block computes nearest-centroid assignments against the
  closure-broadcast (k × dim) centroid matrix and emits a k-row
  partial ``(cluster, element-wise int64 sums, count)`` table; the
  driver merges blocks × k tiny partials and divides. Nothing
  corpus-sized ever moves: the only cross-node traffic is k×(dim+1)
  int64s per block per iteration.

Determinism: float means are summation-order-dependent, so this
runs in pure int64 — embeddings are quantized ONCE via
``floor(float64(x) * scale)``, distances are exact integer squared-L2, and the centroid update is
truncating integer division (matching DuckDB's ``//``). The result
is bit-exact against a chained-CTE SQL twin regardless of block
layout, batch order, or worker count.

Init is deterministic too: centroids 0..k-1 are the quantized
vectors of the k smallest ids (found with a per-block bottom-k +
tiny driver merge — no global sort).

Scale notes (10^12 rows): the iteration input is the column-pruned
``(id, qvec)`` projection; ``cache=True`` materializes it once in
the object store so iterations don't re-read Parquet (the standard
iterative-ML trade — at 100 TB either the projection fits the
aggregate object store, spilling handles the remainder, or pass
``cache=False`` to re-scan per iteration). Empty clusters keep
their previous centroid (same rule as ``train_centroids``).

Reference analogue: none — the reference pipeline
(/root/reference/ocr_pipeline.py) has no clustering; this is part
of the training-data extension surface alongside IVF-ANN.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .similarity import _to_matrix


def _int_list_array(mat: np.ndarray) -> pa.Array:
    """(n, dim) int64 -> list<int64> array from one flat buffer (no
    per-row Python lists)."""
    n, dim = (mat.shape + (0,))[:2] if mat.ndim == 2 else (0, 0)
    offsets = pa.array(
        (np.arange(n + 1, dtype=np.int32) * dim).astype(np.int32),
        pa.int32(),
    )
    values = pa.array(np.ascontiguousarray(mat).ravel(), pa.int64())
    return pa.ListArray.from_arrays(offsets, values)

DEFAULT_SCALE = 1_000_000


def _int_matrix(col) -> np.ndarray:
    """``list<int64>`` column -> (n, dim) int64, zero-copy flat view
    (same fast path as ``similarity._to_matrix`` without the float64
    round trip)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=np.int64)
    lengths = np.asarray(pc.list_value_length(col))
    flat = np.asarray(col.flatten())
    return flat.astype(np.int64, copy=False).reshape(n, int(lengths[0]))


def _trunc_div(s: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """int64 division truncating toward zero (DuckDB ``//`` parity).

    numpy ``//`` floors; DuckDB truncates. cnt > 0 always here.
    """
    return np.sign(s) * (np.abs(s) // cnt)


def quantize_batch(col, scale: int = DEFAULT_SCALE) -> np.ndarray:
    """list<float> column -> (n, dim) int64 via floor(float64(x)*scale).

    float32 -> float64 cast then one float64 multiply then floor:
    the exact same IEEE sequence DuckDB runs for
    ``CAST(floor(CAST(x AS DOUBLE) * scale) AS BIGINT)``.
    """
    mat = _to_matrix(col)
    return np.floor(mat * float(scale)).astype(np.int64)


def _bottom_k_rows(proj, k: int, id_col: str) -> np.ndarray:
    """Quantized vectors of the k smallest ids, no global sort.

    Scans the (id, qvec) projection: per-block bottom-k partials
    (k rows each) -> tiny driver merge.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "qvec": _int_list_array(np.empty((0, 0), np.int64))})
        take = np.argsort(ids, kind="stable")[:k]
        q = _int_matrix(batch.column("qvec"))[take]
        return pa.table({
            id_col: pa.array(ids[take], pa.int64()),
            "qvec": _int_list_array(q),
        })

    parts = proj.map_batches(_partial, batch_format="pyarrow").take_all()
    parts.sort(key=lambda r: r[id_col])
    if len(parts) < k:
        raise ValueError(f"need >= {k} rows to init {k} centroids")
    return np.asarray([r["qvec"] for r in parts[:k]], dtype=np.int64)


def _assign(qmat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row; ties -> lowest cluster index.

    Exact integer squared-L2 via the expansion ||v||^2 - 2 v.c +
    ||c||^2; the per-row ||v||^2 term is constant across clusters so
    argmin over (-2 v.c + ||c||^2) preserves both the order and the
    ties of the full distance (all int64, exact).
    """
    cross = qmat @ centroids.T                       # (n, k) int64
    score = (centroids * centroids).sum(axis=1)[None, :] - 2 * cross
    return score.argmin(axis=1)


def kmeans_int(
    ds,
    k: int = 8,
    iters: int = 3,
    scale: int = DEFAULT_SCALE,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    cache: bool = True,
):
    """Distributed integer Lloyd's k-means.

    Returns ``(assignments, centroids)``: ``assignments`` is a
    Dataset of ``(id_col, cluster)`` for every input row after
    ``iters`` iterations; ``centroids`` is the final (k, dim) int64
    matrix (driver-side — it IS driver state, k×dim ints).
    """

    def _project(batch: pa.Table) -> pa.Table:
        q = quantize_batch(batch.column(emb_col), scale)
        return pa.table({
            id_col: batch.column(id_col),
            "qvec": _int_list_array(q),
        })

    proj = ds.map_batches(_project, batch_format="pyarrow")
    if cache:
        proj = proj.materialize()

    centroids = _bottom_k_rows(proj, k, id_col)
    dim = centroids.shape[1]

    for _ in range(iters):
        cents = centroids  # rebind for closure capture by value

        def _partials(batch: pa.Table, *, _c=cents) -> pa.Table:
            qmat = _int_matrix(batch.column("qvec"))
            if qmat.size == 0:
                return pa.table({
                    "cluster": pa.array([], pa.int64()),
                    "vsum": _int_list_array(np.empty((0, 0), np.int64)),
                    "cnt": pa.array([], pa.int64()),
                })
            assign = _assign(qmat, _c)
            sums = np.zeros((k, dim), dtype=np.int64)
            np.add.at(sums, assign, qmat)
            cnt = np.bincount(assign, minlength=k).astype(np.int64)
            keep = cnt > 0
            return pa.table({
                "cluster": pa.array(np.flatnonzero(keep), pa.int64()),
                "vsum": _int_list_array(sums[keep]),
                "cnt": pa.array(cnt[keep], pa.int64()),
            })

        rows = proj.map_batches(
            _partials, batch_format="pyarrow").take_all()
        sums = np.zeros((k, dim), dtype=np.int64)
        cnt = np.zeros(k, dtype=np.int64)
        for r in rows:
            c = r["cluster"]
            sums[c] += np.asarray(r["vsum"], dtype=np.int64)
            cnt[c] += r["cnt"]
        nxt = centroids.copy()
        nz = cnt > 0
        nxt[nz] = _trunc_div(sums[nz], cnt[nz, None])
        centroids = nxt

    final = centroids

    def _label(batch: pa.Table) -> pa.Table:
        qmat = _int_matrix(batch.column("qvec"))
        if qmat.size == 0:
            return pa.table({id_col: batch.column(id_col),
                             "cluster": pa.array([], pa.int64())})
        assign = _assign(qmat, final)
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(assign.astype(np.int64), pa.int64()),
        })

    return proj.map_batches(_label, batch_format="pyarrow"), centroids


def pq_codes(
    ds,
    m: int = 4,
    k: int = 4,
    iters: int = 2,
    scale: int = DEFAULT_SCALE,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    cache: bool = True,
):
    """PRODUCT QUANTIZATION: per-subspace integer k-means codebooks
    (Jégou et al., TPAMI 2011) — the memory side of billion-vector
    ANN (m codes of log2(k) bits replace dim float32s; ADC search
    scans codes against a per-query distance table).

    Reuses the :func:`kmeans_int` exact-integer machinery so the
    codebooks AND codes are bit-reproducible and SQL-twin-checkable.
    All m subspaces train SIMULTANEOUSLY: per iteration ONE
    ``map_batches`` pass emits (subspace, cluster, int sums, count)
    partials for every subspace — m× fewer passes than training each
    codebook separately, still zero shuffle. Init per subspace = the
    dim-slices of the k smallest ids' quantized vectors (the
    `kmeans_int` rule applied per slice).

    Returns ``(codes_ds, codebooks)``: codes_ds has ``id_col`` plus
    int64 columns ``code_0..code_{m-1}``; codebooks is the list of m
    (k, dim/m) int64 centroid matrices (driver state by design).
    """

    def _project(batch: pa.Table) -> pa.Table:
        q = quantize_batch(batch.column(emb_col), scale)
        return pa.table({
            id_col: batch.column(id_col),
            "qvec": _int_list_array(q),
        })

    proj = ds.map_batches(_project, batch_format="pyarrow")
    if cache:
        proj = proj.materialize()

    seed = _bottom_k_rows(proj, k, id_col)
    dim = seed.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    w = dim // m
    cents = [seed[:, j * w:(j + 1) * w].copy() for j in range(m)]

    for _ in range(iters):
        snap = [c.copy() for c in cents]

        def _partials(batch: pa.Table, *, _c=snap) -> pa.Table:
            qmat = _int_matrix(batch.column("qvec"))
            if qmat.size == 0:
                return pa.table({
                    "sub": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "vsum": _int_list_array(np.empty((0, 0), np.int64)),
                    "cnt": pa.array([], pa.int64()),
                })
            subs, cls, sums_l, cnts_l = [], [], [], []
            for j in range(m):
                sub = qmat[:, j * w:(j + 1) * w]
                a = _assign(sub, _c[j])
                sums = np.zeros((k, w), dtype=np.int64)
                np.add.at(sums, a, sub)
                cnt = np.bincount(a, minlength=k).astype(np.int64)
                keep = np.flatnonzero(cnt > 0)
                subs.append(np.full(len(keep), j, np.int64))
                cls.append(keep.astype(np.int64))
                sums_l.append(sums[keep])
                cnts_l.append(cnt[keep])
            return pa.table({
                "sub": pa.array(np.concatenate(subs), pa.int64()),
                "cluster": pa.array(np.concatenate(cls), pa.int64()),
                "vsum": _int_list_array(np.vstack(sums_l)),
                "cnt": pa.array(np.concatenate(cnts_l), pa.int64()),
            })

        rows = proj.map_batches(
            _partials, batch_format="pyarrow").take_all()
        sums = np.zeros((m, k, w), dtype=np.int64)
        cnt = np.zeros((m, k), dtype=np.int64)
        for r in rows:
            sums[r["sub"], r["cluster"]] += np.asarray(
                r["vsum"], dtype=np.int64)
            cnt[r["sub"], r["cluster"]] += r["cnt"]
        for j in range(m):
            nz = cnt[j] > 0
            cents[j][nz] = _trunc_div(sums[j][nz], cnt[j][nz, None])

    final = [c.copy() for c in cents]

    def _label(batch: pa.Table) -> pa.Table:
        qmat = _int_matrix(batch.column("qvec"))
        cols = {id_col: batch.column(id_col)}
        for j in range(m):
            if qmat.size:
                a = _assign(qmat[:, j * w:(j + 1) * w],
                            final[j]).astype(np.int64)
            else:
                a = np.empty(0, np.int64)
            cols[f"code_{j}"] = pa.array(a, pa.int64())
        return pa.table(cols)

    return proj.map_batches(_label, batch_format="pyarrow"), final


def pq_adc_topk(codes_ds, codebooks, query_vec, k: int = 10,
                scale: int = DEFAULT_SCALE, id_col: str = "vec_id",
                exclude_id=None):
    """ADC (asymmetric distance computation) top-k over PQ codes —
    the search side of product quantization: the query is quantized
    ONCE into an (m × k_codes) integer distance table on the driver,
    and each batch scores rows with m table lookups + adds (no
    float math, no full vectors touched). Exact-integer, so the
    ranking is bit-reproducible and SQL-twin-checkable.

    Tie handling: ADC distances collide often (only k_codes^m
    distinct code combinations exist), so the local top-k is an exact
    ``(dist, id)`` lexsort prefix — a plain argpartition on dist
    could drop a row that ties at the k-th distance but wins on id.
    Candidates = blocks × k rows; one tiny global sort + limit.

    Returns a Dataset of ``(id_col, adc_dist:int64)``, ascending
    ``(adc_dist, id)``.
    """
    m = len(codebooks)
    w = codebooks[0].shape[1]
    q = np.floor(
        np.asarray(query_vec, dtype=np.float64) * float(scale)
    ).astype(np.int64)
    if len(q) != m * w:
        raise ValueError(f"query dim {len(q)} != m*w = {m * w}")
    dt = np.stack([
        ((book - q[j * w:(j + 1) * w][None, :]) ** 2).sum(axis=1)
        for j, book in enumerate(codebooks)
    ])  # (m, k_codes) int64

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "adc_dist": pa.array([], pa.int64())})

    def _local(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return empty
        dist = np.zeros(len(ids), dtype=np.int64)
        for j in range(m):
            codes = batch.column(f"code_{j}").combine_chunks(
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            dist += dt[j][codes]
        if exclude_id is not None:
            mask = ids != exclude_id
            ids, dist = ids[mask], dist[mask]
        if len(ids) > k:
            order = np.lexsort((ids, dist))[:k]
            ids, dist = ids[order], dist[order]
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "adc_dist": pa.array(dist, pa.int64()),
        })

    cands = codes_ds.map_batches(_local, batch_format="pyarrow")
    return cands.sort(key=["adc_dist", id_col]).limit(k)
