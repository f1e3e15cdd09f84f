"""Deterministic scale-up generator: sf0.1 -> sf1 (or any factor).

The driver ships sf{0.001,0.01,0.1}; the sf1 verification scale is
synthesized locally (no external data, no RNG) by universe
replication: copy ``k`` of a base table shifts every entity key by
``k * STRIDE`` so each copy is a self-consistent parallel universe —
joins, sessions and dup groups stay within a universe, aggregate
distributions match the base exactly at 10x the rows. The dimension
tables (region, nation) are NOT scaled, mirroring TPC-H.

Cross-universe accidental duplicates are broken deterministically:

* ``documents.text``: copy ``k`` applies a caesar substitution
  (``a-z`` rotated by ``k``) — bijective and character-for-character,
  so ``n_chars``, token counts and the ENTIRE within-universe dup/
  near-dup structure are preserved verbatim, while universes share
  ZERO tokens (cross-universe shingle Jaccard is exactly 0). This is
  what makes the scale-up LINEAR: the base corpus's tiny synthetic
  vocabulary (~40 words) means any same-vocabulary copies are weakly
  similar to EVERY document, and with bottom-1 minhash bands
  (collision prob = j per band) weak similarity times N^2 pairs
  explodes — measured 4.16M candidate pairs at factor 10 even after
  a token-order shuffle (cross-copy shingle j ~ 4e-4), vs ~4.6k
  (10 x base) with disjoint vocabularies. Real web corpora sit in
  between; the per-band `max_bucket` caps are the production guard;
* additionally copy ``k`` PERMUTES token order (splitmix64 hash
  shuffle) so even the shared-character-distribution structure
  differs per copy;
* ``embeddings.embedding``: copy ``k`` circularly shifts the
  dimensions by ``k`` — norm-preserving, cosine-breaking.

Copy 0 is byte-identical to the base table, so every base row (and
its dup structure) survives verbatim.

Usage: python scripts/gen_sf.py [base_dir] [out_dir] [factor]
       defaults: /root/testdata/sf0.1 /tmp/sf1 10
"""
from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# per-table integer key columns to shift per universe copy, tagged by
# entity KIND so foreign keys shift by the same stride as the table
# they reference. Strides are DENSE (base max+1, computed from the
# base tables): every driver id space is 0-based contiguous, and
# fixture formulas that derive one id from another rely on ids
# staying in [0, N) — a sparse stride (1e7) made such formulas point
# at ids no row has.
KEY_COLS = {
    "documents": {"doc_id": "doc"},
    "embeddings": {"vec_id": "vec"},
    "events": {"event_id": "event", "user_id": "user"},
    "customer": {"c_custkey": "cust"},
    "orders": {"o_orderkey": "order", "o_custkey": "cust"},
    "lineitem": {"l_orderkey": "order", "l_partkey": "part",
                 "l_suppkey": "supp"},
    "supplier": {"s_suppkey": "supp"},
    "part": {"p_partkey": "part"},
}
# kind -> (owning table, key column) for stride computation
KIND_OWNER = {
    "doc": ("documents", "doc_id"),
    "vec": ("embeddings", "vec_id"),
    "event": ("events", "event_id"),
    "user": ("events", "user_id"),
    "cust": ("customer", "c_custkey"),
    "order": ("orders", "o_orderkey"),
    "part": ("part", "p_partkey"),
    "supp": ("supplier", "s_suppkey"),
}
DIM_TABLES = ["region", "nation"]


def shuffle_tokens(col: pa.ChunkedArray, k: int) -> pa.Array:
    """Deterministically PERMUTE each document's token order with a
    per-universe hash shuffle (vectorized over the flat token array).

    A permutation preserves length and token SET (n_chars and
    token-stats invariants hold) but breaks nearly every shingle —
    unlike a rotation, which keeps the whole cyclic n-gram structure
    and would make every copy a cross-universe near-dup (measured:
    candidate pairs explode ~10,000x at factor 10)."""
    split = pc.split_pattern(col.combine_chunks(), " ")
    flat = split.flatten()
    offsets = split.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lengths = np.diff(offsets)
    idx = np.arange(offsets[-1], dtype=np.uint64)
    doc_of = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    # splitmix64: full-avalanche mixing (a weak hash is order-
    # preserving for small indices and degenerates to the identity
    # permutation)
    z = idx + np.uint64((k * 0x9E3779B97F4A7C15) % (1 << 64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    key = z ^ (z >> np.uint64(31))
    order = np.lexsort((key, doc_of))  # per-doc order by hash key
    shuffled = flat.take(pa.array(order))
    relist = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      shuffled)
    return pc.binary_join(relist, " ")


def caesar(arr, k: int) -> pa.Array:
    """Per-universe bijective character substitution: rotate a-z by
    ``k``; every other byte is untouched. Length-preserving, so
    ``n_chars`` stays exact; vocabularies of different universes are
    disjoint."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    k = k % 26
    if k == 0:
        return arr
    src = "abcdefghijklmnopqrstuvwxyz"
    table = str.maketrans(src, src[k:] + src[:k])
    return pa.array(
        [None if t is None else t.translate(table)
         for t in arr.to_pylist()], pa.string())


def rotate_dims(col: pa.ChunkedArray, k: int) -> pa.Array:
    arr = col.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    lengths = np.diff(offsets)
    idx = np.arange(offsets[-1], dtype=np.int64)
    starts = np.repeat(offsets[:-1], lengths)
    lens = np.repeat(lengths, lengths)
    pos = idx - starts
    rot = starts + (pos + k) % np.maximum(lens, 1)
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(flat[rot], pa.float32()))


def make_copy(tbl: pa.Table, name: str, k: int,
              strides: dict) -> pa.Table:
    if k == 0:
        return tbl
    out = tbl
    for c, kind in KEY_COLS.get(name, {}).items():
        i = out.schema.get_field_index(c)
        out = out.set_column(
            i, c,
            pc.add(out.column(c),
                   pa.scalar(k * strides[kind], pa.int64())))
    if name == "documents":
        i = out.schema.get_field_index("text")
        shuffled = shuffle_tokens(out.column("text"), k)
        out = out.set_column(i, "text", caesar(shuffled, k))
    if name == "embeddings":
        i = out.schema.get_field_index("embedding")
        rot = rotate_dims(out.column("embedding"), k)
        out = out.set_column(
            i, pa.field("embedding", out.schema.field("embedding").type),
            rot.cast(out.schema.field("embedding").type))
    return out


def main() -> None:
    base = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/sf1"
    factor = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    os.makedirs(out_dir, exist_ok=True)
    strides = {}
    for kind, (tname, col) in KIND_OWNER.items():
        t = pq.read_table(f"{base}/{tname}.parquet", columns=[col])
        strides[kind] = int(pc.max(t.column(col)).as_py()) + 1
    print("strides:", strides)
    for name in DIM_TABLES:
        tbl = pq.read_table(f"{base}/{name}.parquet")
        pq.write_table(tbl, f"{out_dir}/{name}.parquet")
        print(f"{name}: {tbl.num_rows} (dim, unscaled)")
    for name in KEY_COLS:
        tbl = pq.read_table(f"{base}/{name}.parquet")
        copies = [make_copy(tbl, name, k, strides) for k in range(factor)]
        big = pa.concat_tables(copies).combine_chunks()
        pq.write_table(big, f"{out_dir}/{name}.parquet",
                       row_group_size=1 << 17)
        print(f"{name}: {tbl.num_rows} -> {big.num_rows}")


if __name__ == "__main__":
    main()
