"""Persistent key-bucketed storage: point lookup, upsert, checkpoint.

"Pick ONE partitioning key and reuse it across stages": a table
written bucketed by ``hash(key) % n_buckets`` (Hive-style
``_bucket=`` partition dirs) answers a key lookup by reading one
bucket directory and merges a delta by rewriting only the buckets
the delta touches — the storage layout IS the shuffle, paid once at
write time, and the per-bucket output directories double as
resumable units (the S6/S8 partition-aligned-sink contract of
SURVEY §2.1).

* :func:`write_bucketed` — one pass: attach ``_bucket``, then
  ``write_parquet(partition_cols=["_bucket"])`` (workers write their
  own bucket files; the driver never sees rows).
* :func:`bucketed_lookup` — reads the key's one bucket dir on the
  driver (a handful of rows; nothing to distribute).
* :func:`bucketed_upsert` — one Ray task per bucket the delta
  touches rewrites that bucket; untouched buckets carry over.

The bucket function is :func:`..functions.hashing.bucket_ids` — the
one partitioning hash the whole engine shares, which is what makes
the alignment guarantee hold across writes from different pipelines.
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np
import pyarrow as pa

from ..functions.hashing import bucket_ids

BUCKET_COL = "_bucket"


def write_bucketed(ds, out_dir: str, key_col: str,
                   n_buckets: int = 64, clustered: bool = False,
                   row_group_size: Optional[int] = None) -> str:
    """Write ``ds`` as Hive-partitioned parquet bucketed by
    ``bucket_ids(key_col) % n_buckets``. Returns ``out_dir``.

    ``clustered=True`` additionally SORTS each bucket by the key
    (one groupby on the int64 bucket id — the same exchange the
    bucketing itself costs — plus an Arrow ``sort_by`` inside each
    whole-bucket UDF, so nullable keys never reach a Ray sort).
    Clustering is what makes parquet row-group min/max statistics
    selective for :func:`bucketed_lookup`: an unclustered bucket has
    every row group spanning the whole key range, a clustered one
    lets a point read skip all but ~one row group. It also collapses
    the bucket dir to one file per bucket instead of one per input
    block (small-file compaction for free). ``row_group_size`` caps
    rows per parquet row group — smaller groups = finer pruning
    granularity at slightly more footer metadata.
    """

    def _tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            BUCKET_COL,
            pa.array(bucket_ids(batch.column(key_col), n_buckets),
                     pa.int64()))

    tagged = ds.map_batches(_tag, batch_format="pyarrow")
    if clustered:
        tagged = tagged.groupby(
            BUCKET_COL, num_partitions=n_buckets
        ).map_groups(
            lambda g: g.sort_by([(key_col, "ascending")]),
            batch_format="pyarrow",
        )
    kwargs = {}
    if row_group_size is not None:
        kwargs["row_group_size"] = row_group_size
    tagged.write_parquet(out_dir, partition_cols=[BUCKET_COL],
                         **kwargs)
    return out_dir


def _bucket_dir(root: str, b: int) -> str:
    return os.path.join(root, f"{BUCKET_COL}={b}")


def _side_schema(root: str) -> pa.Schema:
    """Data schema of a bucketed table from ONE file footer
    (metadata-only driver IO; the partition dir column is not part
    of the file schema)."""
    import pyarrow.parquet as pq

    for entry in sorted(os.listdir(root)):
        d = os.path.join(root, entry)
        if entry.startswith(f"{BUCKET_COL}=") and os.path.isdir(d):
            files = [f for f in sorted(os.listdir(d))
                     if f.endswith(".parquet")]
            if files:
                return pq.read_schema(os.path.join(d, files[0]))
    raise ValueError(f"no bucket files under {root}")


def _read_bucket(root: str, b: int,
                 columns: Optional[List[str]]) -> Optional[pa.Table]:
    """Worker-side read of one bucket dir; None when the bucket has
    no files (a valid outcome of skewless hashing)."""
    import pyarrow.dataset as pads

    path = _bucket_dir(root, b)
    if not os.path.isdir(path):
        return None
    return pads.dataset(path, format="parquet").to_table(columns=columns)


def bucketed_lookup(root: str, key_col: str, value, n_buckets: int,
                    columns: Optional[List[str]] = None,
                    with_stats: bool = False):
    """Point read over a bucketed table: hash-prune to ONE bucket
    dir, then let parquet row-group min/max statistics prune inside
    it — the read-path payoff of paying the bucket shuffle at write
    time. At 100 TB this is the difference between a key lookup
    costing a full-table scan and costing one bucket's worth of
    footer reads plus ~one row group (when the store was written
    ``clustered=True``).

    Runs driver-side by design: a point lookup returns
    key-cardinality rows (a handful), and the IO it touches is one
    bucket directory — there is nothing to distribute. Returns the
    matching rows as a :class:`pyarrow.Table`; with
    ``with_stats=True`` returns ``(table, stats)`` where ``stats``
    reports ``row_groups_total`` / ``row_groups_candidate`` for the
    bucket (candidate = min/max statistics admit the key), making
    the pruning measurable instead of assumed. NULL lookup values
    are rejected (SQL equality never matches NULL).
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    if value is None:
        raise ValueError("bucketed_lookup: NULL never matches; "
                         "a NULL-key probe is always empty")
    schema = _side_schema(root)
    cols = (list(columns) if columns is not None
            else [c for c in schema.names if c != BUCKET_COL])
    key_type = schema.field(key_col).type
    out_schema = pa.schema([(c, schema.field(c).type) for c in cols])
    b = int(bucket_ids(pa.array([value], key_type), n_buckets)[0])
    path = _bucket_dir(root, b)
    if not os.path.isdir(path):
        empty = out_schema.empty_table()
        return (empty, {"row_groups_total": 0,
                        "row_groups_candidate": 0,
                        "bucket": b}) if with_stats else empty
    dset = pads.dataset(path, format="parquet")
    tbl = dset.to_table(
        columns=cols,
        filter=pads.field(key_col) == pa.scalar(value, key_type),
    ).cast(out_schema)
    if not with_stats:
        return tbl
    total = candidate = 0
    for frag_path in sorted(dset.files):
        meta = pq.ParquetFile(frag_path).metadata
        ci = meta.schema.to_arrow_schema().names.index(key_col)
        for rg in range(meta.num_row_groups):
            total += 1
            st = meta.row_group(rg).column(ci).statistics
            if st is None or not st.has_min_max:
                candidate += 1  # no stats: must scan (never skip)
                continue
            if st.min <= value <= st.max:
                candidate += 1
    return tbl, {"row_groups_total": total,
                 "row_groups_candidate": candidate,
                 "bucket": b}


def bucketed_upsert(root: str, delta_ds, out_dir: str, key_col: str,
                    n_buckets: int,
                    tombstone_col: Optional[str] = None) -> pa.Table:
    """MERGE a delta into a bucketed store, producing a NEW store
    root (functional snapshot semantics, like a table-format commit:
    the input store stays immutable, so a failed run never corrupts
    it and a retry is idempotent per bucket).

    Semantics per key: a delta row REPLACES every old row of its
    key (upsert); a delta row with ``tombstone_col = true`` DELETES
    the key; keys the delta does not mention carry over unchanged.
    Delta keys must be unique (it is a primary-key merge) — dups
    raise inside the bucket task, where detection is global because
    equal keys co-locate. NULL delta keys are rejected too (SQL
    equality never matches NULL, so an upsert on NULL is undefined).

    Physical plan: the delta alone is exchanged (one groupby on the
    engine's shared bucket hash — the store side moves ZERO rows);
    each whole-bucket task reads its old bucket dir, anti-masks old
    rows whose key the delta mentions with the same
    dictionary-encode probe as the bucketed join, concatenates the
    surviving delta rows, restores the clustered invariant with one
    Arrow sort, and writes ``part-0.parquet`` via tmp-file +
    ``os.replace`` (atomic per bucket, resumable). Untouched buckets
    are HARDLINKED from the old root (metadata-only driver work,
    bounded by n_buckets x files-per-bucket, never data).

    Returns a per-bucket stats table
    ``(bucket, n_old, n_delta, n_deleted, n_out)`` — merged-store
    audit telemetry, no silent row movement.
    """
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    schema = _side_schema(root)
    store_cols = [c for c in schema.names if c != BUCKET_COL]
    delta_cols = [c for c in delta_ds.schema().names
                  if c != tombstone_col]
    if sorted(delta_cols) != sorted(store_cols):
        raise ValueError(
            f"bucketed_upsert: delta columns {sorted(delta_cols)} "
            f"!= store columns {sorted(store_cols)}")
    os.makedirs(out_dir, exist_ok=True)

    def _tag(batch: pa.Table) -> pa.Table:
        key = batch.column(key_col)
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        if key.null_count:
            raise ValueError("bucketed_upsert: NULL delta key")
        return batch.append_column(
            BUCKET_COL,
            pa.array(bucket_ids(key, n_buckets), pa.int64()))

    def _merge_bucket(group: pa.Table) -> pa.Table:
        b = int(group.column(BUCKET_COL)[0].as_py())
        delta = group.drop_columns([BUCKET_COL]).combine_chunks()
        dkeys = delta.column(key_col).combine_chunks()
        counts = pc.value_counts(dkeys)
        if counts.field("counts").to_numpy().max(initial=0) > 1:
            raise ValueError(
                "bucketed_upsert: duplicate key in delta — merge "
                "requires a primary key")
        if tombstone_col is not None:
            dead = pc.fill_null(
                delta.column(tombstone_col).combine_chunks(), False)
            live = delta.filter(pc.invert(dead)).select(store_cols)
            n_deleted = int(pc.sum(pc.cast(dead, pa.int64())).as_py()
                            or 0)
        else:
            live = delta.select(store_cols)
            n_deleted = 0
        old = _read_bucket(root, b, store_cols)
        n_old = old.num_rows if old is not None else 0
        if old is not None and old.num_rows:
            keep = pc.invert(pc.is_in(
                old.column(key_col).combine_chunks().cast(dkeys.type),
                value_set=dkeys))
            # NULL old keys never match a delta key: keep them
            survivors = old.filter(pc.fill_null(keep, True))
            merged = pa.concat_tables(
                [survivors.cast(live.schema), live])
        else:
            merged = live
        merged = merged.sort_by([(key_col, "ascending")])
        bdir = _bucket_dir(out_dir, b)
        os.makedirs(bdir, exist_ok=True)
        tmp = os.path.join(bdir, f".part-0.parquet.tmp.{os.getpid()}")
        pq.write_table(merged, tmp)
        os.replace(tmp, os.path.join(bdir, "part-0.parquet"))
        return pa.table({
            "bucket": pa.array([b], pa.int64()),
            "n_old": pa.array([n_old], pa.int64()),
            "n_delta": pa.array([delta.num_rows], pa.int64()),
            "n_deleted": pa.array([n_deleted], pa.int64()),
            "n_out": pa.array([merged.num_rows], pa.int64()),
        })

    stats_ds = delta_ds.map_batches(
        _tag, batch_format="pyarrow"
    ).groupby(BUCKET_COL, num_partitions=n_buckets).map_groups(
        _merge_bucket, batch_format="pyarrow")
    parts = [b for b in stats_ds.iter_batches(batch_format="pyarrow",
                                              batch_size=None)
             if b.num_rows]
    stats = (pa.concat_tables(parts) if parts else pa.table({
        "bucket": pa.array([], pa.int64()),
        "n_old": pa.array([], pa.int64()),
        "n_delta": pa.array([], pa.int64()),
        "n_deleted": pa.array([], pa.int64()),
        "n_out": pa.array([], pa.int64()),
    }))
    touched = set(stats.column("bucket").to_pylist())
    for b in range(n_buckets):
        if b in touched:
            continue
        src = _bucket_dir(root, b)
        if not os.path.isdir(src):
            continue
        dst = _bucket_dir(out_dir, b)
        os.makedirs(dst, exist_ok=True)
        for f in sorted(os.listdir(src)):
            if not f.endswith(".parquet"):
                continue
            target = os.path.join(dst, f)
            if os.path.exists(target):
                os.unlink(target)
            try:
                os.link(os.path.join(src, f), target)
            except OSError:
                shutil.copy2(os.path.join(src, f), target)
    return stats.sort_by([("bucket", "ascending")])


def read_bucketed(root: str, n_buckets: int,
                  columns: Optional[List[str]] = None):
    """Read a bucketed store back as a Dataset — one task per bucket
    dir (plain ``read_parquet`` on the root would silently skip the
    ``_bucket=`` dirs: parquet dataset discovery treats ``_``-prefixed
    paths as hidden, the Spark `_SUCCESS` convention). Missing
    buckets yield empty blocks of the store schema; block boundaries
    = bucket boundaries, so downstream bucket-aligned operators keep
    their alignment."""
    import ray
    import ray.data

    schema = _side_schema(root)
    cols = (list(columns) if columns is not None
            else [c for c in schema.names if c != BUCKET_COL])
    out_schema = pa.schema([(c, schema.field(c).type) for c in cols])

    @ray.remote
    def _read_one(b: int) -> pa.Table:
        tbl = _read_bucket(root, b, cols)
        if tbl is None or tbl.num_rows == 0:
            return out_schema.empty_table()
        return tbl.cast(out_schema)

    return ray.data.from_arrow_refs(
        [_read_one.remote(b) for b in range(n_buckets)])


_CKPT_DIRS: set = set()
_CKPT_ATEXIT_REGISTERED = False


def _register_checkpoint_cleanup(path: str) -> None:
    """Track ``path`` for removal at interpreter exit (once per
    process). Dirs re-created by a later same-tag call are tracked
    once; rmtree at exit is idempotent."""
    global _CKPT_ATEXIT_REGISTERED
    _CKPT_DIRS.add(path)
    if not _CKPT_ATEXIT_REGISTERED:
        import atexit
        import shutil

        def _cleanup() -> None:
            for d in list(_CKPT_DIRS):
                shutil.rmtree(d, ignore_errors=True)

        atexit.register(_cleanup)
        _CKPT_ATEXIT_REGISTERED = True


def _sweep_stale_checkpoints(root: str) -> None:
    """Remove ``ocr_ray_ckpt_<tag>_<pid>`` dirs under ``root`` whose
    owning pid is no longer alive — reclaims scratch (tmpfs!) space
    leaked by crashed or killed drivers. Live pids (including ours)
    are left alone; unparsable names are skipped."""
    import shutil

    try:
        entries = os.listdir(root)
    except OSError:
        return
    for name in entries:
        if not name.startswith("ocr_ray_ckpt_"):
            continue
        pid_part = name.rsplit("_", 1)[-1]
        if not pid_part.isdigit():
            continue
        pid = int(pid_part)
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
        except PermissionError:
            continue  # pid alive, owned by another user


def checkpoint_bucketed(ds, tag: str, key_col: Optional[str],
                        n_buckets: int = 32,
                        scratch: Optional[str] = None):
    """Checkpoint ``ds`` to key-bucketed parquet and return a
    storage-backed re-read of it (same rows, ``_bucket`` stripped).

    The scale-path replacement for a mid-pipeline ``materialize()``
    that more than one consumer reads: ``materialize()`` pins the
    whole intermediate in the cluster's OBJECT STORE (at corpus
    scale that forces spill of every surviving row), while a
    bucketed parquet checkpoint is storage-backed — each consumer
    re-reads one task per bucket dir, the bucket dirs double as
    resumable units, and nothing stays pinned between consumers.
    The write costs one extra pass over the data (same as the
    materialize would have buffered) and NO shuffle: bucket ids are
    attached in the same map_batches that writes.

    ``scratch`` (or ``$OCR_RAY_SCRATCH``, default the system temp
    dir) must be storage every node can read on a multi-node
    cluster — a shared filesystem or object-store mount; /tmp is
    only correct single-node.

    ``key_col=None`` writes a plain block-partitioned parquet dir
    (no bucket tag, no key hashing) — right when the checkpoint only
    needs storage backing, not key alignment (e.g. a string-keyed
    intermediate whose downstream passes are full scans anyway).

    An EMPTY ``ds`` writes no parquet files, so there is nothing to
    re-read; that case degrades to ``materialize()`` — pinning an
    empty dataset costs nothing and keeps the schema exact.

    Checkpoint dirs are reclaimed: an ``atexit`` hook removes this
    process's dirs at driver shutdown, and each call sweeps stale
    ``ocr_ray_ckpt_*`` dirs left by DEAD pids in the same scratch
    root (matters when scratch is RAM-backed tmpfs like /dev/shm,
    where exited drivers would otherwise leak corpus-sized parquet
    until reboot).
    """
    import shutil
    import tempfile

    import ray.data

    root = scratch or os.environ.get("OCR_RAY_SCRATCH",
                                     tempfile.gettempdir())
    _sweep_stale_checkpoints(root)
    out = os.path.join(root, f"ocr_ray_ckpt_{tag}_{os.getpid()}")
    _register_checkpoint_cleanup(out)
    shutil.rmtree(out, ignore_errors=True)
    if key_col is None:
        ds.write_parquet(out)
        if not any(f.endswith(".parquet")
                   for f in sorted(os.listdir(out))):
            return ds.materialize()
        return ray.data.read_parquet(out)
    write_bucketed(ds, out, key_col, n_buckets)
    try:
        _side_schema(out)
    except ValueError:
        return ds.materialize()
    return read_bucketed(out, n_buckets)


def build_zone_map(paths, columns):
    """File-level ZONE MAP: per-file min/max (and null count) for the
    given columns, read from parquet FOOTER STATISTICS only — no data
    pages move. The driver-side manifest is tiny (files × columns)
    and is the pruning index :func:`pruned_read` consults, extending
    parquet's built-in row-group pruning one level up: at 100 TB a
    range predicate should skip whole FILES (and at a real deployment
    whole storage prefixes) before the scheduler ever sees them.

    Returns a pyarrow Table ``(path, col, vmin, vmax, null_count)``
    with min/max as their string repr for mixed-type manifests —
    :func:`pruned_read` re-derives typed bounds per column.
    """
    import pyarrow.parquet as pq

    rows = []
    for path in paths:
        meta = pq.ParquetFile(path).metadata
        agg = {}
        for rg in range(meta.num_row_groups):
            g = meta.row_group(rg)
            for ci in range(g.num_columns):
                col = g.column(ci)
                name = col.path_in_schema
                if name not in columns:
                    continue
                st = col.statistics
                if st is None or not st.has_min_max:
                    agg[name] = None  # unprunable
                    continue
                cur = agg.get(name)
                if cur is None and name in agg:
                    continue
                nulls = st.null_count or 0
                if cur is None:
                    agg[name] = [st.min, st.max, nulls]
                else:
                    cur[0] = min(cur[0], st.min)
                    cur[1] = max(cur[1], st.max)
                    cur[2] += nulls
        for name, cur in agg.items():
            if cur is not None:
                rows.append((path, name, repr(cur[0]), repr(cur[1]),
                             cur[2]))
    return pa.table({
        "path": pa.array([r[0] for r in rows], pa.string()),
        "col": pa.array([r[1] for r in rows], pa.string()),
        "vmin": pa.array([r[2] for r in rows], pa.string()),
        "vmax": pa.array([r[3] for r in rows], pa.string()),
        "null_count": pa.array([r[4] for r in rows], pa.int64()),
    })


def _spread16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each value so consecutive source bits
    land two positions apart (the classic Morton magic-number ladder)."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def zorder_key(xs, ys) -> np.ndarray:
    """Vectorized 2-D Morton (Z-order) key: interleave the low 16 bits
    of two int columns into one int64 sort key. A layout CLUSTERED by
    this key keeps both dimensions locally narrow in every file, so
    ONE zone map prunes 2-D range predicates — the lakehouse Z-ORDER
    trick (Delta/Iceberg `OPTIMIZE ZORDER BY`), here as plain numpy
    bit math. Values are clamped to [0, 2^16): callers whose domain
    exceeds 16 bits pre-scale (the key orders files, it never has to
    be collision-free). NULLs are treated as 0 (sort first).
    """
    x = np.nan_to_num(
        np.asarray(xs, dtype=np.float64), nan=0.0).astype(np.int64)
    y = np.nan_to_num(
        np.asarray(ys, dtype=np.float64), nan=0.0).astype(np.int64)
    x = np.clip(x, 0, 0xFFFF)
    y = np.clip(y, 0, 0xFFFF)
    z = _spread16(x) | (_spread16(y) << np.uint64(1))
    return z.astype(np.int64)


def pruned_read_multi(paths, preds: dict, zone_map: pa.Table = None,
                      columns=None):
    """Conjunctive multi-column zone-map scan: skip a file when ANY
    predicate column's footer-stats interval misses its ``(lo, hi)``
    range. The residual filter applies every predicate in-scan.
    Returns ``(dataset, n_files_read, n_files_skipped)`` like
    :func:`pruned_read` (files without stats for a column are read
    conservatively).
    """
    import ast

    import ray.data

    if zone_map is None:
        zone_map = build_zone_map(paths, list(preds))
    bounds: dict = {}
    for p, c, mn, mx in zip(zone_map.column("path").to_pylist(),
                            zone_map.column("col").to_pylist(),
                            zone_map.column("vmin").to_pylist(),
                            zone_map.column("vmax").to_pylist()):
        if c in preds:
            bounds.setdefault(p, {})[c] = (ast.literal_eval(mn),
                                           ast.literal_eval(mx))
    keep, skipped = [], 0
    for p in paths:
        cols = bounds.get(p, {})
        if any(c in cols and (cols[c][0] > hi or cols[c][1] < lo)
               for c, (lo, hi) in preds.items()):
            skipped += 1
            continue
        keep.append(p)
    if not keep:
        return None, 0, skipped
    ds = ray.data.read_parquet(keep, columns=columns)
    expr = " and ".join(f"{c} >= {lo!r} and {c} <= {hi!r}"
                        for c, (lo, hi) in preds.items())
    ds = ds.filter(expr=expr)
    return ds, len(keep), skipped


def pruned_read(paths, col: str, lo, hi, zone_map: pa.Table = None,
                columns=None):
    """Range scan ``lo <= col <= hi`` that SKIPS files whose zone-map
    interval misses the predicate, then applies the residual filter
    in-scan (parquet row-group stats prune further for free).

    Returns ``(dataset, n_files_read, n_files_skipped)`` — the skip
    count is surfaced, not silent, per the no-silent-caps rule (a
    file without stats is conservatively read).
    """
    import ast

    import ray.data

    if zone_map is None:
        zone_map = build_zone_map(paths, [col])
    keep, skipped = [], 0
    zpaths = zone_map.column("path").to_pylist()
    zcols = zone_map.column("col").to_pylist()
    zmin = zone_map.column("vmin").to_pylist()
    zmax = zone_map.column("vmax").to_pylist()
    bounds = {
        p: (ast.literal_eval(mn), ast.literal_eval(mx))
        for p, c, mn, mx in zip(zpaths, zcols, zmin, zmax) if c == col
    }
    for p in paths:
        b = bounds.get(p)
        if b is not None and (b[0] > hi or b[1] < lo):
            skipped += 1
            continue
        keep.append(p)
    if not keep:
        return None, 0, skipped
    ds = ray.data.read_parquet(keep, columns=columns)
    ds = ds.filter(expr=f"{col} >= {lo!r} and {col} <= {hi!r}")
    return ds, len(keep), skipped


def compaction_plan(paths, target_rows: int):
    """Small-file COMPACTION planning (lakehouse ``OPTIMIZE``): read
    each staged file's row count from its parquet FOOTER only — the
    manifest fold of :func:`build_zone_map`, no data pages move —
    and assign files to merge groups of ~``target_rows`` each.

    Deterministic size-banded packing: files order by
    ``(n_rows DESC, file_id ASC)`` (big files first — they anchor
    groups; the long small-file tail fills them), and each file's
    group is ``preceding_total // target_rows``. A group can
    overshoot by at most its last file (the Delta/Iceberg OPTIMIZE
    bin rule without per-bin reset — monotone, one pass, and
    SQL-expressible so the plan itself is oracle-checkable).

    Returns ``(plan_table, n_groups)`` where plan_table is
    ``(file_id, n_rows, group_id)`` in packing order. Driver-side
    manifest fold — files-scale, not data-scale (a 10^6-file table
    is a 10^6-row driver table; the plan's EXECUTION — one read+
    write task per group — is where the data moves, and that runs
    distributed)."""
    import pyarrow.parquet as pq

    rows = [(i, pq.ParquetFile(p).metadata.num_rows)
            for i, p in enumerate(paths)]
    rows.sort(key=lambda t: (-t[1], t[0]))
    fids, sizes, gids = [], [], []
    cum = 0
    for fid, n in rows:
        fids.append(fid)
        sizes.append(n)
        gids.append(cum // int(target_rows))
        cum += n
    plan = pa.table({
        "file_id": pa.array(fids, pa.int64()),
        "n_rows": pa.array(sizes, pa.int64()),
        "group_id": pa.array(gids, pa.int64()),
    })
    n_groups = len(set(gids)) if gids else 0
    return plan, n_groups
