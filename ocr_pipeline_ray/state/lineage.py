"""Resumable partitioned execution with per-partition lineage records.

The Ray-native recast of the reference's directory marker files
(``ocr_pipeline_open → busy → done/fail`` with appended timestamped
history, `/root/reference/ocr_pipeline.py:160-199,338-365`) and of its
"one directory = one unit of distribution" layout:

* partition unit = ONE input parquet shard file;
* a run CLAIMS each pending shard with an atomic create-or-fail lock
  file before touching it — the analogue of the reference's
  ``open → busy`` marker rename, which is its cross-host lease
  (`ocr_pipeline.py:338-365`): two concurrent drivers over the same
  ``out_root`` split the pending set instead of double-processing;
* the run reads all claimed shards through ONE slice reader
  (:class:`ParquetSliceDatasource`): the driver reads the shards'
  Parquet footers and cuts the pending rows into one task of equal
  rows per Ray CPU (:func:`plan_slices`; more, in whole waves, only
  when a task would exceed the block-size cap), across row groups
  and shards; each task streams only the row groups it needs and
  only ``read_columns``, and stamps the ``pid`` column itself; the
  Dataset plans with the largest task's bytes as its block size, so
  every task starts in one wave;
* the read, the caller's chain and the ``pid``-partitioned write fuse
  into ONE Ray Data operator (``ReadParquetSlice->MapBatches(...)->
  Write``), so a task reads, processes and writes its slice without
  a hand-off; the write goes to a staging dir OWNED by this run id,
  then each finished ``pid=<shard>`` dir is atomically renamed into
  place and the shard's lineage JSON is written (history of state
  transitions + row metrics + per-operator wall/rows from
  ``Dataset.stats()`` — the per-step ``profile()`` analogue,
  `ocr_pipeline.py:368-376`);
* a re-run skips shards whose lineage says ``done`` (driver-side set
  arithmetic — the checkpoint-resume anti-join of SURVEY.md §2.4);
* a failed run leaves no partial final partitions (its staging is
  discarded), records ``fail`` markers, and releases its claims;
* orphaned staging dirs are swept only when their owning run is dead
  (run-marker absent or stale) — a live concurrent run's staging is
  never touched.

The same slice reader serves every later read of published output:
:func:`read_output` (files, dirs or globs, in the given order, with
``pid`` taken from a ``pid=<x>/`` dir), so ``--rescore`` and the CLI
tails also read, process and write in one fused operator.

Timestamps are provided by the CALLER (driver) — nothing inside the
distributed tasks reads the clock.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import math
import os
import shutil
import socket
import threading
import time as _time
import uuid
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data import DataContext
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

# a claim/run marker older than this is considered dead (stale lease
# takeover — the analogue of manually clearing a crashed host's busy
# marker in the reference's NFS layout)
DEFAULT_STALE_SEC = 3600.0
# floor of the block size a slice Dataset plans with (see _slice_dataset)
MIN_BLOCK_BYTES = 1 << 20


def store_root() -> str:
    """Root directory for STORED artifacts (materialized views,
    staged table generations, zone-mapped layouts) that outlive a
    single Dataset plan. On a multi-node cluster ``$OCR_RAY_STORE``
    must point at storage every node can read (shared filesystem /
    object-store mount); the default — ``$OCR_RAY_SCRATCH``, then
    the system temp dir — is only correct single-node. All
    atomic-publish helpers below assume ``os.replace`` is atomic on
    this filesystem (true for POSIX renames within one mount, the
    same assumption the reference's marker-file protocol makes,
    /root/reference/ocr_pipeline.py:160-199)."""
    import tempfile

    return os.environ.get(
        "OCR_RAY_STORE",
        os.environ.get("OCR_RAY_SCRATCH", tempfile.gettempdir()))


def publish_table(tbl: pa.Table, path: str) -> str:
    """Atomically publish a (small, driver-side) Arrow table as ONE
    parquet file: write to ``path + '.tmp'``, then rename into place
    — the same stage-then-rename protocol as the partition markers,
    so a concurrent reader never sees a half-written file."""
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def publish_dataset(ds, path: str) -> str:
    """Atomically publish a Dataset as a parquet DIRECTORY: workers
    write into ``path + '.tmp'``, the driver renames the finished
    dir into place. ``path`` must not already exist (stored views
    are create-once; refresh protocols write a NEW generation)."""
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    os.replace(tmp, path)
    return path


def partition_id(input_file: str) -> str:
    base = os.path.basename(input_file)
    return base[:-8] if base.endswith(".parquet") else base


def partition_ids(input_files: Sequence[str]) -> Dict[str, str]:
    """Collision-free ``pid -> file`` map for a set of input shards.

    pid = basename sans ``.parquet``; when two files in different
    directories share a basename, each colliding pid gets a stable
    8-hex path-hash suffix so no shard is silently dropped (previously
    one of them would vanish from the dict and never be processed).
    Deterministic per absolute path, so resume keeps working.
    """
    files = sorted(set(input_files))
    by_base: Dict[str, List[str]] = {}
    for f in files:
        by_base.setdefault(partition_id(f), []).append(f)
    out: Dict[str, str] = {}
    for base, group in by_base.items():
        if len(group) == 1:
            out[base] = group[0]
        else:
            for f in group:
                suffix = hashlib.md5(
                    os.path.abspath(f).encode("utf-8")
                ).hexdigest()[:8]
                out[f"{base}-{suffix}"] = f
    return out


class LineageStore:
    """JSON lineage records + claim locks under ``<out_root>/_lineage/``."""

    def __init__(self, out_root: str):
        self.out_root = out_root
        self.dir = os.path.join(out_root, "_lineage")
        self.runs_dir = os.path.join(self.dir, "_runs")
        os.makedirs(self.runs_dir, exist_ok=True)

    def _path(self, pid: str) -> str:
        return os.path.join(self.dir, f"{pid}.json")

    def _lock_path(self, pid: str) -> str:
        return os.path.join(self.dir, f"{pid}.lock")

    def read(self, pid: str) -> Optional[Dict]:
        try:
            with open(self._path(pid), encoding="UTF-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def write(self, pid: str, record: Dict) -> None:
        tmp = self._path(pid) + ".tmp"
        with open(tmp, "w", encoding="UTF-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, self._path(pid))  # atomic marker transition

    def append_state(self, pid: str, state: str, run_ts: str,
                     extra: Optional[Dict] = None) -> Dict:
        """Marker-file semantics: append a timestamped state line,
        then 'rename' (rewrite with the new status)."""
        record = self.read(pid) or {"partition": pid, "history": []}
        record["history"].append(f"{run_ts} mark state {state}")
        record["status"] = state
        if extra:
            record.update(extra)
        self.write(pid, record)
        return record

    def done_partitions(self) -> set:
        done = set()
        for name in os.listdir(self.dir):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.dir, name), encoding="UTF-8") as fh:
                rec = json.load(fh)
            if rec.get("status") == "done":
                done.add(rec["partition"])
        return done

    # ---- multi-driver lease ------------------------------------------

    def try_claim(self, pid: str, run_id: str,
                  stale_sec: float = DEFAULT_STALE_SEC) -> bool:
        """Atomically claim ``pid`` for ``run_id``.

        ``O_CREAT|O_EXCL`` — exactly one concurrent driver wins (the
        open→busy rename analogue). A lock whose mtime is older than
        ``stale_sec`` belongs to a dead run and is taken over.
        """
        lock = self._lock_path(pid)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(lock, encoding="UTF-8") as fh:
                    owner = fh.read().strip()
                age = _time.time() - os.path.getmtime(lock)
            except OSError:
                return False  # lock vanished mid-check → other run won
            if owner == run_id:
                return True  # already ours (idempotent re-claim)
            if age <= stale_sec:
                return False  # live concurrent run owns it
            # stale takeover: rewrite atomically (narrow race between
            # two stealers is the same one the reference's NFS rename
            # takeover has; the loser's staging is never published
            # because publish re-checks ownership)
            tmp = f"{lock}.{run_id}"
            with open(tmp, "w", encoding="UTF-8") as fh:
                fh.write(run_id)
            os.replace(tmp, lock)
            return self.lock_owner(pid) == run_id
        with os.fdopen(fd, "w", encoding="UTF-8") as fh:
            fh.write(run_id)
        return True

    def lock_owner(self, pid: str) -> Optional[str]:
        try:
            with open(self._lock_path(pid), encoding="UTF-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    def release(self, pid: str, run_id: str) -> None:
        if self.lock_owner(pid) == run_id:
            try:
                os.remove(self._lock_path(pid))
            except OSError:
                pass

    def touch_claims(self, run_id: str, pids: Sequence[str]) -> None:
        """Heartbeat: refresh mtimes of this run's marker and its
        lock files so a LIVE long run is never mistaken for dead by
        the ``stale_sec`` takeover (a lease is live while its holder
        keeps beating, not merely for ``stale_sec`` after claim)."""
        for path in [self._run_marker(run_id)] + [
            self._lock_path(p) for p in pids
        ]:
            try:
                # refresh only locks we still own (utime on a stolen
                # lock would extend the thief's lease — harmless but
                # wrong-headed; skip them)
                if path.endswith(".lock"):
                    with open(path, encoding="UTF-8") as fh:
                        if fh.read().strip() != run_id:
                            continue
                os.utime(path, None)
            except OSError:
                continue

    # ---- run markers (staging ownership) -----------------------------

    def _run_marker(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, run_id)

    def register_run(self, run_id: str) -> None:
        with open(self._run_marker(run_id), "w", encoding="UTF-8") as fh:
            fh.write(run_id)

    def finish_run(self, run_id: str) -> None:
        try:
            os.remove(self._run_marker(run_id))
        except OSError:
            pass

    def run_is_live(self, run_id: str,
                    stale_sec: float = DEFAULT_STALE_SEC) -> bool:
        marker = self._run_marker(run_id)
        try:
            return _time.time() - os.path.getmtime(marker) <= stale_sec
        except OSError:
            return False

    def sweep_staging(self, stale_sec: float = DEFAULT_STALE_SEC) -> List[str]:
        """Remove staging dirs of DEAD runs only (crashed / SIGKILLed).

        A staging dir is ``_staging_<run_id>``; it is swept only when
        its owning run's marker is absent or stale — a live concurrent
        driver's staging is left alone.
        """
        removed = []
        for name in os.listdir(self.out_root):
            if not name.startswith("_staging_"):
                continue
            owner = name[len("_staging_"):]
            if not self.run_is_live(owner, stale_sec):
                shutil.rmtree(os.path.join(self.out_root, name),
                              ignore_errors=True)
                removed.append(name)
        return removed


class _Heartbeat(threading.Thread):
    """Driver-side lease heartbeat.

    Touches the run marker + claimed lock files every
    ``stale_sec / 4`` (capped at 60 s) while the run processes, so
    runs longer than ``stale_sec`` keep their claims and their
    staging dir against concurrent drivers' stale-takeover/sweep.
    """

    def __init__(self, store: "LineageStore", run_id: str,
                 pids: Sequence[str], stale_sec: float):
        super().__init__(daemon=True, name=f"lineage-heartbeat-{run_id}")
        self._store = store
        self._run_id = run_id
        self._pids = list(pids)
        self._interval = min(max(stale_sec / 4.0, 0.05), 60.0)
        self._halt = threading.Event()  # NB: Thread reserves `_stop`

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            self._store.touch_claims(self._run_id, self._pids)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def plan_slices(
    shards: Sequence[Sequence[Tuple[int, int]]],
    n_cpus: float,
    max_bytes: Optional[int] = None,
) -> List[Tuple[List[Tuple[int, List[int], int, int, int]], int, int]]:
    """Cut the rows of ``shards`` into read tasks of equal rows.

    ``shards`` holds, per shard in read order, the ``(num_rows,
    uncompressed_bytes)`` of each row group. Returns, per task,
    ``(pieces, rows, nbytes)``; a piece ``(shard, row_groups, offset,
    length, nbytes)`` streams those consecutive row groups of the
    shard and keeps ``length`` rows from row ``offset`` of the first,
    and ``nbytes`` is the uncompressed size of the rows kept (each row
    group's bytes pro rata, rounded). Together the tasks cover every
    row once, in shard order.

    One task per Ray CPU (``round(n_cpus)``, never more than the
    rows), with row counts that differ by at most one: the cuts fall
    wherever the equal split puts them, across row groups and shards.
    Only a task's first piece can start inside a row group, so a task
    decodes at most one row-group prefix beyond its own rows. With
    ``max_bytes`` the count is raised, in whole waves of
    ``round(n_cpus)`` tasks (or to one task per row), until no task
    of more than one row holds more than ``max_bytes``.
    """
    groups = [(s, g, rows, nbytes)
              for s, shard in enumerate(shards)
              for g, (rows, nbytes) in enumerate(shard) if rows]
    total = sum(rows for _, _, rows, _ in groups)
    if not total:
        return []
    n = wave = min(total, max(1, round(n_cpus)))
    while True:
        tasks = _equal_rows(groups, total, n)
        worst = max((nbytes for _, rows, nbytes in tasks if rows > 1),
                    default=0)
        if not max_bytes or worst <= max_bytes:
            return tasks
        # whole waves, so that no CPU idles through a short last one
        n = min(total, wave * math.ceil(
            max(n + 1, n * worst / max_bytes) / wave))


def _equal_rows(groups, total: int, n: int):
    """``n`` tasks of ``total * i // n`` to ``total * (i + 1) // n``
    rows, each a list of pieces, one per shard it touches."""
    pieces: List[list] = [[] for _ in range(n)]
    task, first = 0, 0  # the task being filled, the group's first row
    for s, g, rows, nbytes in groups:
        lo = 0
        while lo < rows:
            stop = total * (task + 1) // n  # the task's last row + 1
            hi = min(rows, stop - first)
            share = Fraction(nbytes * (hi - lo), rows)
            if pieces[task] and pieces[task][-1][0] == s:
                piece = pieces[task][-1]
                piece[1].append(g)
                piece[3] += hi - lo
                piece[4] += share
            else:
                pieces[task].append([s, [g], lo, hi - lo, share])
            lo = hi
            if first + hi == stop:
                task += 1
        first += rows
    return [([(s, gs, offset, length, round(share))
              for s, gs, offset, length, share in task_pieces],
             sum(p[3] for p in task_pieces),
             round(sum(p[4] for p in task_pieces)))
            for task_pieces in pieces]


def _row_group_sizes(path: str,
                     columns: Optional[List[str]]) -> List[Tuple[int, int]]:
    """``(num_rows, uncompressed bytes of columns)`` per row group,
    from the footer."""
    meta = pq.read_metadata(path)
    sizes = []
    for i in range(meta.num_row_groups):
        rg = meta.row_group(i)
        sizes.append((rg.num_rows, sum(
            rg.column(j).total_uncompressed_size
            for j in range(rg.num_columns)
            if columns is None
            or rg.column(j).path_in_schema.split(".")[0] in columns)))
    return sizes


def _read_slices(pieces, columns, max_bytes) -> Iterator[pa.Table]:
    """Read task body: the rows of each ``(path, pid, row_groups,
    offset, length, nbytes)`` piece, with a ``pid`` column appended
    unless ``pid`` is None. The row groups stream in batches of at
    most ``max_bytes`` of the piece's rows, and decoding stops at the
    piece's last row, so a task holds one batch of input at a time."""
    for path, pid, row_groups, offset, length, nbytes in pieces:
        stop = offset + length
        batch_rows = stop
        if max_bytes and nbytes > max_bytes:
            batch_rows = min(stop, max(1, length * max_bytes // nbytes))
        pos = 0
        for batch in pq.ParquetFile(path).iter_batches(
                batch_size=batch_rows, row_groups=row_groups,
                columns=columns):
            lo, hi = max(offset - pos, 0), min(stop - pos, batch.num_rows)
            pos += batch.num_rows
            if lo < hi:
                tbl = pa.Table.from_batches([batch.slice(lo, hi - lo)])
                if pid is not None:
                    tbl = tbl.append_column(
                        "pid", pa.array([pid] * (hi - lo), pa.string()))
                yield tbl
            if pos >= stop:
                break


class ParquetSliceDatasource(Datasource):
    """Equal row slices of a list of Parquet files, ``pid`` stamped.

    ``shards`` is an ordered list of ``(file, pid or None)``; several
    files may share a pid, and a file with pid None gets no ``pid``
    column. The rows come out in that order. The constructor reads
    the footers (so a corrupt file raises on the driver) and plans
    the read tasks with :func:`plan_slices`: one per ``n_cpus``, and
    the process-global ``DataContext.target_max_block_size`` caps
    the uncompressed bytes of each task's rows — a fused Parquet
    write holds a whole task's output in memory, so a big corpus gets
    more tasks, not bigger buffers. The same per-task figure is the
    block metadata Ray Data plans with. ``get_read_tasks``
    ignores the requested parallelism and returns the planned tasks;
    read them with ``override_num_blocks=len(self.tasks)`` so Ray
    Data adds no block split (which would stop the read from fusing
    with the map after it).
    """

    def __init__(self, shards: Sequence[Tuple[str, Optional[str]]],
                 columns: Optional[List[str]], n_cpus: float):
        self.columns = columns
        self.max_bytes = DataContext.get_current().target_max_block_size
        shards = list(shards)
        plan = plan_slices([_row_group_sizes(f, columns) for f, _ in shards],
                           n_cpus, self.max_bytes)
        # per task: ([(path, pid, row_groups, offset, length, nbytes)],
        # rows, nbytes)
        self.tasks = [([(*shards[s], *rest) for s, *rest in pieces],
                       rows, nbytes)
                      for pieces, rows, nbytes in plan]

    def get_name(self) -> str:
        return "ParquetSlice"

    def estimate_inmemory_data_size(self) -> Optional[int]:
        return sum(nbytes for _, _, nbytes in self.tasks)

    def get_read_tasks(self, parallelism: int) -> List[ReadTask]:
        return [
            ReadTask(
                functools.partial(_read_slices, pieces, self.columns,
                                  self.max_bytes),
                BlockMetadata(num_rows=rows, size_bytes=nbytes,
                              input_files=[p[0] for p in pieces],
                              exec_stats=None),
            )
            for pieces, rows, nbytes in self.tasks
        ]


def _ray_cpus() -> float:
    """The Ray cluster's CPU count, starting Ray if nobody has (as
    Ray Data's own first read would)."""
    if not ray.is_initialized():
        ray.init()
    return ray.cluster_resources().get("CPU", 1)


def _slice_dataset(shards, columns, n_cpus: float):
    """The planned read as a Dataset whose own ``DataContext`` copy
    sets ``target_max_block_size`` to the largest task's bytes (at
    least :data:`MIN_BLOCK_BYTES`). Ray Data charges each task that
    block size until a task has reported output; the 128 MiB default
    lets only one task start against a small object store, the true
    figure lets every task start at once. The process-global
    ``DataContext`` is left as it is."""
    source = ParquetSliceDatasource(shards, columns, n_cpus)
    ds = ray.data.read_datasource(source,
                                  override_num_blocks=len(source.tasks))
    ds.context.target_max_block_size = max(
        [MIN_BLOCK_BYTES] + [nbytes for *_, nbytes in source.tasks])
    return ds


def _parquet_under(root: str) -> List[str]:
    """The ``*.parquet`` files under ``root``, recursively and sorted
    by path; hidden and ``_``-prefixed entries (staging, lineage,
    ingest dirs) are skipped."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d[0] not in "._"]
        found.extend(os.path.join(dirpath, f) for f in filenames
                     if f.endswith(".parquet") and f[0] not in "._")
    return sorted(found)


def output_files(paths) -> List[str]:
    """Expand ``paths`` (a path or a list of files, directories and
    globs) into Parquet files, keeping the given order: a directory
    becomes the sorted ``*.parquet`` files under it, a glob its
    sorted matches (each match expanded the same way)."""
    files: List[str] = []
    for item in [paths] if isinstance(paths, str) else paths:
        matches = (sorted(glob.glob(item))
                   if any(ch in item for ch in "*?[") else [item])
        for path in matches:
            files.extend(_parquet_under(path) if os.path.isdir(path)
                         else [path])
    return files


def read_output(paths, columns: Optional[List[str]] = None):
    """One fused-read Dataset over Parquet output files.

    ``paths`` as :func:`output_files`; the rows come out in that file
    order through a :class:`ParquetSliceDatasource` (one task of
    equal rows per Ray CPU, all started at once, so a task-pool
    ``map_batches`` and a write after it fuse with the read into one
    operator, whatever the file count). A file under a
    ``pid=<x>/`` directory gets a ``pid`` column ``x`` appended, as
    hive partitioning gave ``ray.data.read_parquet``; with
    ``columns`` given, only when it names ``pid``.
    """
    stamp = columns is None or "pid" in columns
    shards = []
    for f in output_files(paths):
        parent = os.path.basename(os.path.dirname(f))
        pid = parent[4:] if stamp and parent.startswith("pid=") else None
        shards.append((f, pid))
    if columns is not None:
        columns = [c for c in columns if c != "pid"]
    return _slice_dataset(shards, columns, _ray_cpus())


def _stage_metrics(ds) -> List[Dict]:
    """Per-operator wall-time / row metrics from ``Dataset.stats()``.

    The per-step ``profile()`` analogue (`ocr_pipeline.py:368-376`):
    one entry per physical operator of the executed plan. Defensive —
    returns whatever subset of fields the Ray version exposes.
    """
    stages: List[Dict] = []
    try:
        # after write_parquet the executed plan's stats live on the
        # internal written dataset, not the pre-write handle
        executed = getattr(ds, "_write_ds", None) or ds
        summaries = [executed._get_stats_summary()]
        seen = set()
        while summaries:
            summary = summaries.pop()
            if id(summary) in seen:
                continue
            seen.add(id(summary))
            summaries.extend(getattr(summary, "parents", []) or [])
            for op in getattr(summary, "operators_stats", []) or []:
                entry: Dict = {"stage": getattr(op, "operator_name", "?")}
                wall = getattr(op, "wall_time", None)
                if isinstance(wall, dict) and "sum" in wall:
                    entry["wall_time_sum_sec"] = round(wall["sum"], 4)
                rows = getattr(op, "output_num_rows", None)
                if isinstance(rows, dict) and "sum" in rows:
                    entry["output_rows"] = rows["sum"]
                total = getattr(op, "time_total_s", None)
                if isinstance(total, (int, float)):
                    entry["time_total_sec"] = round(total, 4)
                stages.append(entry)
    except Exception:  # stats are best-effort telemetry, never fatal
        return stages
    return stages


def run_partitioned(
    input_files: Sequence[str],
    out_root: str,
    pipeline_fn: Callable,
    run_ts: str,
    read_columns: Optional[List[str]] = None,
    run_id: Optional[str] = None,
    stale_sec: float = DEFAULT_STALE_SEC,
) -> Dict:
    """Process pending input shards through ``pipeline_fn``, resumably.

    ``pipeline_fn(ds) -> ds`` gets the ``read_columns`` of the pending
    shards plus a ``pid`` column, read by a :class:`ParquetSliceDatasource`,
    and must preserve ``pid``. A chain of task-pool ``map_batches``
    without ``batch_size`` fuses with the read and the write into one
    operator. Returns
    a summary dict with processed/skipped/locked partitions and row
    counts. Safe under concurrent drivers sharing ``out_root``: each
    pending shard is processed by exactly one of them (lease claims).
    """
    store = LineageStore(out_root)
    if run_id is None:
        # host-unique: two drivers launched the same second on
        # different hosts sharing an NFS out_root must never collide
        # on (pid, timestamp) alone
        run_id = (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
    store.register_run(run_id)
    done = store.done_partitions()
    by_pid = partition_ids(input_files)
    candidates = {pid: f for pid, f in by_pid.items() if pid not in done}
    # lease: claim each candidate; shards claimed by a LIVE concurrent
    # run are reported as locked and left to that run
    pending, locked = {}, []
    for pid, f in candidates.items():
        if store.try_claim(pid, run_id, stale_sec):
            pending[pid] = f
        else:
            locked.append(pid)
    summary = {
        "total_partitions": len(by_pid),
        "skipped_partitions": sorted(set(by_pid) - set(candidates)),
        "locked_partitions": sorted(locked),
        "processed_partitions": sorted(pending),
        "rows_written": 0,
    }
    if not pending:
        store.finish_run(run_id)
        return summary

    for pid in pending:
        store.append_state(pid, "busy", run_ts,
                           {"input_file": pending[pid], "run_id": run_id})

    # sweep staging dirs of DEAD runs only (ours is freshly registered)
    store.sweep_staging(stale_sec)
    # all staging (incl. bisect retries) nests under ONE top-level
    # dir named by the run id, so a concurrent sweep always resolves
    # its owner (a sibling `_staging_<run>.0` would parse as owner
    # "<run>.0" and be swept out from under a live run)
    staging_root = os.path.join(out_root, f"_staging_{run_id}")

    n_cpus = _ray_cpus()
    run_t0 = _time.monotonic()
    failed: Dict[str, str] = {}
    lost: List[str] = []

    def _process(batch_pending: Dict[str, str], staging: str) -> None:
        """Run one shard subset; on failure BISECT so a single poison
        shard fails alone while healthy shards still publish.

        The reference distinguishes skip-this-doc from kill-the-run
        (`ocr_pipeline.py:426-441`); row-level errors are already
        isolated into the ``error`` column by the chain — this is the
        shard-level analogue for inputs that break the READ itself
        (corrupt parquet), at log2(n) extra executions worst-case.
        """
        try:
            # footers are read here, inside the try: a corrupt shard
            # fails this subset and the bisect below isolates it
            out = pipeline_fn(_slice_dataset(
                sorted((f, pid) for pid, f in batch_pending.items()),
                read_columns, n_cpus))
            out.write_parquet(staging, partition_cols=["pid"])
        except Exception as exc:
            shutil.rmtree(staging, ignore_errors=True)
            if len(batch_pending) == 1:
                (pid,) = batch_pending
                failed[pid] = str(exc)
                store.append_state(pid, "fail", run_ts,
                                   {"error": str(exc), "run_id": run_id})
                store.release(pid, run_id)
                return
            pids = sorted(batch_pending)
            half = len(pids) // 2
            for i, part in enumerate((pids[:half], pids[half:])):
                _process({p: batch_pending[p] for p in part},
                         f"{staging}.{i}")
            return

        stages = _stage_metrics(out)
        run_wall = round(_time.monotonic() - run_t0, 3)
        for pid in batch_pending:
            # publish re-checks lease ownership: if another driver
            # stole this claim (stale takeover) while we processed,
            # publishing anyway would double-write the partition —
            # skip it, leave its lineage un-done, and report it lost
            if store.lock_owner(pid) != run_id:
                lost.append(pid)
                continue
            src = os.path.join(staging, f"pid={pid}")
            dst = os.path.join(out_root, f"pid={pid}")
            rows = 0
            if os.path.isdir(src):
                for f in os.listdir(src):
                    if f.endswith(".parquet"):
                        rows += pq.ParquetFile(
                            os.path.join(src, f)).metadata.num_rows
                shutil.rmtree(dst, ignore_errors=True)
                os.replace(src, dst)  # atomic publish of the partition
            else:
                os.makedirs(dst, exist_ok=True)  # shard with zero rows
            # run_wall = driver wall so far; "stages" carries the
            # per-operator wall/rows split of the executed plan
            store.append_state(
                pid, "done", run_ts,
                {"rows": rows,
                 "run_id": run_id,
                 "run_wall_sec": run_wall,
                 "stages": stages},
            )
            store.release(pid, run_id)
            summary["rows_written"] += rows
        shutil.rmtree(staging, ignore_errors=True)

    heartbeat = _Heartbeat(store, run_id, list(pending), stale_sec)
    heartbeat.start()
    try:
        _process(pending, os.path.join(staging_root, "s"))
    finally:
        heartbeat.stop()
        shutil.rmtree(staging_root, ignore_errors=True)
        store.finish_run(run_id)
    summary["failed_partitions"] = sorted(failed)
    summary["lost_partitions"] = sorted(lost)
    summary["processed_partitions"] = sorted(
        set(pending) - set(failed) - set(lost)
    )
    if failed:
        # healthy shards are already published + marked done (a
        # re-run resumes past them); surface the poison shards loudly
        raise RuntimeError(
            f"{len(failed)} partition(s) failed: "
            + "; ".join(f"{p}: {e}" for p, e in sorted(failed.items()))
        )
    return summary
