"""The compiled extraction chain — one Arrow↔Python round trip per batch.

``build_pipeline`` runs every step list through this module. The row
steps (extract → replace → regex → finalize → quality) are ROW-LOCAL
functions; running them as separate ``map_batches`` stages would
deserialize/re-serialize the nested ``lines`` column once per stage.
``FusedExtractor`` compiles the ordered row steps into one callable
that converts each row once: html → lines → normalized texts →
spans → columns. ``QualityEstimate`` only notes which lines it
scores; one :func:`~ocr_pipeline_ray.functions.quality.quality_arrays`
call per batch scores them after the row loop. Whole-batch steps
(``EmitAlto``, ``RescoreQuality``, user-registered builders) follow
as trailing ``map_batches`` (see :func:`split_chain`).
:func:`make_fused_fn` wraps the chain for a whole-block
``map_batches`` and runs it on ``batch_size``-row slices of each
block, so the map fuses with the read and write around it while the
chain's working set stays small.

Columns follow the step list: each step (re)writes its columns at the
end of the table (:data:`_STEP_COLUMNS`). A chain without
``FinalizeText`` has no ``extracted_text``/``n_lines``/``doc_id``/
``page_id`` and its line ``start``/``stop`` stay -1; a chain without
``QualityEstimate`` has no quality columns; ``repl_stats`` exists
only with a replace step. Line geometry is fixed at extraction.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa

from ..config import ROW_STEPS, StepSpec, resolve_step
from ..functions.extract import ExtractConfig, extract_document
from ..functions.quality import quality_arrays
from ..functions.text import (
    doc_id_from_url,
    page_id_from_url,
    replace_chars,
    replace_chars_regex,
)
from ..schema import LINES_TYPE, QUALITY_FIELDS, REPL_STATS_TYPE

BACKUP_COLUMN = "text_before_replace_chars"
# the columns each row step (re)writes at the end of the table
_STEP_COLUMNS = {
    "HtmlExtract": ("lines", "n_raw_lines", "error"),
    "ReplaceChars": ("lines", "repl_stats"),
    "ReplaceCharsRegex": ("lines", "repl_stats"),
    "FinalizeText": ("lines", "extracted_text", "n_lines", "doc_id",
                     "page_id"),
    "QualityEstimate": tuple(name for name, _ in QUALITY_FIELDS),
}

# shared pool of line-id strings ("l00000", ...) — built lazily once
# per worker process
_LINE_ID_POOL: list = []


def _line_id(i: int) -> str:
    while len(_LINE_ID_POOL) <= i:
        _LINE_ID_POOL.append(f"l{len(_LINE_ID_POOL):05d}")
    return _LINE_ID_POOL[i]


def split_chain(
    specs: Sequence[StepSpec],
) -> Tuple[List[StepSpec], List[StepSpec]]:
    """Split a step list into its row steps (compiled into one chain)
    and the whole-batch steps that trail it.

    Raises ``KeyError`` for an unknown step type and ``ValueError``
    for a whole-batch step before a row step, or row steps that do
    not start with exactly one ``HtmlExtract``.
    """
    row: List[StepSpec] = []
    tail: List[StepSpec] = []
    for spec in specs:
        if spec.type not in ROW_STEPS:
            resolve_step(spec.type)
            tail.append(spec)
        elif tail:
            raise ValueError(
                f"whole-batch step {tail[0].type!r} must follow every row "
                f"step, but row step {spec.type!r} comes after it")
        else:
            row.append(spec)
    types = [s.type for s in row]
    if types and (types[0] != "HtmlExtract"
                  or types.count("HtmlExtract") > 1):
        raise ValueError(
            f"the row steps must start with HtmlExtract and hold it "
            f"once, got {types}")
    return row, tail


class FusedExtractor:
    """The compiled row-step chain, one conversion per batch.

    ``specs`` are row steps with ``HtmlExtract`` first (as
    :func:`split_chain` returns them). ``profile=True`` appends a
    ``step_wall_us`` map column — per-STEP wall microseconds
    accumulated over the call's rows (the reference's per-step
    ``profile()`` log, `ocr_pipeline.py:368-376`, at batch
    granularity; values repeat on every row of the call). Off by
    default: the timer calls are cheap but not free.
    """

    def __init__(self, specs: Sequence[StepSpec], profile: bool = False):
        from ..config import coerce_params

        self.profile = profile
        extract_params = coerce_params(specs[0].params)
        cfg = extract_params.get("config")
        if cfg is None:
            kwargs = {
                k: extract_params[k]
                for k in ("min_len", "max_link_density")
                if k in extract_params
            }
            cfg = ExtractConfig(**kwargs) if kwargs else ExtractConfig()
        self.cfg = cfg
        self.boiler_re = re.compile(cfg.boiler_class_pattern)
        self.tail = [(s.type, coerce_params(s.params)) for s in specs[1:]]
        columns: List[str] = list(_STEP_COLUMNS["HtmlExtract"])
        # the last QualityEstimate's params (its columns are the ones
        # kept), and whether it scores the chain's final lines
        self.quality = None
        self.quality_on_final = True
        for _type, params in self.tail:
            if _type == "QualityEstimate":
                if params.get("lexicon"):
                    params["lexicon"] = frozenset(
                        w.lower() for w in params["lexicon"]
                    )
                self.quality = params
                self.quality_on_final = True
            elif _type in ("ReplaceChars", "ReplaceCharsRegex"):
                self.quality_on_final = False
            written = _STEP_COLUMNS[_type]
            if _type == "ReplaceChars" and params.get("backup"):
                written += (BACKUP_COLUMN,)
            columns = [c for c in columns if c not in written] + list(written)
        self.columns = columns

    def _process_row(self, raw: Optional[bytes], timings=None):
        """One row: texts through the chain. Returns (extracted
        texts, texts, n_raw, error, stats_items, backup,
        extracted_text, starts, stops, scored, overrides), where
        ``scored`` is the texts the last QualityEstimate sees."""
        from time import perf_counter

        error = None
        texts: List[str] = []
        overrides = None
        n_raw = 0
        t0 = perf_counter() if timings is not None else 0.0
        if raw is None:
            error = "empty html"
        else:
            try:
                texts, overrides, stats = extract_document(
                    raw, self.cfg, self.boiler_re
                )
                n_raw = stats["n_raw_lines"]
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                texts = []
                overrides = None
        if timings is not None:
            now = perf_counter()
            timings["HtmlExtract"] = timings.get("HtmlExtract", 0.0) + (now - t0)
            t0 = now
        extracted = texts
        repl_stats: Dict[str, int] = {}
        backup = None
        extracted_text = ""
        scored = None
        starts: List[int] = []
        stops: List[int] = []
        for _type, params in self.tail:
            if _type == "ReplaceChars":
                if params.get("backup"):
                    backup = "\n".join(texts)
                texts, stats = replace_chars(texts, params["dict_chars"])
                for k, v in stats.items():
                    repl_stats[k] = repl_stats.get(k, 0) + v
            elif _type == "ReplaceCharsRegex":
                texts, stats = replace_chars_regex(
                    texts, params["pattern"], params["old"], params["new"]
                )
                for k, v in stats.items():
                    repl_stats[k] = repl_stats.get(k, 0) + v
            elif _type == "FinalizeText":
                starts = []
                stops = []
                pos = 0
                for txt in texts:
                    starts.append(pos)
                    stops.append(pos + len(txt))
                    pos += len(txt) + 1
                extracted_text = "\n".join(texts)
            elif _type == "QualityEstimate":
                scored = texts
            if timings is not None:
                now = perf_counter()
                timings[_type] = timings.get(_type, 0.0) + (now - t0)
                t0 = now
        return (extracted, texts, n_raw, error, list(repl_stats.items()),
                backup, extracted_text, starts, stops, scored, overrides)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        timings = {} if self.profile else None
        if timings is not None:
            from time import perf_counter

            batch_t0 = perf_counter()
        columns = self.columns
        htmls = batch.column("html").to_pylist()
        n_raw_col, err_col, stats_col, backup_col = [], [], [], []
        text_col, nl_col = [], []
        flat_scored: List[str] = []
        scored_offsets = [0]
        flat_extracted: List[str] = []
        flat_texts: List[str] = []
        flat_starts: List[int] = []
        flat_stops: List[int] = []
        offsets = [0]
        xml_overrides = []  # (flat_pos, ids, geoms) for ALTO/PAGE docs
        for raw in htmls:
            (extracted, texts, n_raw, error, stats, backup, extracted_text,
             starts, stops, scored, overrides) = self._process_row(
                raw, timings)
            n_raw_col.append(n_raw)
            err_col.append(error)
            stats_col.append(stats)
            backup_col.append(backup)
            text_col.append(extracted_text)
            nl_col.append(len(texts))
            if overrides is not None and texts:
                xml_overrides.append((offsets[-1],) + overrides)
            flat_extracted.extend(extracted)
            flat_texts.extend(texts)
            flat_starts.extend(starts)
            flat_stops.extend(stops)
            offsets.append(offsets[-1] + len(texts))
            if scored is not None and not self.quality_on_final:
                flat_scored.extend(scored)
                scored_offsets.append(scored_offsets[-1] + len(scored))

        # columnar construction of the nested lines column: geometry
        # and ids are pure functions of (in-doc index, extracted text
        # length), computed vectorized — no per-line dict allocation.
        total = offsets[-1]
        lengths = np.diff(np.asarray(offsets, dtype=np.int64))
        doc_starts = np.repeat(
            np.asarray(offsets[:-1], dtype=np.int64), lengths
        )
        idx = np.arange(total, dtype=np.int64) - doc_starts
        text_lens = np.fromiter(
            (len(t) for t in flat_extracted), dtype=np.int64, count=total
        )
        cfg = self.cfg
        ids = [_line_id(i) for i in idx]
        hpos_arr = np.full(total, cfg.hpos0, dtype=np.int32)
        vpos_arr = (cfg.vpos0 + cfg.line_step * idx).astype(np.int32)
        width_arr = (cfg.char_width * text_lens).astype(np.int32)
        height_arr = np.full(total, cfg.line_height, dtype=np.int32)
        # ALTO/PAGE documents carry REAL element ids + coordinates
        for pos, real_ids, geoms in xml_overrides:
            for j, (rid, (h, v, w, ht)) in enumerate(zip(real_ids, geoms)):
                ids[pos + j] = rid
                hpos_arr[pos + j] = h
                vpos_arr[pos + j] = v
                width_arr[pos + j] = w
                height_arr[pos + j] = ht
        if "extracted_text" in columns:
            starts_arr = pa.array(flat_starts, pa.int64())
            stops_arr = pa.array(flat_stops, pa.int64())
        else:  # not finalized: no span offsets yet
            starts_arr = stops_arr = pa.array(
                np.full(total, -1, dtype=np.int64))
        texts_arr = pa.array(flat_texts, pa.string())
        offsets_arr = pa.array(offsets, pa.int32())
        struct = pa.StructArray.from_arrays(
            [
                pa.array(ids, pa.string()),
                texts_arr,
                starts_arr,
                stops_arr,
                pa.array(hpos_arr),
                pa.array(vpos_arr),
                pa.array(width_arr),
                pa.array(height_arr),
            ],
            fields=list(LINES_TYPE.value_type),
        )
        urls = batch.column("url").to_pylist()
        built = {
            "lines": pa.ListArray.from_arrays(offsets_arr, struct),
            "n_raw_lines": pa.array(n_raw_col, pa.int32()),
            "error": pa.array(err_col, pa.string()),
            "repl_stats": pa.array(stats_col, REPL_STATS_TYPE),
            BACKUP_COLUMN: pa.array(backup_col, pa.string()),
            "extracted_text": pa.array(text_col, pa.string()),
            "n_lines": pa.array(nl_col, pa.int32()),
            "doc_id": pa.array([doc_id_from_url(u) for u in urls],
                               pa.string()),
            "page_id": pa.array([page_id_from_url(u) for u in urls],
                                pa.string()),
        }
        if self.quality is not None:
            t0 = perf_counter() if timings is not None else 0.0
            if self.quality_on_final:
                scored_lines = pa.ListArray.from_arrays(offsets_arr, texts_arr)
            else:
                scored_lines = pa.ListArray.from_arrays(
                    pa.array(scored_offsets, pa.int32()),
                    pa.array(flat_scored, pa.string()))
            built.update(quality_arrays(
                scored_lines, self.quality.get("lexicon"),
                self.quality.get("minlen", 2)))
            if timings is not None:
                timings["QualityEstimate"] = (
                    timings.get("QualityEstimate", 0.0) + perf_counter() - t0)
        out = batch.drop_columns(["html"])
        for name in columns:
            out = out.append_column(name, built[name])
        if timings is not None:
            total = perf_counter() - batch_t0
            timings["arrow_assembly"] = total - sum(timings.values())
            items = [(k, int(v * 1_000_000)) for k, v in timings.items()]
            out = out.append_column(
                "step_wall_us",
                pa.array([items] * out.num_rows,
                         pa.map_(pa.string(), pa.int64())),
            )
        return out


# per-worker-process compiled-chain cache: worker processes persist
# across tasks, so each worker compiles the chain exactly once (the
# reference's load-once-per-worker guarantee, ocr_pipeline.py:517,
# without pinning an actor pool).
_FUSED_CACHE: dict = {}


def make_fused_fn(specs: Sequence[StepSpec], batch_size: int,
                  profile: bool = False):
    """The compiled chain as a ``map_batches`` function.

    Each call runs the chain on ``batch_size``-row slices of its input
    and concatenates the results, so the chain's Python working set
    stays ``batch_size`` rows however big the Ray Data block is; the
    output equals the unsliced call's.
    """
    spec_list = [StepSpec(s.type, dict(s.params)) for s in specs]
    key = repr([(s.type, sorted((k, repr(v)) for k, v in s.params.items()))
                for s in spec_list]) + f"|profile={profile}"

    def _fused_fn(batch: pa.Table) -> pa.Table:
        inst = _FUSED_CACHE.get(key)
        if inst is None:
            inst = FusedExtractor(spec_list, profile=profile)
            _FUSED_CACHE[key] = inst
        if batch.num_rows <= batch_size:
            return inst(batch)
        return pa.concat_tables([
            inst(batch.slice(i, batch_size))
            for i in range(0, batch.num_rows, batch_size)
        ])

    return _fused_fn
