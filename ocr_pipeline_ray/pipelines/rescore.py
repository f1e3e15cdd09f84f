"""Post-processing-only pipeline: re-score an extracted corpus.

The analogue of running the reference CLI with
``conf/ocr_config_post.ini`` — a pipeline whose only step is the
quality estimator over already-produced output
(`/root/reference/conf/ocr_config_post.ini:4,13-19`, SURVEY.md §3.3):
re-scoring a finished corpus without re-extraction. Input is this
engine's OWN output table (``extracted_text`` column); lines are the
newline-split of the stored text (the stored span offsets delimit
exactly these lines).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

import pyarrow as pa

import ray.data

from ..config import PipelineContext, register_step
from ..functions.quality import estimate_quality
from ..schema import QUALITY_FIELDS


def make_rescore_fn(lexicon: Optional[FrozenSet[str]] = None, minlen: int = 2,
                    text_col: str = "extracted_text"):
    lex = frozenset(w.lower() for w in lexicon) if lexicon else None

    def _fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        cols = {name: [] for name, _ in QUALITY_FIELDS}
        for text in texts:
            lines = text.split("\n") if text else []
            rec = estimate_quality(lines, lex, minlen)
            for name, _ in QUALITY_FIELDS:
                cols[name].append(rec[name])
        drop = [n for n, _ in QUALITY_FIELDS if n in batch.column_names]
        out = batch.drop_columns(drop)
        for name, typ in QUALITY_FIELDS:
            out = out.append_column(name, pa.array(cols[name], typ))
        return out

    return _fn


@register_step("RescoreQuality")
def _build_rescore(ds, params, ctx: PipelineContext):
    fn = make_rescore_fn(
        lexicon=params.get("lexicon"),
        minlen=int(params.get("minlen", 2)),
        text_col=params.get("text_col", "extracted_text"),
    )
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def rescore_pipeline(paths, lexicon=None, minlen: int = 2,
                     text_col: str = "extracted_text",
                     **read_kwargs) -> "ray.data.Dataset":
    """Extracted-output parquet → fresh quality columns (streaming)."""
    ds = ray.data.read_parquet(paths, **read_kwargs)
    return ds.map_batches(
        make_rescore_fn(lexicon, minlen=int(minlen), text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )
