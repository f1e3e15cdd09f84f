"""Post-processing-only pipeline: re-score an extracted corpus.

The analogue of running the reference CLI with
``conf/ocr_config_post.ini`` — a pipeline whose only step is the
quality estimator over already-produced output
(`/root/reference/conf/ocr_config_post.ini:4,13-19`, SURVEY.md §3.3):
re-scoring a finished corpus without re-extraction. Input is this
engine's OWN output table (``extracted_text`` column); lines are the
newline-split of the stored text (the stored span offsets delimit
exactly these lines).

The read goes through :func:`~ocr_pipeline_ray.state.lineage.read_output`,
so the read, the quality step and a ``write_parquet`` after it run as
ONE Ray Data operator (``ReadParquetSlice->MapBatches(_fn)->Write``),
one task of equal rows per CPU whatever the file count.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineContext, register_step
from ..functions.quality import quality_arrays
from ..schema import QUALITY_FIELDS
from ..state.lineage import read_output


def make_rescore_fn(lexicon: Optional[FrozenSet[str]] = None, minlen: int = 2,
                    text_col: str = "extracted_text"):
    lex = frozenset(w.lower() for w in lexicon) if lexicon else None

    def _fn(batch: pa.Table) -> pa.Table:
        lines = pc.split_pattern(batch.column(text_col), "\n")
        quality = quality_arrays(lines, lex, minlen)
        drop = [n for n, _ in QUALITY_FIELDS if n in batch.column_names]
        out = batch.drop_columns(drop)
        for name, _ in QUALITY_FIELDS:
            out = out.append_column(name, quality[name])
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
                     text_col: str = "extracted_text") -> "ray.data.Dataset":
    """Extracted-output parquet (files, dirs or globs, as
    :func:`~ocr_pipeline_ray.state.lineage.output_files`) → the same
    rows with fresh quality columns, streaming and in file order."""
    return read_output(paths).map_batches(
        make_rescore_fn(lexicon, minlen=int(minlen), text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )
