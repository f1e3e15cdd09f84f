"""The flagship extraction pipeline — pages in, extracted docs out.

Chain (default config = reference conf/ocr_config.ini parity):

``read_parquet(pages)``
→ ``HtmlExtract``      (format sniff + line extraction — M1/M4/M5)
→ ``ReplaceChars``     (ordered dict — M2)
→ ``ReplaceCharsRegex``(first-match — M3)
→ ``FinalizeText``     (extracted_text + span offsets)
→ ``QualityEstimate``  (M6-M9 inside)
→ ``write_parquet``    / report aggregation (A1/A2/S5)

The row steps compile into ONE ``map_batches`` task pool
(stages/fused.py) over whole blocks, so Ray Data fuses it with the
read before it and the write after it; whole-batch steps such as
``EmitAlto`` follow it as trailing ``map_batches`` from the step
registry. Everything streams; nothing materializes the full corpus.
The step chain is assembled from :mod:`ocr_pipeline_ray.config`
StepSpecs so user configs (INI or dicts) order/extend it exactly like
the reference's ``step_01..NN`` sections.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import ray.data

from ..config import (
    PipelineContext,
    StepSpec,
    default_steps,
    register_step,
    resolve_step,
)
from . import rescore  # noqa: F401  registers RescoreQuality


@register_step("EmitAlto")
def _build_emit_alto(ds, params, ctx: PipelineContext):
    """Optional ALTO v4 serialization of the extracted lines — the S4
    pretty/CRLF XML writer as an ``alto_xml`` binary column."""
    from ..functions.xmlout import alto_xml_fn

    return ds.map_batches(alto_xml_fn, batch_format="pyarrow",
                          zero_copy_batch=True)


def build_pipeline(
    ds: "ray.data.Dataset",
    steps: Optional[Sequence[StepSpec]] = None,
    ctx: Optional[PipelineContext] = None,
    profile: bool = False,
) -> "ray.data.Dataset":
    """Apply the ordered step chain to a pages Dataset (lazy).

    The row steps compile to ONE task-pool stage (single Arrow↔Python
    conversion per batch, see stages/fused.py); each whole-batch step
    after them runs as its registered builder. The stage maps whole
    Ray Data blocks — a ``map_batches`` with a ``batch_size`` cannot
    fuse behind a read — and the chain slices each block into
    ``ctx.batch_size``-row calls itself. A chain that puts a
    whole-batch step before a row step raises ``ValueError`` here.
    ``profile=True`` adds the compiled chain's per-step
    ``step_wall_us`` timing column (the reference's per-step
    profile() log at batch granularity).
    """
    from ..stages.fused import make_fused_fn, split_chain

    ctx = ctx or PipelineContext()
    specs = list(steps) if steps is not None else default_steps()
    row, tail = split_chain(specs)
    if row:
        # no ``batch_size=`` here: it would stop the read fusing
        ds = ds.map_batches(
            make_fused_fn(row, ctx.batch_size, profile=profile),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    for spec in tail:
        ds = resolve_step(spec.type)(ds, spec.params, ctx)
    return ds


def read_pages(paths, columns: Optional[List[str]] = None, **kwargs):
    """Read the pages table, pruning to the needed columns at the scan."""
    if columns is None:
        columns = ["url", "warc_ts", "html", "lang"]
    return ray.data.read_parquet(paths, columns=columns, **kwargs)
