"""Declarative pipeline configuration + step registry.

The reference assembles its per-document step chain from INI sections
``step_01..step_NN`` sorted numerically, resolving each section's
``type`` string through ``globals()``
(`/root/reference/ocr_pipeline.py:101-118`). This engine keeps the
same extension surface — a string-typed ordered step list — but with
an explicit registry (no ``globals()`` magic) and upfront parameter
validation. The row steps in :data:`ROW_STEPS` compile into one
chain; any other type names a registered whole-batch builder that
takes ``(ds, params, ctx)`` and returns the transformed Dataset, so
user-defined stages plug in by registering a builder name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from .functions.text import parse_dict, strip_raw_wrapper


@dataclass
class StepSpec:
    type: str
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class PipelineContext:
    """Per-run sizing shared by all stages.

    ``batch_size``: rows per call of the compiled chain inside a Ray
    Data block — the chain's Python working set. The chain's
    ``map_batches`` takes whole blocks (so it fuses with the read
    before it) and slices each into ``batch_size``-row calls. 256
    measured ~15% faster than 64 (per-call Arrow assembly amortizes
    better) while keeping a call small even for fat pages (256 ×
    500 KB html = 128 MB worst case; shrink it for multi-MB
    documents).
    """

    batch_size: int = 256


# Typed INI params (configparser yields strings only). Explicit table —
# NOT auto-coercion — because some string params are digits by design
# (e.g. the ReplaceCharsRegex ``old = 3`` literal must stay '3').
INT_PARAMS = frozenset({"min_len", "minlen", "batch_size"})
FLOAT_PARAMS = frozenset({"max_link_density"})
BOOL_PARAMS = frozenset({"backup"})


def coerce_params(params: Dict[str, object]) -> Dict[str, object]:
    """Coerce known-typed step params (idempotent on already-typed)."""
    out = dict(params)
    for key, value in params.items():
        if key in INT_PARAMS:
            out[key] = int(value)
        elif key in FLOAT_PARAMS:
            out[key] = float(value)
        elif key in BOOL_PARAMS and isinstance(value, str):
            out[key] = value.strip().lower() in ("1", "true", "yes", "on")
    return out


# Row steps compile into the one chain (stages/fused.py); every other
# step type is a whole-batch builder looked up in STEP_REGISTRY.
ROW_STEPS = frozenset({"HtmlExtract", "ReplaceChars", "ReplaceCharsRegex",
                       "FinalizeText", "QualityEstimate"})
STEP_REGISTRY: Dict[str, Callable] = {}


def register_step(name: str):
    """Decorator: register a stage builder under a config type name."""

    def _wrap(builder: Callable):
        STEP_REGISTRY[name] = builder
        return builder

    return _wrap


def resolve_step(name: str) -> Callable:
    if name not in STEP_REGISTRY:
        raise KeyError(
            f"unknown step type '{name}' — registered: "
            f"{sorted(ROW_STEPS | set(STEP_REGISTRY))}"
        )
    return STEP_REGISTRY[name]


def default_steps() -> List[StepSpec]:
    """Default chain mirroring the reference's conf/ocr_config.ini:

    recognition → char replacement → regex replacement → quality.
    ``dict_chars`` matches conf/ocr_config.ini:24 (entities decoded);
    the regex matches tests/resources/ocr_config_full.ini:27-30.
    """
    return [
        StepSpec("HtmlExtract", {}),
        StepSpec("ReplaceChars", {"dict_chars": {"ic)": "ich", "s<": "sc", "<": "c"}}),
        StepSpec(
            "ReplaceCharsRegex",
            {"pattern": '([aeioubcglnt]3[:-]*")', "old": "3", "new": "s"},
        ),
        StepSpec("FinalizeText", {}),
        StepSpec("QualityEstimate", {}),
    ]


def load_steps_ini(path: str) -> List[StepSpec]:
    """Parse an INI pipeline config into ordered StepSpecs.

    Sections ``step_01..step_NN`` sorted numerically, ``type`` key
    picks the registered builder; remaining keys pass through as
    params. ``dict_chars`` accepts the reference's loose
    ``{'a':'b', ...}`` syntax; ``pattern`` may carry the stored
    ``r'...'`` wrapper (tests/resources/ocr_config_full.ini:28) which
    is stripped here.
    """
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ValueError(f"no pipeline configuration at {path}")
    sections = [s for s in cfg.sections() if s.startswith("step_")]
    ordered = sorted(sections, key=lambda s: int(s.split("_")[1]))
    specs: List[StepSpec] = []
    for section in ordered:
        params = {k: v for k, v in cfg[section].items() if k != "type"}
        specs.append(StepSpec(cfg.get(section, "type"),
                              normalize_params(params)))
    return specs


def normalize_params(params: Dict[str, object]) -> Dict[str, object]:
    """String-form step params → typed params (INI and CLI share this)."""
    params = dict(params)
    if "dict_chars" in params:
        params["dict_chars"] = parse_dict(params["dict_chars"])
    if "pattern" in params and isinstance(params["pattern"], str):
        params["pattern"] = strip_raw_wrapper(params["pattern"])
    if "lexicon" in params and isinstance(params["lexicon"], str):
        params["lexicon"] = frozenset(
            w.strip() for w in params["lexicon"].split(",") if w.strip()
        )
    return coerce_params(params)


def apply_overrides(specs: List[StepSpec], overrides: List[str]) -> List[StepSpec]:
    """Merge ``section.key=value`` CLI overrides over loaded StepSpecs.

    The reference's ``merge_args`` analogue
    (`/root/reference/ocr_pipeline.py:74-93`): CLI wins over config.
    ``section`` is ``step_NN`` (1-based position in the chain) or a
    step TYPE name (first step of that type). Values pass through the
    same string→typed normalization as INI params.
    """
    out = [StepSpec(s.type, dict(s.params)) for s in specs]
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(
                f"override must look like step_01.key=value, got: {item!r}"
            )
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section.startswith("step_") and section[5:].isdigit():
            index = int(section[5:]) - 1
            if not 0 <= index < len(out):
                raise ValueError(
                    f"override section {section} out of range "
                    f"(chain has {len(out)} steps)"
                )
        else:
            matches = [i for i, s in enumerate(out) if s.type == section]
            if not matches:
                raise ValueError(
                    f"no step of type {section!r} in the chain "
                    f"({[s.type for s in out]})"
                )
            index = matches[0]
        out[index].params.update(normalize_params({key: value}))
    return out
