"""Declarative pipeline configuration.

A run is fully described by one config file plus command-line flag overrides;
flags win.  Every field has a default, so the file (and all flags) may be
omitted entirely for commands whose inputs are given positionally.

Path-valued fields in a config file are interpreted relative to the file's
own directory by the CLI, which keeps run artifacts relocatable.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, fields

from ._schema import array, boolean, integer, load_json, real, string
from .blending import BLEND_RATIO_DEFAULT
from .ddim import BETA_END_DEFAULT, BETA_START_DEFAULT, STEPS_DEFAULT
from .editor import IOU_THRESHOLD_DEFAULT
from .errors import ParseError

FRAME_COUNT_DEFAULT = 12

# ceilings on the counts a run allocates by, so an absurd value is refused as
# a bad config instead of failing inside numpy
FRAME_COUNT_MAX = 10_000
DDIM_STEPS_MAX = 10_000
LATENT_DIM_MAX = 4_096
TOKEN_INDEX_MAX = 76  # a CLIP text context holds 77 tokens


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs and input/output paths shared by the CLI commands."""

    frame_count: int = FRAME_COUNT_DEFAULT
    iou_threshold: float = IOU_THRESHOLD_DEFAULT
    blend_ratio: float = BLEND_RATIO_DEFAULT
    top_k: int = 1
    tokens: tuple[int, ...] = (0,)
    union_initial_mask: bool = False
    ddim_steps: int = STEPS_DEFAULT
    beta_start: float = BETA_START_DEFAULT
    beta_end: float = BETA_END_DEFAULT
    latent_dim: int = 8
    seed: int = 0
    embedder_command: str | None = None
    source: str | None = None
    detections: str | None = None
    answer: str | None = None
    db: str | None = None
    query_embedding: str | None = None
    stack: str | None = None
    manifest: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        """Check each field in declaration order, then the beta order, and
        store the checked values; ParseError names the first bad field."""
        for f in fields(self):
            value = _RULES.get(f.name, _path)(getattr(self, f.name), f.name)
            object.__setattr__(self, f.name, value)
        if self.beta_start > self.beta_end:
            raise ParseError(
                f"beta_start, beta_end: must satisfy beta_start <= beta_end, "
                f"got ({self.beta_start}, {self.beta_end})"
            )


def _count(minimum, maximum=None):
    return lambda value, key: integer(value, "$", key, minimum=minimum, maximum=maximum)


def _open_unit(value, key) -> float:
    value = real(value, "$", key)
    if not 0.0 < value < 1.0:
        raise ParseError(f"{key}: must be in (0, 1), got {value}")
    return value


def _tokens(value, key) -> tuple[int, ...]:
    items = array(list(value) if isinstance(value, tuple) else value, "$", key, nonempty=True)
    return tuple(
        integer(t, "$", key, i, minimum=0, maximum=TOKEN_INDEX_MAX) for i, t in enumerate(items)
    )


def _path(value, key) -> str | None:
    return None if value is None else string(value, "$", key, nonempty=True, text=False)


def _command(value, key) -> str | None:
    value = _path(value, key)  # argv text, not a path, but the same rule
    try:
        if value is not None and not shlex.split(value):
            raise ValueError("names no program")
    except ValueError as exc:  # e.g. shlex's "No closing quotation"
        raise ParseError(f"{key}: {exc}") from None
    return value


# the rule of each field; every other field is a filesystem path
_RULES = {
    "frame_count": _count(1, FRAME_COUNT_MAX),
    "top_k": _count(1),
    "ddim_steps": _count(1, DDIM_STEPS_MAX),
    "latent_dim": _count(1, LATENT_DIM_MAX),
    **dict.fromkeys(("iou_threshold", "blend_ratio", "beta_start", "beta_end"), _open_unit),
    "tokens": _tokens,
    "union_initial_mask": lambda value, key: boolean(value, "$", key),
    "seed": _count(0),
    "embedder_command": _command,
}

CONFIG_FIELDS = frozenset(f.name for f in fields(PipelineConfig))
PATH_FIELDS = CONFIG_FIELDS - _RULES.keys()


def parse_pipeline_config(text: str) -> dict:
    """Decode a config file into a dict of its field values, as written;
    :class:`PipelineConfig` checks them, as it checks flags and library
    callers' values.

    Unknown keys are rejected outright: silently ignoring a typo like
    ``frame_cont`` would change the run without a trace.
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError(f"$: expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in CONFIG_FIELDS:
            raise ParseError(f"$: unknown config field {key!r}")
    return doc


def make_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Merge config-file values with flag overrides (overrides win)."""
    merged = dict(file_values or {})
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    try:
        return PipelineConfig(**merged)
    except (ParseError, TypeError) as exc:  # TypeError: an unknown field
        raise ParseError(f"invalid configuration: {exc}") from exc
