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
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1), got {self.iou_threshold}")
        if not 0.0 < self.blend_ratio < 1.0:
            raise ValueError(f"blend_ratio must be in (0, 1), got {self.blend_ratio}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not self.tokens or any(t < 0 for t in self.tokens):
            raise ValueError("tokens must be a non-empty list of non-negative indices")
        if self.ddim_steps < 1:
            raise ValueError(f"ddim_steps must be >= 1, got {self.ddim_steps}")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ValueError(
                f"betas must satisfy 0 < beta_start <= beta_end < 1, "
                f"got ({self.beta_start}, {self.beta_end})"
            )
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        try:
            if self.embedder_command is not None and not shlex.split(self.embedder_command):
                raise ValueError("names no program")
        except ValueError as exc:  # e.g. shlex's "No closing quotation"
            raise ValueError(f"embedder_command: {exc}") from None


CONFIG_FIELDS = frozenset(f.name for f in fields(PipelineConfig))

# config fields whose values are filesystem paths
PATH_FIELDS = frozenset(
    {
        "source",
        "detections",
        "answer",
        "db",
        "query_embedding",
        "stack",
        "manifest",
        "out_dir",
    }
)


def parse_pipeline_config(text: str) -> dict:
    """Parse a config file into a dict of validated field values.

    Unknown keys are rejected outright: silently ignoring a typo like
    ``frame_cont`` would change the run without a trace.
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError(f"$: expected an object, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        if key not in CONFIG_FIELDS:
            raise ParseError(f"$: unknown config field {key!r}")
        if key in PATH_FIELDS or key == "embedder_command":  # argv text, not a path
            out[key] = string(value, "$", key, nonempty=True)
        elif key == "tokens":
            array(value, "$", key, nonempty=True)
            out[key] = tuple(integer(t, key, i, minimum=0) for i, t in enumerate(value))
        elif key == "union_initial_mask":
            out[key] = boolean(value, "$", key)
        elif key == "seed":
            out[key] = integer(value, "$", key, minimum=0)
        elif key in {"frame_count", "top_k", "ddim_steps", "latent_dim"}:
            out[key] = integer(value, "$", key)
        else:  # real-valued knob
            out[key] = real(value, "$", key)
    return out


def make_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Merge config-file values with flag overrides (overrides win)."""
    merged = {}
    if file_values:
        merged.update(file_values)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**merged)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"invalid configuration: {exc}") from exc
