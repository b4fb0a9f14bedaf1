"""Mask-propagating attention blending across a descending timestep schedule.

Two attention traces exist per step: one recorded while inverting the source
clip and one produced while denoising the edit.  At the highest step the
foreground mask is thresholded from the inversion cross-attention; each later
step re-thresholds from the denoising cross-attention of the immediately
preceding (higher) step.  The step's blended self-attention map is then

    s_edit = mask * s_den + (1 - mask) * s_inv      (elementwise)

so masked-in cells follow the edit and masked-out cells keep the source.
Spatial maps are per-pixel grids; the blend rule is elementwise, so nothing
here depends on how a real attention tensor was reduced to a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schema import array, construct, integer, load_json, obj, reals
from .errors import GeometryError, ParseError, ShapeError

BLEND_RATIO_DEFAULT = 0.3


@dataclass(frozen=True, eq=False)
class SpatialMap:
    """h x w grid of non-negative finite reals."""

    h: int
    w: int
    values: np.ndarray

    @classmethod
    def _view(cls, values: np.ndarray) -> SpatialMap:
        """A map over ``values``, a 2-D float64 array its maker has already
        checked, or built, finite and non-negative: the public constructor
        would check it a second time."""
        m = cls.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(m, "h", values.shape[0])
        object.__setattr__(m, "w", values.shape[1])
        object.__setattr__(m, "values", values)
        return m

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ShapeError("map dimensions must be positive")
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (self.h, self.w):
            raise ShapeError(f"values shape {arr.shape} does not match ({self.h}, {self.w})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("map values must be finite")
        if (arr < 0.0).any():
            raise ValueError("map values must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class Mask:
    """h x w binary grid."""

    h: int
    w: int
    bits: np.ndarray

    @classmethod
    def _view(cls, bits: np.ndarray) -> Mask:
        """A mask over ``bits``, a 2-D uint8 array of 0s and 1s by
        construction: the public constructor would check it a second time."""
        m = cls.__new__(cls)
        bits.setflags(write=False)
        object.__setattr__(m, "h", bits.shape[0])
        object.__setattr__(m, "w", bits.shape[1])
        object.__setattr__(m, "bits", bits)
        return m

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ShapeError("mask dimensions must be positive")
        arr = np.array(self.bits, dtype=np.uint8, copy=True)
        if arr.shape != (self.h, self.w):
            raise ShapeError(f"bits shape {arr.shape} does not match ({self.h}, {self.w})")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask bits must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)


@dataclass(frozen=True, eq=False)
class CrossAttentionMap:
    """One spatial map per prompt token, all sharing (h, w)."""

    maps: tuple[SpatialMap, ...]

    @classmethod
    def _view(cls, maps: tuple[SpatialMap, ...]) -> CrossAttentionMap:
        """Token maps that share one grid by construction, unchecked."""
        c = cls.__new__(cls)
        object.__setattr__(c, "maps", maps)
        return c

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ShapeError("cross-attention map needs at least one token map")
        h, w = self.maps[0].h, self.maps[0].w
        for i, m in enumerate(self.maps):
            if (m.h, m.w) != (h, w):
                raise ShapeError(
                    f"token map {i} is {m.h}x{m.w}, expected {h}x{w}"
                )

    @property
    def tokens(self) -> int:
        return len(self.maps)

    @property
    def h(self) -> int:
        return self.maps[0].h

    @property
    def w(self) -> int:
        return self.maps[0].w


@dataclass(frozen=True, eq=False)
class BlendStepRecord:
    """Both processes' attention maps at one timestep."""

    step: int
    inversion_cross: CrossAttentionMap
    inversion_self: SpatialMap
    denoise_cross: CrossAttentionMap
    denoise_self: SpatialMap

    def __post_init__(self):
        if self.step < 1:
            raise ShapeError("step index must be >= 1")
        shapes = {
            (self.inversion_cross.h, self.inversion_cross.w),
            (self.inversion_self.h, self.inversion_self.w),
            (self.denoise_cross.h, self.denoise_cross.w),
            (self.denoise_self.h, self.denoise_self.w),
        }
        if len(shapes) != 1:
            raise ShapeError(f"step {self.step}: maps disagree on spatial size: {sorted(shapes)}")
        if self.inversion_cross.tokens != self.denoise_cross.tokens:
            raise ShapeError(
                f"step {self.step}: token counts differ between processes"
            )


@dataclass(frozen=True, eq=False)
class AttentionStack:
    """Per-step records in strictly descending step order (highest first)."""

    steps: tuple[BlendStepRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ShapeError("attention stack must contain at least one step")
        indices = [r.step for r in self.steps]
        for prev, cur in zip(indices, indices[1:]):
            if cur >= prev:
                raise ShapeError("step indices must be strictly descending")
        tokens = self.steps[0].inversion_cross.tokens
        for r in self.steps:
            if r.inversion_cross.tokens != tokens:
                raise ShapeError("token count must be uniform across steps")

    @property
    def tokens(self) -> int:
        return self.steps[0].inversion_cross.tokens


# the grid of synthetic_attention_stack's maps
_GRID_H = 4
_GRID_W = 4


def synthetic_attention_stack(trajectory, tokens: int) -> AttentionStack:
    """Deterministic stand-in attention for a sampled trajectory.

    A real U-Net would record cross- and self-attention at each denoising
    step; the demo derives small grids from the latent instead.  Each state
    of ``trajectory`` but the last (the step-0 result) gives one record at its
    step: |z| tiled row-major into a 4 x 4 grid, scaled per token and per
    process.  Raises :class:`GeometryError` when a map overflows the float
    range.
    """
    if tokens < 1:
        raise ValueError("tokens must be >= 1")
    records = []
    # overflow is reported below as a GeometryError, not as a numpy warning
    with np.errstate(over="ignore"):
        for z in trajectory[:-1]:
            t = z.t
            flat = np.abs(z.values)
            reps = -(-(_GRID_H * _GRID_W) // flat.size)
            grid = np.tile(flat, reps)[: _GRID_H * _GRID_W].reshape(_GRID_H, _GRID_W)
            # inversion cross, inversion self, denoising cross, denoising self
            scales = np.array(
                [1.0 + 0.25 * k for k in range(tokens)]
                + [2.0]
                + [0.5 + 0.25 * k + 0.01 * t for k in range(tokens)]
                + [3.0 + 0.01 * t]
            )
            values = scales[:, None, None] * grid
            # |z| and the scales are non-negative for every step >= 1, the only
            # steps BlendStepRecord accepts; only an overflow can spoil a map
            if not np.isfinite(values).all():
                raise GeometryError(f"step {t}: attention maps overflow the float range")
            maps = [SpatialMap._view(v) for v in values]
            records.append(
                BlendStepRecord(
                    step=t,
                    inversion_cross=CrossAttentionMap._view(tuple(maps[:tokens])),
                    inversion_self=maps[tokens],
                    denoise_cross=CrossAttentionMap._view(
                        tuple(maps[tokens + 1 : 2 * tokens + 1])
                    ),
                    denoise_self=maps[2 * tokens + 1],
                )
            )
    return AttentionStack(steps=tuple(records))


def threshold_mask(c: CrossAttentionMap, token_set, ratio: float) -> Mask:
    """Threshold the summed maps of ``token_set`` at ratio * max.

    Bit = 1 where the summed value is >= the cutoff.  A summed map that is
    identically zero has no foreground and yields the all-zero mask.  Raises
    :class:`GeometryError` when the sum overflows the float range.
    """
    token_set = tuple(token_set)
    if not token_set:
        raise ValueError("token_set must not be empty")
    for t in token_set:
        if not 0 <= t < c.tokens:
            raise IndexError(f"token index {t} out of range [0, {c.tokens})")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    summed = np.zeros((c.h, c.w), dtype=np.float64)
    # overflow is reported below as a GeometryError, not as a numpy warning
    with np.errstate(over="ignore"):
        for t in token_set:
            summed += c.maps[t].values
    peak = float(summed.max())
    if not np.isfinite(peak):
        raise GeometryError("summed token maps overflow the float range")
    if peak == 0.0:
        bits = np.zeros((c.h, c.w), dtype=np.uint8)
    else:
        bits = (summed >= ratio * peak).astype(np.uint8)
    return Mask._view(bits)


def blend_step(m: Mask, s_den: SpatialMap, s_inv: SpatialMap) -> SpatialMap:
    """Elementwise masked combination: mask picks s_den, complement picks s_inv."""
    if not ((m.h, m.w) == (s_den.h, s_den.w) == (s_inv.h, s_inv.w)):
        raise ShapeError(
            f"shape mismatch: mask {m.h}x{m.w}, s_den {s_den.h}x{s_den.w}, "
            f"s_inv {s_inv.h}x{s_inv.w}"
        )
    bits = m.bits.astype(np.float64)
    values = bits * s_den.values + (1.0 - bits) * s_inv.values
    return SpatialMap._view(values)


def resize_mask(m: Mask, h2: int, w2: int) -> Mask:
    """Nearest-neighbor resampling to (h2, w2); same-size requests pass through."""
    if h2 < 1 or w2 < 1:
        raise ShapeError("target dimensions must be positive")
    if (h2, w2) == (m.h, m.w):
        return m
    rows = [(i + 0.5) * m.h // h2 for i in range(h2)]
    cols = [(j + 0.5) * m.w // w2 for j in range(w2)]
    return Mask._view(m.bits[np.ix_([int(r) for r in rows], [int(c) for c in cols])])


def run_blend_schedule_with_masks(
    stack: AttentionStack,
    token_set,
    ratio: float = BLEND_RATIO_DEFAULT,
    union_with_initial: bool = False,
) -> list[tuple[int, Mask, SpatialMap]]:
    """``(step, mask, blended self-attention map)`` for every step, highest first.

    The highest step masks from its own inversion cross-attention; each later
    step masks from the denoising cross-attention of the step before it.  With
    ``union_with_initial`` the propagated mask is OR-ed with the initial one,
    widening the foreground instead of replacing it.
    """
    token_set = tuple(token_set)
    out = []
    initial = None
    previous = None
    for record in stack.steps:
        if previous is None:
            mask = threshold_mask(record.inversion_cross, token_set, ratio)
            initial = mask
        else:
            mask = threshold_mask(previous.denoise_cross, token_set, ratio)
            mask = resize_mask(mask, record.denoise_self.h, record.denoise_self.w)
            if union_with_initial:
                resized_initial = resize_mask(
                    initial, record.denoise_self.h, record.denoise_self.w
                )
                mask = Mask._view(np.maximum(mask.bits, resized_initial.bits))
        out.append(
            (record.step, mask, blend_step(mask, record.denoise_self, record.inversion_self))
        )
        previous = record
    return out


# --- stack file parsing ----------------------------------------------------------


def _parse_map(node, path) -> SpatialMap:
    obj(node, path, required=("h", "w", "values"))
    h = integer(node["h"], path, "h", minimum=1)
    w = integer(node["w"], path, "w", minimum=1)
    values = reals(node["values"], path, "values", nonneg=True)
    if len(values) != h * w:
        raise ParseError(f"{path}.values: expected a row-major array of {h * w} numbers")
    return SpatialMap._view(np.array(values, dtype=np.float64).reshape(h, w))


def _parse_cross(node, path) -> CrossAttentionMap:
    array(node, path, nonempty=True)
    maps = tuple(_parse_map(m, f"{path}[{i}]") for i, m in enumerate(node))
    return construct(CrossAttentionMap, path, maps=maps)


def parse_attention_stack(text: str) -> AttentionStack:
    """Parse a stack document: ``{"steps": [{step, c_inv, s_inv, c_den, s_den}]}``.

    ``c_inv``/``c_den`` are arrays of ``{h, w, values}`` token maps and
    ``s_inv``/``s_den`` single maps; steps must be strictly descending.
    """
    doc = obj(load_json(text), "$", required=("steps",))
    records = []
    for i, node in enumerate(array(doc["steps"], "$", "steps", nonempty=True)):
        path = f"steps[{i}]"
        obj(node, path, required=("step", "c_inv", "s_inv", "c_den", "s_den"))
        step = integer(node["step"], path, "step", minimum=1)
        records.append(
            construct(
                BlendStepRecord,
                path,
                step=step,
                inversion_cross=_parse_cross(node["c_inv"], f"{path}.c_inv"),
                inversion_self=_parse_map(node["s_inv"], f"{path}.s_inv"),
                denoise_cross=_parse_cross(node["c_den"], f"{path}.c_den"),
                denoise_self=_parse_map(node["s_den"], f"{path}.s_den"),
            )
        )
    return construct(AttentionStack, "steps", steps=tuple(records))
