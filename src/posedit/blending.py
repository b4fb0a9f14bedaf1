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

from ._schema import array, integer, load_json, obj, reals
from .errors import ParseError, ShapeError

BLEND_RATIO_DEFAULT = 0.3


@dataclass(frozen=True, eq=False)
class SpatialMap:
    """h x w grid of non-negative finite reals."""

    h: int
    w: int
    values: np.ndarray

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


class SyntheticAttentionPredictor:
    """Wraps a noise predictor with deterministic fake attention maps.

    The sampler's blending hook needs per-step cross- and self-attention; a
    real U-Net would supply them, so the demo derives small grids from the
    latent itself.  Values are arbitrary but deterministic: |z| tiled row-major
    into h x w, scaled per token and per process.
    """

    def __init__(self, base, tokens: int, h: int = 4, w: int = 4):
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        self._base = base
        self._tokens = tokens
        self._h = h
        self._w = w

    def __call__(self, z, t, tau):
        return self._base(z, t, tau)

    def _grid(self, z, scale: float) -> np.ndarray:
        flat = np.abs(np.asarray(z, dtype=np.float64))
        reps = -(-(self._h * self._w) // flat.size)
        tiled = np.tile(flat, reps)[: self._h * self._w]
        return scale * tiled.reshape(self._h, self._w)

    def attention_record(self, z, t, tau) -> BlendStepRecord:
        inv_cross = CrossAttentionMap(
            maps=tuple(
                SpatialMap(self._h, self._w, self._grid(z, 1.0 + 0.25 * k))
                for k in range(self._tokens)
            )
        )
        den_cross = CrossAttentionMap(
            maps=tuple(
                SpatialMap(self._h, self._w, self._grid(z, 0.5 + 0.25 * k + 0.01 * t))
                for k in range(self._tokens)
            )
        )
        return BlendStepRecord(
            step=t,
            inversion_cross=inv_cross,
            inversion_self=SpatialMap(self._h, self._w, self._grid(z, 2.0)),
            denoise_cross=den_cross,
            denoise_self=SpatialMap(self._h, self._w, self._grid(z, 3.0 + 0.01 * t)),
        )


def threshold_mask(c: CrossAttentionMap, token_set, ratio: float) -> Mask:
    """Threshold the summed maps of ``token_set`` at ratio * max.

    Bit = 1 where the summed value is >= the cutoff.  A summed map that is
    identically zero has no foreground and yields the all-zero mask.
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
    for t in token_set:
        summed += c.maps[t].values
    peak = float(summed.max())
    if peak == 0.0:
        bits = np.zeros((c.h, c.w), dtype=np.uint8)
    else:
        bits = (summed >= ratio * peak).astype(np.uint8)
    return Mask(h=c.h, w=c.w, bits=bits)


def blend_step(m: Mask, s_den: SpatialMap, s_inv: SpatialMap) -> SpatialMap:
    """Elementwise masked combination: mask picks s_den, complement picks s_inv."""
    if not ((m.h, m.w) == (s_den.h, s_den.w) == (s_inv.h, s_inv.w)):
        raise ShapeError(
            f"shape mismatch: mask {m.h}x{m.w}, s_den {s_den.h}x{s_den.w}, "
            f"s_inv {s_inv.h}x{s_inv.w}"
        )
    bits = m.bits.astype(np.float64)
    values = bits * s_den.values + (1.0 - bits) * s_inv.values
    return SpatialMap(h=m.h, w=m.w, values=values)


def resize_mask(m: Mask, h2: int, w2: int) -> Mask:
    """Nearest-neighbor resampling to (h2, w2); same-size requests pass through."""
    if h2 < 1 or w2 < 1:
        raise ShapeError("target dimensions must be positive")
    if (h2, w2) == (m.h, m.w):
        return m
    rows = [(i + 0.5) * m.h // h2 for i in range(h2)]
    cols = [(j + 0.5) * m.w // w2 for j in range(w2)]
    bits = m.bits[np.ix_([int(r) for r in rows], [int(c) for c in cols])]
    return Mask(h=h2, w=w2, bits=bits)


def _mask_union(a: Mask, b: Mask) -> Mask:
    return Mask(h=a.h, w=a.w, bits=np.maximum(a.bits, b.bits))


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
                mask = _mask_union(mask, resized_initial)
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
    return SpatialMap(h=h, w=w, values=np.array(values, dtype=np.float64).reshape(h, w))


def _parse_cross(node, path) -> CrossAttentionMap:
    array(node, path, nonempty=True)
    maps = tuple(_parse_map(m, f"{path}[{i}]") for i, m in enumerate(node))
    try:
        return CrossAttentionMap(maps=maps)
    except ShapeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


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
        try:
            records.append(
                BlendStepRecord(
                    step=step,
                    inversion_cross=_parse_cross(node["c_inv"], f"{path}.c_inv"),
                    inversion_self=_parse_map(node["s_inv"], f"{path}.s_inv"),
                    denoise_cross=_parse_cross(node["c_den"], f"{path}.c_den"),
                    denoise_self=_parse_map(node["s_den"], f"{path}.s_den"),
                )
            )
        except ShapeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    try:
        return AttentionStack(steps=tuple(records))
    except ShapeError as exc:
        raise ParseError(f"steps: {exc}") from exc
