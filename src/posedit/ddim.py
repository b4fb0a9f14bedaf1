"""Deterministic diffusion stepping over flat latent vectors.

The schedule holds cumulative noise products alpha_0..alpha_T with alpha_0 = 1,
built from a linear beta ramp.  One denoising step maps the latent at step t
to step t-1:

    z' = sqrt(a_prev) * (z - sqrt(1 - a_t) * eps) / sqrt(a_t)
         + sqrt(1 - a_prev) * eps

and the inversion step is the exact algebraic inverse for the same eps, so an
invert/denoise pair is the identity up to floating-point rounding.  Latents
are plain vectors: the arithmetic under test is shape-agnostic, and anything
image-like lives behind ingestion boundaries elsewhere.

Noise predictors are caller-supplied callables (z, t, tau) -> eps.  The
analytic families used throughout the tests and the demo command live at the
bottom of this module; each induces a closed-form trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

BETA_START_DEFAULT = 0.00085
BETA_END_DEFAULT = 0.012
STEPS_DEFAULT = 50


@dataclass(frozen=True)
class DdimSchedule:
    """Cumulative noise coefficients; index t runs 0..T with alphas[0] = 1."""

    beta_start: float
    beta_end: float
    betas: tuple[float, ...]
    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.betas:
            raise ValueError("schedule needs at least one step")
        if len(self.alphas) != len(self.betas) + 1:
            raise ValueError("alphas must have one more entry than betas")
        if self.alphas[0] != 1.0:
            raise ValueError("alphas[0] must be 1")
        for t in range(1, len(self.alphas)):
            if not 0.0 < self.alphas[t] <= 1.0:
                raise ValueError(f"alphas[{t}] out of (0, 1]")
            if self.alphas[t] >= self.alphas[t - 1]:
                raise ValueError("alphas must be strictly decreasing")

    @property
    def steps(self) -> int:
        return len(self.betas)


def make_schedule(
    steps: int = STEPS_DEFAULT,
    beta_start: float = BETA_START_DEFAULT,
    beta_end: float = BETA_END_DEFAULT,
) -> DdimSchedule:
    """Linear beta ramp of ``steps`` values with cumulative-product alphas."""
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"betas must satisfy 0 < beta_start <= beta_end < 1, "
            f"got ({beta_start}, {beta_end})"
        )
    if steps == 1:
        betas = [float(beta_start)]
    else:
        betas = [
            beta_start + (beta_end - beta_start) * i / (steps - 1) for i in range(steps)
        ]
    alphas = [1.0]
    for b in betas:
        alphas.append(alphas[-1] * (1.0 - b))
    return DdimSchedule(
        beta_start=float(beta_start),
        beta_end=float(beta_end),
        betas=tuple(betas),
        alphas=tuple(alphas),
    )


@dataclass(frozen=True, eq=False)
class LatentState:
    """A latent vector tagged with its current step index."""

    values: np.ndarray
    t: int

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ShapeError(f"latent must be a flat vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("latent values must be finite")
        if self.t < 0:
            raise ValueError("step index must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _check_eps(eps, dim: int) -> np.ndarray:
    arr = np.asarray(eps, dtype=np.float64)
    if arr.shape != (dim,):
        raise ShapeError(f"eps shape {arr.shape} does not match latent dim {dim}")
    return arr


def _move(values, eps, a_from, a_to):
    """The DDIM update from the level with cumulative alpha ``a_from`` to the
    one with ``a_to``: estimate the clean latent, then re-noise it."""
    scaled = (values - math.sqrt(1.0 - a_from) * eps) / math.sqrt(a_from)
    return math.sqrt(a_to) * scaled + math.sqrt(1.0 - a_to) * eps


def ddim_denoise_step(z_t: LatentState, eps, sched: DdimSchedule) -> LatentState:
    """One deterministic denoising step t -> t-1 for the given noise estimate."""
    t = z_t.t
    if not 1 <= t <= sched.steps:
        raise ValueError(f"step index {t} outside [1, {sched.steps}]")
    eps = _check_eps(eps, z_t.dim)
    values = _move(z_t.values, eps, sched.alphas[t], sched.alphas[t - 1])
    return LatentState(values=values, t=t - 1)


def ddim_invert_step(z_prev: LatentState, eps, sched: DdimSchedule) -> LatentState:
    """The inverse step t-1 -> t: the unique z_t that denoises back to z_prev."""
    t_prev = z_prev.t
    if not 0 <= t_prev <= sched.steps - 1:
        raise ValueError(f"step index {t_prev} outside [0, {sched.steps - 1}]")
    eps = _check_eps(eps, z_prev.dim)
    values = _move(z_prev.values, eps, sched.alphas[t_prev], sched.alphas[t_prev + 1])
    return LatentState(values=values, t=t_prev + 1)


def ldm_loss(eps_true, eps_pred) -> float:
    """Squared L2 distance between a true noise vector and a prediction."""
    a = np.asarray(eps_true, dtype=np.float64)
    b = np.asarray(eps_pred, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff @ diff)


def sample_with_blend(
    z_start: LatentState,
    pred,
    tau,
    sched: DdimSchedule,
    blend_hook=None,
) -> list[LatentState]:
    """Iterate denoising steps from ``z_start.t`` down to step 0.

    Returns every intermediate latent, ``z_start`` first.  When a hook is
    given, the predictor must expose ``attention_record(z, t, tau)``; the hook
    is called with that record after each step and may log whatever it blends.
    Latents never depend on the hook.
    """
    if blend_hook is not None and not hasattr(pred, "attention_record"):
        raise ValueError(
            "blend_hook requires a predictor with an attention_record method"
        )
    trajectory = [z_start]
    z = z_start
    for t in range(z_start.t, 0, -1):
        eps = pred(z.values, t, tau)
        z_next = ddim_denoise_step(z, eps, sched)
        if blend_hook is not None:
            blend_hook(pred.attention_record(z.values, t, tau))
        trajectory.append(z_next)
        z = z_next
    return trajectory


# --- analytic predictor families ------------------------------------------------


def zero_predictor():
    """eps = 0: each step rescales the latent by sqrt(a_prev / a_t)."""

    def pred(z, t, tau):
        return np.zeros_like(z)

    return pred


def constant_predictor(eps0):
    """eps fixed regardless of state or step."""
    eps0 = np.array(eps0, dtype=np.float64, copy=True)
    eps0.setflags(write=False)

    def pred(z, t, tau):
        return eps0

    return pred


def linear_predictor(matrix):
    """eps = A @ z, inducing the linear step z' = (c_t I + d_t A) z.

    With a_t = alphas[t] and a_prev = alphas[t-1] the coefficients are
    c_t = sqrt(a_prev / a_t) and d_t = sqrt(1 - a_prev) - c_t * sqrt(1 - a_t),
    so whole trajectories collapse to matrix products.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {a.shape}")
    a.setflags(write=False)

    def pred(z, t, tau):
        if z.shape != (a.shape[0],):
            raise ShapeError(f"latent dim {z.shape} does not match matrix {a.shape}")
        return a @ z

    return pred
