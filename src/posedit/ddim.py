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
linear family at the bottom of this module, used by the tests and the demo
command, induces a closed-form trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ShapeError

BETA_START_DEFAULT = 0.00085
BETA_END_DEFAULT = 0.012
STEPS_DEFAULT = 50


@dataclass(frozen=True)
class DdimSchedule:
    """Cumulative noise coefficients; index t runs 0..T with alphas[0] = 1.

    Built by :func:`make_schedule`: T >= 1 more alphas, strictly decreasing in (0, 1]."""

    beta_start: float
    beta_end: float
    alphas: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.alphas) - 1


def make_schedule(
    steps: int = STEPS_DEFAULT,
    beta_start: float = BETA_START_DEFAULT,
    beta_end: float = BETA_END_DEFAULT,
) -> DdimSchedule:
    """Linear beta ramp of ``steps`` values (one step: ``beta_start``), with
    cumulative-product alphas checked as each is multiplied in."""
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"betas must satisfy 0 < beta_start <= beta_end < 1, "
            f"got ({beta_start}, {beta_end})"
        )
    beta_start, beta_end = float(beta_start), float(beta_end)
    alphas = [1.0]
    for i in range(steps):
        beta = beta_start if steps == 1 else beta_start + (beta_end - beta_start) * i / (steps - 1)
        alpha = alphas[-1] * (1.0 - beta)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alphas[{i + 1}] out of (0, 1]")
        if alpha >= alphas[-1]:
            raise ValueError("alphas must be strictly decreasing")
        alphas.append(alpha)
    return DdimSchedule(beta_start=beta_start, beta_end=beta_end, alphas=tuple(alphas))


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


def _move(z: LatentState, eps, sched: DdimSchedule, t_to: int) -> LatentState:
    """The DDIM update of ``z`` from its step to step ``t_to``: estimate the
    clean latent, then re-noise it.  Raises :class:`GeometryError` when the
    result overflows the float range."""
    a_from, a_to = sched.alphas[z.t], sched.alphas[t_to]
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (z.dim,):
        raise ShapeError(f"eps shape {eps.shape} does not match latent dim {z.dim}")
    # overflow is reported below as a GeometryError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (z.values - math.sqrt(1.0 - a_from) * eps) / math.sqrt(a_from)
        values = math.sqrt(a_to) * scaled + math.sqrt(1.0 - a_to) * eps
    try:
        return LatentState(values=values, t=t_to)
    except ValueError as exc:
        raise GeometryError(
            f"step {z.t} -> {t_to}: latent values overflow the float range"
        ) from exc


def ddim_denoise_step(z_t: LatentState, eps, sched: DdimSchedule) -> LatentState:
    """One deterministic denoising step t -> t-1 for the given noise estimate."""
    if not 1 <= z_t.t <= sched.steps:
        raise ValueError(f"step index {z_t.t} outside [1, {sched.steps}]")
    return _move(z_t, eps, sched, z_t.t - 1)


def ddim_invert_step(z_prev: LatentState, eps, sched: DdimSchedule) -> LatentState:
    """The inverse step t-1 -> t: the unique z_t that denoises back to z_prev."""
    if not 0 <= z_prev.t <= sched.steps - 1:
        raise ValueError(f"step index {z_prev.t} outside [0, {sched.steps - 1}]")
    return _move(z_prev, eps, sched, z_prev.t + 1)


def sample_with_blend(z_start: LatentState, pred, sched: DdimSchedule) -> list[LatentState]:
    """Iterate denoising steps with noise ``pred(z, t, None)`` from
    ``z_start.t`` down to step 0; returns every latent, ``z_start`` first."""
    trajectory = [z_start]
    z = z_start
    for t in range(z_start.t, 0, -1):
        z = ddim_denoise_step(z, pred(z.values, t, None), sched)
        trajectory.append(z)
    return trajectory


# --- analytic predictor family --------------------------------------------------

_BLOCK = 65536  # product values per block of rows: no step holds a second D x D array


def _row_sums(a: np.ndarray, z: np.ndarray, rows: int) -> np.ndarray:
    """``(a * z).sum(axis=1)`` bit for bit, ``rows`` rows of the product at a
    time in one reused buffer.  numpy reduces each row over the same D
    contiguous values as in the one-shot form; it does not promise equal
    bits, so a test guards them."""
    out, buf = np.empty(len(a)), np.empty((min(rows, len(a)), len(z)))
    for start in range(0, len(a), rows):
        part = a[start : start + rows]
        block = np.multiply(part, z, out=buf[: len(part)])
        np.add.reduce(block, axis=1, out=out[start : start + rows])
    return out


def linear_predictor(matrix):
    """eps = A z, inducing the linear step z' = (c_t I + d_t A) z.

    With a_t = alphas[t] and a_prev = alphas[t-1] the coefficients are
    c_t = sqrt(a_prev / a_t) and d_t = sqrt(1 - a_prev) - c_t * sqrt(1 - a_t),
    so whole trajectories collapse to matrix products.  Each row of A z is
    numpy's own sum of ``A[i] * z``, not a BLAS product, so the bits do not
    depend on the BLAS build.  An eps that overflows comes back non-finite,
    for the step that uses it to refuse.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {a.shape}")
    a.setflags(write=False)
    rows = max(1, _BLOCK // max(1, a.shape[0]))

    def pred(z, t, tau):
        if z.shape != (a.shape[0],):
            raise ShapeError(f"latent dim {z.shape} does not match matrix {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            return _row_sums(a, z, rows)

    return pred
