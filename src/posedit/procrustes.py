"""Closed-form 2-D similarity alignment between corresponding keypoint sets.

Solves min over (s, R, t) of sum_i ||p_i - (s * R * q_i + t)||^2 where p comes
from the fixed set, q from the moving set, and only correspondences usable in
both sets enter the sum.  In 2-D the optimum is closed-form: over centered
coordinates, theta = atan2(B, A) with A = sum(px*qx + py*qy) and
B = sum(py*qx - px*qy), scale = hypot(A, B) / sum(qx^2 + qy^2), and the
translation closes the centroids; the rotation is always proper, since a
reflected pose would swap left and right joints.  Each sum is a 0.0-started
left-to-right loop and no BLAS or LAPACK call is made, so the bits equal
``scripts/make_fixtures.py``'s ``solve_scalar`` on every BLAS build.

The solved transform is meant to be fit on a single pair of frames and then
applied to every frame of a clip; see :func:`apply_transform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ShapeError
from .pose_model import PoseVideo


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Point list plus a per-point usability mask.

    ``points`` is (n, 2) float64 and ``mask`` is (n,) bool; both arrays are
    copied and frozen at construction.
    """

    points: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        msk = np.array(self.mask, dtype=bool, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ShapeError(f"points must have shape (n, 2), got {pts.shape}")
        if msk.shape != (pts.shape[0],):
            raise ShapeError(
                f"mask length {msk.shape} does not match {pts.shape[0]} points"
            )
        if not np.all(np.isfinite(pts[msk])):
            raise ValueError("usable points must be finite")
        pts.setflags(write=False)
        msk.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "mask", msk)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SimilarityTransform2D:
    """Scale, rotation angle (radians, counter-clockwise), and translation.

    Represents the map (x, y) -> scale * R(theta) * (x, y) + translation with
    scale strictly positive, so the rotation part always has determinant +1.
    """

    scale: float
    theta: float
    translation: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(float(v) for v in self.translation))
        if len(self.translation) != 2:
            raise ShapeError("translation must have exactly 2 components")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise GeometryError(f"scale must be positive and finite, got {self.scale}")
        if not math.isfinite(self.theta):
            raise GeometryError("theta must be finite")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map an (n, 2) array of coordinates through the transform,
        elementwise: a point's bits do not depend on n."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ShapeError(f"points must have shape (n, 2), got {pts.shape}")
        c, s = math.cos(self.theta), math.sin(self.theta)
        tx, ty = self.translation
        x, y = pts[:, 0], pts[:, 1]
        return np.stack((self.scale * (x * c - y * s) + tx, self.scale * (x * s + y * c) + ty), 1)


def solve_similarity(fixed: KeypointSet, moving: KeypointSet) -> SimilarityTransform2D:
    """Best similarity transform carrying ``moving`` onto ``fixed``.

    Only correspondences usable in both sets participate.  Raises
    :class:`GeometryError` when the problem is under-determined (fewer than 2
    usable correspondences), when all usable moving points coincide or their
    squared spread underflows to 0 (scale undefined), or when all usable
    fixed points coincide or the unconstrained optimum would need a
    non-positive scale (no feasible minimizer exists).  Coincidence is exact
    equality of the given coordinates.
    """
    if len(fixed) != len(moving):
        raise ShapeError(
            f"point sets differ in length: {len(fixed)} vs {len(moving)}"
        )
    usable = fixed.mask & moving.mask
    n = int(usable.sum())
    if n < 2:
        raise GeometryError(
            f"degenerate configuration: {n} usable correspondences, need at least 2"
        )
    pairs = list(zip(fixed.points[usable].tolist(), moving.points[usable].tolist()))
    mpx = mpy = mqx = mqy = 0.0
    for (px, py), (qx, qy) in pairs:
        mpx, mpy, mqx, mqy = mpx + px, mpy + py, mqx + qx, mqy + qy
    mpx, mpy, mqx, mqy = mpx / n, mpy / n, mqx / n, mqy / n
    a = b = qq = 0.0
    for (px, py), (qx, qy) in pairs:
        cpx, cpy, cqx, cqy = px - mpx, py - mpy, qx - mqx, qy - mqy
        a += cpx * cqx + cpy * cqy
        b += cpy * cqx - cpx * cqy
        qq += cqx * cqx + cqy * cqy
    # coincidence is tested exactly: the float centroid of copies of one
    # point need not equal it, which leaves the copies a spread of rounding
    # errors, and a transform solved from that spread
    if all(q == pairs[0][1] for _, q in pairs):
        raise GeometryError("scale undefined: all usable moving points coincide")
    if qq == 0.0:
        raise GeometryError(
            "scale undefined: the usable moving points' squared spread underflows to 0"
        )
    theta = math.atan2(b, a)
    scale = math.hypot(a, b) / qq
    if scale <= 0.0 or all(p == pairs[0][0] for p, _ in pairs):
        raise GeometryError(
            "optimal scale is not positive; the fixed points carry no usable spread"
        )
    c, s = math.cos(theta), math.sin(theta)
    tx = mpx - scale * (c * mqx - s * mqy)
    ty = mpy - scale * (s * mqx + c * mqy)
    return SimilarityTransform2D(scale=scale, theta=theta, translation=(tx, ty))


def residual(
    tr: SimilarityTransform2D, fixed: KeypointSet, moving: KeypointSet
) -> float:
    """Sum of squared distances ||fixed_i - tr(moving_i)||^2 over usable pairs.

    Zero exactly when the transform aligns every usable correspondence.
    An empty usable set gives 0.0.  Raises :class:`GeometryError` when the
    sum overflows the float range.
    """
    if len(fixed) != len(moving):
        raise ShapeError(
            f"point sets differ in length: {len(fixed)} vs {len(moving)}"
        )
    usable = fixed.mask & moving.mask
    if not usable.any():
        return 0.0
    # overflow is reported below as a GeometryError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        diff = fixed.points[usable] - tr.apply(moving.points[usable])
        total = float((diff * diff).sum())
    if not math.isfinite(total):
        raise GeometryError("residual overflows the float range")
    return total


def apply_transform(tr: SimilarityTransform2D, video: PoseVideo) -> PoseVideo:
    """Map every visible keypoint of ``video`` through ``tr``.

    Invisible keypoints keep their stored coordinates untouched (geometry
    operations ignore them, so transforming would only manufacture data).
    Visibility flags, confidences, instance ids, and frame indices are
    preserved.  Raises :class:`GeometryError` when a mapped coordinate
    overflows to infinity.
    """
    # overflow is reported below as a GeometryError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = tr.apply(video.xy[video.visible])
    if not np.isfinite(mapped).all():
        raise GeometryError("aligned keypoint coordinates overflow the float range")
    xy = video.xy.copy()
    xy[video.visible] = mapped
    return video._replace(xy=xy)
