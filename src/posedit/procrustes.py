"""Closed-form 2-D similarity alignment between corresponding keypoint sets.

Solves min over (s, R, t) of sum_i ||p_i - (s * R * q_i + t)||^2 where p comes
from the fixed set, q from the moving set, and only correspondences usable in
both sets enter the sum.  The solution is the classic centered-SVD construction:
subtract centroids, take the SVD of the 2x2 cross-covariance, correct the sign
so det(R) = +1 (mirrored solutions are rejected because a reflected pose swaps
left and right joints), and recover the scale from the singular values over the
moving-set variance.

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

    @classmethod
    def identity(cls) -> "SimilarityTransform2D":
        return cls(scale=1.0, theta=0.0, translation=(0.0, 0.0))

    def rotation(self) -> np.ndarray:
        """The 2x2 proper rotation matrix for ``theta``."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]], dtype=np.float64)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map an (n, 2) array of coordinates through the transform."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ShapeError(f"points must have shape (n, 2), got {pts.shape}")
        return self.scale * pts @ self.rotation().T + np.asarray(self.translation)


def solve_similarity(fixed: KeypointSet, moving: KeypointSet) -> SimilarityTransform2D:
    """Best similarity transform carrying ``moving`` onto ``fixed``.

    Only correspondences usable in both sets participate.  Raises
    :class:`GeometryError` when the problem is under-determined (fewer than 2
    usable correspondences), when all usable moving points coincide (scale
    undefined), or when the unconstrained optimum would need a non-positive
    scale (no feasible minimizer exists).
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
    p = fixed.points[usable]
    q = moving.points[usable]

    mu_p = p.mean(axis=0)
    mu_q = q.mean(axis=0)
    pc = p - mu_p
    qc = q - mu_q

    var_q = float((qc * qc).sum()) / n
    if var_q == 0.0:
        raise GeometryError("scale undefined: all usable moving points coincide")

    cov = pc.T @ qc / n
    u, d, vt = np.linalg.svd(cov)
    sign = 1.0 if np.linalg.det(u) * np.linalg.det(vt) >= 0.0 else -1.0
    rot = u @ np.diag([1.0, sign]) @ vt
    scale = (d[0] + sign * d[1]) / var_q
    if scale <= 0.0:
        raise GeometryError(
            "optimal scale is not positive; the fixed points carry no usable spread"
        )
    trans = mu_p - scale * rot @ mu_q
    theta = math.atan2(rot[1, 0], rot[0, 0])
    return SimilarityTransform2D(
        scale=float(scale), theta=float(theta), translation=(float(trans[0]), float(trans[1]))
    )


def residual(
    tr: SimilarityTransform2D, fixed: KeypointSet, moving: KeypointSet
) -> float:
    """Sum of squared distances ||fixed_i - tr(moving_i)||^2 over usable pairs.

    Zero exactly when the transform aligns every usable correspondence.
    An empty usable set gives 0.0.
    """
    if len(fixed) != len(moving):
        raise ShapeError(
            f"point sets differ in length: {len(fixed)} vs {len(moving)}"
        )
    usable = fixed.mask & moving.mask
    if not usable.any():
        return 0.0
    diff = fixed.points[usable] - tr.apply(moving.points[usable])
    return float((diff * diff).sum())


def apply_transform(tr: SimilarityTransform2D, video: PoseVideo) -> PoseVideo:
    """Map every visible keypoint of ``video`` through ``tr``.

    Invisible keypoints keep their stored coordinates untouched (geometry
    operations ignore them, so transforming would only manufacture data).
    Visibility flags, confidences, instance ids, and frame indices are
    preserved.  Raises :class:`GeometryError` when a mapped coordinate
    overflows to infinity.
    """
    points = video.xy[video.visible]
    # one 1x2 @ 2x2 product per point, as tr.apply(point[None]) computes it:
    # a single (n, 2) @ (2, 2) product or written-out terms round differently;
    # overflow is reported below as a GeometryError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = ((tr.scale * points)[:, None, :] @ tr.rotation().T)[:, 0, :] + np.asarray(
            tr.translation
        )
    if not np.isfinite(mapped).all():
        raise GeometryError("aligned keypoint coordinates overflow the float range")
    xy = video.xy.copy()
    xy[video.visible] = mapped
    return video._replace(xy=xy)
