import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from posedit import (
    GeometryError,
    KeypointSet,
    ShapeError,
    SimilarityTransform2D,
    apply_transform,
    residual,
    solve_similarity,
)
from conftest import pose_video, read_fixture
from oracles import best_similarity_by_scan, pointwise_residual


def kps(points, mask=None):
    points = np.asarray(points, dtype=np.float64)
    if mask is None:
        mask = np.ones(len(points), dtype=bool)
    return KeypointSet(points=points, mask=np.asarray(mask, dtype=bool))


def transformed(points, scale, theta, t):
    tr = SimilarityTransform2D(scale=scale, theta=theta, translation=(float(t[0]), float(t[1])))
    return tr.apply(np.asarray(points, dtype=np.float64))


def test_exact_recovery_of_constructed_transform():
    rng = np.random.default_rng(3)
    moving = rng.uniform(-10.0, 10.0, size=(9, 2))
    fixed = transformed(moving, 2.0, math.pi / 2.0, (1.0, 1.0))
    tr = solve_similarity(kps(fixed), kps(moving))
    assert abs(tr.scale - 2.0) < 1e-9
    assert abs(tr.theta - math.pi / 2.0) < 1e-9
    assert np.all(np.abs(np.array(tr.translation) - np.array([1.0, 1.0])) < 1e-9)
    assert residual(tr, kps(fixed), kps(moving)) < 1e-12


def test_identity_recovered_from_identical_sets():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    tr = solve_similarity(kps(pts), kps(pts))
    assert abs(tr.scale - 1.0) < 1e-12
    assert abs(tr.theta) < 1e-12
    assert np.all(np.abs(np.array(tr.translation)) < 1e-12)


def test_masked_points_do_not_influence_the_solution():
    rng = np.random.default_rng(4)
    moving = rng.uniform(-5.0, 5.0, size=(8, 2))
    fixed = transformed(moving, 1.3, 0.7, (2.0, -1.0))
    mask = np.ones(8, dtype=bool)
    mask[2] = mask[5] = False
    wrecked_fixed = fixed.copy()
    wrecked_fixed[2] = (1e6, -1e6)
    wrecked_moving = moving.copy()
    wrecked_moving[5] = (-1e6, 1e6)
    tr_clean = solve_similarity(kps(fixed, mask), kps(moving, mask))
    tr_wrecked = solve_similarity(kps(wrecked_fixed, mask), kps(wrecked_moving, mask))
    assert tr_clean.scale == tr_wrecked.scale
    assert tr_clean.theta == tr_wrecked.theta
    assert tr_clean.translation == tr_wrecked.translation


def test_usable_set_is_the_mask_intersection():
    moving = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
    fixed = transformed(moving, 2.0, 0.0, (0.0, 0.0))
    fixed_mask = [True, True, True, False]
    moving_mask = [True, True, True, True]
    tr = solve_similarity(kps(fixed, fixed_mask), kps(moving, moving_mask))
    assert abs(tr.scale - 2.0) < 1e-12
    assert residual(tr, kps(fixed, fixed_mask), kps(moving, moving_mask)) < 1e-20


def test_mirrored_points_still_give_a_proper_rotation():
    moving = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.5, 2.5]])
    fixed = moving.copy()
    fixed[:, 0] *= -1.0   # reflection, outside the model family
    tr = solve_similarity(kps(fixed), kps(moving))
    r = tr.rotation()
    assert abs(np.linalg.det(r) - 1.0) < 1e-12
    scan = best_similarity_by_scan(
        [tuple(p) for p in fixed], [tuple(p) for p in moving], [True] * 4
    )
    got = residual(tr, kps(fixed), kps(moving))
    assert got <= scan[3] + 1e-6


def test_fixture_alignment_beats_the_scan_oracle():
    doc = json.loads(read_fixture("align", "align_noisy_01.json"))
    fixed_pts = [tuple(p) for p in doc["fixed"]["points"]]
    moving_pts = [tuple(p) for p in doc["moving"]["points"]]
    usable = [a and b for a, b in zip(doc["fixed"]["mask"], doc["moving"]["mask"])]
    tr = solve_similarity(
        kps(fixed_pts, doc["fixed"]["mask"]), kps(moving_pts, doc["moving"]["mask"])
    )
    scan = best_similarity_by_scan(fixed_pts, moving_pts, usable)
    got = residual(
        tr, kps(fixed_pts, doc["fixed"]["mask"]), kps(moving_pts, doc["moving"]["mask"])
    )
    assert got <= scan[3] + 1e-6
    # the noisy fixture was built from s=1.7, theta=0.6, t=(12, -4)
    assert abs(tr.scale - 1.7) < 0.1
    assert abs(tr.theta - 0.6) < 0.1


def test_residual_matches_pointwise_recomputation():
    rng = np.random.default_rng(5)
    moving = rng.uniform(-5.0, 5.0, size=(6, 2))
    fixed = rng.uniform(-5.0, 5.0, size=(6, 2))
    tr = solve_similarity(kps(fixed), kps(moving))
    expected = pointwise_residual(
        [tuple(p) for p in fixed],
        [tuple(p) for p in moving],
        [True] * 6,
        tr.scale,
        tr.theta,
        tr.translation,
    )
    assert math.isclose(residual(tr, kps(fixed), kps(moving)), expected, rel_tol=1e-12)


# --- failure modes -----------------------------------------------------------------


def test_single_usable_pair_is_degenerate():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    mask = [True, False]
    with pytest.raises(GeometryError, match="degenerate"):
        solve_similarity(kps(pts, mask), kps(pts, mask))


def test_coincident_moving_points_leave_scale_undefined():
    fixed = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    moving = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(GeometryError, match="scale"):
        solve_similarity(kps(fixed), kps(moving))


def test_length_mismatch_is_a_shape_error():
    a = kps(np.zeros((3, 2)))
    b = kps(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        solve_similarity(a, b)
    tr = SimilarityTransform2D.identity()
    with pytest.raises(ShapeError):
        residual(tr, a, b)


def test_empty_usable_set_has_zero_residual():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    none = [False, False]
    assert residual(SimilarityTransform2D.identity(), kps(pts, none), kps(pts, none)) == 0.0


def test_transform_rejects_non_positive_scale():
    with pytest.raises(GeometryError):
        SimilarityTransform2D(scale=0.0, theta=0.0, translation=(0.0, 0.0))
    with pytest.raises(GeometryError):
        SimilarityTransform2D(scale=-1.0, theta=0.0, translation=(0.0, 0.0))


# --- properties --------------------------------------------------------------------

angles = st.floats(min_value=-3.1, max_value=3.1)
scales = st.floats(min_value=0.1, max_value=8.0)
shifts = st.floats(min_value=-40.0, max_value=40.0)


@given(scales, angles, shifts, shifts, st.integers(min_value=0, max_value=2**31 - 1))
def test_recovery_property(scale, theta, tx, ty, seed):
    rng = np.random.default_rng(seed)
    moving = rng.uniform(-10.0, 10.0, size=(7, 2))
    spread = moving - moving.mean(axis=0)
    assume(float((spread * spread).sum()) > 1.0)
    fixed = transformed(moving, scale, theta, (tx, ty))
    tr = solve_similarity(kps(fixed), kps(moving))
    assert math.isclose(tr.scale, scale, rel_tol=1e-7)
    assert abs(math.remainder(tr.theta - theta, 2.0 * math.pi)) < 1e-7
    assert residual(tr, kps(fixed), kps(moving)) < 1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_solver_never_loses_to_the_scan_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    moving = rng.uniform(-10.0, 10.0, size=(n, 2))
    fixed = rng.uniform(-10.0, 10.0, size=(n, 2))
    spread = moving - moving.mean(axis=0)
    assume(float((spread * spread).sum()) > 1e-6)
    fixed_l = [tuple(p) for p in fixed]
    moving_l = [tuple(p) for p in moving]
    try:
        tr = solve_similarity(kps(fixed), kps(moving))
    except GeometryError:
        assume(False)
    scan = best_similarity_by_scan(fixed_l, moving_l, [True] * n, grid=16384)
    got = residual(tr, kps(fixed), kps(moving))
    assert got <= scan[3] + 1e-6


# --- whole-video application --------------------------------------------------------


def small_video():
    keypoints = [(1.0, 0.0, True), (0.0, 1.0, False, 0.25)]
    return pose_video(10, 10, ("a", "b"), [(0, [(2, keypoints)])], label="v")


def test_apply_transform_moves_only_visible_keypoints():
    video = small_video()
    tr = SimilarityTransform2D(scale=2.0, theta=0.0, translation=(1.0, 1.0))
    out = apply_transform(tr, video)
    assert out.xy[0].tolist() == [[3.0, 1.0], [0.0, 1.0]]  # invisible: untouched
    assert out.confidence[0].tolist() == [1.0, 0.25]
    assert out.label == "v"
    assert out.frames[0].instances[0].instance_id == 2


def test_apply_transform_identity_is_a_no_op_on_coordinates():
    video = small_video()
    out = apply_transform(SimilarityTransform2D.identity(), video)
    assert out == video


@pytest.mark.filterwarnings("error")
def test_apply_transform_overflow_is_a_geometry_error():
    video = pose_video(10, 10, ("a",), [(0, [(0, [(1e300, 0.0, True)])])])
    tr = SimilarityTransform2D(scale=1e10, theta=0.0, translation=(0.0, 0.0))
    with pytest.raises(GeometryError, match="overflow"):
        apply_transform(tr, video)
