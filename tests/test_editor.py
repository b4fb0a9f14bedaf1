import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posedit import (
    Assignment,
    BoundingBox,
    Detection,
    DetectionSet,
    GeometryError,
    ParseError,
    PoseVideo,
    ShapeError,
    SimilarityTransform2D,
    alignment_transforms,
    apply_transform,
    assign_detections,
    edit_pose_video,
    iou,
    keypoint_bbox,
    parse_detections,
    parse_pose_video,
    out_of_bounds_detections,
    resample_indices,
    resample_video,
)
from conftest import ANY_COORDINATES, columns, pose_video, ragged_videos, read_fixture
from oracles import greedy_pairs_by_rescan


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(phrase, b, score=0.9):
    return Detection(phrase=phrase, box=b, score=score)


def person_instance(instance_id, cx, cy, half=10.0):
    return (instance_id, [(cx - half, cy - half, True), (cx + half, cy + half, True)])


def frame_with(*instances, joints=2):
    """A one-frame video holding ``instances``; a second frame without
    them shows that assignment reads the first frame only."""
    skeleton = tuple(f"j{i}" for i in range(joints))
    return pose_video(400, 400, skeleton, [(0, instances), (1, [])])


# --- iou ----------------------------------------------------------------------------


def test_iou_hand_values():
    assert iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == 1.0 / 7.0
    assert iou(box(0, 0, 1, 1), box(2, 2, 3, 3)) == 0.0
    assert iou(box(0, 0, 4, 4), box(1, 1, 2, 2)) == 1.0 / 16.0
    assert iou(box(0, 0, 2, 2), box(0, 0, 2, 2)) == 1.0


def test_iou_degenerate_union_is_zero():
    assert iou(box(1, 1, 1, 1), box(1, 1, 1, 1)) == 0.0


@given(
    st.tuples(*[st.floats(min_value=-50, max_value=50) for _ in range(4)]),
    st.tuples(*[st.floats(min_value=-50, max_value=50) for _ in range(4)]),
)
def test_iou_is_symmetric_and_bounded(a_raw, b_raw):
    a = box(min(a_raw[0], a_raw[2]), min(a_raw[1], a_raw[3]),
            max(a_raw[0], a_raw[2]), max(a_raw[1], a_raw[3]))
    b = box(min(b_raw[0], b_raw[2]), min(b_raw[1], b_raw[3]),
            max(b_raw[0], b_raw[2]), max(b_raw[1], b_raw[3]))
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


# --- assignment ---------------------------------------------------------------------


def test_assignment_simple_match():
    frame = frame_with(person_instance(0, 100, 100), person_instance(1, 300, 300))
    dset = DetectionSet(
        frame_index=0,
        detections=(det("left", box(88, 88, 112, 112)), det("right", box(288, 288, 312, 312))),
    )
    got = assign_detections(dset, frame, 0.3)
    assert set(got.pairs) == {(0, 0), (1, 1)}
    assert got.unmatched_detections == ()
    assert got.unmatched_instances == ()


def test_assignment_threshold_excludes_weak_overlap():
    frame = frame_with(person_instance(0, 100, 100))
    dset = DetectionSet(
        frame_index=0, detections=(det("far", box(105, 105, 130, 130)),)
    )
    got = assign_detections(dset, frame, 0.5)
    assert got.pairs == ()
    assert got.unmatched_detections == (0,)
    assert got.unmatched_instances == (0,)


def test_assignment_greedy_blocks_second_best():
    # detection 0 overlaps both instances; the better pair wins first and
    # detection 1 only overlaps instance 1, which is then taken
    frame = frame_with(person_instance(0, 100, 100), person_instance(1, 118, 100))
    dset = DetectionSet(
        frame_index=0,
        detections=(
            det("wide", box(90, 90, 128, 110)),
            det("tight", box(108, 90, 128, 110)),
        ),
    )
    got = assign_detections(dset, frame, 0.05)
    assert len(got.pairs) == 2
    assert dict(got.pairs) == {0: 0, 1: 1} or dict(got.pairs) == {1: 1, 0: 0}


def test_assignment_tie_prefers_lower_detection_then_instance():
    # two identical detections over one instance: detection 0 wins the tie
    frame = frame_with(person_instance(0, 100, 100))
    b = box(90, 90, 110, 110)
    dset = DetectionSet(frame_index=0, detections=(det("a", b), det("b", b)))
    got = assign_detections(dset, frame, 0.3)
    assert got.pairs == ((0, 0),)
    assert got.unmatched_detections == (1,)


def test_assignment_requires_visible_keypoints():
    hidden = (0, [(1.0, 1.0, False)])
    dset = DetectionSet(frame_index=0, detections=(det("x", box(0, 0, 2, 2)),))
    with pytest.raises(GeometryError):
        assign_detections(dset, frame_with(hidden, joints=1), 0.3)


def test_assignment_needs_a_first_frame():
    dset = DetectionSet(frame_index=0, detections=(det("x", box(0, 0, 2, 2)),))
    with pytest.raises(ValueError, match="no frames"):
        assign_detections(dset, pose_video(4, 4, ("a",), []), 0.3)


def test_assignment_one_to_one_is_enforced():
    with pytest.raises(ValueError):
        Assignment(
            pairs=((0, 1), (0, 2)), unmatched_detections=(), unmatched_instances=()
        )


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_assignment_matches_the_rescan_oracle(seed):
    rng = np.random.default_rng(seed)
    n_det = int(rng.integers(0, 6))
    n_inst = int(rng.integers(1, 6))
    instances = []
    for i in range(n_inst):
        cx, cy = rng.uniform(20, 180, 2)
        instances.append(person_instance(i, cx, cy, half=float(rng.uniform(5, 30))))
    detections = []
    for _ in range(n_det):
        cx, cy = rng.uniform(20, 180, 2)
        w, h = rng.uniform(5, 40, 2)
        detections.append(det("p", box(cx - w, cy - h, cx + w, cy + h)))
    frame = frame_with(*instances)
    dset = DetectionSet(frame_index=0, detections=tuple(detections))
    threshold = float(rng.uniform(0.05, 0.6))
    got = assign_detections(dset, frame, threshold)

    table = {}
    for d_idx, d in enumerate(detections):
        for row, (inst_id, _) in enumerate(instances):
            table[(d_idx, inst_id)] = iou(d.box, keypoint_bbox(frame, row))
    expected = greedy_pairs_by_rescan(table, threshold)
    assert list(got.pairs) == expected
    assert set(got.unmatched_detections) == set(range(n_det)) - {d for d, _ in expected}
    assert set(got.unmatched_instances) == set(range(n_inst)) - {i for _, i in expected}


# --- temporal resampling -------------------------------------------------------------


def test_resample_indices_known_patterns():
    assert resample_indices(8, 12) == [0, 1, 1, 2, 3, 3, 4, 4, 5, 6, 6, 7]
    assert resample_indices(16, 12) == [0, 1, 3, 4, 5, 7, 8, 10, 11, 12, 14, 15]
    assert resample_indices(5, 5) == [0, 1, 2, 3, 4]
    assert resample_indices(1, 4) == [0, 0, 0, 0]
    assert resample_indices(4, 1) == [0]


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_resample_indices_are_monotone_and_in_range(src, dst):
    picks = resample_indices(src, dst)
    assert len(picks) == dst
    assert all(0 <= p < src for p in picks)
    assert all(a <= b for a, b in zip(picks, picks[1:]))
    assert picks[0] == 0
    if dst > 1:
        assert picks[-1] == src - 1


def two_frame_video():
    return pose_video(
        100, 100, ("j",), [(0, [(0, [(1.0, 1.0, True)])]), (1, [(0, [(2.0, 1.0, True)])])]
    )


def test_resample_video_same_length_returns_same_object():
    video = two_frame_video()
    assert resample_video(video, 2) is video


def test_resample_video_renumbers_frames():
    video = two_frame_video()
    out = resample_video(video, 5)
    assert [f.frame_index for f in out.frames] == [0, 1, 2, 3, 4]
    xs = [f.instances[0].xy[0, 0] for f in out.frames]
    assert xs == [1.0, 1.0, 2.0, 2.0, 2.0]


def test_resample_video_rejects_empty_request():
    with pytest.raises(ValueError):
        resample_video(two_frame_video(), 0)


# --- editing ------------------------------------------------------------------------


def test_edit_with_no_pairs_returns_source_unchanged():
    video = two_frame_video()
    empty = Assignment(pairs=(), unmatched_detections=(0,), unmatched_instances=(0,))
    assert edit_pose_video(video, empty, two_frame_video()) is video


def test_edit_replaces_only_matched_instances():
    source = parse_pose_video(read_fixture("e2e_girl_dance", "source.json"))
    retrieved = parse_pose_video(
        read_fixture("e2e_girl_dance", "db", "clips", "dance_01.json")
    )
    assignment = Assignment(
        pairs=((0, 0),), unmatched_detections=(), unmatched_instances=(1,)
    )
    out = edit_pose_video(source, assignment, retrieved)
    assert len(out.frames) == len(source.frames)
    for got_frame, src_frame in zip(out.frames, source.frames):
        bystander_out = got_frame.instances[1]
        bystander_src = src_frame.instances[1]
        assert bystander_out == bystander_src
        assert not np.array_equal(got_frame.instances[0].xy, src_frame.instances[0].xy)
    # replaced keypoints carry the retrieved clip's confidences
    got_conf = out.frames[0].instances[0].confidence.tolist()
    ret_conf = retrieved.frames[0].instances[0].confidence.tolist()
    assert got_conf == ret_conf


def test_edit_requires_single_instance_retrieved_clip():
    source = two_frame_video()
    assignment = Assignment(
        pairs=((0, 0),), unmatched_detections=(), unmatched_instances=()
    )
    multi = parse_pose_video(read_fixture("pose_corpus", "multi.json"))
    with pytest.raises(ShapeError):
        edit_pose_video(source, assignment, multi)


def test_edit_refuses_a_clip_whose_skeleton_differs_from_the_source():
    source = parse_pose_video(read_fixture("e2e_girl_dance", "source.json"))
    retrieved = parse_pose_video(
        read_fixture("e2e_girl_dance", "db", "clips", "dance_01.json")
    )
    # the same motion, with its joints listed in reverse order
    reversed_joints = PoseVideo(
        **{
            **columns(retrieved),
            "skeleton": retrieved.skeleton[::-1],
            "xy": retrieved.xy[:, ::-1],
            "visible": retrieved.visible[:, ::-1],
            "confidence": retrieved.confidence[:, ::-1],
        }
    )
    assignment = Assignment(
        pairs=((0, 0),), unmatched_detections=(), unmatched_instances=(1,)
    )
    with pytest.raises(ShapeError, match="skeleton"):
        alignment_transforms(source, assignment, reversed_joints)
    transforms = alignment_transforms(source, assignment, retrieved)
    with pytest.raises(ShapeError, match="skeleton"):
        edit_pose_video(source, assignment, reversed_joints, transforms)


def test_edit_rejects_unknown_instance_id():
    source = two_frame_video()
    assignment = Assignment(
        pairs=((0, 7),), unmatched_detections=(), unmatched_instances=()
    )
    retrieved = two_frame_video()
    with pytest.raises(ValueError, match="instance_id 7"):
        edit_pose_video(source, assignment, retrieved)


# --- detection documents --------------------------------------------------------------


def test_parse_detections_fixture():
    dset = parse_detections(read_fixture("e2e_duo_wave", "detections.json"))
    assert dset.frame_index == 0
    assert len(dset.detections) == 2
    assert dset.detections[0].phrase == "the man on the left"
    assert dset.detections[1].score == 0.86


def test_parse_detections_accepts_empty_list():
    dset = parse_detections('{"frame_index": 0, "detections": []}')
    assert dset.detections == ()


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"detections": []}', "frame_index"),
        ('{"frame_index": 0}', "detections"),
        (
            '{"frame_index": 0, "detections": [{"phrase": "p", "box": [2, 0, 1, 3], "score": 0.5}]}',
            "x_min",
        ),
        (
            '{"frame_index": 0, "detections": [{"phrase": "p", "box": [0, 0, 1], "score": 0.5}]}',
            "box",
        ),
        (
            '{"frame_index": 0, "detections": [{"phrase": "p", "box": [0, 0, 1, 1], "score": 1.5}]}',
            "score",
        ),
        (
            '{"frame_index": 0, "detections": [{"box": [0, 0, 1, 1], "score": 0.5}]}',
            "phrase",
        ),
    ],
)
def test_parse_detections_rejects_malformed(doc, message):
    with pytest.raises(ParseError, match=message):
        parse_detections(doc)


def test_out_of_bounds_detections_flags_escaping_boxes():
    inside = det("in", box(10, 10, 20, 20))
    outside = det("out", box(-5, 10, 20, 20))
    dset = DetectionSet(frame_index=0, detections=(inside, outside))
    assert out_of_bounds_detections(dset, 100, 100) == (1,)


# --- array code against per-keypoint references ------------------------------------
# The references loop over rows and joints and map each visible point with
# its own tr.apply(point[None]); the array code must agree bit for bit.


def apply_per_keypoint(tr, video):
    xy = video.xy.copy()
    for row in range(len(video.instance_id)):
        for joint in range(len(video.skeleton)):
            if video.visible[row, joint]:
                xy[row, joint] = tr.apply(xy[row, joint][None])[0]
    return PoseVideo(**{**columns(video), "xy": xy})


def resample_per_frame(video, n):
    if n == len(video.frame_index):
        return video
    picks = resample_indices(len(video.frame_index), n)
    rows, offsets = [], [0]
    for k in picks:
        rows.extend(range(video.offsets[k], video.offsets[k + 1]))
        offsets.append(len(rows))
    return PoseVideo(
        **{
            **columns(video),
            "frame_index": range(n),
            "offsets": offsets,
            "instance_id": video.instance_id[rows],
            "xy": video.xy[rows],
            "visible": video.visible[rows],
            "confidence": video.confidence[rows],
        }
    )


def edit_per_keypoint(source, transforms, retrieved):
    """Each row whose id is in ``transforms`` takes, in its source frame k,
    the aligned keypoints of the retrieved frame picked for frame k."""
    frame_count = len(source.frame_index)
    aligned = {
        inst_id: resample_per_frame(apply_per_keypoint(tr, retrieved), frame_count)
        for inst_id, tr in transforms.items()
    }
    xy, visible, confidence = source.xy.copy(), source.visible.copy(), source.confidence.copy()
    for k in range(frame_count):
        for row in range(source.offsets[k], source.offsets[k + 1]):
            donor = aligned.get(int(source.instance_id[row]))
            if donor is not None:  # one person per frame: row k is frame k
                xy[row], visible[row], confidence[row] = (
                    donor.xy[k], donor.visible[k], donor.confidence[k]
                )
    return PoseVideo(
        **{**columns(source), "xy": xy, "visible": visible, "confidence": confidence}
    )


def assert_same_bits(got, want):
    assert got == want
    for column in ("frame_index", "offsets", "instance_id", "xy", "visible", "confidence"):
        a, b = getattr(got, column), getattr(want, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column


similarity_transforms = st.builds(
    SimilarityTransform2D,
    scale=st.floats(min_value=0.05, max_value=20.0),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    translation=st.tuples(
        st.floats(min_value=-500.0, max_value=500.0),
        st.floats(min_value=-500.0, max_value=500.0),
    ),
)


@given(ragged_videos(coordinates=ANY_COORDINATES), similarity_transforms)
def test_apply_transform_matches_the_per_keypoint_reference(video, tr):
    assert_same_bits(apply_transform(tr, video), apply_per_keypoint(tr, video))


@given(ragged_videos(min_frames=1, coordinates=ANY_COORDINATES), st.integers(1, 9))
def test_resample_video_matches_the_per_frame_reference(video, n):
    assert_same_bits(resample_video(video, n), resample_per_frame(video, n))


def test_resample_video_rejects_a_video_without_frames():
    with pytest.raises(ShapeError):
        resample_video(pose_video(1, 1, ("a",), []), 3)


@given(ragged_videos(min_frames=1, coordinates=ANY_COORDINATES), st.data())
def test_edit_matches_the_per_keypoint_reference(source, data):
    retrieved = data.draw(
        ragged_videos(
            joints=len(source.skeleton),
            min_frames=1,
            people=(1, 1),
            coordinates=ANY_COORDINATES,
        )
    )
    first_ids = source.instance_id[: source.offsets[1]].tolist()
    matched = data.draw(st.lists(st.sampled_from(first_ids), unique=True)) if first_ids else []
    assignment = Assignment(
        pairs=tuple(enumerate(matched)),
        unmatched_detections=(),
        unmatched_instances=tuple(i for i in first_ids if i not in matched),
    )
    transforms = {inst_id: data.draw(similarity_transforms) for inst_id in matched}
    assert_same_bits(
        edit_pose_video(source, assignment, retrieved, transforms),
        edit_per_keypoint(source, transforms, retrieved),
    )
    # and with the transforms solved inside
    try:
        solved = alignment_transforms(source, assignment, retrieved)
    except GeometryError:
        with pytest.raises(GeometryError):
            edit_pose_video(source, assignment, retrieved)
    else:
        assert_same_bits(
            edit_pose_video(source, assignment, retrieved),
            edit_per_keypoint(source, solved, retrieved),
        )
