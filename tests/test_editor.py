import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from posedit import (
    Assignment,
    DetectionSet,
    ParseError,
    PoseVideo,
    ShapeError,
    SimilarityTransform2D,
    alignment_transforms,
    apply_transform,
    assign_detections,
    edit_pose_video,
    parse_detections,
    parse_pose_video,
    out_of_bounds_detections,
    resample_video,
)
from posedit.editor import _iou_table, resample_indices
from conftest import (
    ANY_COORDINATES,
    columns,
    load_make_fixtures,
    pose_video,
    ragged_videos,
    read_fixture,
)
from oracles import greedy_pairs_by_rescan

make_fixtures = load_make_fixtures()


def detections(*boxes, score=0.9):
    """A first-frame DetectionSet of ``boxes`` ([x_min, y_min, x_max,
    y_max] each), phrased "d0", "d1", ... in order."""
    n = len(boxes)
    return DetectionSet(
        0, tuple(f"d{i}" for i in range(n)), np.reshape(boxes, (n, 4)), [score] * n
    )


def person_instance(instance_id, cx, cy, half=10.0):
    return (instance_id, [(cx - half, cy - half, True), (cx + half, cy + half, True)])


def frame_with(*instances, joints=2):
    """A one-frame video holding ``instances``; a second frame without
    them shows that assignment reads the first frame only."""
    skeleton = tuple(f"j{i}" for i in range(joints))
    return pose_video(400, 400, skeleton, [(0, instances), (1, [])])


def oracle_table(dset, video):
    """{(detection index, instance_id): IoU} by the fixture generator's
    scalar rules, which never import posedit: ``kp_box`` over each
    first-frame person with a visible keypoint, then ``iou_scalar``."""
    table = {}
    for row in range(video.offsets[1]):
        keypoints = [
            {"x": x, "y": y, "visible": v}
            for (x, y), v in zip(video.xy[row].tolist(), video.visible[row].tolist())
        ]
        if any(kp["visible"] for kp in keypoints):
            person = make_fixtures.kp_box(keypoints)
            for d, box in enumerate(dset.boxes.tolist()):
                table[(d, int(video.instance_id[row]))] = make_fixtures.iou_scalar(box, person)
    return table


# --- IoU table ----------------------------------------------------------------------


def iou_of(det_box, person_box):
    """The IoU of one detection against one person whose visible keypoints
    are the corners of ``person_box``."""
    x0, y0, x1, y1 = person_box
    person = (5, [(x0, y0, True), (x1, y1, True)])
    table, ids = _iou_table(detections(det_box), frame_with(person))
    assert ids.tolist() == [5]
    return table[0, 0]


def test_iou_hand_values():
    assert iou_of((0, 0, 2, 2), (1, 1, 3, 3)) == 1.0 / 7.0
    assert iou_of((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0
    assert iou_of((0, 0, 4, 4), (1, 1, 2, 2)) == 1.0 / 16.0
    assert iou_of((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0


def test_iou_degenerate_union_is_zero():
    assert iou_of((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0


def box_lists(coordinates, max_size):
    """Lists of [x_min, y_min, x_max, y_max] boxes on ``coordinates``."""
    return st.lists(st.tuples(*[coordinates] * 4), max_size=max_size).map(
        lambda raw: [(min(a, c), min(b, d), max(a, c), max(b, d)) for a, b, c, d in raw]
    )


SMALL_COORDINATES = st.floats(min_value=-50, max_value=50)


@given(
    box_lists(SMALL_COORDINATES, 4),
    ragged_videos(min_frames=1, coordinates=SMALL_COORDINATES),
)
def test_iou_table_values_are_in_the_unit_interval(boxes, video):
    table, ids = _iou_table(detections(*boxes), video)
    assert table.shape == (len(boxes), len(ids))
    assert ((table >= 0.0) & (table <= 1.0)).all()


# small integers make touching, nested and zero-area boxes; both zeros
# check that each zero value carries the scalar rule's sign; extents near
# the float limit make areas past it, whose union is NaN in both rules
EDGE_COORDINATES = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([0.0, -0.0, -1.7e308, -1e308, 1e308, 1.7e308]),
)


@st.composite
def crowds(draw):
    """A first frame of 0-5 people, any of whose joints may be hidden, and
    0-5 detections over it, all on EDGE_COORDINATES."""
    joints = draw(st.integers(min_value=1, max_value=3))
    ids = draw(st.lists(st.integers(min_value=0, max_value=40), max_size=5, unique=True))
    people = [
        (i, [(draw(EDGE_COORDINATES), draw(EDGE_COORDINATES), draw(st.booleans()))
             for _ in range(joints)])
        for i in ids
    ]
    boxes = draw(box_lists(EDGE_COORDINATES, 5))
    return detections(*boxes), frame_with(*people, joints=joints)


# a box and a person spanning [-1e308, 1e308]: their areas overflow
SPAN = (-1e308, -1e308, 1e308, 1e308)
SPAN_PERSON = (0, [(-1e308, -1e308, True), (1e308, 1e308, True)])


@given(crowds(), st.floats(min_value=0.01, max_value=1.0))
@example((detections(), frame_with(person_instance(0, 1, 1))), 0.3)
@example((detections((0, 0, 1, 1)), frame_with()), 0.3)
@example((detections(SPAN), frame_with(SPAN_PERSON)), 0.3)
@example(
    (detections((0.0, -0.0, 2.0, 2.0)), frame_with((3, [(-0.0, 0.0, True), (1.0, 9.0, False)]))),
    0.3,
)
def test_iou_table_matches_the_scalar_oracle(crowd, threshold):
    dset, video = crowd
    table, ids = _iou_table(dset, video)
    got = {
        (d, i): table[d, col] for d in range(len(dset)) for col, i in enumerate(ids.tolist())
    }
    want = oracle_table(dset, video)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.float64(value).tobytes() == got[key].tobytes(), (key, value, got[key])
    assert list(assign_detections(dset, video, threshold).pairs) == greedy_pairs_by_rescan(
        want, threshold
    )


def test_an_iou_of_areas_past_the_float_range_is_nan_and_matches_nobody():
    frame = frame_with(SPAN_PERSON)
    table, _ = _iou_table(detections(SPAN), frame)
    assert math.isnan(table[0, 0])
    assert assign_detections(detections(SPAN), frame, 0.3).pairs == ()


# --- assignment ---------------------------------------------------------------------


def test_assignment_simple_match():
    frame = frame_with(person_instance(0, 100, 100), person_instance(1, 300, 300))
    dset = detections((88, 88, 112, 112), (288, 288, 312, 312))
    got = assign_detections(dset, frame, 0.3)
    assert set(got.pairs) == {(0, 0), (1, 1)}
    assert got.unmatched_detections == ()
    assert got.unmatched_instances == ()


def test_assignment_threshold_excludes_weak_overlap():
    frame = frame_with(person_instance(0, 100, 100))
    got = assign_detections(detections((105, 105, 130, 130)), frame, 0.5)
    assert got.pairs == ()
    assert got.unmatched_detections == (0,)
    assert got.unmatched_instances == (0,)


def test_assignment_greedy_blocks_second_best():
    # detection 0 overlaps both instances; the better pair wins first and
    # detection 1 only overlaps instance 1, which is then taken
    frame = frame_with(person_instance(0, 100, 100), person_instance(1, 118, 100))
    dset = detections((90, 90, 128, 110), (108, 90, 128, 110))
    got = assign_detections(dset, frame, 0.05)
    assert len(got.pairs) == 2
    assert dict(got.pairs) == {0: 0, 1: 1} or dict(got.pairs) == {1: 1, 0: 0}


def test_assignment_tie_prefers_lower_detection_then_instance():
    # two identical detections over one instance: detection 0 wins the tie
    frame = frame_with(person_instance(0, 100, 100))
    got = assign_detections(detections((90, 90, 110, 110), (90, 90, 110, 110)), frame, 0.3)
    assert got.pairs == ((0, 0),)
    assert got.unmatched_detections == (1,)


def test_assignment_requires_visible_keypoints():
    # a person with no visible keypoint has no box, so no detection matches
    # them, even one over their hidden keypoints; the others still match
    hidden = (0, [(0.0, 0.0, False), (2.0, 2.0, False)])
    shown = (3, [(0.0, 0.0, True), (2.0, 2.0, True)])
    dset = detections((0, 0, 2, 2), (0, 0, 2, 2))
    got = assign_detections(dset, frame_with(hidden, shown), 0.3)
    assert got.pairs == ((0, 3),)
    assert got.unmatched_detections == (1,)
    assert got.unmatched_instances == (0,)


def test_assignment_needs_a_first_frame():
    with pytest.raises(ValueError, match="no frames"):
        assign_detections(detections((0, 0, 2, 2)), pose_video(4, 4, ("a",), []), 0.3)


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
    boxes = []
    for _ in range(n_det):
        cx, cy = rng.uniform(20, 180, 2)
        w, h = rng.uniform(5, 40, 2)
        boxes.append((cx - w, cy - h, cx + w, cy + h))
    frame = frame_with(*instances)
    dset = detections(*boxes)
    threshold = float(rng.uniform(0.05, 0.6))
    got = assign_detections(dset, frame, threshold)

    table = oracle_table(dset, frame)
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
    assert edit_pose_video(video, empty, {}) is video


def test_edit_replaces_only_matched_instances():
    source = parse_pose_video(read_fixture("e2e_girl_dance", "source.json"))
    retrieved = parse_pose_video(
        read_fixture("e2e_girl_dance", "db", "clips", "dance_01.json")
    )
    assignment = Assignment(
        pairs=((0, 0),), unmatched_detections=(), unmatched_instances=(1,)
    )
    aligned, _ = alignment_transforms(source, assignment, retrieved)
    out = edit_pose_video(source, assignment, aligned)
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


@pytest.mark.parametrize("pairs", [((0, 0),), ()], ids=["matched", "nobody-matched"])
def test_edit_requires_single_instance_retrieved_clip(pairs):
    source = two_frame_video()
    assignment = Assignment(pairs=pairs, unmatched_detections=(), unmatched_instances=())
    # the source's own skeleton, with a second person in frame 1
    duo = pose_video(
        100, 100, ("j",),
        [(0, [(0, [(1.0, 1.0, True)])]), (1, [(0, [(2.0, 1.0, True)]), (1, [(3.0, 1.0, True)])])],
    )
    with pytest.raises(ShapeError, match="exactly 1 instance per frame; frame 1 has 2"):
        alignment_transforms(source, assignment, duo)


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


def test_edit_rejects_unknown_instance_id():
    source = two_frame_video()
    assignment = Assignment(
        pairs=((0, 7),), unmatched_detections=(), unmatched_instances=()
    )
    retrieved = two_frame_video()
    with pytest.raises(ValueError, match="instance_id 7"):
        alignment_transforms(source, assignment, retrieved)


# --- detection documents --------------------------------------------------------------


def test_parse_detections_fixture():
    dset = parse_detections(read_fixture("e2e_duo_wave", "detections.json"))
    assert dset.frame_index == 0
    assert len(dset) == 2
    assert dset.phrases[0] == "the man on the left"
    assert dset.scores[1] == 0.86
    assert dset.boxes.shape == (2, 4) and not dset.boxes.flags.writeable


def test_parse_detections_accepts_empty_list():
    dset = parse_detections('{"frame_index": 0, "detections": []}')
    assert dset.phrases == ()
    assert dset.boxes.shape == (0, 4) and dset.scores.shape == (0,)


@pytest.mark.parametrize(
    "columns, message",
    [
        ((-1, (), np.empty((0, 4)), ()), "frame_index"),
        ((0, ("p",), np.empty((0, 4)), ()), "one row for each of 1 phrases"),
        ((0, ("p",), [[0, 0, 1, 1]], [0.5, 0.5]), "one row for each of 1 phrases"),
        ((0, ("p",), [[0, 0, math.inf, 1]], [0.5]), "finite"),
        ((0, ("p",), [[0, 2, 1, 1]], [0.5]), "y_min <= y_max"),
        ((0, ("p",), [[0, 0, 1, 1]], [1.5]), r"\[0, 1\]"),
        ((0, ("p",), [[0, 0, 1, 1]], [math.nan]), r"\[0, 1\]"),
    ],
)
def test_detection_set_checks_its_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        DetectionSet(*columns)


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
    dset = detections((10, 10, 20, 20), (-5, 10, 20, 20))
    assert out_of_bounds_detections(dset, 100, 100) == (1,)


def detection_document(*boxes):
    return json.dumps(
        {
            "frame_index": 0,
            "detections": [
                {"phrase": f"d{i}", "box": list(box), "score": 0.5}
                for i, box in enumerate(boxes)
            ],
        }
    )


def test_out_of_bounds_detections_flags_one_ulp_past_an_edge_not_the_edge():
    width, height = 64, 48
    edge = [0.0, 0.0, float(width), float(height)]
    past = []
    for k, toward in enumerate((-math.inf, -math.inf, math.inf, math.inf)):
        box = list(edge)
        box[k] = float(np.nextafter(box[k], toward))
        past.append(box)
    dset = parse_detections(detection_document(edge, [-0.0, -0.0, 64.0, 48.0], *past))
    assert out_of_bounds_detections(dset, width, height) == (2, 3, 4, 5)


def test_out_of_bounds_detections_compares_with_the_exact_integer_extent():
    # as a float, 2**53 + 3 rounds to 2**53 + 4, and 10**400 is past the range
    dset = parse_detections(
        detection_document([0.0, 0.0, 2.0**53 + 2, 1.0], [0.0, 0.0, 2.0**53 + 4, 1.0])
    )
    assert out_of_bounds_detections(dset, 2**53 + 3, 1) == (1,)
    assert out_of_bounds_detections(dset, 10**400, 10**400) == ()


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
    # any transform, with its donor built the way alignment_transforms
    # builds one: resampled first, then mapped, where the reference maps
    # the whole clip and then resamples
    transforms = {inst_id: data.draw(similarity_transforms) for inst_id in matched}
    clip = resample_video(retrieved, len(source.frame_index))
    assert_same_bits(
        edit_pose_video(
            source, assignment, {i: (tr, apply_transform(tr, clip)) for i, tr in transforms.items()}
        ),
        edit_per_keypoint(source, transforms, retrieved),
    )
    # and with what alignment_transforms solves; a person whose first
    # frame is degenerate is left out of it, not fatal
    aligned, unaligned = alignment_transforms(source, assignment, retrieved)
    assert sorted([*aligned, *unaligned]) == sorted(matched)
    assert_same_bits(
        edit_pose_video(source, assignment, aligned),
        edit_per_keypoint(source, {i: tr for i, (tr, _) in aligned.items()}, retrieved),
    )
