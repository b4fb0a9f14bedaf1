import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posedit import pose_model
from posedit import (
    Assignment,
    ParseError,
    PoseVideo,
    alignment_transforms,
    edit_pose_video,
    parse_pose_video,
    resample_video,
    serialize_pose_video,
)
from conftest import columns, fixture_path, pose_video, ragged_videos, read_fixture

TINY_CANONICAL = (
    '{"frames":[{"frame_index":0,"instances":[{"instance_id":0,"keypoints":['
    '{"confidence":1.000000,"visible":true,"x":1.000000,"y":2.000000},'
    '{"confidence":0.500000,"visible":false,"x":0.000000,"y":0.000000},'
    '{"confidence":1.000000,"visible":true,"x":3.250000,"y":0.125000}]}]}],'
    '"height":4,"label":"tiny","skeleton":["a","b","c"],"width":4}\n'
)


def tiny_video() -> PoseVideo:
    return PoseVideo(
        width=4,
        height=4,
        skeleton=("a", "b", "c"),
        frame_index=[0],
        offsets=[0, 1],
        instance_id=[0],
        xy=[[[1.0, 2.0], [0.0, 0.0], [3.25, 0.125]]],
        visible=[[True, False, True]],
        confidence=[[1.0, 0.5, 1.0]],
        label="tiny",
    )


def test_serialize_matches_handwritten_literal():
    assert serialize_pose_video(tiny_video()) == TINY_CANONICAL


def test_parse_of_canonical_literal_round_trips():
    video = parse_pose_video(TINY_CANONICAL)
    assert video == tiny_video()
    assert serialize_pose_video(video) == TINY_CANONICAL


def all_canonical_fixture_files():
    patterns = [
        ("pose_corpus", "*.json"),
        ("align", "fixed.json"),
        ("align", "moving.json"),
        ("retrieval", os.path.join("clips", "*.json")),
    ]
    for bundle in ("e2e_girl_dance", "e2e_boy_sit", "e2e_duo_wave"):
        patterns.append((bundle, "source.json"))
        patterns.append((bundle, os.path.join("db", "clips", "*.json")))
        patterns.append((bundle, os.path.join("golden", "*.json")))
    files = []
    for parts in patterns:
        files.extend(sorted(glob.glob(fixture_path(*parts))))
    assert len(files) >= 20
    return files


@pytest.mark.parametrize("path", all_canonical_fixture_files())
def test_corpus_files_are_canonical_fixed_points(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert serialize_pose_video(parse_pose_video(text)) == text


def test_negative_zero_is_normalized():
    video = pose_video(1, 1, ("j",), [(0, [(0, [(-0.0, 0.0, True)])])])
    out = serialize_pose_video(video)
    assert '"x":0.000000' in out
    assert "-0.000000" not in out


coordinate = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


@st.composite
def videos(draw):
    n_joints = draw(st.integers(min_value=1, max_value=5))
    skeleton = tuple(f"j{i}" for i in range(n_joints))
    n_frames = draw(st.integers(min_value=1, max_value=4))
    n_instances = draw(st.integers(min_value=1, max_value=3))
    frames = []
    for f in range(n_frames):
        instances = []
        for i in range(n_instances):
            kps = [
                (
                    draw(coordinate),
                    draw(coordinate),
                    draw(st.booleans()),
                    draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
                )
                for _ in range(n_joints)
            ]
            instances.append((i, kps))
        frames.append((f, instances))
    label = draw(st.one_of(st.none(), st.text(max_size=8)))
    return pose_video(
        width=draw(st.integers(min_value=1, max_value=2000)),
        height=draw(st.integers(min_value=1, max_value=2000)),
        skeleton=skeleton,
        frames=frames,
        label=label,
    )


@given(videos())
def test_serialization_is_idempotent_after_one_pass(video):
    once = serialize_pose_video(video)
    again = serialize_pose_video(parse_pose_video(once))
    assert again == once


@given(videos())
def test_parse_preserves_structure(video):
    parsed = parse_pose_video(serialize_pose_video(video))
    assert parsed.width == video.width
    assert parsed.height == video.height
    assert parsed.skeleton == video.skeleton
    assert parsed.label == video.label
    assert len(parsed.frames) == len(video.frames)
    for pf, vf in zip(parsed.frames, video.frames):
        assert pf.frame_index == vf.frame_index
        for pi, vi in zip(pf.instances, vf.instances):
            assert pi.instance_id == vi.instance_id
            assert pi.visible.tolist() == vi.visible.tolist()
            for (px, py), (vx, vy) in zip(pi.xy.tolist(), vi.xy.tolist()):
                assert math.isclose(px, vx, abs_tol=5e-7)
                assert math.isclose(py, vy, abs_tol=5e-7)


# --- ragged videos ------------------------------------------------------------------


@given(ragged_videos())
def test_ragged_round_trip_is_a_fixed_point(video):
    text = serialize_pose_video(video)
    parsed = parse_pose_video(text)
    assert parsed == video
    assert parsed.frames == video.frames
    assert serialize_pose_video(parsed) == text


@given(ragged_videos())
def test_column_checks_accept_what_the_walk_accepts(video):
    doc = json.loads(serialize_pose_video(video))
    joints = len(video.skeleton)
    columns = pose_model._columns(doc["frames"], joints)
    assert columns is not None
    assert columns == pose_model._walk(doc["frames"], joints)


# values that pass _columns' JSON type tests but break a PoseVideo rule
BAD_INDICES = st.integers(max_value=-1) | st.integers(min_value=2**63, max_value=10**400)
PAST_FLOAT_RANGE = st.integers(min_value=2**1024, max_value=10**400).map(
    lambda v: v * (1, -1)[v % 2]
)
BAD_CONFIDENCES = (
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not 0.0 <= v <= 1.0)
    | st.integers(min_value=2, max_value=10**300)
    | st.integers(max_value=-1)
)


@st.composite
def broken_clips(draw):
    """The frames array of a valid clip with one value-rule breaker swapped in,
    and the clip's joint count."""
    video = draw(ragged_videos(min_frames=1, people=(1, 3)))
    frames = json.loads(serialize_pose_video(video))["frames"]
    fi = draw(st.integers(0, len(frames) - 1))
    frame = frames[fi]
    instance = draw(st.sampled_from(frame["instances"]))
    keypoint = draw(st.sampled_from(instance["keypoints"]))
    kind = draw(st.sampled_from(["frame", "id", "repeat", "order", "confidence", "huge"]))
    if kind == "frame":
        frame["frame_index"] = draw(BAD_INDICES)
    elif kind == "id":
        instance["instance_id"] = draw(BAD_INDICES)
    elif kind == "repeat":
        frame["instances"].append(json.loads(json.dumps(instance)))
    elif kind == "order":
        index = draw(st.integers(0, frame["frame_index"]))
        frames.insert(fi + 1, {"frame_index": index, "instances": []})
    elif kind == "confidence":
        keypoint["confidence"] = draw(BAD_CONFIDENCES)
    else:
        keypoint[draw(st.sampled_from(["x", "y", "confidence"]))] = draw(PAST_FLOAT_RANGE)
    return frames, len(video.skeleton)


@given(broken_clips())
def test_a_value_breaker_is_named_exactly_as_the_walk_names_it(clip):
    frames, joints = clip
    assert pose_model._columns(frames, joints) is not None  # only PoseVideo refuses it
    with pytest.raises(ParseError) as walked:
        pose_model._walk(frames, joints)
    text = json.dumps({"width": 8, "height": 8, "skeleton": ["j"] * joints, "frames": frames})
    with pytest.raises(ParseError) as parsed:  # a ValueError or OverflowError fails here
        parse_pose_video(text)
    assert str(parsed.value) == str(walked.value)


def test_zero_frames_and_empty_frames_round_trip():
    for frames in ([], [(3, [])]):
        video = pose_video(4, 4, ("a", "b"), frames)
        text = serialize_pose_video(video)
        assert parse_pose_video(text) == video
        assert serialize_pose_video(parse_pose_video(text)) == text
        assert video.xy.shape == (0, 2, 2)


def test_views_compare_equal_to_the_constructed_video():
    video = parse_pose_video(TINY_CANONICAL)
    assert video.frames == tiny_video().frames
    inst = video.frames[0].instances[0]
    assert inst == tiny_video().frames[0].instances[0]
    assert inst.xy.tolist() == [[1.0, 2.0], [0.0, 0.0], [3.25, 0.125]]
    assert inst.confidence.tolist() == [1.0, 0.5, 1.0]
    assert not inst.xy.flags.writeable
    with pytest.raises(AttributeError):
        inst.instance_id = 5
    for record in (video, video.frames[0], inst):  # equal by value, so not hashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_views_cannot_be_built_from_objects():
    with pytest.raises(TypeError):
        pose_model.PoseFrame(0, ())
    with pytest.raises(TypeError):
        pose_model.PoseInstance(0, ())


def test_array_paths_build_no_views(monkeypatch):
    # PoseFrame and PoseInstance views exist only behind PoseVideo.frames
    reads = []
    frames = pose_model.PoseVideo.frames
    monkeypatch.setattr(
        pose_model.PoseVideo, "frames", property(lambda v: reads.append(v) or frames.fget(v))
    )
    source = parse_pose_video(read_fixture("e2e_duo_wave", "source.json"))
    retrieved = parse_pose_video(read_fixture("e2e_duo_wave", "db", "clips", "wave_01.json"))
    working = resample_video(source, 2 * len(source.frame_index))
    first_ids = working.instance_id[: working.offsets[1]].tolist()
    assignment = Assignment(
        pairs=tuple(enumerate(first_ids)), unmatched_detections=(), unmatched_instances=()
    )
    aligned, _ = alignment_transforms(working, assignment, retrieved)
    edited = edit_pose_video(working, assignment, aligned)
    serialize_pose_video(edited)
    assert reads == []
    # the walk perfbench/tracing.py makes over every parsed video
    assert sum(len(frame.instances) for frame in edited.frames) == len(edited.instance_id)
    assert reads == [edited]


# --- validation and parse failures -------------------------------------------------


def valid_columns() -> dict:
    """Two frames of two people over a two-joint skeleton."""
    return {
        "width": 4,
        "height": 4,
        "skeleton": ("a", "b"),
        "frame_index": [0, 1],
        "offsets": [0, 2, 4],
        "instance_id": [0, 1, 0, 1],
        "xy": np.zeros((4, 2, 2)),
        "visible": np.ones((4, 2), dtype=bool),
        "confidence": np.full((4, 2), 0.5),
    }


def with_value(key, index, value):
    def change(columns):
        column = np.array(columns[key])
        column[index] = value
        columns[key] = column

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (with_value("xy", (1, 0, 0), math.nan), "finite"),
        (with_value("xy", (3, 1, 1), math.inf), "finite"),
        (with_value("confidence", (2, 1), 1.5), r"confidence must be in \[0, 1\]"),
        (with_value("confidence", (0, 0), -0.25), r"confidence must be in \[0, 1\]"),
        (with_value("confidence", (0, 0), math.nan), r"confidence must be in \[0, 1\]"),
        (with_value("instance_id", 3, 0), "unique"),
        (with_value("instance_id", 0, -1), "instance_id must be non-negative"),
        (with_value("frame_index", 1, 0), "increasing"),
        (with_value("frame_index", 0, -2), "frame_index must be non-negative"),
        (with_value("offsets", 1, 5), "never decrease"),
        (with_value("offsets", 2, 3), r"instance_id has shape \(4,\), expected \(3,\)"),
        (with_value("width", (), 0), "positive"),
        (with_value("height", (), -3), "positive"),
        (lambda c: c.update(skeleton=()), "at least one joint"),
        (lambda c: c.update(skeleton=("a", "b", "c")), r"xy has shape \(4, 2, 2\)"),
        (lambda c: c.update(xy=np.zeros((4, 1, 2))), r"xy has shape \(4, 1, 2\)"),
        (lambda c: c.update(visible=np.ones((4, 3), dtype=bool)), "visible has shape"),
        (lambda c: c.update(confidence=np.ones(8)), "confidence has shape"),
        (lambda c: c.update(offsets=[0, 4]), "offsets has shape"),
        (lambda c: c.update(offsets=[1, 2, 4]), "start at 0"),
    ],
)
def test_constructor_rejects_a_broken_layout(change, message):
    values = valid_columns()
    PoseVideo(**values)
    change(values)
    with pytest.raises(ValueError, match=message):
        PoseVideo(**values)


def test_constructor_copies_and_freezes_its_columns():
    values = valid_columns()
    video = PoseVideo(**values)
    values["xy"][0, 0, 0] = 9.0
    assert video.xy[0, 0, 0] == 0.0
    assert values["xy"].flags.writeable
    for key in ("frame_index", "offsets", "instance_id", "xy", "visible", "confidence"):
        assert not getattr(video, key).flags.writeable, key
    assert PoseVideo(**columns(video)) == video
    assert video.frame_index.dtype == np.int64 and video.visible.dtype == bool


def canonical_doc() -> str:
    return TINY_CANONICAL


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda d: d.replace('"width":4', '"width":0'), "width"),
        (lambda d: d.replace('"frame_index":0', '"frame_index":true'), "expected an integer"),
        (lambda d: d.replace('"x":1.000000', '"x":"one"'), "expected a number"),
        (lambda d: d.replace('"visible":true', '"visible":1'), "expected a boolean"),
        (lambda d: d.replace('"confidence":0.500000', '"confidence":1.500000'), "confidence"),
        (lambda d: d.replace('"label":"tiny",', '"lable":"tiny",'), "unexpected field"),
        (lambda d: d.replace('"x":3.250000', '"x":Infinity'), "non-finite"),
        (lambda d: d[:-2], "invalid JSON"),
    ],
)
def test_parse_rejects_malformed_documents(mutation, message):
    with pytest.raises(ParseError, match=message):
        parse_pose_video(mutation(canonical_doc()))


def test_parse_rejects_missing_keypoint_relative_to_skeleton():
    doc = canonical_doc().replace(
        ',{"confidence":1.000000,"visible":true,"x":3.250000,"y":0.125000}', ""
    )
    with pytest.raises(ParseError, match="keypoint"):
        parse_pose_video(doc)


def test_parse_rejects_non_object_top_level():
    with pytest.raises(ParseError, match="expected an object"):
        parse_pose_video("[1, 2, 3]\n")


def test_a_visible_keypoint_outside_the_frame_is_kept():
    text = read_fixture("pose_corpus", "out_of_frame.json")
    video = parse_pose_video(text)
    assert video.visible[0, 0] and video.xy[0, 0].tolist() == [-12.5, 41.340259]
    assert serialize_pose_video(video) == text
