import glob
import json
import math
import os

import pytest
from hypothesis import given, strategies as st

from posedit import pose_model
from posedit import (
    COCO_17_JOINTS,
    Assignment,
    GeometryError,
    Keypoint,
    ParseError,
    PoseFrame,
    PoseInstance,
    PoseVideo,
    alignment_transforms,
    edit_pose_video,
    keypoint_bbox,
    out_of_frame_indices,
    parse_pose_video,
    resample_video,
    serialize_pose_video,
)
from conftest import fixture_path, ragged_videos, read_fixture

TINY_CANONICAL = (
    '{"frames":[{"frame_index":0,"instances":[{"instance_id":0,"keypoints":['
    '{"confidence":1.000000,"visible":true,"x":1.000000,"y":2.000000},'
    '{"confidence":0.500000,"visible":false,"x":0.000000,"y":0.000000},'
    '{"confidence":1.000000,"visible":true,"x":3.250000,"y":0.125000}]}]}],'
    '"height":4,"label":"tiny","skeleton":["a","b","c"],"width":4}\n'
)


def tiny_video() -> PoseVideo:
    kps = (
        Keypoint(x=1.0, y=2.0, visible=True),
        Keypoint(x=0.0, y=0.0, visible=False, confidence=0.5),
        Keypoint(x=3.25, y=0.125, visible=True),
    )
    frame = PoseFrame(
        frame_index=0, instances=(PoseInstance(instance_id=0, keypoints=kps),)
    )
    return PoseVideo(
        width=4, height=4, skeleton=("a", "b", "c"), frames=(frame,), label="tiny"
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
    kp = Keypoint(x=-0.0, y=0.0, visible=True)
    frame = PoseFrame(
        frame_index=0, instances=(PoseInstance(instance_id=0, keypoints=(kp,)),)
    )
    video = PoseVideo(width=1, height=1, skeleton=("j",), frames=(frame,))
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
            kps = tuple(
                Keypoint(
                    x=draw(coordinate),
                    y=draw(coordinate),
                    visible=draw(st.booleans()),
                    confidence=draw(
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                    ),
                )
                for _ in range(n_joints)
            )
            instances.append(PoseInstance(instance_id=i, keypoints=kps))
        frames.append(PoseFrame(frame_index=f, instances=tuple(instances)))
    label = draw(st.one_of(st.none(), st.text(max_size=8)))
    return PoseVideo(
        width=draw(st.integers(min_value=1, max_value=2000)),
        height=draw(st.integers(min_value=1, max_value=2000)),
        skeleton=skeleton,
        frames=tuple(frames),
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
            for pk, vk in zip(pi.keypoints, vi.keypoints):
                assert pk.visible == vk.visible
                assert math.isclose(pk.x, vk.x, abs_tol=5e-7)
                assert math.isclose(pk.y, vk.y, abs_tol=5e-7)


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


def test_zero_frames_and_empty_frames_round_trip():
    for frames in ((), (PoseFrame(frame_index=3, instances=()),)):
        video = PoseVideo(width=4, height=4, skeleton=("a", "b"), frames=frames)
        text = serialize_pose_video(video)
        assert parse_pose_video(text) == video
        assert serialize_pose_video(parse_pose_video(text)) == text
        assert video.xy.shape == (0, 2, 2)


def test_views_compare_equal_to_hand_built_objects():
    video = parse_pose_video(TINY_CANONICAL)
    assert video.frames == tiny_video().frames
    inst = video.frames[0].instances[0]
    assert inst.keypoints == tiny_video().frames[0].instances[0].keypoints
    assert inst.xy.tolist() == [[1.0, 2.0], [0.0, 0.0], [3.25, 0.125]]
    assert not inst.xy.flags.writeable
    with pytest.raises(AttributeError):
        inst.instance_id = 5


def test_array_paths_build_no_keypoint_objects(monkeypatch):
    built = []
    keypoint = pose_model.Keypoint
    monkeypatch.setattr(
        pose_model, "Keypoint", lambda *args: built.append(args) or keypoint(*args)
    )
    source = parse_pose_video(read_fixture("e2e_duo_wave", "source.json"))
    retrieved = parse_pose_video(read_fixture("e2e_duo_wave", "db", "clips", "wave_01.json"))
    # the walk perfbench/tracing.py makes over every parsed video
    assert sum(len(frame.instances) for frame in source.frames) > 0
    working = resample_video(source, 2 * len(source.frames))
    first_ids = [inst.instance_id for inst in working.frames[0].instances]
    assignment = Assignment(
        pairs=tuple(enumerate(first_ids)), unmatched_detections=(), unmatched_instances=()
    )
    transforms = alignment_transforms(working, assignment, retrieved)
    edited = edit_pose_video(working, assignment, retrieved, transforms)
    serialize_pose_video(edited)
    out_of_frame_indices(edited)
    keypoint_bbox(edited.frames[0].instances[0])
    assert built == []
    assert edited.frames[0].instances[0].keypoints  # built on request
    assert len(built) == len(source.skeleton)


# --- validation and parse failures -------------------------------------------------


def test_keypoint_rejects_non_finite():
    with pytest.raises(ValueError):
        Keypoint(x=float("nan"), y=0.0, visible=True)
    with pytest.raises(ValueError):
        Keypoint(x=0.0, y=0.0, visible=True, confidence=1.5)


def test_frame_rejects_duplicate_instance_ids():
    kp = (Keypoint(x=0.0, y=0.0, visible=True),)
    with pytest.raises(ValueError, match="unique"):
        PoseFrame(
            frame_index=0,
            instances=(
                PoseInstance(instance_id=1, keypoints=kp),
                PoseInstance(instance_id=1, keypoints=kp),
            ),
        )


def test_video_rejects_wrong_joint_count():
    kp = (Keypoint(x=0.0, y=0.0, visible=True),)
    frame = PoseFrame(
        frame_index=0, instances=(PoseInstance(instance_id=0, keypoints=kp),)
    )
    with pytest.raises(ValueError):
        PoseVideo(width=4, height=4, skeleton=("a", "b"), frames=(frame,))


def test_video_rejects_non_increasing_frame_index():
    kp = (Keypoint(x=0.0, y=0.0, visible=True),)
    mk = lambda f: PoseFrame(
        frame_index=f, instances=(PoseInstance(instance_id=0, keypoints=kp),)
    )
    with pytest.raises(ValueError, match="increasing"):
        PoseVideo(width=4, height=4, skeleton=("a",), frames=(mk(1), mk(1)))


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


# --- derived geometry ---------------------------------------------------------------


def test_keypoint_bbox_spans_visible_points_only():
    inst = PoseInstance(
        instance_id=3,
        keypoints=(
            Keypoint(x=1.0, y=2.0, visible=True),
            Keypoint(x=100.0, y=200.0, visible=False),
            Keypoint(x=5.0, y=-1.0, visible=True),
        ),
    )
    box = keypoint_bbox(inst)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (1.0, -1.0, 5.0, 2.0)


def test_keypoint_bbox_requires_a_visible_point():
    inst = PoseInstance(
        instance_id=7, keypoints=(Keypoint(x=1.0, y=2.0, visible=False),)
    )
    with pytest.raises(GeometryError, match="instance 7"):
        keypoint_bbox(inst)


def test_out_of_frame_indices_flags_escaped_keypoints():
    video = parse_pose_video(read_fixture("pose_corpus", "out_of_frame.json"))
    flagged = out_of_frame_indices(video)
    assert (0, 0, 0) in flagged
    assert isinstance(flagged, tuple)
    for _, _, joint in flagged:
        assert 0 <= joint < len(COCO_17_JOINTS)


def test_out_of_frame_ignores_invisible_points():
    kps = (
        Keypoint(x=-5.0, y=0.5, visible=False),
        Keypoint(x=0.5, y=0.5, visible=True),
    )
    frame = PoseFrame(
        frame_index=0, instances=(PoseInstance(instance_id=0, keypoints=kps),)
    )
    video = PoseVideo(width=1, height=1, skeleton=("a", "b"), frames=(frame,))
    assert out_of_frame_indices(video) == ()
