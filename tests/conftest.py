import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from posedit import PoseVideo

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@pytest.fixture
def fixtures_dir() -> str:
    return FIXTURES


def fixture_path(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def read_fixture(*parts: str) -> str:
    with open(fixture_path(*parts), "r", encoding="utf-8") as fh:
        return fh.read()


def pose_video(width, height, skeleton, frames, label=None) -> PoseVideo:
    """A video from nested tuples: ``frames`` holds ``(frame_index,
    instances)``, each instance is ``(instance_id, keypoints)`` and each
    keypoint ``(x, y, visible)`` or ``(x, y, visible, confidence)``, with
    confidence 1.0 when left out."""
    joints = len(skeleton)
    rows = [instance for _, instances in frames for instance in instances]
    keypoints = [(*kp, 1.0)[:4] for _, kps in rows for kp in kps]
    return PoseVideo(
        width,
        height,
        skeleton,
        frame_index=[index for index, _ in frames],
        offsets=np.cumsum([0] + [len(instances) for _, instances in frames]),
        instance_id=[instance_id for instance_id, _ in rows],
        xy=np.array([kp[:2] for kp in keypoints], dtype=np.float64).reshape(-1, joints, 2),
        visible=np.array([kp[2] for kp in keypoints], dtype=bool).reshape(-1, joints),
        confidence=np.array([kp[3] for kp in keypoints], dtype=np.float64).reshape(-1, joints),
        label=label,
    )


def columns(video: PoseVideo) -> dict:
    """Every constructor argument of ``video``, by name."""
    return {key: getattr(video, key) for key in PoseVideo._fields}


# coordinates and confidences that print exactly at six decimals, so a
# serialize/parse round trip gives back equal values
EXACT_COORDINATES = st.integers(min_value=-64000, max_value=64000).map(lambda k: k / 64)
ANY_COORDINATES = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
EXACT_CONFIDENCES = st.integers(min_value=0, max_value=64).map(lambda k: k / 64)


@st.composite
def ragged_videos(
    draw, joints=None, min_frames=0, people=(0, 3), coordinates=EXACT_COORDINATES
):
    """Videos of 0-4 frames holding ``people`` persons each, drawn per frame
    from a pool of non-contiguous ids, so a person can miss some frames."""
    if joints is None:
        joints = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5,
                         unique=True))
    indices = draw(st.sets(st.integers(min_value=0, max_value=60), min_size=min_frames,
                           max_size=4))
    frames = []
    for index in sorted(indices):
        ids = draw(st.lists(st.sampled_from(pool), min_size=people[0],
                            max_size=min(people[1], len(pool)), unique=True))
        instances = [
            (
                instance_id,
                [
                    (
                        draw(coordinates),
                        draw(coordinates),
                        draw(st.booleans()),
                        draw(EXACT_CONFIDENCES),
                    )
                    for _ in range(joints)
                ],
            )
            for instance_id in ids
        ]
        frames.append((index, instances))
    return pose_video(
        width=draw(st.integers(min_value=1, max_value=2000)),
        height=draw(st.integers(min_value=1, max_value=2000)),
        skeleton=tuple(f"j{i}" for i in range(joints)),
        frames=frames,
        label=draw(st.one_of(st.none(), st.text(max_size=4))),
    )
