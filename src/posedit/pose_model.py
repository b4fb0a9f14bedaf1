"""Pose-video data model, canonical serialization, and keypoint-derived boxes.

A pose video is an ordered sequence of frames, each holding per-person 2-D
keypoint sets.  The interchange format used by every other module is a UTF-8
JSON document:

    {
      "width": 512,
      "height": 512,
      "skeleton": ["nose", "left_eye", ...],
      "frames": [
        {"frame_index": 0,
         "instances": [
           {"instance_id": 0,
            "keypoints": [{"x": 103.5, "y": 88.25, "visible": true,
                           "confidence": 0.93}, ...]}
         ]}
      ],
      "label": "dance"          // optional
    }

Serialization is canonical so that golden-file tests are byte-exact across
platforms: object keys sorted, coordinates and confidences rendered as fixed
6-decimal strings, everything on one line, newline-terminated.  Structurally
equal videos serialize byte-identically, and re-serializing a parsed document
is idempotent after one canonicalization pass.

Visible keypoints outside the frame rectangle are accepted by the parser
(aligned poses may legitimately leave the frame); they can be enumerated with
:func:`out_of_frame_indices` and are treated like any other visible keypoint
by geometry operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ._schema import array, boolean, fraction, integer, load_json, obj, real, string
from .errors import GeometryError, ParseError

COCO_17_JOINTS = (
    "nose",
    "left_eye",
    "right_eye",
    "left_ear",
    "right_ear",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
)


@dataclass(frozen=True)
class Keypoint:
    """One joint: pixel coordinates, visibility, and detector confidence."""

    x: float
    y: float
    visible: bool
    confidence: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("keypoint coordinates must be finite")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class PoseInstance:
    """A single person's keypoints within one frame."""

    instance_id: int
    keypoints: tuple[Keypoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "keypoints", tuple(self.keypoints))
        if self.instance_id < 0:
            raise ValueError("instance_id must be non-negative")


@dataclass(frozen=True)
class PoseFrame:
    """All person instances present at one frame index."""

    frame_index: int
    instances: tuple[PoseInstance, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        ids = [inst.instance_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError("instance_id values must be unique within a frame")


@dataclass(frozen=True)
class PoseVideo:
    """An ordered pose-keypoint clip with a shared skeleton."""

    width: int
    height: int
    skeleton: tuple[str, ...]
    frames: tuple[PoseFrame, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "skeleton", tuple(self.skeleton))
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")
        if not self.skeleton:
            raise ValueError("skeleton must name at least one joint")
        joints = len(self.skeleton)
        for frame in self.frames:
            for inst in frame.instances:
                if len(inst.keypoints) != joints:
                    raise ValueError(
                        f"instance {inst.instance_id} in frame {frame.frame_index} "
                        f"has {len(inst.keypoints)} keypoints, skeleton has {joints}"
                    )
        indices = [f.frame_index for f in self.frames]
        for prev, cur in zip(indices, indices[1:]):
            if cur <= prev:
                raise ValueError("frame_index must be strictly increasing")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("box extents must satisfy x_min <= x_max and y_min <= y_max")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


def keypoint_bbox(instance: PoseInstance) -> BoundingBox:
    """Tight axis-aligned box over the instance's visible keypoints.

    Invisible keypoints are ignored; no padding is applied.  Raises
    :class:`GeometryError` when the instance has no visible keypoint.
    """
    xs = [kp.x for kp in instance.keypoints if kp.visible]
    ys = [kp.y for kp in instance.keypoints if kp.visible]
    if not xs:
        raise GeometryError(
            f"instance {instance.instance_id} has no visible keypoints"
        )
    return BoundingBox(min(xs), min(ys), max(xs), max(ys))


def out_of_frame_indices(video: PoseVideo) -> tuple[tuple[int, int, int], ...]:
    """Visible keypoints lying outside ``[0, width] x [0, height]``.

    Returns ``(frame_index, instance_id, joint_index)`` triples; an empty
    tuple means every visible keypoint is inside the frame rectangle.
    """
    flagged = []
    for frame in video.frames:
        for inst in frame.instances:
            for j, kp in enumerate(inst.keypoints):
                if not kp.visible:
                    continue
                if not (0.0 <= kp.x <= video.width and 0.0 <= kp.y <= video.height):
                    flagged.append((frame.frame_index, inst.instance_id, j))
    return tuple(flagged)


# --- parsing -----------------------------------------------------------------


def parse_pose_video(text: str) -> PoseVideo:
    """Parse an interchange document into a validated :class:`PoseVideo`.

    Any schema violation raises :class:`ParseError` naming the offending
    path.  Out-of-frame visible keypoints are accepted (see module docstring).
    """
    doc = obj(
        load_json(text),
        "$",
        required=("width", "height", "skeleton", "frames"),
        optional=("label",),
    )
    width = integer(doc["width"], "$", "width", minimum=1)
    height = integer(doc["height"], "$", "height", minimum=1)
    skeleton_node = array(doc["skeleton"], "$", "skeleton", nonempty=True)
    skeleton = tuple(string(s, "skeleton", i) for i, s in enumerate(skeleton_node))
    label = string(doc["label"], "$", "label") if "label" in doc else None

    frames = []
    last_index = None
    for fi, frame_node in enumerate(array(doc["frames"], "$", "frames")):
        fpath = f"frames[{fi}]"
        obj(frame_node, fpath, required=("frame_index", "instances"))
        frame_index = integer(frame_node["frame_index"], fpath, "frame_index", minimum=0)
        if last_index is not None and frame_index <= last_index:
            raise ParseError(
                f"{fpath}.frame_index: must be strictly increasing "
                f"(got {frame_index} after {last_index})"
            )
        last_index = frame_index

        instances = []
        seen_ids = set()
        for ii, inst_node in enumerate(array(frame_node["instances"], fpath, "instances")):
            ipath = f"{fpath}.instances[{ii}]"
            obj(inst_node, ipath, required=("instance_id", "keypoints"))
            instance_id = integer(inst_node["instance_id"], ipath, "instance_id", minimum=0)
            if instance_id in seen_ids:
                raise ParseError(f"{ipath}.instance_id: duplicate id {instance_id}")
            seen_ids.add(instance_id)

            kp_list = array(inst_node["keypoints"], ipath, "keypoints")
            if len(kp_list) != len(skeleton):
                raise ParseError(
                    f"{ipath}.keypoints: expected {len(skeleton)} joints, got {len(kp_list)}"
                )
            kpath = f"{ipath}.keypoints"
            keypoints = []
            for ki, kp in enumerate(kp_list):
                obj(kp, kpath, ki, required=("x", "y", "visible", "confidence"))
                keypoints.append(
                    Keypoint(
                        x=real(kp["x"], kpath, ki, "x"),
                        y=real(kp["y"], kpath, ki, "y"),
                        visible=boolean(kp["visible"], kpath, ki, "visible"),
                        confidence=fraction(kp["confidence"], kpath, ki, "confidence"),
                    )
                )
            instances.append(PoseInstance(instance_id=instance_id, keypoints=tuple(keypoints)))
        frames.append(PoseFrame(frame_index=frame_index, instances=tuple(instances)))

    return PoseVideo(
        width=width, height=height, skeleton=skeleton, frames=tuple(frames), label=label
    )


# --- canonical serialization --------------------------------------------------


def _fmt_real(value: float) -> str:
    out = f"{value:.6f}"
    # anything rounding to zero loses its sign, else -0.000000 breaks
    # the parse/serialize fixed point
    if out == "-0.000000":
        return "0.000000"
    return out


def serialize_pose_video(video: PoseVideo) -> str:
    """Render the canonical interchange form of ``video``.

    Keys sorted, coordinates and confidences as fixed 6-decimal strings,
    one line, newline-terminated.  ``parse_pose_video(serialize_pose_video(v))``
    equals ``v`` whenever v's coordinates are representable at 6 decimals.
    """
    out = ['{"frames":[']
    for fi, frame in enumerate(video.frames):
        if fi:
            out.append(",")
        out.append('{"frame_index":%d,"instances":[' % frame.frame_index)
        for ii, inst in enumerate(frame.instances):
            if ii:
                out.append(",")
            out.append('{"instance_id":%d,"keypoints":[' % inst.instance_id)
            for ki, kp in enumerate(inst.keypoints):
                if ki:
                    out.append(",")
                out.append(
                    '{"confidence":%s,"visible":%s,"x":%s,"y":%s}'
                    % (
                        _fmt_real(kp.confidence),
                        "true" if kp.visible else "false",
                        _fmt_real(kp.x),
                        _fmt_real(kp.y),
                    )
                )
            out.append("]}")
        out.append("]}")
    out.append('],"height":%d,' % video.height)
    if video.label is not None:
        out.append('"label":%s,' % json.dumps(video.label))
    out.append('"skeleton":[')
    out.append(",".join(json.dumps(name) for name in video.skeleton))
    out.append('],"width":%d}\n' % video.width)
    return "".join(out)
