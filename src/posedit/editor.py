"""Detection ingestion, detection-to-instance assignment, and pose replacement.

Detections (phrase + box + score) come from a file; each is matched to a pose
instance in the source clip's first frame by greedy intersection-over-union on
the instance's keypoint-derived box.  Every matched instance is then replaced,
frame by frame, with the retrieved action clip after similarity alignment onto
that instance's own first-frame keypoints, so multi-person edits stay local.
Unmatched people pass through bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._schema import array, fraction, integer, load_json, obj, reals, string
from .errors import GeometryError, ParseError, ShapeError
from .pose_model import BoundingBox, PoseVideo, keypoint_bbox
from .procrustes import (
    KeypointSet,
    SimilarityTransform2D,
    apply_transform,
    solve_similarity,
)

IOU_THRESHOLD_DEFAULT = 0.3


@dataclass(frozen=True)
class Detection:
    """A phrase-grounded box over the first frame, e.g. ("the girl", box, 0.93)."""

    phrase: str
    box: BoundingBox
    score: float

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class DetectionSet:
    frame_index: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")


@dataclass(frozen=True)
class Assignment:
    """One-to-one partial matching between detections and instances.

    ``pairs`` holds (detection index, instance_id); no index or id repeats.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_detections: tuple[int, ...]
    unmatched_instances: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        object.__setattr__(self, "unmatched_detections", tuple(self.unmatched_detections))
        object.__setattr__(self, "unmatched_instances", tuple(self.unmatched_instances))
        det_indices = [d for d, _ in self.pairs]
        inst_ids = [i for _, i in self.pairs]
        if len(set(det_indices)) != len(det_indices) or len(set(inst_ids)) != len(inst_ids):
            raise ValueError("a detection or instance appears in more than one pair")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area; 0 whenever the union is degenerate."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def assign_detections(
    dset: DetectionSet, video: PoseVideo, threshold: float = IOU_THRESHOLD_DEFAULT
) -> Assignment:
    """Greedy highest-IoU matching between detections and the people of
    ``video``'s first frame.

    Repeatedly takes the globally best (detection, instance) pair with
    IoU >= threshold and removes both from play; equal IoU values resolve by
    the smaller (detection index, instance_id).  A person without a visible
    keypoint has no box, so no detection can match them: they end up among
    the unmatched instances.
    """
    if not len(video.frame_index):
        raise ValueError("video has no frames")
    ids = video.instance_id[: video.offsets[1]].tolist()
    boxed = [
        (inst_id, keypoint_bbox(video, row))
        for row, inst_id in enumerate(ids)
        if video.visible[row].any()
    ]
    candidates = []
    for d_idx, det in enumerate(dset.detections):
        for inst_id, inst_box in boxed:
            value = iou(det.box, inst_box)
            if value >= threshold:
                candidates.append((value, d_idx, inst_id))
    # sorted scan == repeated global-max extraction: skipped rows stay skipped
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    used_d, used_i, pairs = set(), set(), []
    for value, d_idx, inst_id in candidates:
        if d_idx in used_d or inst_id in used_i:
            continue
        used_d.add(d_idx)
        used_i.add(inst_id)
        pairs.append((d_idx, inst_id))
    return Assignment(
        pairs=tuple(pairs),
        unmatched_detections=tuple(
            i for i in range(len(dset.detections)) if i not in used_d
        ),
        unmatched_instances=tuple(i for i in ids if i not in used_i),
    )


def resample_indices(src_len: int, dst_len: int) -> list[int]:
    """Nearest-index mapping of dst positions onto src positions.

    Position j of dst maps to round(j * (src_len-1) / (dst_len-1)) with .5
    rounding up; a single-frame side on either end collapses to index 0.
    """
    if src_len < 1 or dst_len < 1:
        raise ValueError("lengths must be positive")
    if src_len == 1 or dst_len == 1:
        return [0] * dst_len
    return [
        math.floor(j * (src_len - 1) / (dst_len - 1) + 0.5) for j in range(dst_len)
    ]


def resample_video(video: PoseVideo, n: int) -> PoseVideo:
    """Stretch or shrink ``video`` to ``n`` frames by nearest-index picking.

    Picked frames are renumbered 0..n-1 so the result stays a valid video
    even when a frame is repeated.  Same-length input is returned unchanged.
    """
    frame_count = len(video.frame_index)
    if not frame_count:
        raise ShapeError("cannot resample a video with no frames")
    if n == frame_count:
        return video
    picks = np.array(resample_indices(frame_count, n), dtype=np.int64)
    counts = np.diff(video.offsets)[picks]
    offsets = np.cumsum(np.concatenate(([0], counts)))
    # row r of the result is row r - offsets[j] + video.offsets[picks[j]]
    # of the input, for the picked frame j it falls in
    rows = np.repeat(video.offsets[picks] - offsets[:-1], counts) + np.arange(offsets[-1])
    return video._replace(
        frame_index=np.arange(n, dtype=np.int64),
        offsets=offsets,
        instance_id=video.instance_id[rows],
        xy=video.xy[rows],
        visible=video.visible[rows],
        confidence=video.confidence[rows],
    )


def same_skeleton_or_raise(
    reference: PoseVideo, other: PoseVideo, names=("source", "retrieved")
) -> None:
    """ShapeError unless ``other`` lists the joints of ``reference`` in the
    same order: alignment pairs keypoints up by position.  ``names`` are the
    two clips' roles in the message."""
    if other.skeleton != reference.skeleton:
        raise ShapeError(
            f"{names[1]} video skeleton {list(other.skeleton)} differs from "
            f"the {names[0]} skeleton {list(reference.skeleton)}"
        )


def _donor_or_raise(source: PoseVideo, retrieved: PoseVideo) -> None:
    # substitution copies keypoints joint by joint, one retrieved row per frame
    if not len(retrieved.frame_index):
        raise ShapeError("retrieved video has no frames")
    same_skeleton_or_raise(source, retrieved)
    counts = np.diff(retrieved.offsets)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        k = bad[0]
        raise ShapeError(
            f"retrieved video must have exactly 1 instance per frame; "
            f"frame {retrieved.frame_index[k]} has {counts[k]}"
        )


def alignment_transforms(
    source: PoseVideo, assignment: Assignment, retrieved: PoseVideo
) -> tuple[dict[int, tuple[SimilarityTransform2D, PoseVideo]], dict[int, str]]:
    """Per matched instance: the similarity transform carrying the retrieved
    first-frame keypoints onto that instance's source first-frame keypoints,
    and the donor that transform makes of the retrieved clip.

    Returns ``(aligned, unaligned)``.  ``aligned`` maps an instance_id to
    ``(transform, donor)``: the donor is the retrieved clip resampled to the
    source's frame count by nearest index, then mapped through the
    transform, so row k of it is the person's keypoints in source frame k.
    An instance whose alignment :func:`solve_similarity` cannot solve (e.g.
    fewer than 2 usable joints shared with the retrieved first frame), or
    whose transform carries a visible keypoint of the resampled clip past
    the float range, is left out of ``aligned`` and mapped to that
    :class:`GeometryError`'s text in ``unaligned``, so one degenerate person
    does not stop the others' edit.  A retrieved clip that cannot donate
    (no frames, another skeleton, other than one person per frame) raises
    :class:`ShapeError` even when nobody is matched.
    """
    _donor_or_raise(source, retrieved)
    if not assignment.pairs:
        return {}, {}
    if not len(source.frame_index):
        raise ValueError("source video has no frames")
    clip = resample_video(retrieved, len(source.frame_index))  # frame 0 stays frame 0
    first_ids = source.instance_id[: source.offsets[1]].tolist()
    first = {inst_id: row for row, inst_id in enumerate(first_ids)}  # id -> row
    moving = KeypointSet(points=clip.xy[0], mask=clip.visible[0])
    aligned, unaligned = {}, {}
    for _, inst_id in assignment.pairs:
        if inst_id not in first:
            raise ValueError(
                f"assignment names instance_id {inst_id}, not present in the source first frame"
            )
        row = first[inst_id]
        fixed = KeypointSet(points=source.xy[row], mask=source.visible[row])
        try:
            tr = solve_similarity(fixed, moving)
            aligned[inst_id] = (tr, apply_transform(tr, clip))
        except GeometryError as exc:
            unaligned[inst_id] = str(exc)
    return aligned, unaligned


def edit_pose_video(
    source: PoseVideo,
    assignment: Assignment,
    aligned: dict[int, tuple[SimilarityTransform2D, PoseVideo]],
) -> PoseVideo:
    """Replace each aligned instance's keypoints with its donor's.

    ``aligned`` is the first of what :func:`alignment_transforms` returns
    for ``source`` and ``assignment``: per instance_id, a transform and a
    donor with the source's frame count and one person per frame.  In
    source frame k the instance takes row k of its donor.  Instances
    without a donor keep their keypoints untouched, and the output always
    has the source's frame count and frame indices.
    """
    if not assignment.pairs:
        return source
    frame_count = len(source.frame_index)
    frame_of_row = np.repeat(np.arange(frame_count), np.diff(source.offsets))
    xy = source.xy.copy()
    visible = source.visible.copy()
    confidence = source.confidence.copy()
    for inst_id, (_, donor) in aligned.items():
        rows = np.flatnonzero(source.instance_id == inst_id)
        picks = frame_of_row[rows]
        xy[rows] = donor.xy[picks]
        visible[rows] = donor.visible[picks]
        confidence[rows] = donor.confidence[picks]
    return source._replace(xy=xy, visible=visible, confidence=confidence)


def out_of_bounds_detections(
    dset: DetectionSet, width: int, height: int
) -> tuple[int, ...]:
    """Indices of detections whose boxes stick outside [0,width] x [0,height]."""
    flagged = []
    for i, det in enumerate(dset.detections):
        b = det.box
        if b.x_min < 0.0 or b.y_min < 0.0 or b.x_max > width or b.y_max > height:
            flagged.append(i)
    return tuple(flagged)


# --- detection file parsing ----------------------------------------------------


def parse_detections(text: str) -> DetectionSet:
    """Parse a detection document.

    Schema: ``{"frame_index": int, "detections": [{"phrase": str,
    "box": [x_min, y_min, x_max, y_max], "score": real}]}``.  An empty
    detections array is valid (the pipeline then edits nobody).
    """
    doc = obj(load_json(text), "$", required=("frame_index", "detections"))
    frame_index = integer(doc["frame_index"], "$", "frame_index", minimum=0)
    detections = []
    for i, node in enumerate(array(doc["detections"], "$", "detections")):
        path = f"detections[{i}]"
        obj(node, path, required=("phrase", "box", "score"))
        phrase = string(node["phrase"], path, "phrase", nonempty=True)
        coords = reals(node["box"], path, "box")
        if len(coords) != 4:
            raise ParseError(f"{path}.box: expected [x_min, y_min, x_max, y_max]")
        if coords[2] < coords[0] or coords[3] < coords[1]:
            raise ParseError(
                f"{path}.box: extents must satisfy x_min <= x_max and y_min <= y_max"
            )
        detections.append(
            Detection(
                phrase=phrase,
                box=BoundingBox(*coords),
                score=fraction(node["score"], path, "score"),
            )
        )
    return DetectionSet(frame_index=frame_index, detections=tuple(detections))
