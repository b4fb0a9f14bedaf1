"""Detection ingestion, detection-to-instance assignment, and pose replacement.

Detections (phrase + box + score) come from a file and are held as columns;
each is matched to a pose instance in the source clip's first frame by greedy
intersection-over-union on the box of the instance's visible keypoints.
Every matched instance is then replaced, frame by frame, with the retrieved
action clip after similarity alignment onto that instance's own first-frame
keypoints, so multi-person edits stay local.  Unmatched people pass through
bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._schema import array, fraction, integer, load_json, obj, reals, string
from .errors import GeometryError, ParseError, ShapeError
from .pose_model import PoseVideo
from .procrustes import (
    KeypointSet,
    SimilarityTransform2D,
    apply_transform,
    solve_similarity,
)

IOU_THRESHOLD_DEFAULT = 0.3


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Phrase-grounded boxes over one frame, held as columns.

    Detection i is ``phrases[i]`` (e.g. "the girl"), its box ``boxes[i]``
    = ``[x_min, y_min, x_max, y_max]`` and its ``scores[i]``.  ``boxes``
    (n, 4) and ``scores`` (n,) are float64 arrays, copied and frozen at
    construction.  Raises :class:`ValueError` for a negative
    ``frame_index``, columns of other lengths, a non-finite box, a min
    past its max, or a score outside [0, 1].
    """

    frame_index: int
    phrases: tuple[str, ...]
    boxes: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        phrases = tuple(self.phrases)
        boxes = np.array(self.boxes, dtype=np.float64)
        scores = np.array(self.scores, dtype=np.float64)
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if boxes.shape != (len(phrases), 4) or scores.shape != (len(phrases),):
            raise ValueError(
                f"boxes {boxes.shape} and scores {scores.shape} must hold one "
                f"row for each of {len(phrases)} phrases"
            )
        if not np.isfinite(boxes).all():
            raise ValueError("boxes must be finite")
        if (boxes[:, 2:] < boxes[:, :2]).any():
            raise ValueError("box extents must satisfy x_min <= x_max and y_min <= y_max")
        if not ((scores >= 0.0) & (scores <= 1.0)).all():
            raise ValueError("scores must be in [0, 1]")
        boxes.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "phrases", phrases)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.phrases)


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


def _iou_table(dset: DetectionSet, video: PoseVideo) -> tuple[np.ndarray, np.ndarray]:
    """The (detections x boxed people) IoU array of ``dset`` against the
    people of ``video``'s first frame, and those people's instance ids.

    A person's box spans the visible keypoints of their first-frame row; a
    person without one has no box and no column.  Each value is intersection
    area over union area, 0 whenever the union is not positive, computed
    with the operations of the scalar rule in its order, so it has the
    scalar rule's bits (a union of areas past the float range gives NaN).
    """
    first = slice(0, video.offsets[1])
    boxed = video.visible[first].any(axis=1)
    xy = video.xy[first][boxed]
    seen = video.visible[first][boxed][..., None]
    lo = xy.min(axis=1, where=seen, initial=np.inf)  # (people, 2)
    hi = xy.max(axis=1, where=seen, initial=-np.inf)
    d = dset.boxes[:, None, :]  # (detections, 1, 4) against (people,) columns
    with np.errstate(all="ignore"):
        iw = np.minimum(d[..., 2], hi[:, 0]) - np.maximum(d[..., 0], lo[:, 0])
        ih = np.minimum(d[..., 3], hi[:, 1]) - np.maximum(d[..., 1], lo[:, 1])
        # not np.maximum(0.0, w): that keeps -0.0 where max(0.0, w) gives 0.0
        inter = np.where(iw > 0.0, iw, 0.0) * np.where(ih > 0.0, ih, 0.0)
        det_area = (d[..., 2] - d[..., 0]) * (d[..., 3] - d[..., 1])
        person_area = (hi[:, 0] - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
        union = det_area + person_area - inter
        table = np.where(union <= 0.0, 0.0, inter / union)
    return table, video.instance_id[first][boxed]


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
    table, boxed_ids = _iou_table(dset, video)
    rows, cols = np.nonzero(table >= threshold)
    # sorted scan == repeated global-max extraction: skipped rows stay skipped
    candidates = sorted(
        zip((-table[rows, cols]).tolist(), rows.tolist(), boxed_ids[cols].tolist())
    )

    used_d, used_i, pairs = set(), set(), []
    for _, d_idx, inst_id in candidates:
        if d_idx in used_d or inst_id in used_i:
            continue
        used_d.add(d_idx)
        used_i.add(inst_id)
        pairs.append((d_idx, inst_id))
    return Assignment(
        pairs=tuple(pairs),
        unmatched_detections=tuple(i for i in range(len(dset)) if i not in used_d),
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
    # the extents stay Python ints, so each coordinate is compared with
    # them exactly: as float64, 2**53 + 3 would round and 10**400 overflow
    outside = (dset.boxes[:, :2] < 0.0) | (
        dset.boxes[:, 2:] > np.array([width, height], dtype=object)
    )
    return tuple(np.flatnonzero(outside.any(axis=1)).tolist())


# --- detection file parsing ----------------------------------------------------


def parse_detections(text: str) -> DetectionSet:
    """Parse a detection document.

    Schema: ``{"frame_index": int, "detections": [{"phrase": str,
    "box": [x_min, y_min, x_max, y_max], "score": real}]}``.  An empty
    detections array is valid (the pipeline then edits nobody).
    """
    doc = obj(load_json(text), "$", required=("frame_index", "detections"))
    frame_index = integer(doc["frame_index"], "$", "frame_index", minimum=0)
    phrases, boxes, scores = [], [], []
    for i, node in enumerate(array(doc["detections"], "$", "detections")):
        path = f"detections[{i}]"
        obj(node, path, required=("phrase", "box", "score"))
        phrases.append(string(node["phrase"], path, "phrase", nonempty=True))
        coords = reals(node["box"], path, "box")
        if len(coords) != 4:
            raise ParseError(f"{path}.box: expected [x_min, y_min, x_max, y_max]")
        if coords[2] < coords[0] or coords[3] < coords[1]:
            raise ParseError(
                f"{path}.box: extents must satisfy x_min <= x_max and y_min <= y_max"
            )
        boxes.append(coords)
        scores.append(fraction(node["score"], path, "score"))
    return DetectionSet(frame_index, tuple(phrases), np.reshape(boxes, (-1, 4)), scores)
