"""Pose-video data model and canonical serialization.

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

In memory a :class:`PoseVideo` holds the whole clip as read-only arrays.
There is one row per person per frame, frames in order and people in
document order within a frame, so frames may hold different numbers of
people.  With F frames, N rows and J skeleton joints:

    frame_index  (F,)       int64    non-negative, strictly increasing
    offsets      (F+1,)     int64    frame k owns rows offsets[k]:offsets[k+1]
    instance_id  (N,)       int64    non-negative, unique within a frame
    xy           (N, J, 2)  float64  finite pixel coordinates
    visible      (N, J)     bool
    confidence   (N, J)     float64  in [0, 1]

``PoseVideo(width, height, skeleton, frame_index, offsets, instance_id, xy,
visible, confidence, label=None)`` is the one way to build a video: it copies
the columns, checks them whole and raises :class:`ValueError` when they break
the layout.  Parsing, transforms, resampling, substitution and serialization
all work on these arrays.  ``video.frames`` is a tuple of read-only
:class:`PoseFrame` views, built on first access for callers that want one
object per frame and person; ``==`` compares values.

Serialization is canonical so that golden-file tests are byte-exact across
platforms: object keys sorted, coordinates and confidences rendered as fixed
6-decimal strings, everything on one line, newline-terminated.  Structurally
equal videos serialize byte-identically, and re-serializing a parsed document
is idempotent after one canonicalization pass.

Visible keypoints outside the frame rectangle are accepted by the parser
(aligned poses may legitimately leave the frame), kept through
serialization, and treated like any other visible keypoint by geometry
operations.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

import numpy as np

from ._schema import (
    array,
    boolean,
    fraction,
    integer,
    load_json,
    obj,
    real,
    string,
)
from .errors import ParseError

# frame indices and instance ids are stored as int64
_INDEX_MAX = 2**63 - 1


class _Record:
    """An immutable value: two records are equal when every name in
    ``_fields`` holds equal values (arrays compared element by element)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _view(cls, *values):
        """A record holding ``values`` in ``_fields`` order, stored as given."""
        record = cls.__new__(cls)
        for key, value in zip(cls._fields, values):
            object.__setattr__(record, key, value)
        return record

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for key in self._fields:
            mine, theirs = getattr(self, key), getattr(other, key)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    def __repr__(self):
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__name__}({fields})"


class PoseInstance(_Record):
    """One row of a :class:`PoseVideo`: a person's ``instance_id`` and the
    read-only ``xy`` (J, 2), ``visible`` (J,) and ``confidence`` (J,) views
    of its keypoints."""

    __slots__ = _fields = ("instance_id", "xy", "visible", "confidence")


class PoseFrame(_Record):
    """The ``instances`` (a tuple of :class:`PoseInstance`) of one frame of
    a :class:`PoseVideo`, at ``frame_index``."""

    __slots__ = _fields = ("frame_index", "instances")


_COLUMNS = ("frame_index", "offsets", "instance_id", "xy", "visible", "confidence")


class PoseVideo(_Record):
    """An ordered pose-keypoint clip with a shared skeleton.

    The clip is held as the arrays the module docstring lays out; the
    constructor copies each column to its dtype, makes it read-only and
    raises :class:`ValueError` when the columns break that layout.
    ``frames`` is a tuple of :class:`PoseFrame` views built on first access.
    """

    __slots__ = ("width", "height", "skeleton", *_COLUMNS, "label", "_frames")
    _fields = ("width", "height", "skeleton", *_COLUMNS, "label")

    def __init__(
        self,
        width: int,
        height: int,
        skeleton,
        frame_index,
        offsets,
        instance_id,
        xy,
        visible,
        confidence,
        label: str | None = None,
    ):
        skeleton = tuple(skeleton)
        if width <= 0 or height <= 0:
            raise ValueError("width and height must be positive")
        if not skeleton:
            raise ValueError("skeleton must name at least one joint")
        frame_index = np.array(frame_index, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.int64)
        instance_id = np.array(instance_id, dtype=np.int64)
        xy = np.array(xy, dtype=np.float64)
        visible = np.array(visible, dtype=bool)
        confidence = np.array(confidence, dtype=np.float64)

        if frame_index.ndim != 1 or offsets.shape != (len(frame_index) + 1,):
            raise ValueError(
                f"offsets has shape {offsets.shape}, frame_index {frame_index.shape}: "
                f"need (F+1,) and (F,)"
            )
        counts = np.diff(offsets)
        if offsets[0] != 0 or (counts < 0).any():
            raise ValueError("offsets must start at 0 and never decrease")
        rows, joints = int(offsets[-1]), len(skeleton)
        for key, column, shape in (
            ("instance_id", instance_id, (rows,)),
            ("xy", xy, (rows, joints, 2)),
            ("visible", visible, (rows, joints)),
            ("confidence", confidence, (rows, joints)),
        ):
            if column.shape != shape:
                raise ValueError(
                    f"{key} has shape {column.shape}, expected {shape} "
                    f"for {rows} rows of {joints} joints"
                )
        if (frame_index < 0).any():
            raise ValueError("frame_index must be non-negative")
        if (np.diff(frame_index) <= 0).any():
            raise ValueError("frame_index must be strictly increasing")
        if (instance_id < 0).any():
            raise ValueError("instance_id must be non-negative")
        # sorted by frame, then id: a repeat within a frame lands next to itself
        frame_of_row = np.repeat(np.arange(len(frame_index)), counts)
        order = np.lexsort((instance_id, frame_of_row))
        if ((np.diff(frame_of_row[order]) == 0) & (np.diff(instance_id[order]) == 0)).any():
            raise ValueError("instance_id values must be unique within a frame")
        if not np.isfinite(xy).all():
            raise ValueError("keypoint coordinates must be finite")
        if not ((0.0 <= confidence) & (confidence <= 1.0)).all():
            raise ValueError("confidence must be in [0, 1]")

        columns = (frame_index, offsets, instance_id, xy, visible, confidence)
        for key, value in zip(self._fields, (width, height, skeleton, *columns, label)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_frames", None)

    def _replace(self, **changes) -> "PoseVideo":
        """This video with some fields swapped, through the constructor."""
        fields = {key: getattr(self, key) for key in self._fields}
        fields.update(changes)
        return PoseVideo(**fields)

    @property
    def frames(self) -> tuple[PoseFrame, ...]:
        if self._frames is None:
            rows = list(
                map(
                    PoseInstance._view,
                    self.instance_id.tolist(),
                    self.xy,
                    self.visible,
                    self.confidence,
                )
            )
            bounds = self.offsets.tolist()
            frames = tuple(
                PoseFrame._view(k, tuple(rows[a:b]))
                for k, a, b in zip(self.frame_index.tolist(), bounds, bounds[1:])
            )
            object.__setattr__(self, "_frames", frames)
        return self._frames


# --- parsing -----------------------------------------------------------------

_KEYPOINT_FIELDS = ("x", "y", "visible", "confidence")


def _columns(frames: list, joints: int):
    """The raw column lists of a frames array, checked a whole column at a
    time for JSON types and shape only; None when any check fails.

    The values are left to :class:`PoseVideo`.  Returns ``(frame_index,
    counts, instance_id, x, y, visible, confidence)``: per frame, its index
    and number of instances; per instance, its id; per keypoint, its fields.
    """
    if not all(type(f) is dict and len(f) == 2 for f in frames):
        return None
    try:
        frame_index = list(map(itemgetter("frame_index"), frames))
        per_frame = list(map(itemgetter("instances"), frames))
    except KeyError:
        return None
    # JSON gives no int subclass but bool, which the exact type test excludes
    if not (set(map(type, frame_index)) <= {int} and set(map(type, per_frame)) <= {list}):
        return None
    counts = list(map(len, per_frame))
    instances = list(chain.from_iterable(per_frame))
    if not (set(map(type, instances)) <= {dict} and set(map(len, instances)) <= {2}):
        return None
    try:
        ids = list(map(itemgetter("instance_id"), instances))
        per_instance = list(map(itemgetter("keypoints"), instances))
    except KeyError:
        return None
    if not (set(map(type, ids)) <= {int} and set(map(type, per_instance)) <= {list}):
        return None
    if not set(map(len, per_instance)) <= {joints}:
        return None
    keypoints = list(chain.from_iterable(per_instance))
    if not (set(map(type, keypoints)) <= {dict} and set(map(len, keypoints)) <= {4}):
        return None
    try:  # four fields present in a 4-field object: exactly the schema's fields
        x, y, visible, confidence = (
            list(map(itemgetter(key), keypoints)) for key in _KEYPOINT_FIELDS
        )
    except KeyError:
        return None
    numbers = set(map(type, chain(x, y, confidence)))
    if not (numbers <= {int, float} and set(map(type, visible)) <= {bool}):
        return None
    return frame_index, counts, ids, x, y, visible, confidence


def _walk(frames: list, joints: int):
    """The checks of :func:`_columns` and :class:`PoseVideo` node by node in
    document order, so that the first bad node raises a :class:`ParseError`
    naming its path."""
    frame_index, counts, ids = [], [], []
    x, y, visible, confidence = [], [], [], []
    for fi, frame_node in enumerate(frames):
        fpath = f"frames[{fi}]"
        obj(frame_node, fpath, required=("frame_index", "instances"))
        index = integer(
            frame_node["frame_index"], fpath, "frame_index", minimum=0, maximum=_INDEX_MAX
        )
        if frame_index and index <= frame_index[-1]:
            raise ParseError(
                f"{fpath}.frame_index: must be strictly increasing "
                f"(got {index} after {frame_index[-1]})"
            )
        frame_index.append(index)

        seen_ids = set()
        inst_nodes = array(frame_node["instances"], fpath, "instances")
        for ii, inst_node in enumerate(inst_nodes):
            ipath = f"{fpath}.instances[{ii}]"
            obj(inst_node, ipath, required=("instance_id", "keypoints"))
            instance_id = integer(
                inst_node["instance_id"], ipath, "instance_id", minimum=0, maximum=_INDEX_MAX
            )
            if instance_id in seen_ids:
                raise ParseError(f"{ipath}.instance_id: duplicate id {instance_id}")
            seen_ids.add(instance_id)
            ids.append(instance_id)

            kp_list = array(inst_node["keypoints"], ipath, "keypoints")
            if len(kp_list) != joints:
                raise ParseError(
                    f"{ipath}.keypoints: expected {joints} joints, got {len(kp_list)}"
                )
            kpath = f"{ipath}.keypoints"
            for ki, kp in enumerate(kp_list):
                obj(kp, kpath, ki, required=_KEYPOINT_FIELDS)
                x.append(real(kp["x"], kpath, ki, "x"))
                y.append(real(kp["y"], kpath, ki, "y"))
                visible.append(boolean(kp["visible"], kpath, ki, "visible"))
                confidence.append(fraction(kp["confidence"], kpath, ki, "confidence"))
        counts.append(len(inst_nodes))
    return frame_index, counts, ids, x, y, visible, confidence


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

    frames = array(doc["frames"], "$", "frames")
    columns = _columns(frames, len(skeleton))
    if columns is not None:
        try:
            return _video(width, height, skeleton, label, columns)
        except (ValueError, OverflowError):  # a value PoseVideo refuses, or an
            pass  # int past int64 or float range that numpy cannot convert
    # some node is bad: the walk names the first one
    return _video(width, height, skeleton, label, _walk(frames, len(skeleton)))


def _video(width, height, skeleton, label, columns) -> PoseVideo:
    """The :class:`PoseVideo` of the column lists :func:`_columns` or
    :func:`_walk` returns."""
    frame_index, counts, ids, x, y, visible, confidence = columns
    joints = len(skeleton)
    return PoseVideo(
        width,
        height,
        skeleton,
        frame_index=frame_index,
        offsets=np.cumsum([0] + counts),
        instance_id=ids,
        xy=np.column_stack((np.array(x, np.float64), np.array(y, np.float64))).reshape(-1, joints, 2),
        visible=np.array(visible, dtype=bool).reshape(-1, joints),
        confidence=np.array(confidence, dtype=np.float64).reshape(-1, joints),
        label=label,
    )


# --- canonical serialization --------------------------------------------------

_KEYPOINT = '{"confidence":%.6f,"visible":%s,"x":%.6f,"y":%.6f}'


def _signless(values: np.ndarray) -> np.ndarray:
    """``values`` with 0.0 for every entry that would print as -0.000000,
    which would break the parse/serialize fixed point."""
    near = np.flatnonzero(np.signbit(values) & (values > -1e-6))
    if not near.size:
        return values
    values = values.copy()
    flat = values.reshape(-1)
    for i in near.tolist():
        if "%.6f" % flat[i] == "-0.000000":
            flat[i] = 0.0
    return values


def serialize_pose_video(video: PoseVideo) -> str:
    """Render the canonical interchange form of ``video``.

    Keys sorted, coordinates and confidences as fixed 6-decimal strings,
    one line, newline-terminated.  ``parse_pose_video(serialize_pose_video(v))``
    equals ``v`` whenever v's coordinates are representable at 6 decimals.
    """
    rows, joints = video.visible.shape
    instance = '{"instance_id":%d,"keypoints":[' + ",".join([_KEYPOINT] * joints) + "]}"
    cells = np.empty((rows, joints, 4), dtype=object)
    cells[..., 0] = _signless(video.confidence)
    cells[..., 1] = np.where(video.visible, "true", "false")
    cells[..., 2:] = _signless(video.xy)
    instances = [
        instance % (instance_id, *values)
        for instance_id, values in zip(
            video.instance_id.tolist(), cells.reshape(rows, 4 * joints).tolist()
        )
    ]
    bounds = video.offsets.tolist()
    frames = ",".join(
        '{"frame_index":%d,"instances":[%s]}' % (k, ",".join(instances[a:b]))
        for k, a, b in zip(video.frame_index.tolist(), bounds, bounds[1:])
    )
    out = ['{"frames":[', frames, '],"height":%d,' % video.height]
    if video.label is not None:
        out.append('"label":%s,' % json.dumps(video.label))
    out.append('"skeleton":[')
    out.append(",".join(json.dumps(name) for name in video.skeleton))
    out.append('],"width":%d}\n' % video.width)
    return "".join(out)
