"""Evaluation metrics over ingested video and prompt embeddings.

Three numbers summarize an edit:

* ``vid_acc``: fraction of cases whose edited clip is strictly closer (by
  cosine) to the target prompt than to the source prompt.  Ties fail.
* ``vid_con``: mean frame-wise cosine between the edited and source clips.
* ``gt_con``: the same mean against a ground-truth clip, when one exists.

Embeddings arrive as files produced elsewhere; every vector here is opaque.
The functions are pure, so per-case evaluation order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._schema import array, construct, load_json, name, obj, string
from .errors import ParseError, ShapeError
from .retrieval import EmbeddingVector, cosine, embedding_from_node


@dataclass(frozen=True)
class VideoEmbeddingRecord:
    """Clip-level embedding plus one embedding per frame."""

    video_id: str
    video_embedding: EmbeddingVector
    frame_embeddings: tuple[EmbeddingVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "frame_embeddings", tuple(self.frame_embeddings))
        if not self.frame_embeddings:
            raise ShapeError(f"record {self.video_id!r} has no frame embeddings")
        dim = self.frame_embeddings[0].dim
        for i, e in enumerate(self.frame_embeddings):
            if e.dim != dim:
                raise ShapeError(
                    f"record {self.video_id!r}: frame embedding {i} has dim {e.dim}, "
                    f"expected {dim}"
                )

    @property
    def frame_count(self) -> int:
        return len(self.frame_embeddings)


@dataclass(frozen=True)
class MetricCase:
    case_id: str
    edited: VideoEmbeddingRecord
    source: VideoEmbeddingRecord
    target_prompt_embedding: EmbeddingVector
    source_prompt_embedding: EmbeddingVector
    ground_truth: VideoEmbeddingRecord | None = None

    def __post_init__(self):
        """Check the sizes scoring compares: the edited clip's frame count
        and frame embedding dim against the source and ground-truth clips',
        and its video embedding dim against both prompts'."""
        edited, gt = self.edited, self.ground_truth
        frames, frame_dim = edited.frame_count, edited.frame_embeddings[0].dim
        sizes = [
            ("source frame count", self.source.frame_count, frames),
            ("source frame dim", self.source.frame_embeddings[0].dim, frame_dim),
            ("target prompt dim", self.target_prompt_embedding.dim, edited.video_embedding.dim),
            ("source prompt dim", self.source_prompt_embedding.dim, edited.video_embedding.dim),
        ]
        if gt is not None:
            sizes.append(("ground-truth frame count", gt.frame_count, frames))
            sizes.append(("ground-truth frame dim", gt.frame_embeddings[0].dim, frame_dim))
        for what, size, edited_size in sizes:
            if size != edited_size:
                raise ShapeError(
                    f"case {self.case_id!r}: {what} {size} does not match the edited "
                    f"clip's {edited_size}"
                )


def prompt_hit(case: MetricCase) -> bool:
    """True when the edited clip is strictly closer to the target prompt."""
    target = cosine(case.edited.video_embedding, case.target_prompt_embedding)
    source = cosine(case.edited.video_embedding, case.source_prompt_embedding)
    return target > source


def vid_acc(cases) -> float:
    """Fraction of cases passing :func:`prompt_hit`; equal similarities fail."""
    cases = list(cases)
    if not cases:
        raise ValueError("vid_acc needs at least one case")
    return sum(1 for c in cases if prompt_hit(c)) / len(cases)


def vid_con(edited: VideoEmbeddingRecord, source: VideoEmbeddingRecord) -> float:
    """Mean frame-wise cosine between edited and source frame embeddings."""
    if edited.frame_count != source.frame_count:
        raise ShapeError(
            f"frame count mismatch: {edited.video_id!r} has {edited.frame_count}, "
            f"{source.video_id!r} has {source.frame_count}"
        )
    total = 0.0
    for ea, eb in zip(edited.frame_embeddings, source.frame_embeddings):
        total += cosine(ea, eb)
    return total / edited.frame_count


def gt_con(edited: VideoEmbeddingRecord, ground_truth: VideoEmbeddingRecord | None) -> float:
    """Mean frame-wise cosine against the ground-truth clip, by :func:`vid_con`."""
    if ground_truth is None:
        raise ValueError("gt_con requires a ground-truth record")
    return vid_con(edited, ground_truth)


# --- manifest parsing -------------------------------------------------------------


def _slot(case, path, key, read_file, parse):
    """``parse`` the node in slot ``key`` of a case: given inline, or read
    from the file named by ``{"path": "..."}``."""
    node = case[key]
    if isinstance(node, dict) and set(node) == {"path"}:
        ref = string(node["path"], path, key, "path", nonempty=True)
        try:
            node = load_json(read_file(ref))
        except ParseError as exc:
            raise ParseError(f"{name(path, key, 'path')}: {ref!r}: {exc}") from exc
    return parse(node, (path, key))


def _record_from_node(node, where: tuple) -> VideoEmbeddingRecord:
    """A video record at ``where``, the pieces of its path."""
    obj(node, where, required=("video_id", "video_embedding", "frame_embeddings"))
    video_id = string(node["video_id"], where, "video_id", nonempty=True)
    video_embedding = embedding_from_node(node["video_embedding"], (*where, "video_embedding"))
    frames_node = array(node["frame_embeddings"], where, "frame_embeddings", nonempty=True)
    frames = tuple(
        embedding_from_node(fn, (*where, "frame_embeddings", i))
        for i, fn in enumerate(frames_node)
    )
    return construct(
        VideoEmbeddingRecord,
        where,
        video_id=video_id,
        video_embedding=video_embedding,
        frame_embeddings=frames,
    )


def parse_metric_cases(text: str, read_file) -> list[MetricCase]:
    """Parse a metric manifest: an array of case objects.

    Each case is ``{"case_id", "edited", "source", "target_prompt_embedding",
    "source_prompt_embedding", "ground_truth"?}``.  Record and embedding slots
    may be inline or ``{"path": "relative/file.json"}``; ``read_file`` maps a
    path string to its text (the CLI resolves relative to the manifest).
    """
    cases = []
    seen = set()
    for i, node in enumerate(array(load_json(text), "$", nonempty=True)):
        path = f"$[{i}]"
        obj(
            node,
            path,
            required=(
                "case_id",
                "edited",
                "source",
                "target_prompt_embedding",
                "source_prompt_embedding",
            ),
            optional=("ground_truth",),
        )
        case_id = string(node["case_id"], path, "case_id", nonempty=True)
        if case_id in seen:
            raise ParseError(f"{path}.case_id: duplicate id {case_id!r}")
        seen.add(case_id)

        edited = _slot(node, path, "edited", read_file, _record_from_node)
        source = _slot(node, path, "source", read_file, _record_from_node)
        target_pe = _slot(node, path, "target_prompt_embedding", read_file, embedding_from_node)
        source_pe = _slot(node, path, "source_prompt_embedding", read_file, embedding_from_node)
        ground_truth = None
        if "ground_truth" in node:
            ground_truth = _slot(node, path, "ground_truth", read_file, _record_from_node)
        cases.append(
            construct(
                MetricCase,
                path,
                case_id=case_id,
                edited=edited,
                source=source,
                target_prompt_embedding=target_pe,
                source_prompt_embedding=source_pe,
                ground_truth=ground_truth,
            )
        )
    return cases
