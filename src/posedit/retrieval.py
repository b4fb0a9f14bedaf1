"""Action-pose database indexing and cosine-similarity retrieval.

The database is small by design (tens of labeled clips), so retrieval is an
exhaustive scan: every query computes the cosine score against every entry and
sorts descending.  Ties are broken by database insertion order, which makes
rankings fully deterministic and easy to reproduce in tests.

Embeddings arrive from files; this module never computes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._schema import array, integer, load_json, name, obj, reals, string
from .errors import DatabaseError, GeometryError, ParseError, ShapeError


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ShapeError("embedding must have at least one component")
        for i, v in enumerate(self.values):
            if not math.isfinite(v):
                raise ValueError(f"embedding component {i} is not finite")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PoseDbEntry:
    """One labeled action clip: id, human-readable label, label embedding,
    and the path of its pose video."""

    entry_id: str
    label: str
    embedding: EmbeddingVector
    pose_video_path: str


@dataclass(frozen=True)
class PoseDatabase:
    entries: tuple[PoseDbEntry, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), defined only for nonzero vectors."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    na = math.sqrt(sum(v * v for v in a.values))
    nb = math.sqrt(sum(v * v for v in b.values))
    if na == 0.0 or nb == 0.0:
        raise GeometryError("cosine is undefined for a zero vector")
    return sum(x * y for x, y in zip(a.values, b.values)) / (na * nb)


def build_index(entries) -> PoseDatabase:
    """Validate entries and freeze them into a queryable database.

    Entry order is preserved; it defines the tie-break order for queries.
    """
    entries = tuple(entries)
    if not entries:
        raise DatabaseError("database must contain at least one entry")
    dim = entries[0].embedding.dim
    seen = set()
    for e in entries:
        if e.embedding.dim != dim:
            raise DatabaseError(
                f"entry {e.entry_id!r} has embedding dim {e.embedding.dim}, expected {dim}"
            )
        if e.entry_id in seen:
            raise DatabaseError(f"duplicate entry_id {e.entry_id!r}")
        seen.add(e.entry_id)
        if all(v == 0.0 for v in e.embedding.values):
            raise DatabaseError(f"entry {e.entry_id!r} has an all-zero embedding")
    return PoseDatabase(entries=entries, dim=dim)


def query(db: PoseDatabase, q: EmbeddingVector, k: int) -> list[tuple[str, float]]:
    """Top-k entries by descending cosine score against ``q``.

    Scores are reported at full precision.  Equal scores keep database
    insertion order (stable sort on the negated score).
    """
    if q.dim != db.dim:
        raise DatabaseError(f"query dim {q.dim} does not match database dim {db.dim}")
    if all(v == 0.0 for v in q.values):
        raise DatabaseError("query embedding must not be the zero vector")
    if not 1 <= k <= len(db):
        raise DatabaseError(f"k must be in [1, {len(db)}], got {k}")

    scores = np.array([cosine(e.embedding, q) for e in db.entries])
    order = np.argsort(-scores, kind="stable")
    return [(db.entries[i].entry_id, float(scores[i])) for i in order[:k]]


# --- manifest parsing ----------------------------------------------------------


def embedding_from_node(node, path: str = "$") -> EmbeddingVector:
    """Validate an already-parsed ``{"dim": D, "values": [reals]}`` node."""
    obj(node, path, required=("dim", "values"))
    dim = integer(node["dim"], path, "dim", minimum=1)
    values = reals(node["values"], path, "values")
    if len(values) != dim:
        raise ParseError(
            f"{name(path, 'values')}: length {len(values)} does not match dim {dim}"
        )
    return EmbeddingVector(values=tuple(values))


def parse_embedding(text: str) -> EmbeddingVector:
    """Parse a query-embedding document: ``{"dim": D, "values": [reals]}``."""
    return embedding_from_node(load_json(text))


def parse_db_manifest(text: str) -> list[PoseDbEntry]:
    """Parse the database manifest: an array of entry objects.

    Each entry is ``{"entry_id", "label", "embedding": [reals],
    "pose_video_path"}``.  Pose-video paths are kept verbatim; callers resolve
    them relative to the manifest's directory.
    """
    entries = []
    for i, node in enumerate(array(load_json(text), "$", nonempty=True)):
        path = f"$[{i}]"
        obj(node, path, required=("entry_id", "label", "embedding", "pose_video_path"))
        entries.append(
            PoseDbEntry(
                entry_id=string(node["entry_id"], path, "entry_id", nonempty=True),
                label=string(node["label"], path, "label", nonempty=True),
                embedding=EmbeddingVector(
                    values=tuple(reals(node["embedding"], path, "embedding", nonempty=True))
                ),
                pose_video_path=string(
                    node["pose_video_path"], path, "pose_video_path", nonempty=True
                ),
            )
        )
    return entries
