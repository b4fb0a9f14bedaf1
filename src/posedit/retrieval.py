"""Action-pose database indexing and cosine-similarity retrieval.

A :class:`PoseDatabase` is columns in entry order (the tie-break order):
the entry ids, labels and pose-video paths, one read-only (N, D) float64
matrix of the embeddings, stored column-major, and its exact row norms.
:func:`build_index` fills them from parsed entries.  :func:`query` scores
every entry in one pass of :func:`_dots`, which adds the products in the
order :func:`cosine` does, so each score equals ``cosine(entry, query)`` bit
for bit, and stably sorts them.  :func:`_norm` is the one rule for a norm:
its sum of squares must not be 0, underflow to 0 or overflow.

:func:`encode_index` turns a built database into the contents of the two
cache files, a binary matrix and a small document, and
:func:`decode_index` turns them back into the database's columns after
checking them, so a manifest need be parsed only once.

Embeddings arrive from files, and those files, the cache's included, are
read and written by :mod:`posedit.pipeline`: this module computes no
embedding and touches no file.  Every :class:`EmbeddingVector` holds its
components as one tuple of floats, whether a parser or the constructor
built it.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib import format as npy_format

from ._schema import array, integer, load_json, name, obj, reals, string, well_formed
from .errors import DatabaseError, GeometryError, ParseError, ShapeError


@dataclass(frozen=True)
class EmbeddingVector:
    """A nonempty vector of finite floats; ``values`` is a tuple."""

    values: tuple[float, ...]

    @classmethod
    def _view(cls, values):
        """An embedding holding ``values`` as given, for parsers that have
        already checked them; the public constructor checks again."""
        embedding = cls.__new__(cls)
        object.__setattr__(embedding, "values", values)
        return embedding

    def __post_init__(self):
        """The parsers' number rule: every component an int or float, finite,
        and stored as a float."""
        values = list(self.values)
        if not values:
            raise ShapeError("embedding must have at least one component")
        try:
            values = reals(values, "values")
        except ParseError as exc:
            raise ValueError(str(exc)) from None
        object.__setattr__(self, "values", tuple(values))

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


@dataclass(frozen=True, eq=False)
class PoseDatabase:
    """A database as columns in entry order (the tie-break order): ``ids``,
    ``labels`` and ``paths`` (the verbatim pose-video paths), tuples;
    ``matrix``, the (N, D) float64 embeddings in column-major (Fortran)
    order; and ``norms``, their row norms, each the exact norm :func:`cosine`
    takes of its row.  Both arrays are read-only.

    ``matrix`` holds the parsed floats exactly, so it is what :func:`query`
    scores from, and what :func:`encode_index` stores; a database
    :func:`decode_index` returns has the columns, matrix and norms of the one
    that was encoded, bit for bit.  ``==`` is identity: compare the fields."""

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    paths: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def _dot(xs, ys) -> float:
    """The one summation rule: start at ``0.0`` and add the products
    ``x * y`` left to right.  :func:`_dots` applies it to every row of a
    matrix at once, with the same IEEE operations in the same order per row,
    so both give the same float (a signed zero, inf or NaN included).  This
    is what CPython 3.11's ``sum(x * y ...)`` does, its int ``0`` start
    making the first step ``0.0 + p0``; unlike 3.12's compensated ``sum``,
    it is left to right on every interpreter.

    :func:`_dots` costs one numpy operation per column, so it is slower than
    a matrix product only for very few, very wide rows; a column-major
    matrix gives it contiguous columns.
    """
    total = 0.0
    for x, y in zip(xs, ys):
        total += x * y
    return total


def _dots(matrix, ys) -> np.ndarray:
    """:func:`_dot` of each row of ``matrix`` with ``ys``."""
    total = np.zeros(len(matrix))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, y in enumerate(ys):
            total += matrix[:, j] * y
    return total


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), each sum taken by :func:`_dot` in component
    order; GeometryError for a vector :func:`_norm` refuses.  Two norms it
    passes lie in [sqrt(least subnormal), sqrt(max float)], so their product
    is a finite, nonzero float."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    what = "cosine is undefined: an operand"
    return _dot(a.values, b.values) / (
        _norm(a.values, what, GeometryError) * _norm(b.values, what, GeometryError)
    )


def _norm(values, what: str, error: type[Exception]) -> float:
    """The norm of ``values``, the square root of their :func:`_dot`; an
    ``error`` naming ``what`` when that sum of squares is 0, underflows to 0
    or overflows."""
    squares = _dot(values, values)
    if squares == 0.0:
        if any(values):
            raise error(f"{what} has a squared norm that underflows to 0")
        raise error(f"{what} is the zero vector")
    if squares == math.inf:
        raise error(f"{what} has a squared norm that overflows")
    return math.sqrt(squares)


def build_index(entries) -> PoseDatabase:
    """Validate entries and freeze them into a queryable database.

    Entry order is preserved; it defines the tie-break order for queries.
    An entry :func:`cosine` could not score (an embedding :func:`_norm`
    refuses) is refused.
    """
    entries = tuple(entries)
    if not entries:
        raise DatabaseError("database must contain at least one entry")
    dim = entries[0].embedding.dim
    seen = set()
    for i, e in enumerate(entries):
        if e.embedding.dim != dim:
            fault = f"entry {e.entry_id!r} has embedding dim {e.embedding.dim}, expected {dim}"
        elif e.entry_id in seen:
            fault = f"duplicate entry_id {e.entry_id!r}"
        else:
            seen.add(e.entry_id)
            continue
        _index(entries[:i])  # a fault in an earlier entry is named first
        raise DatabaseError(fault)
    return _index(entries)


def _index(entries) -> PoseDatabase:
    """The database over ``entries`` of one dimension; DatabaseError for the
    first entry :func:`_norm` refuses."""
    matrix = np.array([e.embedding.values for e in entries], dtype=np.float64, order="F")
    return _frozen(
        tuple(e.entry_id for e in entries),
        tuple(e.label for e in entries),
        tuple(e.pose_video_path for e in entries),
        matrix,
    )


def _frozen(ids, labels, paths, matrix) -> PoseDatabase:
    """The database of the columns ``ids``, ``labels``, ``paths`` and
    ``matrix``, their (N, D) float64 column-major embeddings, made read-only;
    DatabaseError for the first row :func:`_norm` refuses."""
    squares = _dots(matrix, matrix.T)
    for i in np.flatnonzero((squares == 0.0) | (squares == np.inf)):
        _norm(matrix[i].tolist(), f"entry {ids[i]!r} embedding", DatabaseError)
    norms = np.sqrt(squares)
    matrix.setflags(write=False)
    norms.setflags(write=False)
    return PoseDatabase(ids=ids, labels=labels, paths=paths, matrix=matrix, norms=norms)


def query(db: PoseDatabase, q: EmbeddingVector, k: int) -> list[tuple[str, float]]:
    """Top-k entries by descending :func:`cosine` score against ``q``.

    Every entry is scored, in one pass: :func:`_dots` of ``db.matrix`` with
    ``q`` over the exact norm products, so each score equals
    ``cosine(entry, q)`` bit for bit.  Scores are reported at full
    precision.  Equal scores keep database insertion order (stable sort on
    the negated score).
    """
    if q.dim != db.dim:
        raise DatabaseError(f"query dim {q.dim} does not match database dim {db.dim}")
    nq = _norm(q.values, "query embedding", DatabaseError)
    if not 1 <= k <= len(db):
        raise DatabaseError(f"k must be in [1, {len(db)}], got {k}")
    # norms that passed _norm multiply to a finite, nonzero float (see cosine)
    scores = _dots(db.matrix, q.values) / (db.norms * nq)
    order = np.argsort(-scores, kind="stable")[:k].tolist()
    return list(zip([db.ids[i] for i in order], scores[order].tolist()))


# --- compiled index cache ------------------------------------------------------
#
# A database is stored under a key as two files: ``<key>.npy``, its (N, D)
# float64 column-major matrix, and ``<key>.json``, the entry ids, labels and
# verbatim pose-video paths in entry order, the dim, the sha256 of the matrix
# bytes, and a sha256 over the key and those fields, so a document damaged,
# edited or copied from another key is refused.

_INDEX_FIELDS = {"dim", "ids", "labels", "matrix_sha256", "paths", "sha256"}


def sha256_hex(data) -> str:
    """The sha256 of a bytes-like ``data``, as hex."""
    import hashlib  # on first use: it would add ~5 ms to `import posedit.cli`

    return hashlib.sha256(data).hexdigest()


def encode_index(db: PoseDatabase, key: str) -> tuple[bytes, bytes]:
    """The ``(<key>.npy, <key>.json)`` contents that store ``db`` under
    ``key``: the bytes ``np.save`` writes for its matrix, and the ASCII
    document."""
    doc = {
        "dim": db.dim,
        "ids": db.ids,
        "labels": db.labels,
        "matrix_sha256": sha256_hex(db.matrix.T),  # hashlib needs C order
        "paths": db.paths,
    }
    doc["sha256"] = _digest(key, doc)
    header = io.BytesIO()
    npy_format.write_array_header_1_0(header, npy_format.header_data_from_array_1_0(db.matrix))
    # the matrix is column-major: its transpose holds its bytes in np.save's order
    return b"".join((header.getvalue(), db.matrix.T)), json.dumps(doc).encode("ascii")


def _digest(key: str, doc: dict) -> str:
    """The sha256 binding ``key`` and every field of ``doc`` but ``sha256``."""
    fields = {k: v for k, v in doc.items() if k != "sha256"}
    return sha256_hex(json.dumps([key, fields], sort_keys=True).encode("ascii"))


def _npy_view(data: bytes) -> np.ndarray:
    """The array that the ``.npy`` bytes ``data`` hold in format 1.0, the
    one :func:`encode_index` writes, as ``np.load`` would read it, but as a
    read-only view of ``data``, not a copy; ValueError when they hold none."""
    stream = io.BytesIO(data)
    if npy_format.read_magic(stream) != (1, 0):
        raise ValueError("not an .npy array in format 1.0")
    shape, fortran_order, dtype = npy_format.read_array_header_1_0(stream)
    array = np.frombuffer(data, dtype, math.prod(shape), stream.tell())
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


def decode_index(key: str, npy: bytes, doc: bytes) -> PoseDatabase | None:
    """The database :func:`encode_index` stored under ``key`` as ``npy`` and
    ``doc``, or None when they fail a check.

    The document must carry its own digest.  The matrix must be float64,
    column-major, of the stored shape and hash, and finite, and every row
    must pass :func:`_norm`; ids, labels and paths must be nonempty strings
    without unpaired surrogates, and the ids unique.  The database's matrix
    is a read-only view of ``npy``.
    """
    try:
        doc = json.loads(doc)
        matrix = _npy_view(npy)
    except Exception:  # damaged bytes fail in many ways; all are misses
        return None
    if not (
        isinstance(doc, dict)
        and doc.keys() == _INDEX_FIELDS
        and doc["sha256"] == _digest(key, doc)
    ):
        return None
    ids, labels, paths, dim = doc["ids"], doc["labels"], doc["paths"], doc["dim"]
    columns = (ids, labels, paths)
    if not (
        all(type(column) is list for column in columns)
        and 0 < len(ids) == len(labels) == len(paths)
        and all(
            type(s) is str and s and well_formed(s) for column in columns for s in column
        )
        and len(set(ids)) == len(ids)
        and type(dim) is int
        and type(matrix) is np.ndarray
        and matrix.dtype == np.float64
        and matrix.shape == (len(ids), dim)
        and matrix.flags.f_contiguous
        and sha256_hex(matrix.T) == doc["matrix_sha256"]
        and np.isfinite(matrix).all()
    ):
        return None
    try:
        return _frozen(tuple(ids), tuple(labels), tuple(paths), matrix)
    except DatabaseError:
        return None


# --- manifest parsing ----------------------------------------------------------


def embedding_from_node(node, path="$") -> EmbeddingVector:
    """Validate an already-parsed ``{"dim": D, "values": [reals]}`` node;
    ``path`` names it as in the ``_schema`` checks."""
    obj(node, path, required=("dim", "values"))
    dim = integer(node["dim"], path, "dim", minimum=1)
    values = reals(node["values"], path, "values")
    if len(values) != dim:
        raise ParseError(
            f"{name(path, 'values')}: length {len(values)} does not match dim {dim}"
        )
    return EmbeddingVector._view(tuple(values))


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
                embedding=EmbeddingVector._view(
                    tuple(reals(node["embedding"], path, "embedding", nonempty=True))
                ),
                pose_video_path=string(
                    node["pose_video_path"], path, "pose_video_path", nonempty=True
                ),
            )
        )
    return entries
