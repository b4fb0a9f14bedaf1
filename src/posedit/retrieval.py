"""Action-pose database indexing and cosine-similarity retrieval.

:func:`build_index` keeps the entries in order (the tie-break order) and
stacks their embeddings into one read-only (N, D) float64 matrix with its row
norms.  :func:`query` ranks in two passes.  One matrix-vector product gives
every entry an approximate cosine, and a bound on how far that can be from
the exact score (see :func:`_candidates`) picks every entry that could reach
the top k.  Only those are rescored with :func:`cosine`, the scalar sums in
component order, and stably sorted, so the reported scores and their order are
exactly those of scoring every entry with :func:`cosine`.  Databases or
queries with a norm outside the range the bound covers are scored entry by
entry.

Embeddings arrive from files; this module never computes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._schema import array, integer, load_json, name, obj, reals, string
from .errors import DatabaseError, GeometryError, ParseError, ShapeError

_UNIT_ROUNDOFF = 2.0**-53
# norms the prefilter's error bound covers: inside this range no product or
# sum overflows, and underflow is negligible (see _candidates)
_NORM_MIN = 2.0**-400
_NORM_MAX = 2.0**400


@dataclass(frozen=True)
class EmbeddingVector:
    """A nonempty vector of finite floats.

    ``values`` is a tuple, except in the entries :func:`parse_db_manifest`
    returns: each keeps its validated row as the list it was parsed into,
    which nothing writes to.  Equality and hashing go by the values either
    way.
    """

    values: tuple[float, ...]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self.values) == tuple(other.values)

    def __hash__(self):
        return hash(tuple(self.values))

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


@dataclass(frozen=True)
class PoseDatabase:
    """Entries in tie-break order, with what :func:`build_index` derives from
    them: ``matrix``, the (N, D) float64 embeddings, and ``norms``, their
    approximate row norms; both read-only."""

    entries: tuple[PoseDbEntry, ...]
    dim: int
    matrix: np.ndarray = field(repr=False, compare=False)
    norms: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), each sum taken by the builtin ``sum`` in
    component order; defined only for nonzero vectors whose norm product is
    a finite float."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    na = math.sqrt(sum(v * v for v in a.values))
    nb = math.sqrt(sum(v * v for v in b.values))
    if na == 0.0 or nb == 0.0:
        raise GeometryError("cosine is undefined for a zero vector")
    den = na * nb
    if not math.isfinite(den):
        raise GeometryError(
            f"cosine is undefined: the norm product {na!r} * {nb!r} overflows"
        )
    return sum(x * y for x, y in zip(a.values, b.values)) / den


def _norm(values, what: str) -> float:
    """The norm :func:`cosine` takes of ``values``; DatabaseError naming
    ``what`` when its sum of squares is 0 or overflows."""
    squares = sum(v * v for v in values)
    if squares == 0.0:
        if any(values):
            raise DatabaseError(f"{what} has a squared norm that underflows to 0")
        raise DatabaseError(f"{what} is the zero vector")
    if squares == math.inf:
        raise DatabaseError(f"{what} has a squared norm that overflows")
    return math.sqrt(squares)


def build_index(entries) -> PoseDatabase:
    """Validate entries and freeze them into a queryable database.

    Entry order is preserved; it defines the tie-break order for queries.
    An entry :func:`cosine` could not score (an embedding whose sum of
    squares is 0 or overflows) is refused, so no query depends on which
    entries it rescores.
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
        _index(entries[:i], dim)  # a fault in an earlier entry is named first
        raise DatabaseError(fault)
    return _index(entries, dim)


def _index(entries, dim) -> PoseDatabase:
    """The database over ``entries`` of one dimension ``dim``; DatabaseError
    for the first entry :func:`cosine` could not normalise."""
    matrix = np.array([e.embedding.values for e in entries], dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing row gets norm inf
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    # rows outside the covered range (zero and overflowing ones among them)
    # are checked with cosine's own norm
    for i in np.flatnonzero(~((norms >= _NORM_MIN) & (norms <= _NORM_MAX))):
        _norm(entries[i].embedding.values, f"entry {entries[i].entry_id!r} embedding")
    matrix.setflags(write=False)
    norms.setflags(write=False)
    return PoseDatabase(entries=entries, dim=dim, matrix=matrix, norms=norms)


def query(db: PoseDatabase, q: EmbeddingVector, k: int) -> list[tuple[str, float]]:
    """Top-k entries by descending :func:`cosine` score against ``q``.

    Scores are reported at full precision and equal ``cosine(entry, q)`` bit
    for bit.  Equal scores keep database insertion order (stable sort on the
    negated score).
    """
    if q.dim != db.dim:
        raise DatabaseError(f"query dim {q.dim} does not match database dim {db.dim}")
    nq = _norm(q.values, "query embedding")
    if not 1 <= k <= len(db):
        raise DatabaseError(f"k must be in [1, {len(db)}], got {k}")

    scored = sorted(
        ((cosine(db.entries[i].embedding, q), i) for i in _candidates(db, q, nq, k)),
        key=lambda pair: -pair[0],
    )
    return [(db.entries[i].entry_id, score) for score, i in scored[:k]]


def _candidates(db: PoseDatabase, q: EmbeddingVector, nq: float, k: int):
    """Ascending indices of every entry whose exact score can reach the k-th
    place: those whose approximate score is within 2ε of a_k, the k-th
    largest approximate score.

    Why none is missed.  Let u = 2**-53, D the dimension, γ_n = nu / (1 - nu),
    g = γ_{D+2}, and c = x·y / (‖x‖‖y‖) the real cosine of entry x and query y.
    Both routes compute dot / (n_x * n_y): the approximate one with BLAS
    (``matrix @ q``) and numpy's row norms, the exact one with :func:`cosine`.

    1. A dot product summed in any order, with or without fused multiply-add,
       is x·y + e with |e| <= γ_D Σ|x_i y_i| <= γ_D ‖x‖‖y‖ (Higham, *Accuracy
       and Stability of Numerical Algorithms*, §3.1, then Cauchy-Schwarz).
       Python 3.12's compensated float ``sum`` has a smaller bound.
    2. Every norm lies in [_NORM_MIN, _NORM_MAX], to within the factor 1 ± g
       of step 3, so nothing overflows: each partial sum is at most
       (1 + g)‖x‖‖y‖ <= 2**801.  Each product's underflow error is at most
       2**-1075 (Higham §2.1), in all at most D 2**-1075 <= D 2**-275 ‖x‖‖y‖,
       below u‖x‖‖y‖ for D < 2**222.  So the dot's error is at most
       γ_{D+1} ‖x‖‖y‖ <= g ‖x‖‖y‖.
    3. A sum of squares has one sign, so its relative error is at most γ_D,
       plus u for underflow; the root adds u.  A computed norm is ‖x‖(1 + α)
       with |α| <= g.
    4. The product of the norms and the division round twice more, so a
       computed score is (c + η)(1 + ρ) with |η| <= g and
       |ρ| <= (1 + u) / ((1 - g)**2 (1 - u)) - 1 <= 3g while g <= 0.01
       (D below about 4e13).  As |c| <= 1, it is within g + 3g(1 + g) <= 4.03g
       of c, and the two routes differ by at most 8.06g.  ε = 10g; the slack
       covers the rounding of the threshold a_k - 2ε itself.

    The k entries with the largest approximate scores have exact scores of at
    least a_k - ε, so the k-th largest exact score is at least that too.  An
    entry in the exact top k, or tied with its k-th place, scores at least
    a_k - ε exactly and so at least a_k - 2ε approximately.  When a norm lies
    outside the covered range or an approximate score is not finite, every
    entry is a candidate.
    """
    everything = range(len(db))
    if not (
        _NORM_MIN <= nq <= _NORM_MAX
        and _NORM_MIN <= db.norms.min()
        and db.norms.max() <= _NORM_MAX
    ):
        return everything
    approx = (db.matrix @ np.array(q.values)) / (db.norms * nq)
    if not np.isfinite(approx).all():
        return everything
    n = len(approx)
    a_k = np.partition(approx, n - k)[n - k]
    g = (db.dim + 2) * _UNIT_ROUNDOFF / (1.0 - (db.dim + 2) * _UNIT_ROUNDOFF)
    eps = 10.0 * g
    return np.flatnonzero(approx >= a_k - 2.0 * eps)


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
                    reals(node["embedding"], path, "embedding", nonempty=True)
                ),
                pose_video_path=string(
                    node["pose_video_path"], path, "pose_video_path", nonempty=True
                ),
            )
        )
    return entries
