"""Shared checks for the JSON input documents.

Every parser decodes with :func:`load_json` and validates each node with the
checks below.  A check returns the validated value or raises
:class:`ParseError` naming the node.  The node is named by ``path`` plus
optional trailing ``keys`` (field names or array indices), and that name is
built only when a check fails, so the per-field and per-number checks of a
large document format no strings; a ``path`` may itself be such pieces,
``(path, *keys)``, for a parser to hand down to nested checks.  Field names
under the document root are bare (``width``, not ``$.width``); elements are
indexed (``frames[0]``, ``$[3]``).
"""

from __future__ import annotations

import json
import math

from .errors import ParseError, ShapeError

_NUMBER_TYPES = {int, float}


def _reject_constant(name):
    raise ParseError(f"non-finite number {name!r} is not allowed")


def load_json(text: str):
    """Decode a document; refuse NaN/Infinity and turn every decoder failure
    (syntax, integer past the digit limit, nesting past the recursion limit)
    into ``ParseError("invalid JSON: ...")``."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc


def name(path, *keys) -> str:
    """``path`` extended by field names (``.key``) and indices (``[i]``).  A
    tuple ``path`` holds a path and keys not joined yet."""
    if isinstance(path, tuple):
        path, keys = path[0], path[1:] + keys
    for key in keys:
        if isinstance(key, int):
            path = f"{path}[{key}]"
        elif path == "$":
            path = key
        else:
            path = f"{path}.{key}"
    return path


def construct(cls, path, /, **fields):
    """``cls(**fields)``, with a :class:`ShapeError` the constructor raises
    turned into a ``ParseError`` naming ``path``: a parser's checks ran, but
    the parsed values do not fit together."""
    try:
        return cls(**fields)
    except ShapeError as exc:
        raise ParseError(f"{name(path)}: {exc}") from exc


def obj(node, path, *keys, required=(), optional=()) -> dict:
    """An object whose fields are all in ``required`` or ``optional`` and that
    has every ``required`` field."""
    if not isinstance(node, dict):
        raise ParseError(f"{name(path, *keys)}: expected an object, got {type(node).__name__}")
    for key in required:
        if key not in node:
            break
    else:
        if len(node) == len(required):  # exactly the required fields
            return node
    for key in node:
        if key not in required and key not in optional:
            raise ParseError(f"{name(path, *keys)}: unexpected field {key!r}")
    for key in required:
        if key not in node:
            raise ParseError(f"{name(path, *keys)}: missing field {key!r}")
    return node


def array(node, path, *keys, nonempty=False) -> list:
    if not isinstance(node, list):
        raise ParseError(f"{name(path, *keys)}: expected an array, got {type(node).__name__}")
    if nonempty and not node:
        raise ParseError(f"{name(path, *keys)}: must not be empty")
    return node


def integer(node, path, *keys, minimum=None, maximum=None) -> int:
    if (
        isinstance(node, bool)
        or not isinstance(node, int)
        or (minimum is not None and node < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParseError(f"{name(path, *keys)}: expected an integer{bound}, got {node!r}")
    if maximum is not None and node > maximum:
        raise ParseError(f"{name(path, *keys)}: expected an integer <= {maximum}, got {node!r}")
    return node


def real(node, path, *keys) -> float:
    """A finite number as a float; an integer beyond the float range counts
    as non-finite."""
    if type(node) is float:
        value = node
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            value = float(node)
        except OverflowError:
            value = math.inf
    else:
        raise ParseError(f"{name(path, *keys)}: expected a number, got {node!r}")
    if not math.isfinite(value):
        raise ParseError(f"{name(path, *keys)}: number must be finite")
    return value


def fraction(node, path, *keys) -> float:
    """A real in [0, 1]."""
    value = real(node, path, *keys)
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"{name(path, *keys)}: must be in [0, 1], got {value}")
    return value


def boolean(node, path, *keys) -> bool:
    if not isinstance(node, bool):
        raise ParseError(f"{name(path, *keys)}: expected a boolean, got {node!r}")
    return node


def string(node, path, *keys, nonempty=False, text=True) -> str:
    """A string; with ``text``, also well-formed (see :func:`well_formed`).
    Only config values pass ``text=False``: an argv path may hold the
    surrogate escapes of undecodable bytes, and ``open`` judges it."""
    if not isinstance(node, str) or (nonempty and not node):
        kind = "a non-empty string" if nonempty else "a string"
        raise ParseError(f"{name(path, *keys)}: expected {kind}, got {node!r}")
    if text and not well_formed(node):
        raise ParseError(f"{name(path, *keys)}: unpaired surrogate in {node!r}")
    return node


def well_formed(text: str) -> bool:
    """Whether ``text`` holds no unpaired surrogate, which JSON's ``\\ud800``
    escapes can produce and no output encoding can write."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def finite_floats(column: list) -> list[float] | None:
    """``column`` as floats when every item is a finite number, else None.

    Each item is checked once, by whole-list builtins: a column of floats is
    returned as it is, not copied, and only a column holding an int is
    converted.  A caller that gets None walks the column with :func:`real`
    to name the first bad item.
    """
    kinds = set(map(type, column))
    if not kinds <= _NUMBER_TYPES:
        return None
    if int in kinds:
        try:
            column = list(map(float, column))
        except OverflowError:
            return None
    # a non-finite item makes the sum non-finite; finite items whose sum
    # overflows only send the column to the caller's walk
    return column if math.isfinite(sum(column)) else None


def reals(node, path, *keys, nonempty=False, nonneg=False) -> list[float]:
    """An array of finite numbers (non-negative with ``nonneg``) as floats.

    The common all-valid array is checked with :func:`finite_floats`, and an
    array of floats is returned as parsed; only when that check fails is each
    element checked in turn, to name the first bad index.
    """
    if type(node) is not list or (nonempty and not node):  # cheaper than the call
        array(node, path, *keys, nonempty=nonempty)
    values = finite_floats(node)
    if values is not None and not (nonneg and values and min(values) < 0.0):
        return values
    where = name(path, *keys)
    values = []
    for i, item in enumerate(node):
        value = real(item, where, i)
        if nonneg and value < 0.0:
            raise ParseError(f"{where}[{i}]: must be non-negative, got {value}")
        values.append(value)
    return values
