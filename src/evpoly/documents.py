"""Reading and writing polygon documents.

The interchange format is a single JSON object: kind ("polygon3",
"polygon2", "framed3"), closed flag, vertex list, optional per-vertex
directions (framed3) and a free-form metadata map; the reader ignores
other keys.  Floats are serialized with shortest round-trip repr, so
write then read reproduces coordinates bit-exactly.  Bare CSV vertex
lists (one vertex per line) are also accepted on input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import GeometryError, Polygon3, read_text, write_text
from .darboux import FramedPolygon

__all__ = ["PolygonDocument", "DocumentError", "read_document", "write_document", "json_text"]

KINDS = ("polygon3", "polygon2", "framed3")
ARITY = {"polygon3": 3, "polygon2": 2, "framed3": 3}


class DocumentError(GeometryError):
    """An input or usage error: a malformed document, option or command line (exit 1)."""


def _rows_error(name: str) -> DocumentError:
    return DocumentError(f"{name} must be a list of numeric coordinate rows of equal length")


def _too_large(name: str) -> DocumentError:
    return DocumentError(f"{name}: a coordinate is too large for a float")


def _coordinates(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _rows_error(name) from exc
    except OverflowError as exc:  # a Python integer beyond the float range
        raise _too_large(name) from exc


def _json_rows(values, name: str) -> np.ndarray:
    """Float array of a JSON list of equal-length lists of numbers, else DocumentError.

    numpy would convert numeric strings and booleans, so the entry types
    are checked before ``np.fromiter`` builds the array.
    """
    if not (isinstance(values, list) and set(map(type, values)) <= {list}
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        raise _rows_error(name)
    widths = set(map(len, values))
    if len(widths) > 1:
        raise _rows_error(name)
    width = widths.pop() if widths else 0
    try:
        flat = np.fromiter(chain.from_iterable(values), float, len(values) * width)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise _too_large(name) from exc
    return flat.reshape(len(values), width)


@dataclass
class PolygonDocument:
    kind: str
    closed: bool
    vertices: np.ndarray
    directions: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DocumentError(f"unknown kind {self.kind!r}")
        self.vertices = _coordinates(self.vertices, "vertices")
        if self.vertices.ndim != 2 or len(self.vertices) == 0:
            raise DocumentError("vertices must be a nonempty list of coordinates")
        if self.vertices.shape[1] != ARITY[self.kind]:
            raise DocumentError(
                f"{self.kind} needs {ARITY[self.kind]}-vectors, "
                f"got arity {self.vertices.shape[1]}")
        if self.kind == "framed3":
            if self.directions is None:
                raise DocumentError("framed3 document needs directions")
            self.directions = _coordinates(self.directions, "directions")
            if self.directions.shape != self.vertices.shape:
                raise DocumentError("directions must match vertices in shape")
            if not np.logical_and.reduce(np.isfinite(self.directions), axis=None):
                raise DocumentError("non-finite direction coordinate")
        elif self.directions is not None:
            raise DocumentError(f"{self.kind} does not carry directions")
        if not np.logical_and.reduce(np.isfinite(self.vertices), axis=None):
            raise DocumentError("non-finite vertex coordinate")

    def to_framed(self) -> FramedPolygon:
        if self.kind != "framed3":
            raise DocumentError("document carries no frame directions")
        return FramedPolygon.build(self.vertices, self.directions, closed=self.closed)

    @classmethod
    def from_polygon(cls, p: Polygon3) -> "PolygonDocument":
        return cls("polygon3", p.closed, p.points)

    @classmethod
    def from_framed(cls, f: FramedPolygon, metadata=None) -> "PolygonDocument":
        return cls("framed3", f.closed, f.polygon.points,
                   f.directions.values, metadata=dict(metadata or {}))


_STRICT = json.JSONEncoder(allow_nan=False)  # json.dumps's encoder, without NaN and Infinity


def json_text(payload: dict) -> str:
    """``payload`` as one line of JSON.  JSON has no infinity or NaN, so a value
    that is not finite raises a GeometryError naming its key, dotted through maps."""
    try:
        return _STRICT.encode(payload) + "\n"
    except ValueError:
        for key, value in payload.items():
            try:
                json_text(value) if isinstance(value, dict) else _STRICT.encode(value)
            except GeometryError as exc:  # named in a nested map
                raise GeometryError(f"{key}.{exc}") from None
            except ValueError:
                raise GeometryError(f"{key}: not finite, and JSON has no "
                                    "infinity or NaN") from None
        raise


def write_document(doc: PolygonDocument, path) -> None:
    payload = {
        "kind": doc.kind,
        "closed": doc.closed,
        "vertices": doc.vertices.tolist(),
        "metadata": doc.metadata,
    }
    if doc.directions is not None:
        payload["directions"] = doc.directions.tolist()
    # the text is made before the file is opened, so a refused payload leaves it as it was
    write_text(path, json_text(payload))


def _csv_error(text: str) -> DocumentError:
    """Why numpy refused the rows: the first row it cannot parse, else their arity.

    Line numbers count every line, comments and blank lines included.
    """
    for lineno, line in enumerate(map(str.strip, text.splitlines()), 1):
        row = line.replace(",", " ")
        if row.strip() and line[0] != "#":
            try:
                np.loadtxt([row], comments=None)
            except ValueError:
                return DocumentError(f"line {lineno}: not a coordinate row")
    return DocumentError("inconsistent coordinate arity")


def _read_csv(text: str) -> PolygonDocument:
    """One vertex per line, its coordinates separated by commas or whitespace.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped.
    """
    rows = [line.replace(",", " ") for line in map(str.strip, text.splitlines())
            if line and line[0] != "#"]
    if not rows:
        raise DocumentError("empty vertex list")
    # a row of only commas has no coordinates; numpy would skip it as blank
    if not any(map(str.strip, rows)):
        raise DocumentError("unsupported coordinate arity 0")
    try:
        # numpy's C reader converts numerals as float() does (correctly
        # rounded), but refuses "_" digit separators and non-ASCII digits
        vertices = np.loadtxt(rows, comments=None, ndmin=2)
    except ValueError:
        raise _csv_error(text) from None
    if len(vertices) != len(rows):
        raise DocumentError("inconsistent coordinate arity")
    arity = vertices.shape[1]
    if arity == 2:
        return PolygonDocument("polygon2", False, vertices)
    if arity == 3:
        return PolygonDocument("polygon3", False, vertices)
    raise DocumentError(f"unsupported coordinate arity {arity}")


def read_document(path) -> PolygonDocument:
    try:
        text = read_text(path)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("empty document")
    if stripped[0] != "{":
        return _read_csv(text)
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    closed = payload.get("closed", False)
    if not isinstance(closed, bool):
        raise DocumentError(f"closed must be true or false, got {closed!r}")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be a JSON object")
    try:
        kind, vertices = payload["kind"], payload["vertices"]
    except KeyError as exc:
        raise DocumentError(f"missing field {exc.args[0]!r}") from exc
    directions = payload.get("directions")
    return PolygonDocument(
        kind=kind,
        closed=closed,
        vertices=_json_rows(vertices, "vertices"),
        directions=None if directions is None else _json_rows(directions, "directions"),
        metadata=metadata,
    )
