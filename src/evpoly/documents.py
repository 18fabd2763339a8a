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

from .core import GeometryError, Polygon3
from .darboux import FramedPolygon

__all__ = ["PolygonDocument", "DocumentError", "read_document", "write_document"]

KINDS = ("polygon3", "polygon2", "framed3")
ARITY = {"polygon3": 3, "polygon2": 2, "framed3": 3}


class DocumentError(GeometryError):
    """Malformed polygon document."""


def _rows_error(name: str) -> DocumentError:
    return DocumentError(f"{name} must be a list of numeric coordinate rows of equal length")


def _coordinates(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _rows_error(name) from exc


def _json_rows(values, name: str):
    """``values`` if it is a JSON list of lists of numbers, else DocumentError.

    numpy would convert numeric strings and booleans, so the entry types
    are checked here, before ``_coordinates`` sees them.
    """
    if not (isinstance(values, list) and set(map(type, values)) <= {list}
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        raise _rows_error(name)
    return values


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
            if not np.isfinite(self.directions).all():
                raise DocumentError("non-finite direction coordinate")
        elif self.directions is not None:
            raise DocumentError(f"{self.kind} does not carry directions")
        if not np.isfinite(self.vertices).all():
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


def write_document(doc: PolygonDocument, path) -> None:
    payload = {
        "kind": doc.kind,
        "closed": doc.closed,
        "vertices": doc.vertices.tolist(),
        "metadata": doc.metadata,
    }
    if doc.directions is not None:
        payload["directions"] = doc.directions.tolist()
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def _read_csv(text: str) -> PolygonDocument:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(x) for x in line.replace(",", " ").split()])
        except ValueError as exc:
            raise DocumentError(f"line {lineno}: not a coordinate row") from exc
    if not rows:
        raise DocumentError("empty vertex list")
    arity = len(rows[0])
    if any(len(r) != arity for r in rows):
        raise DocumentError("inconsistent coordinate arity")
    if arity == 2:
        return PolygonDocument("polygon2", False, np.asarray(rows))
    if arity == 3:
        return PolygonDocument("polygon3", False, np.asarray(rows))
    raise DocumentError(f"unsupported coordinate arity {arity}")


def read_document(path) -> PolygonDocument:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("empty document")
    if stripped[0] != "{":
        return _read_csv(text)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
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
