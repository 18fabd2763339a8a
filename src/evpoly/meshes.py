"""Minimal polygonal mesh container with OBJ export.

Holds the ruled surfaces produced by the Darboux and focal-set
constructions.  Faces are planar index loops; standalone lines (OBJ
``l`` records) carry degenerate geometry such as a single focal line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import GeometryError

__all__ = ["Mesh"]


def _flat(recs) -> np.ndarray:
    """The indices of a list of index records, in order, as one array."""
    return np.fromiter(itertools.chain.from_iterable(recs), dtype=np.intp)


def _obj_records(tag: str, recs) -> str:
    """OBJ index records, 1-based; ragged records get their own arity."""
    arity = set(map(len, recs))
    if len(arity) == 1:
        template = (tag + " %d" * arity.pop() + "\n") * len(recs)
    else:
        template = "".join([tag + " %d" * len(r) + "\n" for r in recs])
    return template % tuple((_flat(recs) + 1).tolist())


@dataclass
class Mesh:
    """Vertex rows, faces and lines; faces and lines index the OBJ ``v`` records.

    ``rows`` holds each distinct vertex once.  ``v_rows`` names the row
    behind each ``v`` record, so a vertex shared by neighbouring faces is
    formatted once however many records repeat it; without ``v_rows``
    each row is its own record.  ``vertices`` is the per-record array.
    """

    rows: np.ndarray
    faces: list
    lines: list = field(default_factory=list)
    v_rows: np.ndarray | None = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, 3)
        n = len(self.rows)
        if self.v_rows is not None:
            self.v_rows = np.asarray(self.v_rows, dtype=np.intp).ravel()
            if len(self.v_rows) and (self.v_rows.min() < 0 or self.v_rows.max() >= n):
                raise GeometryError("vertex row out of range")
            n = len(self.v_rows)
        if min(map(len, self.faces), default=3) < 3:
            raise GeometryError("mesh face needs at least 3 vertices")
        if min(map(len, self.lines), default=2) < 2:
            raise GeometryError("mesh line needs at least 2 vertices")
        for recs, what in ((self.faces, "face"), (self.lines, "line")):
            idx = _flat(recs)
            if len(idx) and (idx.min() < 0 or idx.max() >= n):
                raise GeometryError(f"{what} index out of range")

    @cached_property
    def vertices(self) -> np.ndarray:
        """One row per OBJ ``v`` record, the array that faces and lines index."""
        return self.rows if self.v_rows is None else self.rows[self.v_rows]

    def face_planarity(self) -> np.ndarray:
        """Max distance of each face's vertices from its best-fit plane."""
        out = np.zeros(len(self.faces))
        for j, face in enumerate(self.faces):
            pts = self.vertices[list(face)]
            c = pts.mean(axis=0)
            q = pts - c
            _, s, _ = np.linalg.svd(q, full_matrices=False)
            out[j] = s[-1] if len(s) == 3 else 0.0
        return out

    def write_obj(self, path) -> None:
        """Write the mesh as OBJ text, each coordinate as ``%.17g``.

        The distinct rows are formatted in one block; the ``v`` records
        are then its lines, taken by index.
        """
        rows = self.rows
        text = ("v %.17g %.17g %.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
        if self.v_rows is not None:
            text = "".join(map(text.splitlines(True).__getitem__, self.v_rows.tolist()))
        with open(path, "w") as fh:
            fh.write("# evpoly mesh\n")
            fh.write(text)
            fh.write(_obj_records("f", self.faces))
            fh.write(_obj_records("l", self.lines))
