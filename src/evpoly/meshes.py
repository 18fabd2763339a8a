"""Minimal polygonal mesh container with OBJ export.

Holds the ruled surfaces produced by the Darboux and focal-set
constructions.  Faces are planar index loops; standalone lines (OBJ
``l`` records) carry degenerate geometry such as a single focal line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import GeometryError

__all__ = ["Mesh"]


def _flat(recs) -> np.ndarray:
    """The indices of a list of index records, in order, as one array."""
    return np.fromiter(itertools.chain.from_iterable(recs), dtype=np.intp)


def _obj_records(tag: str, recs) -> str:
    """OBJ index records, 1-based; ragged records get their own arity."""
    template = "".join([tag + " %d" * len(r) + "\n" for r in recs])
    return template % tuple((_flat(recs) + 1).tolist())


@dataclass
class Mesh:
    vertices: np.ndarray
    faces: list
    lines: list = field(default_factory=list)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        n = len(self.vertices)
        if min(map(len, self.faces), default=3) < 3:
            raise GeometryError("mesh face needs at least 3 vertices")
        for recs, what in ((self.faces, "face"), (self.lines, "line")):
            idx = _flat(recs)
            if len(idx) and (idx.min() < 0 or idx.max() >= n):
                raise GeometryError(f"{what} index out of range")

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
        v = self.vertices
        with open(path, "w") as fh:
            fh.write("# evpoly mesh\n")
            fh.write(("v %.17g %.17g %.17g\n" * len(v)) % tuple(v.ravel().tolist()))
            fh.write(_obj_records("f", self.faces))
            fh.write(_obj_records("l", self.lines))
