"""Minimal polygonal mesh container with OBJ export.

Holds the ruled surfaces produced by the Darboux and focal-set
constructions.  Faces are planar index loops; standalone lines (OBJ
``l`` records) carry degenerate geometry such as a single focal line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import GeometryError, write_text

__all__ = ["Mesh"]


def _records(recs, least: int, n: int, what: str) -> np.ndarray:
    """Records indexing n ``v`` records, as an (m, k >= least) array; ``[]`` is (0, least).

    Indices must have an integer dtype: a fractional or boolean index is
    refused, not truncated.
    """
    try:
        recs = np.asarray(recs)
    except ValueError:  # records of different lengths
        recs = None
    if recs is not None and recs.shape == (0,):  # ``[]``, which numpy reads as float
        recs = np.empty((0, least), dtype=np.intp)
    if recs is None or recs.ndim != 2 or recs.shape[1] < least:
        raise GeometryError(f"mesh {what}s must be records of one length, at least {least}")
    if recs.dtype.kind not in "iu":
        raise GeometryError(f"mesh {what} indices must be integers, not {recs.dtype}")
    if recs.size and (recs.min() < 0 or recs.max() >= n):
        raise GeometryError(f"{what} index out of range")
    return recs.astype(np.intp, copy=False)


@dataclass
class Mesh:
    """Vertex rows, faces and lines; faces and lines index the OBJ ``v`` records.

    ``faces`` and ``lines`` are (m, k) index arrays, one record per row:
    k >= 3 for faces, k >= 2 for lines.  ``rows`` holds each distinct
    vertex once.  ``v_rows`` names the row behind each ``v`` record, so a
    vertex shared by neighbouring faces is formatted once however many
    records repeat it; without ``v_rows`` each row is its own record.
    ``vertices`` is the per-record array.
    """

    rows: np.ndarray
    faces: np.ndarray
    lines: np.ndarray = field(default_factory=list)
    v_rows: np.ndarray | None = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, 3)
        n = len(self.rows)
        if self.v_rows is not None:
            self.v_rows = np.asarray(self.v_rows, dtype=np.intp).ravel()
            if len(self.v_rows) and (self.v_rows.min() < 0 or self.v_rows.max() >= n):
                raise GeometryError("vertex row out of range")
            n = len(self.v_rows)
        self.faces = _records(self.faces, 3, n, "face")
        self.lines = _records(self.lines, 2, n, "line")

    @cached_property
    def vertices(self) -> np.ndarray:
        """One row per OBJ ``v`` record, the array that faces and lines index."""
        return self.rows if self.v_rows is None else self.rows[self.v_rows]

    def write_obj(self, path) -> None:
        """Write the mesh as OBJ text, each coordinate as ``%.17g``: the records of
        ``documents.obj_records``, each distinct row formatted once and array-at-a-time,
        after the header, in turn (``core.write_text``), never joined."""
        from .documents import obj_records  # documents imports darboux, which imports this
        write_text(path, "# evpoly mesh\n",
                   *obj_records(self.rows, self.v_rows, self.faces, self.lines))
