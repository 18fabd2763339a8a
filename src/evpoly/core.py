"""Geometric primitives and half-integer grid sequence calculus.

Index conventions (0-based everywhere):

* A polygon has vertices ``0 .. N-1``.
* Side ``k`` joins vertices ``k`` and ``k+1`` (``(k+1) % N`` when closed).
  A quantity living "between" vertices is stored on the side grid at the
  integer slot of its left vertex.
* Differencing moves a sequence to the opposite grid.  For open sequences
  the result is one entry shorter and its ``base`` index records which
  polygon slot its first entry belongs to, so windows of derived
  quantities (third differences, Frenet coefficients, ...) stay aligned
  without padding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Topology",
    "GridSeq",
    "Polygon3",
    "GeometryError",
    "DegenerateVertexError",
    "cross3",
    "det2",
    "det3",
    "face_solve",
    "forward_diff",
    "median",
]


class GeometryError(ValueError):
    """Base class for geometric/numeric failures in this package."""


class DegenerateVertexError(GeometryError):
    """Consecutive polygon vertices coincide."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"vertices {index} and {index + 1} coincide")


class Grid(enum.Enum):
    VERTEX = "vertex"
    SIDE = "side"

    def other(self) -> "Grid":
        return Grid.SIDE if self is Grid.VERTEX else Grid.VERTEX


class Topology(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


def _as_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise GeometryError("non-finite value in sequence")
    return a


@dataclass(frozen=True)
class GridSeq:
    """Immutable sequence of scalars or small vectors on a half-integer grid.

    ``values`` has shape ``(n,)`` for scalars or ``(n, d)`` for points in
    d-space.  ``base`` is the polygon slot of entry 0 (always 0 for closed
    sequences).
    """

    values: np.ndarray
    grid: Grid
    topology: Topology = Topology.OPEN
    base: int = 0
    finite: bool = True

    def __post_init__(self):
        if self.finite:
            a = _as_array(self.values)
        else:
            # NaN rows mark points at infinity (e.g. parallel support lines)
            a = np.asarray(self.values, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "values", a)
        if self.topology is Topology.CLOSED and self.base != 0:
            raise GeometryError("closed sequences must have base 0")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def slots(self) -> np.ndarray:
        """Polygon slots of each entry."""
        return self.base + np.arange(len(self.values))

    def at(self, slot: int) -> np.ndarray | float:
        """Value at a given polygon slot (mod N when closed)."""
        if self.topology is Topology.CLOSED:
            return self.values[slot % len(self.values)]
        j = slot - self.base
        if not 0 <= j < len(self.values):
            raise IndexError(f"slot {slot} outside [{self.base}, {self.base + len(self.values)})")
        return self.values[j]

    def window(self, start: int, count: int) -> np.ndarray:
        """Values at slots ``start .. start+count-1`` (mod N when closed).

        Open sequences return a read-only view of ``values``.
        """
        j = start - self.base
        if self.topology is Topology.CLOSED:
            return np.roll(self.values, -j, axis=0)[:count]
        if not 0 <= j <= j + count <= len(self.values):
            raise IndexError(f"slots [{start}, {start + count}) outside "
                             f"[{self.base}, {self.base + len(self.values)})")
        return self.values[j:j + count]

    def stencil(self, *offsets: int) -> tuple[int, list[np.ndarray]]:
        """Values at ``slot + o`` for each offset, over every slot where all exist.

        That is every slot (mod N) when closed, and the interior run
        ``base - min(offsets) .. base + n-1 - max(offsets)`` when open.
        Returns the first such slot and one aligned array per offset.
        """
        n = len(self.values)
        first, count = 0, n
        if self.topology is Topology.OPEN:
            first, count = self.base - min(offsets), n - max(offsets) + min(offsets)
            if count < 1:
                raise GeometryError(f"need more than {n} entries for offsets {offsets}")
        return first, [self.window(first + o, count) for o in offsets]

    def with_values(self, values) -> "GridSeq":
        return GridSeq(values, self.grid, self.topology, self.base)


def det3(u, v, w) -> float | np.ndarray:
    """Signed volume of the parallelepiped spanned by three 3-vectors.

    Accepts stacked arrays of shape (..., 3) and broadcasts.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    r = (u[..., 0] * (v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1])
         - u[..., 1] * (v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0])
         + u[..., 2] * (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]))
    return float(r) if r.ndim == 0 else r


def cross3(u, v) -> np.ndarray:
    """Cross product of 3-vectors, written out like ``det3``.

    Accepts stacked arrays of shape (..., 3) and broadcasts.  It rounds
    as ``np.cross`` does, so the two agree bit for bit, without
    ``np.cross``'s fixed cost of moving axes and allocating.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def median(x) -> float:
    """Median of a 1-D array by one sort, as a float.

    Equal to ``float(np.median(x))`` bit for bit: the middle value, or the
    mean of the two middle values, with a zero median returned as +0.0
    as numpy's mean returns it; NaN when ``x`` holds a NaN.  It skips
    ``np.median``'s partition, mean and NaN check, which cost about seven
    times the sort itself on the short arrays of one polygon.
    """
    s = np.sort(x)
    n = len(s)
    if s[-1] != s[-1]:  # NaN sorts last
        return math.nan
    if n % 2:
        return 0.0 + float(s[n // 2])
    return (0.0 + float(s[n // 2 - 1]) + float(s[n // 2])) / 2.0


def face_solve(v, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(x, y)`` of ``v = x*a + y*b`` in a face plane, per row.

    With ``n = a x b``:

        x = ((v x b) . n) / |n|^2,   y = ((a x v) . n) / |n|^2

    so ``x*a + y*b`` is the orthogonal projection of ``v`` onto the plane
    of ``a`` and ``b``: the exact solution when ``v`` lies in that plane
    and the least-squares one otherwise.  Rows with ``a`` parallel to ``b``
    come back non-finite.
    """
    n = cross3(a, b)
    nn = np.einsum("...i,...i->...", n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return det3(v, b, n) / nn, det3(a, v, n) / nn


def det2(u, v) -> float | np.ndarray:
    """Signed area of the parallelogram spanned by two 2-vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return float(r) if r.ndim == 0 else r


def forward_diff(s: GridSeq) -> GridSeq:
    """First difference; output lives on the opposite grid.

    Open input of length n yields n-1 entries; closed yields n (wrapping).
    A vertex-grid difference lands on the side to its right (same base);
    a side-grid difference lands on the vertex between the two sides
    (base shifts by one).
    """
    if len(s.values) < 2:
        raise GeometryError("need at least 2 entries to difference")
    lo, hi = (0, 1) if s.grid is Grid.VERTEX else (-1, 0)
    first, (a, b) = s.stencil(lo, hi)
    return GridSeq(b - a, s.grid.other(), s.topology, first)


@dataclass(frozen=True)
class Polygon3:
    """Ordered vertices in 3-space on the vertex grid."""

    vertices: GridSeq

    def __post_init__(self):
        v = self.vertices
        if v.grid is not Grid.VERTEX:
            raise GeometryError("polygon vertices must live on the vertex grid")
        a = v.values
        if a.ndim != 2 or a.shape[1] != 3:
            raise GeometryError("polygon vertices must be 3-vectors")
        d = self._sides
        bad = np.linalg.norm(d.values, axis=1) == 0.0
        if bad.any():
            raise DegenerateVertexError(d.base + int(np.argmax(bad)))

    @classmethod
    def from_points(cls, points, closed: bool = False) -> "Polygon3":
        topo = Topology.CLOSED if closed else Topology.OPEN
        return cls(GridSeq(points, Grid.VERTEX, topo))

    @property
    def points(self) -> np.ndarray:
        return self.vertices.values

    @property
    def topology(self) -> Topology:
        return self.vertices.topology

    @property
    def closed(self) -> bool:
        return self.vertices.topology is Topology.CLOSED

    def __len__(self) -> int:
        return len(self.vertices)

    def sides(self) -> GridSeq:
        """Edge vectors on the side grid."""
        return self._sides

    def diameter(self) -> float:
        return self._diameter

    # the vertices are frozen, so what derives from them is computed once
    @cached_property
    def _sides(self) -> GridSeq:
        return forward_diff(self.vertices)

    @cached_property
    def _diameter(self) -> float:
        p = self.points
        return float(np.linalg.norm(p.max(axis=0) - p.min(axis=0)))
