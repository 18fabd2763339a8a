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
import errno
import math
import os
import stat
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Topology",
    "GridSeq",
    "COORD_MAX",
    "Polygon3",
    "GeometryError",
    "cross3",
    "det2",
    "det3",
    "dot3",
    "face_solve",
    "forward_diff",
    "median",
    "norm3",
    "read_text",
    "require_coordinates",
    "row_mean",
    "write_text",
]


class GeometryError(ValueError):
    """Base class for geometric/numeric failures in this package."""


class Grid(enum.Enum):
    VERTEX = "vertex"
    SIDE = "side"

    def other(self) -> "Grid":
        return Grid.SIDE if self is Grid.VERTEX else Grid.VERTEX


class Topology(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


_FLOAT = np.dtype(float)


def _floats(x) -> np.ndarray:
    """``x`` itself when it is a float64 ndarray, else ``np.asarray(x, dtype=float)``."""
    if type(x) is np.ndarray and x.dtype is _FLOAT:
        return x
    return np.asarray(x, dtype=float)


# os.open's descriptors are already non-inheritable; on Windows, O_BINARY
# keeps the C runtime from translating newlines
_BINARY = getattr(os, "O_BINARY", 0)


def read_text(path) -> str:
    """The file at ``path`` as UTF-8 text, as ``open(path, encoding="utf-8").read()`` gives it.

    The bytes come through a bare file descriptor: open, one ``fstat``
    for the size, one read of one byte more than that, close.  A regular
    file read whole comes back one byte short, and only a file that
    changed size or reports none reads on to its end.  That is three
    system calls fewer than an unbuffered file object's read, and none
    of the text-mode stack's buffer and decoder objects.  A directory is
    refused as ``open`` refuses it, with the path in the message.  The
    bytes are decoded in one piece, so a ``UnicodeDecodeError`` names the
    absolute byte offset, and ``\\r\\n`` and a lone ``\\r`` become
    ``\\n`` as text mode's universal newlines turn them.
    """
    fd = os.open(path, os.O_RDONLY | _BINARY)
    try:
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        data = os.read(fd, st.st_size + 1)
        if len(data) != st.st_size:  # it changed size, or has none (a pipe): read to the end
            chunks = [data]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            data = b"".join(chunks)
    finally:
        os.close(fd)
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def write_text(path, *parts: str | bytes) -> None:
    """Write ``parts`` in turn to the file at ``path`` as UTF-8, replacing it.

    A ``bytes`` part is written as it is; every ``str`` part is encoded before the file is
    opened, so a part that cannot be encoded raises with the path untouched.  The bytes go
    through a bare file descriptor, opened as ``open(path, "w")`` opens
    one (created with mode 0o666 less the umask, or truncated), each
    part until all of it is written, never joined into one copy.  A
    newline is written as ``\\n`` on every platform.
    """
    data = [part if isinstance(part, bytes) else part.encode("utf-8") for part in parts]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _BINARY, 0o666)
    try:
        for chunk in data:
            view = memoryview(chunk)
            while view:
                view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# A side or direction length is the root of three squares, each of a
# coordinate or of a difference of two; with every coordinate at most
# this large in size, their sum is at most 12 COORD_MAX^2, three quarters
# of the float maximum, so no length overflows
COORD_MAX = float(np.sqrt(np.finfo(float).max / 16.0))


def require_coordinates(rows: np.ndarray, what: str) -> None:
    """Raise a GeometryError naming the first vertex whose row is not finite,
    else the first with a coordinate beyond ``COORD_MAX`` in size.

    Coordinates are checked once, where they enter a polygon; the
    sequences derived from them are not scanned again.  Two reductions
    pass every other array, an empty one included: a NaN fails both.
    """
    if not (np.maximum.reduce(rows, axis=None, initial=-math.inf) <= COORD_MAX
            and np.minimum.reduce(rows, axis=None, initial=math.inf) >= -COORD_MAX):
        finite = np.isfinite(rows).all(axis=-1)
        if not finite.all():
            raise GeometryError(f"vertex {int(np.argmin(finite))}: non-finite {what}")
        size = np.abs(rows).max(axis=-1)
        k = int(np.argmax(size > COORD_MAX))
        raise GeometryError(f"vertex {k}: {what} {size[k]:.3e} exceeds COORD_MAX = "
                            f"{COORD_MAX:.3e}, beyond which a length can overflow")


@dataclass(frozen=True, init=False)
class GridSeq:
    """Immutable sequence of scalars or small vectors on a half-integer grid.

    ``values`` has shape ``(n,)`` for scalars or ``(n, d)`` for points in
    d-space.  ``base`` is the polygon slot of entry 0 (always 0 for closed
    sequences).  NaN rows mark points at infinity, such as the meeting
    point of parallel support lines; the values are not scanned, because
    the coordinates they derive from were checked where they entered.
    ``values`` is a read-only view of the array given, which stays
    writeable; the entry points that take coordinates from a caller
    (``Polygon3.from_points``, ``FramedPolygon.build`` and the planar
    ``from_vertices``) copy them first.
    """

    values: np.ndarray
    grid: Grid
    topology: Topology = Topology.OPEN
    base: int = 0

    def __init__(self, values, grid: Grid, topology: Topology = Topology.OPEN, base: int = 0):
        a = _floats(values)
        if a.flags.writeable:  # freeze a view, never the caller's array itself
            a = a.view()
            a.setflags(write=False)
        if topology is Topology.CLOSED and base != 0:
            raise GeometryError("closed sequences must have base 0")
        # the fields in one write, past the frozen __setattr__
        object.__setattr__(self, "__dict__",
                           {"values": a, "grid": grid, "topology": topology, "base": base})

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
        """Values at slots ``start .. start+count-1`` (mod N and at most N when closed).

        A read-only view of ``values``, except for a closed window that
        wraps past the last slot, which is a new array.
        """
        j = start - self.base
        if self.topology is Topology.CLOSED:
            if count > len(self.values):
                raise IndexError(f"{count} slots from {start}, more than the "
                                 f"{len(self.values)} of a closed sequence")
            j %= len(self.values)
            if j + count <= len(self.values):
                return self.values[j:j + count]
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
        v, lo = self.values, min(offsets)
        if self.topology is Topology.CLOSED:
            return 0, [self.window(o, len(v)) for o in offsets]
        count = len(v) - max(offsets) + lo
        if count < 1:
            raise GeometryError(f"need more than {len(v)} entries for offsets {offsets}")
        return self.base - lo, [v[o - lo:o - lo + count] for o in offsets]

    def with_values(self, values) -> "GridSeq":
        return GridSeq(values, self.grid, self.topology, self.base)


def det3(u, v, w) -> float | np.ndarray:
    """Signed volume of the parallelepiped spanned by three 3-vectors.

    Accepts stacked arrays of shape (..., 3) and broadcasts.  It rounds as

        u0 (v1 w2 - v2 w1) - u1 (v0 w2 - v2 w0) + u2 (v0 w1 - v1 w0)

    evaluated left to right, with the steps written into three buffers
    instead of a new array each.
    """
    u, v, w = _floats(u), _floats(v), _floats(w)
    if not u.shape == v.shape == w.shape:
        u, v, w = np.broadcast_arrays(u, v, w)  # every step then has the result's shape
    if u.ndim == 1:  # one triple: the same steps on one row
        return float(det3(u[None], v[None], w[None])[0])
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    mul, sub = np.multiply, np.subtract  # the third argument of each is its output
    r, t = mul(v1, w2), mul(v2, w1)
    sub(r, t, r)
    mul(u0, r, r)
    mul(v0, w2, t)
    s = mul(v2, w0)
    sub(t, s, t)
    mul(u1, t, t)
    sub(r, t, r)
    mul(v0, w1, t)
    mul(v1, w0, s)
    sub(t, s, t)
    mul(u2, t, t)
    return np.add(r, t, r)


def cross3(u, v) -> np.ndarray:
    """Cross product of 3-vectors, written out like ``det3``.

    Accepts stacked arrays of shape (..., 3) and broadcasts.  It rounds
    as ``np.cross`` does, so the two agree bit for bit, without
    ``np.cross``'s fixed cost of moving axes and allocating.
    """
    u, v = _floats(u), _floats(v)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.broadcast(u, v).shape)
    np.subtract(u1 * v2, u2 * v1, out=out[..., 0])
    np.subtract(u2 * v0, u0 * v2, out=out[..., 1])
    np.subtract(u0 * v1, u1 * v0, out=out[..., 2])
    return out


def dot3(a, b) -> np.ndarray:
    """Dot product of 3-vectors over the last axis, (a0*b0 + a1*b1) + a2*b2, broadcasting.

    The package's sums of products all round here, in this one order, where
    ``np.einsum``'s and ``np.dot``'s follow the memory layout and the BLAS build.
    """
    a, b = _floats(a), _floats(b)
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def norm3(x) -> np.ndarray:
    """Euclidean length of each 3-vector, ``np.sqrt(dot3(x, x))``.

    Bit for bit ``np.linalg.norm(x, axis=-1)`` (overflow, inf and NaN included),
    which sums the squares in the same order, without its fixed cost.
    """
    return np.sqrt(dot3(x, x))


def row_mean(x) -> np.ndarray:
    """Mean of the rows of a 2-D array, or of the entries of a 1-D one.

    Equal to ``x.mean(axis=0)`` bit for bit: numpy's mean is this same
    ``np.add.reduce`` divided by the row count, behind a fixed cost of
    about twice the reduction on the short arrays of one polygon.
    """
    return np.add.reduce(x, axis=0) / len(x)


def median(x) -> float:
    """Median of a 1-D array by one sort, as a float.

    Equal to ``float(np.median(x))`` bit for bit: the middle value, or the
    mean of the two middle values, with a zero median returned as +0.0
    as numpy's mean returns it; NaN when ``x`` holds a NaN.  It skips
    ``np.median``'s partition, mean and NaN check, which cost about seven
    times the sort itself on the short arrays of one polygon, and sorts a
    copy in place without ``np.sort``'s wrapper.
    """
    s = np.array(x)
    s.sort()
    n = len(s)
    if s[-1] != s[-1]:  # NaN sorts last
        return math.nan
    if n % 2:
        return 0.0 + float(s[n // 2])
    return (0.0 + float(s[n // 2 - 1]) + float(s[n // 2])) / 2.0


def face_solve(v, a, b, n) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(x, y)`` of ``v = x*a + y*b`` in a face plane, per row.

    With the face normal ``n = cross3(a, b)``, which the caller passes:

        x = ((v x b) . n) / |n|^2,   y = ((a x v) . n) / |n|^2

    with |n|^2 from ``dot3``, so ``x*a + y*b`` is the orthogonal projection
    of ``v`` onto the plane of ``a`` and ``b``: the exact solution when ``v``
    lies in that plane and the least-squares one otherwise.  Rows with ``a``
    parallel to ``b``, or whose products overflow, come back non-finite, without a warning.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nn = dot3(n, n)
        return det3(v, b, n) / nn, det3(a, v, n) / nn


def det2(u, v) -> float | np.ndarray:
    """Signed area u0 v1 - u1 v0 of two 2-vectors, or of stacked (..., 2) arrays, broadcast."""
    u, v = _floats(u), _floats(v)
    r = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return float(r) if r.ndim == 0 else r


def _require_two(n: int) -> None:
    """The length a first difference needs; ``Polygon3`` checks its sides by it too."""
    if n < 2:
        raise GeometryError("need at least 2 entries to difference")


def forward_diff(s: GridSeq) -> GridSeq:
    """First difference; output lives on the opposite grid.

    Open input of length n yields n-1 entries; closed yields n (wrapping).
    A vertex-grid difference lands on the side to its right (same base);
    a side-grid difference lands on the vertex between the two sides
    (base shifts by one).
    """
    _require_two(len(s.values))
    lo, hi = (0, 1) if s.grid is Grid.VERTEX else (-1, 0)
    first, (a, b) = s.stencil(lo, hi)
    return GridSeq(b - a, s.grid.other(), s.topology, first)


def _side_lengths(v: GridSeq) -> np.ndarray:
    """``norm3`` of the sides of the vertices ``v``, bit for bit, one column at a time.

    The sides are ``forward_diff``'s, from the stencil ``v.stencil(0, 1)``.
    Squares are summed in ``dot3``'s order, (s0 + s1) + s2, in two
    buffers of one entry per side instead of the (m, 3) sides and their
    squares; an open stencil is a pair of views.
    """
    _, (p0, p1) = v.stencil(0, 1)
    s = np.subtract(p1[:, 0], p0[:, 0])
    np.multiply(s, s, out=s)
    d = np.subtract(p1[:, 1], p0[:, 1])
    np.multiply(d, d, out=d)
    np.add(s, d, out=s)
    np.subtract(p1[:, 2], p0[:, 2], out=d)
    np.multiply(d, d, out=d)
    np.add(s, d, out=s)
    return np.sqrt(s, out=s)


@dataclass(frozen=True)
class Polygon3:
    """Ordered vertices in 3-space on the vertex grid.

    ``side_lengths`` holds |side k| for every side, read-only.  The side
    vectors themselves are built on first use of ``sides()``.
    """

    vertices: GridSeq
    side_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.vertices
        if v.grid is not Grid.VERTEX:
            raise GeometryError("polygon vertices must live on the vertex grid")
        a = v.values
        if a.ndim != 2 or a.shape[1] != 3:
            raise GeometryError("polygon vertices must be 3-vectors")
        require_coordinates(a, "coordinate")
        _require_two(len(a))
        lengths = _side_lengths(v)
        if not np.logical_and.reduce(lengths):  # lengths >= 0: the first zero is the first minimum
            k = int(np.argmin(lengths))
            _, (p0, p1) = v.stencil(0, 1)
            if np.array_equal(p0[k], p1[k]):
                raise GeometryError(f"vertices {v.base + k} and {v.base + k + 1} coincide")
            raise GeometryError(f"side {v.base + k}: its length underflows to 0, though "
                                f"vertices {v.base + k} and {v.base + (k + 1) % len(a)} differ")
        lengths.setflags(write=False)
        object.__setattr__(self, "side_lengths", lengths)

    @classmethod
    def from_points(cls, points, closed: bool = False) -> "Polygon3":
        topo = Topology.CLOSED if closed else Topology.OPEN
        return cls(GridSeq(np.array(points, dtype=float), Grid.VERTEX, topo))

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
        return float(norm3(np.maximum.reduce(p) - np.minimum.reduce(p)))
