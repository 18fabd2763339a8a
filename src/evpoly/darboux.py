"""Parallel Darboux fields and the osculating developable of a framed polygon.

A framed polygon models a polygonal line drawn on a polyhedron with planar
quadrilateral faces: each vertex carries the direction of the polyhedron
edge through it, and each side together with the two adjacent directions
spans the (planar) face containing that side.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    cross3,
    dot3,
    face_solve,
    median,
    norm3,
    require_coordinates,
    row_mean,
)
from .meshes import Mesh

__all__ = [
    "FramedPolygon",
    "DarbouxField",
    "SurfaceKind",
    "OsculatingClass",
    "validate_frame",
    "parallel_darboux",
    "osculating_points",
    "osculating_developable",
    "classify_osculating",
]

# face residual above which, and vertex margin at or below which, a frame is refused
TOL_FACE = 1e-8
# relative sigma spread below which the surface is a cone (or cylinder)
CLASSIFY_TOL = 1e-6
_TINY = np.finfo(float).tiny  # 2^-1022, the smallest normal float64


@dataclass(frozen=True)
class FramedPolygon:
    """Polygon plus a transversal edge direction per vertex.

    ``direction_lengths`` holds |d| of every direction, read-only.
    """

    polygon: Polygon3
    directions: GridSeq
    direction_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.directions
        if d.grid is not Grid.VERTEX or len(d) != len(self.polygon):
            raise GeometryError("directions must sit on the polygon's vertex grid")
        if d.topology is not self.polygon.topology:
            raise GeometryError("directions and polygon topology disagree")
        if d.values.shape != self.polygon.points.shape:
            raise GeometryError("directions must be 3-vectors")
        require_coordinates(d.values, "direction")
        lengths = norm3(d.values)
        if not np.logical_and.reduce(lengths):  # lengths >= 0: the first zero is the first minimum
            k = int(np.argmin(lengths))
            if not np.logical_or.reduce(d.values[k]):
                raise GeometryError("zero direction vector")
            raise GeometryError(f"vertex {d.base + k}: its direction's length underflows to 0, "
                                "though the direction is not zero")
        lengths.setflags(write=False)
        object.__setattr__(self, "direction_lengths", lengths)

    @classmethod
    def build(cls, points, directions, closed: bool = False) -> "FramedPolygon":
        topo = Topology.CLOSED if closed else Topology.OPEN
        return cls(Polygon3.from_points(points, closed),
                   GridSeq(np.array(directions, dtype=float), Grid.VERTEX, topo))

    @classmethod
    def silhouette(cls, points, apex=(0.0, 0.0, 0.0), closed: bool = False) -> "FramedPolygon":
        """Frame a polygon by the lines through a fixed point (cone edges)."""
        pts = np.asarray(points, dtype=float)
        apex = np.asarray(apex, dtype=float)
        if apex.shape != (3,):
            raise GeometryError(f"apex must be one 3-vector, got shape {apex.shape}")
        if not np.logical_and.reduce(np.isfinite(apex)):
            raise GeometryError("non-finite apex")
        # the points are checked first: within COORD_MAX, their difference
        # with a finite apex cannot overflow.  It is a fresh array, so
        # unlike the points it is not copied
        polygon = Polygon3.from_points(pts, closed)
        directions = pts - apex
        return cls(polygon, GridSeq(directions, Grid.VERTEX, polygon.topology))

    @cached_property
    def unit_directions(self) -> GridSeq:
        d = self.directions.values
        return self.directions.with_values(d / self.direction_lengths[:, None])

    @cached_property
    def face_normals(self) -> np.ndarray:
        """n(k) = d(k) x d(k+1) of the unit directions, one read-only row per side."""
        _, (d0, d1) = self.unit_directions.stencil(0, 1)
        n = cross3(d0, d1)
        n.setflags(write=False)
        return n

    @property
    def closed(self) -> bool:
        return self.polygon.closed


@dataclass(frozen=True)
class DarbouxField:
    """Parallel Darboux vectors per vertex and sigma per side of ``frame``.

    The field is parallel: on every side k,

        xi(k+1) - xi(k) = -sigma(k) * e(k),

    with e(k) the side vector, up to the face residual of side k, which
    ``validate_frame`` bounds or refuses (the one check of the planar
    faces, so O, mu and Q are taken from the near end of each side); a
    field built by hand is not checked.  The field is fixed up to one
    constant: what does not depend on its size reads the frame and ``p``,
    each side's p in side = p d(k) + q d(k+1) (unit d; read-only, NaN on
    parallel faces).

    The frame holds no reference back to the field, so the pair forms
    no reference cycle (``cli.main`` runs with the collector paused).

    ``holonomy`` is the around-the-loop scale mismatch for closed
    polygons (None when open): the ratio s(N)/s(0) of the recursion
    continued once around, which is 1 for a globally consistent field.
    """

    frame: FramedPolygon
    xi: GridSeq
    sigma: GridSeq
    p: np.ndarray
    holonomy: float | None = None


def once_per_field(evaluate):
    """Evaluate ``evaluate(df)`` once per Darboux field.

    The field is frozen, so the result is kept on it and a later call
    returns that same object.  ``analyze`` reads the Darboux volumes, the
    osculating points and the Frenet data in two places each and pays
    for them once.
    """
    @functools.wraps(evaluate)
    def memo(df):
        kept = df.__dict__.setdefault("_once_per_field", {})
        if evaluate not in kept:
            kept[evaluate] = evaluate(df)
        return kept[evaluate]
    return memo


def validate_frame(f: FramedPolygon) -> None:
    """Check the planar-quadrilateral-face hypothesis and transversal directions.

    The face residual per side is |det(side, d_left, d_right)|
    normalized by the product of the three norms: the unit side dotted
    with the face normal by ``core.dot3``, in ``det3``'s order; the margin
    per vertex is the smallest sine of the angle between the direction and
    its adjacent sides.  The frame is refused, by one ``GeometryError``
    naming them all, if a side's residual exceeds ``TOL_FACE`` or a
    vertex's margin does not.
    """
    e = f.polygon.sides().values
    eh = e / f.polygon.side_lengths[:, None]
    nf = f.face_normals
    n, nsides = len(f.polygon), len(e)
    _, (dl, dr) = f.unit_directions.stencil(0, 1)
    cop = np.abs(dot3(eh, nf))

    # side k meets direction k at its near end and direction k+1 at its far end,
    # so vertex k has margins near(k) and far(k-1); an open end vertex has one
    near, far = norm3(cross3(dl, eh)), norm3(cross3(dr, eh))
    margins = np.empty(n)
    margins[0], margins[-1] = near[0], far[-1]
    np.minimum(near[1:], far[:-1], out=margins[1:nsides])
    if f.closed:
        np.minimum(near[:1], far[-1:], out=margins[:1])
    sides = (cop > TOL_FACE).nonzero()[0].tolist()
    vertices = (margins <= TOL_FACE).nonzero()[0].tolist()
    if sides or vertices:
        raise GeometryError(f"frame validation failed (sides {sides}, vertices {vertices})")


def parallel_darboux(f: FramedPolygon) -> DarbouxField:
    """Compute the parallel Darboux vector field and sigma per side.

    The field is fixed by ``xi(0) = d(0)/|d(0)|`` and the
    per-side recursion obtained from decomposing each side in the face
    basis of its two end directions (``core.face_solve``): with
    side = p*d0 + q*d1,

        s_next = -q * s / p,   sigma = s / p,

    so the scales are a cumulative product.  ``validate_frame`` refuses
    the frame first; then a scale outside float64's normal range, or a
    sigma not finite, raises ``GeometryError``.
    """
    validate_frame(f)

    e = f.polygon.sides().values
    dh = f.unit_directions
    n, nsides = len(dh), len(e)
    _, (d0, d1) = dh.stencil(0, 1)
    nf = f.face_normals
    p, q = face_solve(e, d0, d1, nf)
    # parallel end directions: prism-like face, xi is constant along it
    # and sigma vanishes
    parallel = norm3(nf) <= 1e-12
    any_parallel = np.logical_or.reduce(parallel)

    # s(0), then the scale at the far end of each side: the ratios, then
    # their cumulative product in the same buffer
    scales = np.empty(nsides + 1)
    scales[0] = 1.0
    ratio = scales[1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(np.negative(q), p, out=ratio)
        if any_parallel:
            ratio[parallel] = np.sign(dot3(d0[parallel], d1[parallel]))
        np.multiply.accumulate(scales, out=scales)  # np.cumprod without its wrapper
        sigma = scales[:nsides] / p
        if any_parallel:
            sigma[parallel], p[parallel] = 0.0, np.nan
        size = np.abs(scales[1:])
        normal = (size >= _TINY) & (size < np.inf) & np.isfinite(sigma)
    if not np.logical_and.reduce(normal):
        k = int(np.argmin(normal))
        raise GeometryError(f"side {k}: the Darboux recursion " + (
            "underflows (scale below 2^-1022)" if size[k] < _TINY
            else "overflows (scale or sigma not finite)"))
    p.setflags(write=False)

    topo = f.polygon.topology
    xi = GridSeq(scales[:n, None] * dh.values, Grid.VERTEX, topo)
    holonomy = float(scales[-1]) if f.closed else None
    return DarbouxField(f, xi, GridSeq(sigma, Grid.SIDE, topo), p, holonomy)


@once_per_field
def osculating_points(df: DarbouxField) -> GridSeq:
    """Intersections of consecutive Darboux support lines, one per side.

    Each point is taken from the side's near end, O(k) = P(k) + p(k) d(k)
    (``DarbouxField.p``): P(k) + xi(k)/sigma(k) without the field's size.
    The far end gives the same point up to the face residual, which
    ``validate_frame`` bounds.  Parallel faces (p is NaN) come back as NaN
    rows, points at infinity.  The points are evaluated once per field.
    """
    f, m = df.frame, len(df.p)
    out = f.polygon.points[:m] + df.p[:, None] * f.unit_directions.values[:m]
    return GridSeq(out, Grid.SIDE, f.polygon.topology)


def osculating_developable(df: DarbouxField) -> Mesh:
    """Ruled mesh of the faces between consecutive Darboux support lines.

    One planar quad per side, bounded by the support lines through the
    two end vertices, truncated to |u| <= extent, twice the polygon's
    diameter, along the rulings sign(xi . d) d of the unit directions d
    (``core.dot3``).  The mesh holds
    the rows P(k) - X(k) and P(k) + X(k) of each vertex once; quad k has
    the corners 2k, 2k+1, 2k+3, 2k+2 (mod 2m on a closed polygon of m
    vertices), and each quad keeps its own four OBJ ``v`` records.
    """
    f = df.frame
    extent = 2.0 * f.polygon.diameter()
    p = f.polygon.points
    xi, d = df.xi.values, f.unit_directions.values
    x = extent * np.sign(dot3(xi, d))[:, None] * d
    rows = np.stack([p - x, p + x], axis=1).reshape(-1, 3)
    nsides = len(f.polygon.sides())
    k2 = 2 * np.arange(nsides)
    corners = np.stack([k2, k2 + 1, k2 + 3, k2 + 2], axis=1) % len(rows)
    return Mesh(rows, np.arange(4 * nsides).reshape(nsides, 4), v_rows=corners)


class SurfaceKind(enum.Enum):
    CONE = "cone"
    CYLINDER = "cylinder"
    GENERAL = "general"


@dataclass(frozen=True)
class OsculatingClass:
    kind: SurfaceKind
    apex: np.ndarray | None = None


def classify_osculating(df: DarbouxField) -> OsculatingClass:
    """Cone / cylinder / general classification of the osculating surface.

    The surface is a cone when the relative spread of sigma,
    (max-min)/median|sigma|, is within ``CLASSIFY_TOL``; the cone branch
    reports the apex (mean of the support-line intersections).  A cylinder
    has every |sigma| within ``CLASSIFY_TOL`` of median |xi . d| per side length.
    """
    sigma = df.sigma.values
    size = np.abs(sigma)
    med = median(size)
    spread = float(np.maximum.reduce(sigma) - np.minimum.reduce(sigma))

    if med > 0 and spread / med <= CLASSIFY_TOL:
        apex = row_mean(osculating_points(df).values)
        return OsculatingClass(SurfaceKind.CONE, apex)

    xi, d = df.xi.values, df.frame.unit_directions.values
    xi_scale = median(np.abs(dot3(xi, d)))
    edge_scale = median(df.frame.polygon.side_lengths)
    if np.maximum.reduce(size) <= CLASSIFY_TOL * (xi_scale / edge_scale):
        return OsculatingClass(SurfaceKind.CYLINDER)
    return OsculatingClass(SurfaceKind.GENERAL)
