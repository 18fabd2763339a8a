"""Parallel Darboux fields and the osculating developable of a framed polygon.

A framed polygon models a polygonal line drawn on a polyhedron with planar
quadrilateral faces: each vertex carries the direction of the polyhedron
edge through it, and each side together with the two adjacent directions
spans the (planar) face containing that side.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    cross3,
    det3,
    face_solve,
    median,
)
from .meshes import Mesh

__all__ = [
    "FramedPolygon",
    "DarbouxField",
    "FrameReport",
    "DegenerateFrameError",
    "SurfaceKind",
    "OsculatingClass",
    "validate_frame",
    "parallel_darboux",
    "osculating_points",
    "osculating_developable",
    "classify_osculating",
]

TOL_FACE_DEFAULT = 1e-8
# relative sigma spread below which the surface is a cone (or cylinder)
CLASSIFY_TOL = 1e-6
# relative gap allowed between the two evaluations of an osculating point
OSCULATING_AGREEMENT_TOL = 1e-10


class DegenerateFrameError(GeometryError):
    """The Darboux recursion is singular at some side."""

    def __init__(self, side: int, reason: str):
        self.side = side
        super().__init__(f"side {side}: {reason}")


@dataclass(frozen=True)
class FramedPolygon:
    """Polygon plus a transversal edge direction per vertex."""

    polygon: Polygon3
    directions: GridSeq

    def __post_init__(self):
        d = self.directions
        if d.grid is not Grid.VERTEX or len(d) != len(self.polygon):
            raise GeometryError("directions must sit on the polygon's vertex grid")
        if d.topology is not self.polygon.topology:
            raise GeometryError("directions and polygon topology disagree")
        norms = np.linalg.norm(d.values, axis=1)
        if np.any(norms == 0.0):
            raise GeometryError("zero direction vector")

    @classmethod
    def build(cls, points, directions, closed: bool = False) -> "FramedPolygon":
        topo = Topology.CLOSED if closed else Topology.OPEN
        return cls(Polygon3.from_points(points, closed),
                   GridSeq(directions, Grid.VERTEX, topo))

    @classmethod
    def silhouette(cls, points, apex=(0.0, 0.0, 0.0), closed: bool = False) -> "FramedPolygon":
        """Frame a polygon by the lines through a fixed point (cone edges)."""
        pts = np.asarray(points, dtype=float)
        return cls.build(pts, pts - np.asarray(apex, dtype=float), closed)

    @cached_property
    def unit_directions(self) -> np.ndarray:
        d = self.directions.values
        unit = d / np.linalg.norm(d, axis=1, keepdims=True)
        unit.flags.writeable = False
        return unit

    @property
    def closed(self) -> bool:
        return self.polygon.closed

    def n_sides(self) -> int:
        n = len(self.polygon)
        return n if self.closed else n - 1


@dataclass(frozen=True)
class DarbouxField:
    """Parallel Darboux vectors per vertex and sigma per side.

    ``holonomy`` is the around-the-loop scale mismatch for closed
    polygons (None when open): the ratio s(N)/s(0) of the recursion
    continued once around, which is 1 for a globally consistent field.
    """

    xi: GridSeq
    sigma: GridSeq
    holonomy: float | None = None


def once_per_field(evaluate):
    """Evaluate ``evaluate(f, df)`` once for a framed polygon and its field.

    Both are frozen, so the result is kept on the field ``df`` with the
    polygon it was evaluated on, and a later call with the same pair
    returns that same object; a call with another polygon evaluates again
    and keeps the new result.  ``analyze`` reads the Darboux volumes and
    the osculating points in two places each and pays for them once.
    """
    @functools.wraps(evaluate)
    def memo(f, df):
        kept = df.__dict__.setdefault("_once_per_field", {})
        on, value = kept.get(evaluate, (None, None))
        if on is not f:
            value = evaluate(f, df)
            kept[evaluate] = (f, value)
        return value
    return memo


@dataclass(frozen=True)
class FrameReport:
    """Per-side coplanarity residuals and per-vertex transversality margins."""

    coplanarity: np.ndarray
    transversality: np.ndarray
    bad_sides: list
    bad_vertices: list
    tol_face: float

    @property
    def ok(self) -> bool:
        return not self.bad_sides and not self.bad_vertices


def validate_frame(f: FramedPolygon, tol_face: float = TOL_FACE_DEFAULT) -> FrameReport:
    """Check the planar-quadrilateral-face hypothesis and transversality.

    Coplanarity residual per side is |det(side, d_left, d_right)|
    normalized by the product of the three norms; transversality margin
    per vertex is the smallest sine of the angle between the direction
    and its adjacent sides.
    """
    e = f.polygon.sides().values
    eh = e / np.linalg.norm(e, axis=1, keepdims=True)
    n, nsides = len(f.polygon), len(e)
    _, (dl, dr) = f.directions.with_values(f.unit_directions).stencil(0, 1)
    cop = np.abs(det3(eh, dl, dr))

    def on_vertices(side_values):
        out = np.full(n, np.inf)
        out[:nsides] = side_values
        return out

    # side k meets direction k at its near end and direction k+1 at its far end
    margins = np.minimum(on_vertices(np.linalg.norm(cross3(dl, eh), axis=1)),
                         np.roll(on_vertices(np.linalg.norm(cross3(dr, eh), axis=1)), 1))
    return FrameReport(cop, margins, np.flatnonzero(cop > tol_face).tolist(),
                       np.flatnonzero(margins <= tol_face).tolist(), tol_face)


def parallel_darboux(f: FramedPolygon, seed_scale: float = 1.0,
                     tol_face: float = TOL_FACE_DEFAULT) -> DarbouxField:
    """Compute the parallel Darboux vector field and sigma per side.

    The field is fixed by ``xi(0) = seed_scale * d(0)/|d(0)|`` and the
    per-side recursion obtained from decomposing each side in the face
    basis of its two end directions (``core.face_solve``): with
    side = p*d0 + q*d1,

        s_next = -q * s / p,   sigma = s / p,

    so the scales are ``seed_scale`` times a cumulative product.  Scaling
    the seed scales both xi and sigma linearly.  A side whose step leaves
    a scale or sigma non-finite raises ``DegenerateFrameError``.
    """
    if seed_scale == 0.0:
        raise GeometryError("seed_scale must be nonzero")
    report = validate_frame(f, tol_face)
    if not report.ok:
        raise GeometryError(
            f"frame validation failed (sides {report.bad_sides}, vertices {report.bad_vertices})")

    e = f.polygon.sides().values
    dh = f.unit_directions
    n, nsides = len(dh), len(e)
    _, (d0, d1) = f.directions.with_values(dh).stencil(0, 1)
    p, q = face_solve(e, d0, d1)
    # parallel end directions: prism-like face, xi is constant along it
    # and sigma vanishes
    parallel = np.linalg.norm(cross3(d0, d1), axis=1) <= 1e-12
    singular = ~parallel & (np.abs(p) <= 1e-14 * (np.abs(q) + 1.0))
    if singular.any():
        raise DegenerateFrameError(int(np.argmax(singular)),
                                   "side parallel to far direction, recursion singular")

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.where(parallel, np.sign(np.einsum("ij,ij->i", d0, d1)), -q / p)
        # s(0), then the scale at the far end of each side
        scales = np.cumprod(np.concatenate([[seed_scale], ratio]))
        sigma = np.where(parallel, 0.0, scales[:nsides] / p)
    overflow = ~(np.isfinite(scales[1:]) & np.isfinite(sigma))
    if overflow.any():
        raise DegenerateFrameError(int(np.argmax(overflow)),
                                   "the Darboux recursion overflows (scale or sigma not finite)")

    topo = f.polygon.topology
    xi = GridSeq(scales[:n, None] * dh, Grid.VERTEX, topo)
    holonomy = float(scales[-1] / seed_scale) if f.closed else None
    return DarbouxField(xi, GridSeq(sigma, Grid.SIDE, topo), holonomy)


def osculating_points(f: FramedPolygon, df: DarbouxField):
    """Intersections of consecutive Darboux support lines, one per side.

    Each point evaluates as ``phi(k) + xi(k)/sigma(k)`` and equivalently
    from the far vertex; the midpoint of the two evaluations is returned.
    Sides with ``sigma = 0`` have no finite intersection (parallel
    support lines) and come back as NaN rows, with their indices listed
    separately.  The points are evaluated once per polygon and field.
    """
    seq, at_infinity = _osculating_points(f, df)
    return seq, list(at_infinity)


@once_per_field
def _osculating_points(f: FramedPolygon, df: DarbouxField):
    sigma = df.sigma.values
    _, (p0, p1) = f.polygon.vertices.stencil(0, 1)
    _, (x0, x1) = df.xi.stencil(0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        at_infinity = ~np.isfinite(1.0 / sigma)
        o1 = p0 + x0 / sigma[:, None]
        o2 = p1 + x1 / sigma[:, None]
        gap = np.linalg.norm(o1 - o2, axis=1)
        ref = np.maximum(np.maximum(np.linalg.norm(o1 - p0, axis=1), np.linalg.norm(o2 - p1, axis=1)),
                         f.polygon.diameter())
    bad = ~at_infinity & (gap > OSCULATING_AGREEMENT_TOL * ref)
    if bad.any():
        k = int(np.argmax(bad))
        raise GeometryError(
            f"side {k}: the two support-line evaluations disagree (gap {gap[k]:.3e})")
    out = np.where(at_infinity[:, None], np.nan, 0.5 * (o1 + o2))
    seq = GridSeq(out, Grid.SIDE, f.polygon.topology, finite=not at_infinity.any())
    return seq, tuple(np.flatnonzero(at_infinity).tolist())


def osculating_developable(f: FramedPolygon, df: DarbouxField,
                           extent: float | None = None) -> Mesh:
    """Ruled mesh of the faces between consecutive Darboux support lines.

    One planar quad per side, bounded by the support lines through the
    two end vertices, truncated to parameter |u| <= extent along the
    unit Darboux directions.
    """
    if extent is None:
        extent = 2.0 * f.polygon.diameter()
    xi = df.xi.values
    nsides = f.n_sides()
    _, (p0, p1) = f.polygon.vertices.stencil(0, 1)
    unit = df.xi.with_values(extent * (xi / np.linalg.norm(xi, axis=1, keepdims=True)))
    _, (x0, x1) = unit.stencil(0, 1)
    quads = np.stack([p0 - x0, p0 + x0, p1 + x1, p1 - x1], axis=1)
    return Mesh(quads.reshape(-1, 3), np.arange(4 * nsides).reshape(nsides, 4).tolist())


class SurfaceKind(enum.Enum):
    CONE = "cone"
    CYLINDER = "cylinder"
    GENERAL = "general"


@dataclass(frozen=True)
class OsculatingClass:
    kind: SurfaceKind
    quality: float
    apex: np.ndarray | None = None


def classify_osculating(df: DarbouxField, f: FramedPolygon) -> OsculatingClass:
    """Cone / cylinder / general classification of the osculating surface.

    Quality is the relative spread of sigma, (max-min)/median|sigma|;
    zero for a perfect silhouette.  The cone branch reports the apex
    (mean of the support-line intersections).
    """
    sigma = df.sigma.values
    med = median(np.abs(sigma))
    spread = float(sigma.max() - sigma.min())

    if med > 0 and spread / med <= CLASSIFY_TOL and (np.abs(sigma) > CLASSIFY_TOL * med).all():
        pts, _ = osculating_points(f, df)
        apex = pts.values.mean(axis=0)
        return OsculatingClass(SurfaceKind.CONE, spread / med, apex)

    xi_scale = median(np.linalg.norm(df.xi.values, axis=1))
    edge_scale = median(np.linalg.norm(f.polygon.sides().values, axis=1))
    if np.max(np.abs(sigma)) <= CLASSIFY_TOL * (xi_scale / edge_scale):
        return OsculatingClass(SurfaceKind.CYLINDER, 0.0)

    quality = spread / med if med > 0 else np.inf
    return OsculatingClass(SurfaceKind.GENERAL, quality)
