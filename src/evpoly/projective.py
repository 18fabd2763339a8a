"""Discrete projective length of planar polygons via equal-volume lifts.

A convex planar polygon, viewed in the z = 1 slice, is rescaled per
vertex so consecutive vertex triples span constant volume about the
origin.  The third-order invariants of that representative give two
estimators of the projective length, pl1 and pl2, whose cube-root terms
approach the smooth integrand per side as the sampling refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import (
    ExampleSpiral,
    ExampleSpiralRepresentative,
    GridScheme,
    sample_curve,
)
from .core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    det2,
    det3,
    forward_diff,
    require_finite,
)
from .invariants import centroaffine_frenet

__all__ = [
    "PlanarProjectivePolygon",
    "ProjectiveLengthReport",
    "InflectionError",
    "LiftNormalization",
    "b_sequence",
    "default_normalization",
    "lift_representative",
    "projective_lengths",
    "table1_experiment",
    "spiral_analytic_normalization",
]


class InflectionError(GeometryError):
    """A vertex determinant b(i) is nonpositive (convexity hypothesis fails)."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"vertex {index}: b = {value:.3e} <= 0, polygon has an inflection")


@dataclass(frozen=True)
class PlanarProjectivePolygon:
    """Planar polygon with its per-vertex convexity determinants b(i)."""

    vertices: GridSeq
    b: GridSeq

    @classmethod
    def from_vertices(cls, points, closed: bool = False) -> "PlanarProjectivePolygon":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError("planar polygon vertices must be 2-vectors")
        require_finite(pts, "coordinate")
        topo = Topology.CLOSED if closed else Topology.OPEN
        v = GridSeq(pts, Grid.VERTEX, topo)
        return cls(v, b_sequence(v))

    @property
    def closed(self) -> bool:
        return self.vertices.topology is Topology.CLOSED


def b_sequence(poly: GridSeq) -> GridSeq:
    """Consecutive edge-pair determinants b(i) = [phi'(i-1/2), phi'(i+1/2)].

    Takes the planar vertices as a vertex GridSeq.  Raises on any b <= 0.
    """
    if len(poly) < 3:
        raise GeometryError("need at least 3 vertices")
    first, (e_left, e_right) = forward_diff(poly).stencil(-1, 0)
    b = det2(e_left, e_right)
    bad = b <= 0.0
    if bad.any():
        j = int(np.argmax(bad))
        raise InflectionError(first + j, float(b[j]))
    return GridSeq(b, Grid.VERTEX, poly.topology, first)


@dataclass(frozen=True)
class LiftNormalization:
    """Seed scales for the first two vertices and the target volume c."""

    a1: float
    a2: float
    c: float
    label: str = "unit-seed"


def default_normalization(poly: PlanarProjectivePolygon) -> LiftNormalization:
    """Unit seeds with c the geometric mean of the raw triple volumes."""
    pts = poly.vertices.values
    raw = np.column_stack([pts, np.ones(len(pts))])
    vols = det3(raw[:-2], raw[1:-1], raw[2:])
    if np.any(vols <= 0):
        raise InflectionError(int(np.argmin(vols)) + 1, float(vols.min()))
    c = float(np.exp(np.mean(np.log(vols))))
    return LiftNormalization(1.0, 1.0, c, "unit-seed")


def spiral_analytic_normalization(t0: float, h: float) -> LiftNormalization:
    """Seeds and c from the spiral's analytic equal-volume representative."""
    rep = ExampleSpiralRepresentative()
    t = t0 + h * np.arange(3)
    p = rep(t)
    a = 2.0 ** (-1.0 / 3.0) * np.exp(2.0 * t / 3.0)
    return LiftNormalization(float(a[0]), float(a[1]),
                             float(det3(p[0], p[1], p[2])), "analytic-seed")


# det3 sums six triple products, so with every coordinate at most this
# large neither a product nor a partial sum can overflow
LIFT_COORD_MAX = float(np.cbrt(np.finfo(float).max / 6.0))


def lift_representative(poly: PlanarProjectivePolygon, norm: LiftNormalization) -> Polygon3:
    """Equal-volume space representative phi(i) = a(i) (vertex(i), 1).

    The scales follow a(i+1) = c / (a(i-1) a(i) b(i)) from the two seeds,
    which makes every consecutive triple volume about the origin exactly
    c.  Dividing two consecutive steps telescopes the recursion to
    a(i+2) = a(i-1) b(i) / b(i+1), so each residue class of vertices
    mod 3 is one cumulative product of b ratios started at its seed
    a(0), a(1) or a(2).  Only open polygons are lifted (the recursion
    has a closure obstruction on loops).  A lift with a coordinate
    beyond ``LIFT_COORD_MAX`` is refused at its first such vertex.
    """
    if poly.closed:
        raise GeometryError("representative lift is defined for open polygons")
    if norm.a1 <= 0 or norm.a2 <= 0 or norm.c <= 0:
        raise GeometryError("lift seeds and volume constant must be positive")
    pts = poly.vertices.values
    n = len(pts)
    b = poly.b.window(1, n - 2)
    a = np.empty(n)
    with np.errstate(all="ignore"):
        a[0], a[1] = norm.a1, norm.a2
        a[2] = norm.c / (norm.a1 * norm.a2 * b[0])
        ratio = b[:-1] / b[1:]
        for s in range(3):
            # Lead the product with the power of two at or below a(s), then
            # scale by a(s) / lead.  Every partial product stays within a
            # factor 2 of its scale, so it leaves the float range only where
            # the scale does.  Scaling by a power of two is exact, so the
            # chain is a(s) times a ratio product that no seed affects: the
            # lift is homogeneous in its seeds to a few roundings at any N.
            lead = np.ldexp(0.5, np.frexp(a[s])[1])
            a[s::3] = a[s] / lead * np.cumprod(np.concatenate(([lead], ratio[s::3])))
        lifted = a[:, None] * np.column_stack([pts, np.ones(n)])
    ok = np.isfinite(a) & (a > 0.0)
    if not ok.all():
        raise GeometryError(f"vertex {int(np.argmin(ok))}: lift recursion overflowed")
    size = np.abs(lifted).max(axis=1)
    big = size > LIFT_COORD_MAX
    if big.any():
        k = int(np.argmax(big))
        raise GeometryError(f"vertex {k}: lifted coordinate {size[k]:.3e} exceeds "
                            f"{LIFT_COORD_MAX:.3e}, beyond what det3 can evaluate")
    return Polygon3.from_points(lifted, closed=False)


@dataclass(frozen=True)
class ProjectiveLengthReport:
    pl1: float
    pl2: float
    per_side_terms1: GridSeq
    per_side_terms2: GridSeq
    summation_range: tuple


def projective_lengths(phi: Polygon3) -> ProjectiveLengthReport:
    """Both discrete projective-length sums of an equal-volume polygon.

    Per side the terms are the signed cube roots of rho1'(i+1/2) +
    2 tau(i+1/2) and rho2'(i+1/2) + 2 tau(i+1/2).  For open polygons both
    sums run over the same window: from the first side where the
    narrower of the two estimators is defined through the last side each
    one reaches (pl1 extends one side further on the right).
    """
    if len(phi) < 6:
        raise GeometryError("need at least 6 vertices for projective lengths")
    fr = centroaffine_frenet(phi)
    tau = fr.tau
    d1, d2 = forward_diff(fr.rho1), forward_diff(fr.rho2)
    start = max(d1.base, d2.base, tau.base)
    stop1, stop2 = (min(d.base + len(d), tau.base + len(tau)) - 1 for d in (d1, d2))
    if stop1 < start or stop2 < start:
        raise GeometryError("polygon too short for a nonempty summation window")
    m1, m2 = stop1 + 1 - start, stop2 + 1 - start
    t1 = np.cbrt(d1.window(start, m1) + 2.0 * tau.window(start, m1))
    t2 = np.cbrt(d2.window(start, m2) + 2.0 * tau.window(start, m2))
    topo = phi.topology
    return ProjectiveLengthReport(float(t1.sum()), float(t2.sum()),
                                  GridSeq(t1, Grid.SIDE, topo, start),
                                  GridSeq(t2, Grid.SIDE, topo, start),
                                  (start, stop1))


SPIRAL_SMOOTH_LENGTH = 2.0 * np.pi * 40.0 ** (1.0 / 3.0) / 3.0


def table1_experiment(sizes) -> list:
    """Projective lengths of the spiral for several sampling densities.

    For each N the spiral (exp(-t) cos t, exp(-t) sin t) is sampled on
    [0, 2 pi) with step h = 2 pi / N, lifted with analytic seeds, and
    both length estimators are computed.  Returns rows of
    (N, h, pl1, pl2).
    """
    rows = []
    for N in sizes:
        N = int(N)
        if N < 6:
            raise GeometryError(f"N = {N}: need at least 6 samples")
        h = 2.0 * np.pi / N
        pts = sample_curve(ExampleSpiral(), 0.0, 2.0 * np.pi, N,
                           GridScheme.HALF_OPEN_STEP)
        poly = PlanarProjectivePolygon.from_vertices(pts, closed=False)
        phi = lift_representative(poly, spiral_analytic_normalization(0.0, h))
        rep = projective_lengths(phi)
        rows.append((N, h, rep.pl1, rep.pl2))
    return rows
