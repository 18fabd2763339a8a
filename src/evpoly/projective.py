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
    require_coordinates,
    row_mean,
)
from .invariants import centroaffine_frenet

__all__ = [
    "PlanarProjectivePolygon",
    "ProjectiveLengthReport",
    "LiftNormalization",
    "b_sequence",
    "default_normalization",
    "lift_representative",
    "projective_lengths",
    "table1_experiment",
    "spiral_analytic_normalization",
]


@dataclass(frozen=True)
class PlanarProjectivePolygon:
    """Open planar polygon with its per-vertex convexity determinants b(i).

    It is open because its lift is: the recursion has a closure
    obstruction on loops, so closed vertices are refused.
    """

    vertices: GridSeq
    b: GridSeq

    def __post_init__(self):
        if self.vertices.topology is Topology.CLOSED:
            raise GeometryError("a planar projective polygon is open: its lift has "
                                "a closure obstruction on loops")

    @classmethod
    def from_vertices(cls, points) -> "PlanarProjectivePolygon":
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError("planar polygon vertices must be 2-vectors")
        require_coordinates(pts, "coordinate")
        v = GridSeq(pts, Grid.VERTEX)
        return cls(v, b_sequence(v))


def b_sequence(poly: GridSeq) -> GridSeq:
    """Consecutive edge-pair determinants b(i) = [phi'(i-1/2), phi'(i+1/2)].

    Takes the planar vertices as a vertex GridSeq.  Raises on any b <= 0.
    """
    if len(poly) < 3:
        raise GeometryError("need at least 3 vertices")
    # det2(e_left, e_right) of the sides e_left = p - pm and e_right = pn - p
    # of each vertex, one column at a time: three buffers of one entry per
    # vertex instead of the (n-1, 2) sides of forward_diff(poly)
    first, (pm, p, pn) = poly.stencil(-1, 0, 1)
    b = np.subtract(p[:, 0], pm[:, 0])
    t = np.subtract(pn[:, 1], p[:, 1])
    np.multiply(b, t, out=b)
    np.subtract(p[:, 1], pm[:, 1], out=t)
    np.multiply(t, np.subtract(pn[:, 0], p[:, 0]), out=t)
    np.subtract(b, t, out=b)
    bad = b <= 0.0
    if bad.any():
        j = int(np.argmax(bad))
        raise GeometryError(f"vertex {first + j}: b = {b[j]:.3e} <= 0, polygon has an "
                            "inflection (the positivity hypothesis b(i) > 0 fails)")
    return GridSeq(b, Grid.VERTEX, poly.topology, first)


@dataclass(frozen=True)
class LiftNormalization:
    """Seed scales for the first two vertices, the target volume c, and the seeds' source."""

    a1: float
    a2: float
    c: float
    label: str


def default_normalization(poly: PlanarProjectivePolygon) -> LiftNormalization:
    """Unit seeds with c the geometric mean of the convexity determinants b.

    ``b_sequence`` has already refused any b <= 0, so every logarithm is finite.
    """
    c = float(np.exp(row_mean(np.log(poly.b.values))))  # row_mean is np.mean bit for bit
    return LiftNormalization(1.0, 1.0, c, "unit-seed")


def spiral_analytic_normalization(t0: float, h: float) -> LiftNormalization:
    """Seeds and c from the spiral's analytic equal-volume representative."""
    u, v, w = ExampleSpiralRepresentative()(t0 + h * np.arange(3)).tolist()
    # det3 of the three points, in its order, in Python floats, which round as float64 does
    c = (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
         + u[2] * (v[0] * w[1] - v[1] * w[0]))
    # the z column is each vertex's scale 2^(-1/3) exp(2t/3)
    return LiftNormalization(u[2], v[2], c, "analytic-seed")


# det3 sums six triple products, so with every coordinate at most this
# large neither a product nor a partial sum can overflow
LIFT_COORD_MAX = float(np.cbrt(np.finfo(float).max / 6.0))


def lift_representative(poly: PlanarProjectivePolygon, norm: LiftNormalization) -> Polygon3:
    """Equal-volume space representative phi(i) = a(i) (vertex(i), 1).

    The scales follow a(i+1) = c / (a(i-1) a(i) b(i)) from the two seeds,
    which makes every consecutive triple volume about the origin exactly
    c.  Dividing two consecutive steps telescopes the recursion to
    a(i+2) = a(i-1) b(i) / b(i+1), so each residue class of vertices
    mod 3 is a product of b ratios started at its seed a(0), a(1) or
    a(2): one column of a single cumulative product.  A lift with a
    coordinate beyond ``LIFT_COORD_MAX`` is refused at its first such
    vertex.
    """
    if norm.a1 <= 0 or norm.a2 <= 0 or norm.c <= 0:
        raise GeometryError("lift seeds and volume constant must be positive")
    pts = poly.vertices.values
    n = len(pts)
    b = poly.b.window(1, n - 2)
    # The scales are the z column of ``lifted``, which has rows to a
    # multiple of 3.  Its view ``chain`` holds residue class s in column
    # s: row 0 holds its lead and row k >= 1 the step b(s+3k-2) / b(s+3k-1)
    # from a(s+3k-3) to a(s+3k), so below row 0 the ratios lie in vertex
    # order, padded with 1.0 in the rows past the last vertex.
    rows = -(-n // 3)
    lifted = np.empty((3 * rows, 3))
    chain = lifted.reshape(rows, 3, 3)[:, :, 2]
    a = lifted[:n, 2]
    with np.errstate(all="ignore"):
        seeds = np.array([norm.a1, norm.a2, norm.c / (norm.a1 * norm.a2 * b[0])])
        # Lead each product with the power of two at or below its seed a(s),
        # then scale by a(s) / lead.  Every partial product stays within a
        # factor 2 of its scale, so it leaves the float range only where
        # the scale does.  Scaling by a power of two is exact, so the chain
        # is a(s) times a ratio product that no seed affects: the lift is
        # homogeneous in its seeds to a few roundings at any N.
        lead = np.ldexp(0.5, np.frexp(seeds)[1])
        chain[0] = lead
        np.divide(b[:-1], b[1:], out=a[3:])
        lifted[n:, 2] = 1.0
        np.multiply.accumulate(chain, axis=0, out=chain)  # np.cumprod without its wrapper
        np.multiply(seeds / lead, chain, out=chain)
        lifted = lifted[:n]
        np.multiply(a, pts[:, 0], out=lifted[:, 0])
        np.multiply(a, pts[:, 1], out=lifted[:, 1])
    # Three reductions pass every lift with finite positive scales and no
    # coordinate beyond LIFT_COORD_MAX; any other is refused at its first
    # such vertex.
    top = max(np.maximum.reduce(lifted, axis=None), -np.minimum.reduce(lifted, axis=None))
    if not (np.minimum.reduce(a) > 0.0 and top <= LIFT_COORD_MAX):
        ok = np.isfinite(a) & (a > 0.0)
        if not ok.all():
            raise GeometryError(f"vertex {int(np.argmin(ok))}: lift recursion overflowed")
        size = np.maximum(np.maximum(np.abs(lifted[:, 0]), np.abs(lifted[:, 1])), a)
        k = int(np.argmax(size > LIFT_COORD_MAX))
        raise GeometryError(f"vertex {k}: lifted coordinate {size[k]:.3e} exceeds "
                            f"{LIFT_COORD_MAX:.3e}, beyond what det3 can evaluate")
    return Polygon3(GridSeq(lifted, Grid.VERTEX))  # no copy: nothing else holds ``lifted``


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
    tau, topo = fr.tau, phi.topology
    # rho' of side s is rho(s+1) - rho(s), on the slots of forward_diff(rho):
    # an open difference is one entry shorter than rho, a closed one wraps
    short = topo is Topology.OPEN
    start = max(fr.rho1.base, fr.rho2.base, tau.base)
    stop1, stop2 = (min(r.base + len(r) - short, tau.base + len(tau)) - 1
                    for r in (fr.rho1, fr.rho2))
    m1, m2 = stop1 + 1 - start, stop2 + 1 - start
    two_tau = 2.0 * tau.window(start, max(m1, m2))
    terms = []
    for r, m in ((fr.rho1, m1), (fr.rho2, m2)):
        t = np.subtract(r.window(start + 1, m), r.window(start, m))
        np.add(t, two_tau[:m], out=t)
        terms.append(np.cbrt(t, out=t))
    t1, t2 = terms
    return ProjectiveLengthReport(float(np.add.reduce(t1)), float(np.add.reduce(t2)),
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
        # no names for the samples and the planar polygon: from_vertices
        # copies the samples, which are freed before the lift allocates, and
        # the planar polygon is freed once its lift is built
        phi = lift_representative(
            PlanarProjectivePolygon.from_vertices(
                sample_curve(ExampleSpiral(), 0.0, 2.0 * np.pi, N, GridScheme.HALF_OPEN_STEP)),
            spiral_analytic_normalization(0.0, h))
        rep = projective_lengths(phi)
        rows.append((N, h, rep.pl1, rep.pl2))
    return rows
