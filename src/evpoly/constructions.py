"""Generators: equal-area planar polygons, their space lifts, and curve samplers.

An equal-area planar polygon Gamma lives on the side grid (vertices at
half-integer slots); its difference polygon gamma(i) = Gamma'(i) sits on
the vertex grid and satisfies [gamma(i), gamma(i+1)] = const.  Lifting
with a base point P produces space polygons whose affine focal set is a
single line (silhouette lift) or whose mu is constant (area lift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    det2,
    forward_diff,
    median,
)

__all__ = [
    "PlanarEqualAreaPolygon",
    "NotEqualAreaError",
    "support_function",
    "silhouette_lift",
    "area_lift",
    "recover_base_point",
    "affine_curvature",
    "lift_residuals",
    "regular_equal_area",
    "random_equal_area",
    "ExampleSpiral",
    "ExampleSpiralRepresentative",
    "Ellipse",
    "GridScheme",
    "sample_curve",
]

EQUAL_AREA_TOL = 1e-10
# relative gap allowed between the support function's two evaluations
SUPPORT_AGREEMENT_TOL = 1e-10


class NotEqualAreaError(GeometryError):
    """The planar polygon's edge-pair determinants are not constant."""


@dataclass(frozen=True)
class PlanarEqualAreaPolygon:
    """Planar polygon on the side grid with constant edge-pair area.

    ``Gamma`` holds the half-integer vertices, ``gamma`` the difference
    vectors on the vertex grid, ``area_constant`` the common value of
    [gamma(i), gamma(i+1)].
    """

    Gamma: GridSeq
    gamma: GridSeq
    area_constant: float
    area_spread: float

    @classmethod
    def from_vertices(cls, points, closed: bool = False) -> "PlanarEqualAreaPolygon":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError("equal-area polygon vertices must be 2-vectors")
        topo = Topology.CLOSED if closed else Topology.OPEN
        if len(pts) < (3 if closed else 4):
            raise GeometryError("too few vertices for an equal-area polygon")
        Gamma = GridSeq(pts, Grid.SIDE, topo)
        gamma = forward_diff(Gamma)
        _, (g0, g1) = gamma.stencil(0, 1)
        areas = det2(g0, g1)
        c = median(areas)
        if c == 0.0:
            raise NotEqualAreaError("vanishing edge-pair area")
        spread = float(np.max(np.abs(areas - c)) / abs(c))
        if spread > EQUAL_AREA_TOL:
            raise NotEqualAreaError(
                f"edge-pair areas vary by {spread:.3e} relative (tol {EQUAL_AREA_TOL:.0e})")
        return cls(Gamma, gamma, c, spread)

    @property
    def closed(self) -> bool:
        return self.Gamma.topology is Topology.CLOSED

    def normalized(self) -> "PlanarEqualAreaPolygon":
        """Rescale so the area constant is +-1 (unit equal-area form)."""
        s = abs(self.area_constant) ** -0.5
        if s == 1.0:
            return self
        return PlanarEqualAreaPolygon.from_vertices(
            s * self.Gamma.values, self.closed)


def support_function(G: PlanarEqualAreaPolygon, P) -> GridSeq:
    """Affine distance z(i) = [Gamma(i+1/2) - P, gamma(i)] per vertex.

    The same determinant taken from the other half-integer neighbour must
    agree (gamma is the exact difference of Gamma); disagreement means
    the inputs are inconsistent.
    """
    P = np.asarray(P, dtype=float)
    g = G.gamma.values
    first, (left, right) = G.Gamma.stencil(-1, 0)
    scale = float(np.max(np.abs(G.Gamma.values - P))) or 1.0
    z_r = det2(right - P, g)
    z_l = det2(left - P, g)
    bad = np.abs(z_r - z_l) > SUPPORT_AGREEMENT_TOL * scale * np.maximum(1.0, np.linalg.norm(g, axis=1))
    if bad.any():
        i = first + int(np.argmax(bad))
        raise GeometryError(f"vertex {i}: support function ambiguous, gamma is not Gamma'")
    return GridSeq(0.5 * (z_r + z_l), Grid.VERTEX, G.gamma.topology, G.gamma.base)


def silhouette_lift(G: PlanarEqualAreaPolygon, P) -> Polygon3:
    """Space polygon phi(i) = (gamma(i), z(i)), equal-volume about the origin.

    The input is rescaled to unit area constant first, so the lifted
    polygon satisfies the affine relation phi''(i) = -k(i) phi(i) + (0,0,1)
    with k the planar affine curvature.  Its focal set is a single line.
    """
    Gn = G.normalized()
    z = support_function(Gn, P)
    pts = np.column_stack([Gn.gamma.values, z.values])
    return Polygon3.from_points(pts, closed=G.closed)


def area_lift(G: PlanarEqualAreaPolygon, P) -> GridSeq:
    """Space polygon Phi(i+1/2) = (Gamma(i+1/2), Z(i+1/2)) on the side grid.

    Z accumulates the support function, anchored at zero on the first
    half-integer slot, so the difference polygon of Phi is exactly the
    silhouette lift.  Phi has constant mu.
    """
    Gn = G.normalized()
    z = support_function(Gn, P)
    G_v = Gn.Gamma.values
    Z = np.concatenate([[0.0], np.cumsum(z.window(1, len(G_v) - 1))])
    pts = np.column_stack([G_v, Z])
    return GridSeq(pts, Grid.SIDE, Gn.Gamma.topology, Gn.Gamma.base)


def recover_base_point(G: PlanarEqualAreaPolygon, z: GridSeq):
    """Solve for the base point P given support-function values.

    z(i) = [Gamma(i+1/2), gamma(i)] - [P, gamma(i)] is linear in P; the
    two degrees of freedom are recovered by least squares.  Returns
    (P, residual).
    """
    g = G.gamma.values
    right = G.Gamma.window(G.gamma.base, len(g))
    # [P, gamma] = Px*gy - Py*gx
    a = np.column_stack([g[:, 1], -g[:, 0]])
    b = det2(right, g) - z.values
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = float(np.max(np.abs(a @ sol - b))) if len(b) else 0.0
    return sol, res


def affine_curvature(G: PlanarEqualAreaPolygon) -> GridSeq:
    """Discrete affine curvature k with gamma''(i) = -k(i) gamma(i).

    For a unit equal-area polygon gamma(i+1) + gamma(i-1) is parallel to
    gamma(i); k is 2 minus that proportionality factor.
    """
    first, (g_prev, g, g_next) = G.gamma.stencil(-1, 0, 1)
    s = g_next + g_prev
    # row-wise dot products by matmul, which rounds as np.dot does
    r = (s[:, None] @ g[:, :, None] / (g[:, None] @ g[:, :, None]))[:, 0, 0]
    off = s - r[:, None] * g
    bad = np.linalg.norm(off, axis=1) > 1e-8 * np.maximum(1.0, np.linalg.norm(s, axis=1))
    if bad.any():
        raise NotEqualAreaError(
            f"vertex {first + int(np.argmax(bad))}: neighbour sum not parallel to gamma")
    return GridSeq(2.0 - r, Grid.VERTEX, G.gamma.topology, first)


def lift_residuals(G: PlanarEqualAreaPolygon, P):
    """Componentwise residuals of the lift relation phi'' = -k phi + (0,0,1).

    Returns (max residual of gamma'' + k gamma, max residual of
    z'' + k z - 1), both on the unit-normalized polygon.
    """
    Gn = G.normalized()
    k = affine_curvature(Gn)
    z = support_function(Gn, P)
    _, (g_prev, g, g_next) = Gn.gamma.stencil(-1, 0, 1)
    _, (z_prev, zv, z_next) = z.stencil(-1, 0, 1)
    kk = k.values
    sign = 1.0 if Gn.area_constant > 0 else -1.0
    r_g = float(np.max(np.abs(g_next - 2 * g + g_prev + kk[:, None] * g)))
    r_z = float(np.max(np.abs(z_next - 2 * zv + z_prev + kk * zv - sign)))
    return r_g, r_z


def regular_equal_area(N: int) -> PlanarEqualAreaPolygon:
    """Closed regular N-gon scaled so the edge-pair area constant is 1."""
    if N < 3:
        raise GeometryError("need at least 3 vertices")
    theta = 2.0 * np.pi * (np.arange(N) + 0.5) / N
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    # edge length 2 R sin(pi/N), turning angle 2 pi / N
    area = 4.0 * np.sin(np.pi / N) ** 2 * np.sin(2.0 * np.pi / N)
    r = area ** -0.5
    return PlanarEqualAreaPolygon.from_vertices(r * pts, closed=True)


def random_equal_area(N: int, rng: np.random.Generator) -> PlanarEqualAreaPolygon:
    """Open equal-area polygon with unit constant, grown edge by edge.

    Each new difference vector is t*gamma + rot90(gamma)/|gamma|^2 for a
    random t, which keeps [gamma(i), gamma(i+1)] = 1 exactly.
    """
    if N < 4:
        raise GeometryError("need at least 4 vertices")
    g = np.empty((N - 1, 2))
    ang = rng.uniform(0, 2 * np.pi)
    g[0] = np.array([np.cos(ang), np.sin(ang)]) * rng.uniform(0.7, 1.4)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(1, N - 1):
        t = rng.uniform(0.5, 1.8)
        g[i] = t * g[i - 1] + rot @ g[i - 1] / np.dot(g[i - 1], g[i - 1])
    start = rng.normal(size=2)
    pts = np.vstack([start, start + np.cumsum(g, axis=0)])
    return PlanarEqualAreaPolygon.from_vertices(pts, closed=False)


class ExampleSpiral:
    """Planar logarithmic spiral t -> (exp(-t) cos t, exp(-t) sin t)."""

    dim = 2

    def __call__(self, t):
        e = np.exp(-t)
        return np.stack([e * np.cos(t), e * np.sin(t)], axis=-1)


class ExampleSpiralRepresentative:
    """The spiral's centro-affine arc-length representative in 3-space.

    phi(t) = 2^(-1/3) exp(2t/3) (exp(-t) cos t, exp(-t) sin t, 1); its
    consecutive-triple volumes about the origin are exactly constant on
    any uniform grid.
    """

    dim = 3

    def __call__(self, t):
        a = 2.0 ** (-1.0 / 3.0) * np.exp(2.0 * t / 3.0)
        e = np.exp(-t)
        return np.stack([a * e * np.cos(t), a * e * np.sin(t), a], axis=-1)


class Ellipse:
    """Planar ellipse t -> (a cos t, b sin t)."""

    dim = 2

    def __init__(self, a: float = 1.0, b: float = 1.0):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, t):
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)


class GridScheme:
    HALF_OPEN_STEP = "half_open_step"
    INCLUDE_BOTH_ENDS = "include_both_ends"


def sample_curve(curve, t0: float, t1: float, N: int,
                 scheme: str = GridScheme.HALF_OPEN_STEP):
    """Sample a parametric curve on a uniform grid.

    ``half_open_step`` uses h = (t1 - t0)/N with samples at t0 + i*h for
    i = 0..N-1 (the last point stops one step short of t1);
    ``include_both_ends`` uses h = (t1 - t0)/(N - 1).  Returns an open
    Polygon3 for 3-space curves, or the raw (N, 2) vertex array for
    planar ones.
    """
    if N < 4:
        raise GeometryError("need at least 4 samples")
    if not t1 > t0:
        raise GeometryError("need t1 > t0")
    if scheme == GridScheme.HALF_OPEN_STEP:
        h = (t1 - t0) / N
        t = t0 + h * np.arange(N)
    elif scheme == GridScheme.INCLUDE_BOTH_ENDS:
        t = np.linspace(t0, t1, N)
    else:
        raise GeometryError(f"unknown grid scheme {scheme!r}")
    pts = np.asarray(curve(t), dtype=float)
    if curve.dim == 3:
        return Polygon3.from_points(pts, closed=False)
    return pts
