"""Discrete Frenet coefficients, the gauge field, and the affine focal set.

For an equal-volume framed polygon the third difference of each side
stays inside the face through that side, so it decomposes against the
side vector and either end's Darboux vector:

    phi'''(k) = -rho2(k)   * side(k) + tau(k) * xi(k+1)
    phi'''(k) = -rho1(k+1) * side(k) + tau(k) * xi(k)

(0-based side slots; side k joins vertices k and k+1).  The field is
parallel, xi(k+1) - xi(k) = -sigma(k) * side(k), so both give one tau:
one face solve, against xi(k+1), gives rho2 and tau, and rho1 is derived
from them through the compatibility identity

    -tau(k) * sigma(k) = rho2(k) - rho1(k+1).

One gate per hypothesis, each deciding and refusing in one function:
``validate_frame`` the planar faces, ``equal_volume.volume_constant``
the equal volumes.  O, mu and Q are each taken from the near end of a
side; the far end gives the same value on a polygon that passes both.

Open-topology windows (N vertices):
    third differences / tau / mu / Q : sides   1 .. N-3
    rho2                             : vertices 1 .. N-3
    rho1                             : vertices 2 .. N-2
    lambda / eta                     : vertices 1 .. N-2
    O                                : sides   0 .. N-2
Closed polygons use all N slots, indices mod N; both come from the
stencil ``GridSeq.stencil(-1, 0, 1)`` of the sides that the third
difference is nested on.
"""

from __future__ import annotations

import enum
import math
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
    dot3,
    face_solve,
    median,
    norm3,
)
from .darboux import DarbouxField, once_per_field, osculating_points
from .equal_volume import centroaffine_volumes, darboux_volumes, volume_constant
from .meshes import Mesh

__all__ = [
    "FrenetData",
    "FocalSetData",
    "FocalKind",
    "FocalClass",
    "ShortPolygonError",
    "frenet",
    "centroaffine_frenet",
    "lambda_from_tau",
    "focal_data",
    "focal_lines",
    "focal_set_mesh",
    "classify_focal",
]

# |sum tau| relative to max(1, sum |tau|) above which a closed gauge is obstructed
GAUGE_CLOSURE_TOL = 1e-9
# relative spread of sigma and mu below which the focal set is one line
FOCAL_CLASSIFY_TOL = 1e-6


class ShortPolygonError(GeometryError):
    """An open polygon with fewer vertices than its Frenet data need."""


@dataclass(frozen=True)
class FrenetData:
    rho1: GridSeq
    rho2: GridSeq
    tau: GridSeq
    c: float


def _frenet_data(topo: Topology, first: int, c: float, rho1, rho2, tau) -> FrenetData:
    """FrenetData from per-side arrays that start at side ``first``.

    The rho1 of side k belongs to vertex k+1, so on a closed polygon its
    array turns by one slot to keep base 0.
    """
    closed = topo is Topology.CLOSED
    return FrenetData(
        rho1=GridSeq(np.roll(rho1, 1) if closed else rho1, Grid.VERTEX, topo,
                     0 if closed else first + 1),
        rho2=GridSeq(rho2, Grid.VERTEX, topo, first),
        tau=GridSeq(tau, Grid.SIDE, topo, first),
        c=c,
    )


@once_per_field
def frenet(df: DarbouxField) -> FrenetData:
    """Frenet coefficient sequences of the field's equal-volume framed polygon.

    The volume gate (``equal_volume.volume_constant``) comes first, so a
    polygon whose volumes vary raises NotEqualVolumeError at any size.
    Each third difference is decomposed once, against the side and
    xi(k+1), by ``core.face_solve``; that gives rho2(k) and tau(k), and
    rho1(k+1) = rho2(k) + tau(k) * sigma(k).  The data are solved once
    per field.  A side whose solve is not finite is refused as a
    degenerate face basis, or as an overflow when the solve's products or
    rho1 overflow, as the products do for coordinates far above 1e100.
    """
    f = df.frame
    c = volume_constant(darboux_volumes(df))
    if len(f.polygon) < 5 and not f.closed:
        raise ShortPolygonError("need at least 5 vertices for open Frenet data")

    # Each third difference is nested on the sides, (e(k+1) - e(k)) -
    # (e(k) - e(k-1)), so that each subtraction acts on neighbouring,
    # already close operands.  The expanded p(k+2) - 3 p(k+1) + 3 p(k) -
    # p(k-1) rounds its terms at eps |p| before they cancel to size h^3.
    k0, (em, e0, e1) = f.polygon.sides().stencil(-1, 0, 1)
    d3 = (e1 - e0) - (e0 - em)
    m = len(d3)
    back = -e0  # the side, reversed
    xi_far = df.xi.window(k0 + 1, m)
    n = cross3(back, xi_far)
    rho2, tau = face_solve(d3, back, xi_far, n)  # rho2 at vertex k
    finite = solved = np.isfinite(rho2) & np.isfinite(tau)
    if np.logical_and.reduce(solved):
        rho1 = rho2 + tau * df.sigma.window(k0, m)  # rho1 at vertex k+1
        finite = np.isfinite(rho1)
    if not np.logical_and.reduce(finite):
        k = int(np.argmin(finite))
        with np.errstate(over="ignore", invalid="ignore"):  # the solve's products on side k
            products = (dot3(n[k], n[k]), det3(d3[k], xi_far[k], n[k]), det3(back[k], d3[k], n[k]))
        if not solved[k] and all(map(math.isfinite, products)):
            raise GeometryError(f"side {k0 + k}: degenerate face basis in Frenet solve")
        raise GeometryError(f"side {k0 + k}: the Frenet face solve overflows float64 at this "
                            "polygon's scale")
    return _frenet_data(f.polygon.topology, k0, c, rho1, rho2, tau)


def centroaffine_frenet(p: Polygon3) -> FrenetData:
    """Frenet data of an equal-volume polygon in the centro-affine setting.

    With xi = phi and sigma = -1 the face solves have closed forms in the
    triple brackets of the vertices about the origin.
    """
    c = volume_constant(centroaffine_volumes(p))
    k0, (qm, q0, q1, q2) = p.vertices.stencil(-1, 0, 1, 2)
    d_a = det3(qm, q0, q2)
    d_b = det3(q2, q1, qm)
    # tau = (d_a + d_b) / c, rho1 = 3 - d_a / c and rho2 = 3 + d_b / c, in place
    tau = np.add(d_a, d_b)
    np.divide(tau, c, out=tau)
    rho1 = np.subtract(3.0, np.divide(d_a, c, out=d_a), out=d_a)
    rho2 = np.add(3.0, np.divide(d_b, c, out=d_b), out=d_b)
    return _frenet_data(p.topology, k0, c, rho1, rho2, tau)


def lambda_from_tau(tau: GridSeq, value: float) -> GridSeq:
    """Anti-difference gauge: lambda(i) - lambda(i+1) = tau(side i).

    One cumulative sum from lambda = ``value`` at the first vertex of
    tau's window: on vertices base .. base+len(tau) of an open polygon,
    and once around a closed one, whose tau must sum to zero to
    ``GAUGE_CLOSURE_TOL`` times max(1, sum |tau|).
    """
    if not np.isfinite(value):
        raise GeometryError("non-finite gauge value")
    t = tau.values
    if tau.topology is Topology.CLOSED:
        total = float(np.add.reduce(t))
        if abs(total) > GAUGE_CLOSURE_TOL * max(1.0, float(np.add.reduce(np.abs(t)))):
            raise GeometryError(f"closed polygon with sum(tau) = {total:.3e}: "
                                "no periodic gauge exists")
        t = t[:-1]
    # lambda at the first vertex, then its differences -tau, summed in place
    lam = np.empty(len(t) + 1)
    lam[0] = value
    np.negative(t, out=lam[1:])
    np.add.accumulate(lam, out=lam)  # np.cumsum without its wrapper
    return GridSeq(lam, Grid.VERTEX, tau.topology, tau.base)


@dataclass(frozen=True)
class FocalSetData:
    """mu and O of a Darboux field's sides, with the gauge field lam (lambda) behind mu.

    The points Q and the normals eta behind them are built on first read:
    ``analyze`` reads mu alone, the focal mesh reads Q and eta.  NaN rows
    of O and Q mark points at infinity.  The focal lines that join O and
    Q are built on demand, by ``focal_lines``.
    """

    field: DarbouxField
    mu: GridSeq
    O: GridSeq
    lam: GridSeq

    @cached_property
    def eta(self) -> GridSeq:
        """eta(i) = phi''(i) + lambda(i) xi(i) on the gauge window, the interior vertices.

        phi'' differences the sides that ``frenet``'s d3 is nested on.
        """
        df, lam = self.field, self.lam
        lo, (em, e0) = df.frame.polygon.sides().stencil(-1, 0)
        return GridSeq((e0 - em) + lam.values[:, None] * df.xi.window(lo, len(lam)),
                       Grid.VERTEX, lam.topology, lo)

    @cached_property
    def Q(self) -> GridSeq:
        """Q(k) = P(k) + eta(k)/mu(k) per side, from the near end.

        Sides where 1/mu is not finite (parallel normals) are NaN rows,
        points at infinity.
        """
        k0, m, mu = self.mu.base, len(self.mu), self.mu.values
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            finite = np.isfinite(1.0 / mu)
            q_pts = (self.field.frame.polygon.vertices.window(k0, m)
                     + self.eta.window(k0, m) / mu[:, None])
        if not np.logical_and.reduce(finite):
            q_pts[~finite] = np.nan
        return GridSeq(q_pts, Grid.SIDE, self.mu.topology, k0)

    def lineless(self) -> np.ndarray:
        """Mask over Q's window of the sides with no focal line: O and Q both at infinity."""
        o_rows = self.O.window(self.Q.base, len(self.Q))
        return np.isnan(o_rows[:, 0]) & np.isnan(self.Q.values[:, 0])


def focal_data(df: DarbouxField, gauge: float = 0.0) -> FocalSetData:
    """mu per side and the points O, from ``frenet(df)`` and the gauge field; Q on first read.

    ``gauge`` is lambda's value at the first vertex of tau's window, the
    one constant that the anti-difference leaves free.  Per side the
    focal line joins the support-line intersection O with the point Q
    where the parallel normal vectors through the two end vertices meet.
    mu(k) = rho2(k) + sigma(k) * lambda(k) is taken from the near end;
    the far end, rho1(k+1) + sigma(k) * lambda(k+1), is the same number
    because rho1 is derived from rho2 and lambda(k) - lambda(k+1) =
    tau(k).  Q(k) = P(k) + eta(k)/mu(k) is taken from the near end too;
    the far end, P(k+1) + eta(k+1)/mu(k), gives the same point on an
    equal-volume polygon, which ``frenet``'s volume gate has checked.
    """
    fr = frenet(df)
    lam = lambda_from_tau(fr.tau, gauge)
    # mu per side, from the near end; rho2 shares tau's window
    k0, m = fr.tau.base, len(fr.tau)
    mu_v = fr.rho2.values + df.sigma.window(k0, m) * lam.window(k0, m)
    mu = GridSeq(mu_v, Grid.SIDE, fr.tau.topology, k0)
    return FocalSetData(df, mu, osculating_points(df), lam)


def focal_lines(fd: FocalSetData) -> tuple[np.ndarray, np.ndarray]:
    """A point and a unit direction of each side's focal line, one row per side of Q.

    The focal line joins O and Q.  With O at infinity it runs through Q
    along the unit direction; with Q at infinity, or Q = O, through O along eta.
    Both rows are NaN on the sides ``FocalSetData.lineless`` names.
    """
    k0, m = fd.Q.base, len(fd.Q)
    O, q_pts = fd.O.window(k0, m), fd.Q.values
    o_inf, q_inf = np.isnan(O[:, 0]), np.isnan(q_pts[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        origin = O.copy()
        origin[o_inf] = q_pts[o_inf]
        d = q_pts - O
        d[o_inf] = fd.field.frame.unit_directions.window(k0, m)[o_inf]
        use_eta = ~o_inf & (q_inf | (norm3(d) == 0.0))
        d[use_eta] = fd.eta.window(k0, m)[use_eta]
        d /= norm3(d)[:, None]
    d[fd.lineless()] = np.nan  # origin is NaN there already
    return origin, d


def focal_set_mesh(fd: FocalSetData) -> Mesh:
    """Mesh of the focal set: one planar face per interior vertex.

    Each face lies in that vertex's affine normal plane, bounded by the
    two adjacent focal lines (``focal_lines``); each line is sampled
    between its O and Q anchor points extended on both ends by twice the
    length of the line origins' bounding-box diagonal, and by at least
    twice the polygon's diameter, so the mesh scales with the polygon.
    """
    origins, directions = focal_lines(fd)
    usable = ~np.isnan(origins[:, 0])
    idx = np.flatnonzero(usable)
    origin, d = origins[idx], directions[idx]
    span = float(norm3(np.ptp(origin, axis=0))) if len(idx) else 0.0
    extent = 2.0 * max(span, fd.field.frame.polygon.diameter())

    q = fd.Q.values[idx]
    with np.errstate(invalid="ignore"):
        t_q = np.where(np.isfinite(q).all(axis=1), dot3(q - origin, d), 0.0)
    lo = (np.minimum(0.0, t_q) - extent)[:, None]
    hi = (np.maximum(0.0, t_q) + extent)[:, None]
    verts = np.stack([origin + lo * d, origin + hi * d], axis=1).reshape(-1, 3)
    lines_idx = np.arange(2 * len(idx)).reshape(-1, 2)

    # one face between the lines of neighbouring sides
    nxt = idx + 1
    if fd.mu.topology is Topology.CLOSED:
        nxt %= len(usable)
    both = nxt < len(usable)
    both[both] = usable[nxt[both]]
    i0 = 2 * np.flatnonzero(both)
    i1 = 2 * (np.cumsum(usable)[nxt[both]] - 1)
    faces = np.stack([i0, i0 + 1, i1 + 1, i1], axis=1)
    return Mesh(verts, faces, lines_idx)


class FocalKind(enum.Enum):
    SINGLE_LINE = "single_line"
    GENERAL = "general"


@dataclass(frozen=True)
class FocalClass:
    kind: FocalKind
    sigma_spread: float | None
    mu_spread: float | None


def _rel_spread(x: np.ndarray) -> float | None:
    """(max - min) / median |x|; None, a spread with no finite value, where the median
    |x| is 0 but not every x is about 0."""
    med = median(np.abs(x))
    if med == 0.0:
        return 0.0 if np.allclose(x, 0.0) else None
    return float((np.maximum.reduce(x) - np.minimum.reduce(x)) / med)


def classify_focal(fd: FocalSetData) -> FocalClass:
    """Single-line focal set iff both sigma and mu have constant sign pattern."""
    s_spread = _rel_spread(fd.field.sigma.window(fd.mu.base, len(fd.mu)))
    m_spread = _rel_spread(fd.mu.values)
    single = all(s is not None and s <= FOCAL_CLASSIFY_TOL for s in (s_spread, m_spread))
    return FocalClass(FocalKind.SINGLE_LINE if single else FocalKind.GENERAL, s_spread, m_spread)
