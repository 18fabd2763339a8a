"""Discrete Frenet coefficients, the gauge field, and the affine focal set.

For an equal-volume framed polygon the third difference of each side
stays inside the face through that side, so it decomposes against the
side vector and either end's Darboux vector:

    phi'''(k) = -rho2(k)   * side(k) + tau(k) * xi(k+1)
    phi'''(k) = -rho1(k+1) * side(k) + tau(k) * xi(k)

(0-based side slots; side k joins vertices k and k+1).  The scalar
sequences satisfy  -tau*sigma = rho2(k) - rho1(k+1)  on every side.

Open-topology windows (N vertices):
    third differences / tau / mu / Q : sides   1 .. N-3
    rho2                             : vertices 1 .. N-3
    rho1                             : vertices 2 .. N-2
    lambda / eta                     : vertices 1 .. N-2
    O                                : sides   0 .. N-2
Closed polygons use all N slots, indices mod N; both come from the
stencil ``GridSeq.stencil(-1, 0, 1, 2)`` of the third difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    cross3,
    det2,
    det3,
    face_solve,
    forward_diff,
    median,
)
from .darboux import DarbouxField, FramedPolygon, osculating_points
from .equal_volume import (
    EQUAL_VOLUME_TOL,
    VolumeReport,
    centroaffine_volumes,
    darboux_volumes,
    is_equal_volume,
)
from .meshes import Mesh

__all__ = [
    "FrenetData",
    "FocalSetData",
    "FocalKind",
    "FocalClass",
    "PlanarReduction",
    "GaugeObstructionError",
    "NotEqualVolumeError",
    "frenet",
    "centroaffine_frenet",
    "lambda_from_tau",
    "focal_data",
    "focal_set_mesh",
    "classify_focal",
    "planar_reduction",
    "mu_prime_check",
]

TAU_AGREEMENT_TOL = 1e-9
# relative gap allowed between the two evaluations of mu and of Q
FOCAL_AGREEMENT_TOL = 1e-9
# |sum tau| relative to sum |tau| above which a closed gauge is obstructed
GAUGE_CLOSURE_TOL = 1e-9
# relative spread of sigma and mu below which the focal set is one line
FOCAL_CLASSIFY_TOL = 1e-6
# largest plane offset, relative to max(diameter, 1), of a planar polygon
PLANARITY_TOL = 1e-9


class NotEqualVolumeError(GeometryError):
    """Frenet data requested on a polygon whose volumes vary.

    The constant-volume condition is what keeps the third difference
    inside the face plane; without it the Frenet coefficients are not
    defined.  ``vertex`` is the slot whose volume lies farthest from the
    median, ``spread`` the measured relative spread and ``threshold``
    the gate it exceeds.
    """

    def __init__(self, vertex: int, spread: float, threshold: float):
        self.vertex = vertex
        self.spread = spread
        self.threshold = threshold
        super().__init__(f"vertex {vertex}: volume spread {spread:.3e} exceeds "
                         f"{threshold:.0e}, so the polygon is not equal-volume")


def _volume_constant(rep: VolumeReport) -> float:
    """The volume constant c of an equal-volume report, else NotEqualVolumeError."""
    if not is_equal_volume(rep):
        j = int(np.argmax(np.abs(rep.values - rep.c_hat)))
        raise NotEqualVolumeError(rep.volumes.base + j, rep.spread, EQUAL_VOLUME_TOL)
    return rep.c_hat


class GaugeObstructionError(GeometryError):
    """No closed gauge field exists because the tau sum is nonzero."""

    def __init__(self, total: float):
        self.total = total
        super().__init__(f"closed polygon with sum(tau) = {total:.3e}: no periodic gauge exists")


@dataclass(frozen=True)
class FrenetData:
    rho1: GridSeq
    rho2: GridSeq
    tau: GridSeq
    c: float
    tau_gap: GridSeq

    @property
    def topology(self) -> Topology:
        return self.tau.topology

    def compatibility_residual(self, sigma: GridSeq) -> np.ndarray:
        """|  -tau*sigma - (rho2(k) - rho1(k+1)) | per side."""
        k0, m = self.tau.base, len(self.tau)
        return np.abs(-self.tau.values * sigma.window(k0, m)
                      - (self.rho2.values - self.rho1.window(k0 + 1, m)))


def _third_diffs(p: GridSeq):
    """Third differences per side, their first slot and the four vertex stencils."""
    first, (pm, p0, p1, p2) = p.stencil(-1, 0, 1, 2)
    return first, p2 - 3 * p1 + 3 * p0 - pm, (pm, p0, p1, p2)


def _frenet_data(topo: Topology, first: int, c: float, rho1, rho2, tau,
                 gap) -> FrenetData:
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
        tau_gap=GridSeq(gap, Grid.SIDE, topo, first),
    )


def frenet(f: FramedPolygon, df: DarbouxField) -> FrenetData:
    """Frenet coefficient sequences of an equal-volume framed polygon.

    Both decompositions of each third difference go through
    ``core.face_solve``; the two tau values they give must agree.
    """
    if len(f.polygon) < 5 and not f.closed:
        raise GeometryError("need at least 5 vertices for open Frenet data")
    c = _volume_constant(darboux_volumes(f, df))

    k0, d3, (_, p0, p1, _) = _third_diffs(f.polygon.vertices)
    m = len(d3)
    edge = p1 - p0
    xi_near, xi_far = df.xi.window(k0, m), df.xi.window(k0 + 1, m)
    rho2, tau_a = face_solve(d3, -edge, xi_far)     # rho2 at vertex k
    rho1, tau_b = face_solve(d3, -edge, xi_near)    # rho1 at vertex k+1
    bad = ~np.isfinite(rho1 + rho2 + tau_a + tau_b)
    if bad.any():
        k = k0 + int(np.argmax(bad))
        raise GeometryError(f"side {k}: degenerate face basis in Frenet solve")
    gap = np.abs(tau_a - tau_b)
    tau = 0.5 * (tau_a + tau_b)
    bad = gap > TAU_AGREEMENT_TOL * np.maximum(1.0, np.abs(tau))
    if bad.any():
        j = int(np.argmax(bad))
        raise GeometryError(f"side {k0 + j}: the two tau evaluations disagree by {gap[j]:.3e}")
    return _frenet_data(f.polygon.topology, k0, c, rho1, rho2, tau, gap)


def centroaffine_frenet(p: Polygon3, origin=(0.0, 0.0, 0.0)) -> FrenetData:
    """Frenet data of an equal-volume polygon in the centro-affine setting.

    With xi = phi - origin and sigma = -1 the face solves have closed
    forms in the triple brackets of the vertices about the base point.
    """
    c = _volume_constant(centroaffine_volumes(p, origin))
    q = p.vertices.with_values(p.points - np.asarray(origin, dtype=float))
    k0, (qm, q0, q1, q2) = q.stencil(-1, 0, 1, 2)
    d_a = det3(qm, q0, q2)
    d_b = det3(q2, q1, qm)
    return _frenet_data(p.topology, k0, c, 3.0 - d_a / c, 3.0 + d_b / c,
                        (d_a + d_b) / c, np.zeros(len(d_a)))


def lambda_from_tau(tau: GridSeq, anchor_index: int, anchor_value: float) -> GridSeq:
    """Anti-difference gauge: lambda(i) - lambda(i+1) = tau(side i).

    Summed outwards from the anchor as cumulative sums: one around a
    closed polygon, and on an open one a sum ahead of the anchor and a
    sum behind it.
    """
    t = tau.values
    if tau.topology is Topology.CLOSED:
        total = float(t.sum())
        scale = float(np.abs(t).sum()) or 1.0
        if abs(total) > GAUGE_CLOSURE_TOL * scale:
            raise GaugeObstructionError(total)
        a = anchor_index % len(t)
        lam = np.cumsum(np.concatenate([[anchor_value], -np.roll(t, -a)[:-1]]))
        return GridSeq(np.roll(lam, a), Grid.VERTEX, Topology.CLOSED)
    # open: lambda lives on vertices base .. base+len(tau)
    base = tau.base
    m = len(t) + 1
    j0 = anchor_index - base
    if not 0 <= j0 < m:
        raise GeometryError(f"anchor {anchor_index} outside gauge window [{base}, {base + m})")
    ahead = np.cumsum(np.concatenate([[anchor_value], -t[j0:]]))
    behind = np.cumsum(np.concatenate([[anchor_value], t[:j0][::-1]]))
    return GridSeq(np.concatenate([behind[:0:-1], ahead]), Grid.VERTEX, tau.topology, base)


@dataclass(frozen=True)
class FocalSetData:
    lam: GridSeq
    eta: GridSeq
    mu: GridSeq
    Q: GridSeq
    O: GridSeq
    lines: list
    at_infinity_O: list
    at_infinity_Q: list


def focal_data(f: FramedPolygon, df: DarbouxField, fr: FrenetData,
               gauge: tuple[int, float] | None = None) -> FocalSetData:
    """Gauge field, parallel normal vectors and the focal lines.

    ``gauge`` anchors the lambda anti-difference (defaults to value 0 at
    the first admissible vertex).  Per side the focal line joins the
    support-line intersection O with the point Q where the parallel
    normal vectors through the two end vertices meet.
    """
    P = f.polygon.vertices
    if gauge is None:
        gauge = (0 if f.closed else fr.tau.base, 0.0)
    lam = lambda_from_tau(fr.tau, gauge[0], gauge[1])

    # eta(i) = phi''(i) + lambda(i) xi(i) on the gauge window
    lo, m = lam.base, len(lam)
    pp = P.window(lo + 1, m) - 2 * P.window(lo, m) + P.window(lo - 1, m)
    eta = GridSeq(pp + lam.values[:, None] * df.xi.window(lo, m),
                  Grid.VERTEX, lam.topology, lo)

    # mu per side, from both end expansions
    k0, m = fr.tau.base, len(fr.tau)
    sg = df.sigma.window(k0, m)
    m_a = fr.rho1.window(k0 + 1, m) + sg * lam.window(k0 + 1, m)
    m_b = fr.rho2.window(k0, m) + sg * lam.window(k0, m)
    gap = np.abs(m_a - m_b)
    bad = gap > FOCAL_AGREEMENT_TOL * np.maximum(1.0, np.abs(m_a))
    if bad.any():
        j = int(np.argmax(bad))
        raise GeometryError(f"side {k0 + j}: the two mu evaluations disagree by {gap[j]:.3e}")
    mu = GridSeq(0.5 * (m_a + m_b), Grid.SIDE, fr.tau.topology, k0)

    O_all, inf_O = osculating_points(f, df)
    O = O_all.window(k0, m)
    o_inf = np.isnan(O[:, 0])
    p0, p1 = P.window(k0, m), P.window(k0 + 1, m)
    e_near, e_far = eta.window(k0, m), eta.window(k0 + 1, m)
    mu_col = mu.values[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        q_inf = ~np.isfinite(1.0 / mu.values)
        q1 = p0 + e_near / mu_col
        q2 = p1 + e_far / mu_col
        gapq = np.linalg.norm(q1 - q2, axis=1)
        ref = np.maximum(np.linalg.norm(q1 - p0, axis=1), f.polygon.diameter())
    bad = ~q_inf & (gapq > FOCAL_AGREEMENT_TOL * ref)
    if bad.any():
        j = int(np.argmax(bad))
        raise GeometryError(f"side {k0 + j}: the two Q evaluations disagree by {gapq[j]:.3e}")
    q_pts = np.where(q_inf[:, None], np.nan, 0.5 * (q1 + q2))

    # The focal line joins O and Q.  With O at infinity it runs through Q
    # along xi; with Q at infinity, or Q = O, it runs through O along eta.
    origin = np.where(o_inf[:, None], q_pts, O)
    d = np.where(o_inf[:, None], df.xi.window(k0, m), q_pts - O)
    with np.errstate(invalid="ignore"):
        use_eta = ~o_inf & (q_inf | (np.linalg.norm(d, axis=1) == 0.0))
        d = np.where(use_eta[:, None], e_near, d)
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
    lines = list(zip(origin, d))
    for j in np.flatnonzero(o_inf & q_inf):
        lines[j] = None

    Q = GridSeq(q_pts, Grid.SIDE, fr.tau.topology, k0, finite=not q_inf.any())
    return FocalSetData(lam, eta, mu, Q, O_all, lines, inf_O,
                        (k0 + np.flatnonzero(q_inf)).tolist())


def focal_set_mesh(fd: FocalSetData, extent: float | None = None) -> Mesh:
    """Mesh of the focal set: one planar face per interior vertex.

    Each face lies in that vertex's affine normal plane, bounded by the
    two adjacent focal lines; each line is sampled between its O and Q
    anchor points extended by ``extent`` on both ends.
    """
    usable = np.array([ln is not None for ln in fd.lines], dtype=bool)
    idx = np.flatnonzero(usable)
    origin = np.array([fd.lines[j][0] for j in idx]).reshape(-1, 3)
    d = np.array([fd.lines[j][1] for j in idx]).reshape(-1, 3)
    if extent is None:
        span = np.ptp(origin, axis=0) if len(idx) else np.ones(3)
        extent = 2.0 * max(float(np.linalg.norm(span)), 1.0)

    q = fd.Q.values[idx]
    with np.errstate(invalid="ignore"):
        t_q = np.where(np.isfinite(q).all(axis=1), np.einsum("ij,ij->i", q - origin, d), 0.0)
    lo = (np.minimum(0.0, t_q) - extent)[:, None]
    hi = (np.maximum(0.0, t_q) + extent)[:, None]
    verts = np.stack([origin + lo * d, origin + hi * d], axis=1).reshape(-1, 3)
    lines_idx = np.arange(2 * len(idx)).reshape(-1, 2).tolist()

    # one face between the lines of neighbouring sides
    nxt = idx + 1
    if fd.mu.topology is Topology.CLOSED:
        nxt %= len(usable)
    both = nxt < len(usable)
    both[both] = usable[nxt[both]]
    i0 = 2 * np.flatnonzero(both)
    i1 = 2 * (np.cumsum(usable)[nxt[both]] - 1)
    faces = np.stack([i0, i0 + 1, i1 + 1, i1], axis=1).tolist()
    return Mesh(verts, faces, lines_idx)


class FocalKind(enum.Enum):
    SINGLE_LINE = "single_line"
    GENERAL = "general"


@dataclass(frozen=True)
class FocalClass:
    kind: FocalKind
    sigma_spread: float
    mu_spread: float
    line: tuple | None = None


def _rel_spread(x: np.ndarray) -> float:
    med = median(np.abs(x))
    if med == 0.0:
        return 0.0 if np.allclose(x, 0.0) else np.inf
    return float((x.max() - x.min()) / med)


def classify_focal(df: DarbouxField, fd: FocalSetData) -> FocalClass:
    """Single-line focal set iff both sigma and mu have constant sign pattern."""
    s_spread = _rel_spread(df.sigma.window(fd.mu.base, len(fd.mu)))
    m_spread = _rel_spread(fd.mu.values)
    if s_spread <= FOCAL_CLASSIFY_TOL and m_spread <= FOCAL_CLASSIFY_TOL:
        finite = [ln for ln in fd.lines if ln is not None]
        origin = np.mean([ln[0] for ln in finite], axis=0)
        d = np.mean([ln[1] * np.sign(np.dot(ln[1], finite[0][1])) for ln in finite], axis=0)
        d /= np.linalg.norm(d)
        return FocalClass(FocalKind.SINGLE_LINE, s_spread, m_spread, (origin, d))
    return FocalClass(FocalKind.GENERAL, s_spread, m_spread)


@dataclass(frozen=True)
class PlanarReduction:
    equal_area: bool
    area_constant: float
    area_spread: float
    rho: GridSeq
    evolute: np.ndarray
    frame: tuple


def planar_reduction(p: Polygon3, normal) -> PlanarReduction:
    """Equal-area check, affine curvature and evolute of a planar polygon.

    The polygon must lie in a plane with the given normal.  Curvature
    solves  phi'''(k) = -rho(k) * phi'(k)  per side in plane coordinates;
    the evolute vertices are  phi(k) + phi''(k)/rho(k)  mapped back to
    3-space.
    """
    nrm = np.asarray(normal, dtype=float)
    nrm = nrm / np.linalg.norm(nrm)
    pts = p.points
    c0 = pts.mean(axis=0)
    offsets = (pts - c0) @ nrm
    if np.max(np.abs(offsets)) > PLANARITY_TOL * max(p.diameter(), 1.0):
        raise GeometryError("polygon is not planar to tolerance")

    # in-plane orthonormal frame
    u = np.eye(3)[int(np.argmin(np.abs(nrm)))]
    u = u - np.dot(u, nrm) * nrm
    u /= np.linalg.norm(u)
    v = cross3(nrm, u)
    xy = np.stack([(pts - c0) @ u, (pts - c0) @ v], axis=1)

    xy_seq = GridSeq(xy, Grid.VERTEX, p.topology)
    _, (e_left, e_right) = forward_diff(xy_seq).stencil(-1, 0)
    areas = det2(e_left, e_right)
    a_hat = median(areas)
    spread = float(np.max(np.abs(areas - a_hat)) / abs(a_hat)) if a_hat != 0 else np.inf
    equal_area = spread <= 1e-8

    k0, d3, (pm, p0, p1, _) = _third_diffs(xy_seq)
    edge = p1 - p0
    # row-wise dot products by matmul, which rounds as np.dot does
    rho = -(d3[:, None] @ edge[:, :, None] / (edge[:, None] @ edge[:, :, None]))[:, 0, 0]
    turn = rho != 0.0
    ev = p0[turn] + (p1 - 2 * p0 + pm)[turn] / rho[turn, None]
    q_pts = c0 + ev[:, :1] * u + ev[:, 1:] * v
    return PlanarReduction(equal_area, a_hat, spread, GridSeq(rho, Grid.SIDE, p.topology, k0),
                           q_pts, (c0, u, v, nrm))


@dataclass(frozen=True)
class MuPrimeReport:
    residual_rho1: np.ndarray
    residual_rho2: np.ndarray
    mu_prime: np.ndarray

    @property
    def max_residual(self) -> float:
        vals = np.concatenate([self.residual_rho1, self.residual_rho2])
        return float(vals.max()) if vals.size else 0.0


def mu_prime_check(fr: FrenetData, fd: FocalSetData, sigma: GridSeq) -> MuPrimeReport:
    """Check mu'(i) = rho1'(i+1/2) - sigma tau(i+1/2), and the rho2 twin.

    mu' at a vertex is the difference of mu over its two adjacent sides.
    The identity assumes sigma is constant along the polygon (silhouette
    or cone framing); for sigma = -1 it reads mu' = rho' + tau.
    """
    lo, (mu_left, mu_right) = fd.mu.stencil(-1, 0)
    m = len(mu_left)

    def win(seq, start):
        return seq.window(start, m)

    mp = mu_right - mu_left
    res1 = np.abs(mp - (win(fr.rho1, lo + 1) - win(fr.rho1, lo) - win(sigma, lo) * win(fr.tau, lo)))
    res2 = np.abs(mp - (win(fr.rho2, lo) - win(fr.rho2, lo - 1)
                        - win(sigma, lo - 1) * win(fr.tau, lo - 1)))
    return MuPrimeReport(res1, res2, mp)
