"""Equal-volume conditions and the inductive equal-volume resampler.

Three flavours of the constant-volume condition are evaluated here: the
framed-polygon determinant [side, side, xi], the centro-affine
determinant of vertex triples about a base point, and the space-polygon
determinant of consecutive difference vectors.  The resampler rebuilds a
framed polygon so the first condition holds exactly, moving vertices
along the input polyline.
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
    det3,
    forward_diff,
)
from .darboux import DarbouxField, FramedPolygon

__all__ = [
    "VolumeReport",
    "ResampleResult",
    "darboux_volumes",
    "centroaffine_volumes",
    "space_volumes",
    "is_equal_volume",
    "resample_equal_volume",
]


@dataclass(frozen=True)
class VolumeReport:
    """Per-vertex volumes with their median and max relative deviation."""

    volumes: GridSeq
    c_hat: float
    spread: float

    @property
    def values(self) -> np.ndarray:
        return self.volumes.values


def _report(vols: np.ndarray, topology: Topology, base: int) -> VolumeReport:
    c_hat = float(np.median(vols))
    denom = abs(c_hat)
    spread = float(np.max(np.abs(vols - c_hat)) / denom) if denom > 0 else np.inf
    return VolumeReport(GridSeq(vols, Grid.VERTEX, topology, base), c_hat, spread)


def darboux_volumes(f: FramedPolygon, df: DarbouxField) -> VolumeReport:
    """Volumes [side(i-1/2), side(i+1/2), xi(i)] at interior vertices."""
    first, (e_left, e_right) = f.polygon.sides().stencil(-1, 0)
    xi = df.xi.window(first, len(e_left))
    return _report(det3(e_left, e_right, xi), f.polygon.topology, first)


def centroaffine_volumes(p: Polygon3, origin=(0.0, 0.0, 0.0)) -> VolumeReport:
    """Volumes of consecutive vertex triples relative to a base point."""
    if len(p) < 3:
        raise GeometryError("need at least 3 vertices")
    q = p.vertices.with_values(p.points - np.asarray(origin, dtype=float))
    first, (q0, q1, q2) = q.stencil(-1, 0, 1)
    return _report(det3(q0, q1, q2), p.topology, first)


def space_volumes(P: GridSeq) -> VolumeReport:
    """Equal-volume check for a space polygon given on the side grid.

    Evaluates the centro-affine volumes of the difference polygon about
    the origin.
    """
    if P.grid is not Grid.SIDE:
        raise GeometryError("space polygon must live on the side grid")
    if len(P) < 4:
        raise GeometryError("need at least 4 vertices")
    phi = forward_diff(P)
    poly = Polygon3(phi if phi.base == 0 else GridSeq(phi.values, Grid.VERTEX, phi.topology, 0))
    rep = centroaffine_volumes(poly, (0.0, 0.0, 0.0))
    # restore slot bookkeeping relative to the original side sequence
    vols = rep.volumes
    return VolumeReport(GridSeq(vols.values, Grid.VERTEX, vols.topology,
                                vols.base + phi.base), rep.c_hat, rep.spread)


def is_equal_volume(r: VolumeReport, tol: float = 1e-8) -> bool:
    """True when the spread is within tol and all volumes share a sign."""
    v = r.values
    return bool(r.spread <= tol and (np.all(v > 0) or np.all(v < 0)))


@dataclass(frozen=True)
class ResampleResult:
    framed: FramedPolygon
    truncated: bool


def _plane_crossing(points, normal, anchor, start_seg, start_t, snap_tol):
    """First forward intersection of the polyline with a plane.

    Returns (point, seg, t) or None.  Vertices within snap_tol of the
    plane are taken exactly (keeps the construction idempotent).
    """
    g = lambda x: float(np.dot(normal, x - anchor))
    nseg = len(points) - 1
    prev_pt = points[start_seg] * (1 - start_t) + points[start_seg + 1] * start_t if start_seg < nseg \
        else points[-1]
    g_prev = g(prev_pt)
    seg, t = start_seg, start_t
    while seg < nseg:
        nxt = points[seg + 1]
        g_next = g(nxt)
        if abs(g_next) <= snap_tol:
            return nxt, seg + 1, 0.0
        if g_prev != 0.0 and np.sign(g_prev) != np.sign(g_next):
            frac = g_prev / (g_prev - g_next)
            t_star = t + frac * (1.0 - t)
            pt = points[seg] * (1 - t_star) + nxt * t_star
            return pt, seg, t_star
        seg, t = seg + 1, 0.0
        prev_pt, g_prev = nxt, g_next
    return None


def resample_equal_volume(f: FramedPolygon, df: DarbouxField) -> ResampleResult:
    """Rebuild an open framed polygon so its Darboux volumes are constant.

    Keeps the first three vertices and their field vectors, then
    repeatedly intersects the plane through the vertex three steps back,
    parallel to the current face, with the remainder of the input
    polyline.  Each new vertex direction interpolates the input edge
    directions on the side it lands on and is projected into the current
    face so the output frame is exactly coplanar.

    ``truncated`` is set when the construction stops with input polyline
    left over (the next plane never crosses it).
    """
    if f.closed:
        raise GeometryError("resampling is defined for open polygonal lines")
    pts = f.polygon.points
    n = len(pts)
    if n < 4:
        raise GeometryError("need at least 4 vertices")
    dh = f.unit_directions
    scale = f.polygon.diameter()
    snap_tol = 1e-12 * scale

    new_p = [pts[0], pts[1], pts[2]]
    new_dir = [dh[0], dh[1], dh[2]]
    new_s = [float(np.dot(df.xi.values[i], dh[i])) for i in range(3)]
    pos = (2, 0.0)
    truncated = False

    while True:
        p_back, p_mid, p_cur = new_p[-3], new_p[-2], new_p[-1]
        xi_mid = new_s[-2] * new_dir[-2]
        edge = p_cur - p_mid
        normal = np.cross(edge, xi_mid)
        nn = np.linalg.norm(normal)
        if nn == 0.0:
            raise GeometryError("degenerate face during resampling")
        normal /= nn

        hit = _plane_crossing(pts, normal, p_back, pos[0], pos[1], snap_tol)
        if hit is None:
            last_param = pos[0] + pos[1]
            truncated = last_param < n - 1 - 1e-12
            break
        pt, seg, t = hit
        d_new = (1.0 - t) * dh[seg] + t * dh[min(seg + 1, n - 1)]
        # keep the new frame exactly coplanar with the face it closes
        d_prev = new_dir[-1]
        side_new = pt - p_cur
        face_n = np.cross(side_new, d_prev)
        fn = np.linalg.norm(face_n)
        if fn == 0.0:
            raise GeometryError("new side parallel to the frame direction")
        face_n /= fn
        d_new = d_new - np.dot(d_new, face_n) * face_n
        dn = np.linalg.norm(d_new)
        if dn <= 1e-12:
            raise GeometryError("interpolated direction collapsed during projection")
        d_new /= dn

        # parallel continuation of the field along the new side
        basis = np.stack([d_prev, d_new], axis=1)
        keep = [j for j in range(3) if j != int(np.argmax(np.abs(face_n)))]
        try:
            p_coef, q_coef = np.linalg.solve(basis[keep], side_new[keep])
        except np.linalg.LinAlgError as exc:
            raise GeometryError("singular face basis during resampling") from exc
        if p_coef == 0.0:
            raise GeometryError("degenerate Darboux recursion during resampling")
        new_p.append(pt)
        new_dir.append(d_new)
        new_s.append(-q_coef * new_s[-1] / p_coef)
        pos = (seg, t)

    framed = FramedPolygon.build(np.array(new_p), np.array(new_dir), closed=False)
    return ResampleResult(framed, truncated)
