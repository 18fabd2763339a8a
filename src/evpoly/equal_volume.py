"""Equal-volume conditions and the inductive equal-volume resampler.

Three flavours of the constant-volume condition are evaluated here: the
framed-polygon determinant [side, side, xi], the centro-affine
determinant of vertex triples about a base point, and the space-polygon
determinant of consecutive difference vectors.  The resampler rebuilds a
framed polygon so the first condition holds exactly, moving vertices
along the input polyline.
"""

from __future__ import annotations

import math
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
    median,
)
from .darboux import DarbouxField, FramedPolygon, once_per_field

__all__ = [
    "VolumeReport",
    "ResampleResult",
    "darboux_volumes",
    "centroaffine_volumes",
    "space_volumes",
    "is_equal_volume",
    "resample_equal_volume",
]

# largest relative volume spread of a polygon taken as equal-volume
EQUAL_VOLUME_TOL = 1e-8


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
    c_hat = median(vols)
    denom = abs(c_hat)
    spread = float(np.abs(vols - c_hat).max() / denom) if denom > 0 else np.inf
    return VolumeReport(GridSeq(vols, Grid.VERTEX, topology, base), c_hat, spread)


@once_per_field
def darboux_volumes(f: FramedPolygon, df: DarbouxField) -> VolumeReport:
    """Volumes [side(i-1/2), side(i+1/2), xi(i)] at interior vertices.

    Evaluated once per polygon and field; later calls share the report.
    """
    first, (e_left, e_right) = f.polygon.sides().stencil(-1, 0)
    xi = df.xi.window(first, len(e_left))
    return _report(det3(e_left, e_right, xi), f.polygon.topology, first)


def centroaffine_volumes(p: Polygon3, origin=(0.0, 0.0, 0.0)) -> VolumeReport:
    """Volumes of consecutive vertex triples relative to a base point."""
    if len(p) < 3:
        raise GeometryError("need at least 3 vertices")
    origin = np.asarray(origin, dtype=float)
    if not np.isfinite(origin).all():
        raise GeometryError("non-finite base point")
    q = p.vertices.with_values(p.points - origin)
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


def is_equal_volume(r: VolumeReport) -> bool:
    """True when the spread is within ``EQUAL_VOLUME_TOL``.

    A spread below 1 already puts every volume on the side of c_hat, so
    no separate sign check is needed.
    """
    return bool(r.spread <= EQUAL_VOLUME_TOL)


@dataclass(frozen=True)
class ResampleResult:
    framed: FramedPolygon
    truncated: bool


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _norm(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _offset(normal, anchor, p) -> float:
    """Signed distance of p from the plane through anchor with unit normal."""
    return (normal[0] * (p[0] - anchor[0]) + normal[1] * (p[1] - anchor[1])
            + normal[2] * (p[2] - anchor[2]))


def _plane_crossing(points, normal, anchor, start_seg, start_t, snap_tol):
    """First forward intersection of the polyline with a plane.

    ``points`` is a list of float triples.  Returns (point, seg, t) or
    None.  Vertices within snap_tol of the plane are taken exactly
    (keeps the construction idempotent).
    """
    nx, ny, nz = normal
    ax, ay, az = anchor
    nseg = len(points) - 1
    seg, t = start_seg, start_t
    if seg < nseg:
        (x0, y0, z0), (x1, y1, z1) = points[seg], points[seg + 1]
        s = 1.0 - t
        g_prev = _offset(normal, anchor, (x0 * s + x1 * t, y0 * s + y1 * t, z0 * s + z1 * t))
    else:
        g_prev = _offset(normal, anchor, points[-1])
    while seg < nseg:
        x, y, z = nxt = points[seg + 1]
        g_next = nx * (x - ax) + ny * (y - ay) + nz * (z - az)  # _offset, inlined
        if abs(g_next) <= snap_tol:
            return nxt, seg + 1, 0.0
        if g_prev != 0.0 and (g_prev < 0.0) != (g_next < 0.0):
            t_star = t + g_prev / (g_prev - g_next) * (1.0 - t)
            s = 1.0 - t_star
            x0, y0, z0 = points[seg]
            return (x0 * s + x * t_star, y0 * s + y * t_star, z0 * s + z * t_star), seg, t_star
        seg, t = seg + 1, 0.0
        g_prev = g_next
    return None


def resample_equal_volume(f: FramedPolygon, df: DarbouxField) -> ResampleResult:
    """Rebuild an open framed polygon so its Darboux volumes are constant.

    Keeps the first three vertices and their field vectors, then
    repeatedly intersects the plane through the vertex three steps back,
    parallel to the current face, with the remainder of the input
    polyline.  Each new vertex direction interpolates the input edge
    directions on the side it lands on and is projected into the current
    face so the output frame is exactly coplanar.

    The march is sequential and runs on Python floats: each step is a
    few dozen scalar operations, which numpy calls on 3-vectors would
    only slow down.

    ``truncated`` is set when the march stalls: the input polyline ends
    with its last side not running towards the next search plane, so no
    longer input of the same trend would have produced another vertex.
    An input that simply ends before the next plane is not truncated.
    """
    if f.closed:
        raise GeometryError("resampling is defined for open polygonal lines")
    n = len(f.polygon)
    if n < 4:
        raise GeometryError("need at least 4 vertices")
    dh_arr = f.unit_directions.values
    pts = f.polygon.points.tolist()
    dh = dh_arr.tolist()
    snap_tol = 1e-12 * f.polygon.diameter()

    new_p = pts[:3]
    new_dir = dh[:3]
    new_s = [float(np.dot(df.xi.values[i], dh_arr[i])) for i in range(3)]
    seg, t = 2, 0.0

    while True:
        p_back, p_mid, p_cur = new_p[-3:]
        s_mid, u_mid = new_s[-2], new_dir[-2]
        edge = (p_cur[0] - p_mid[0], p_cur[1] - p_mid[1], p_cur[2] - p_mid[2])
        normal = _cross(edge, (s_mid * u_mid[0], s_mid * u_mid[1], s_mid * u_mid[2]))
        nn = _norm(normal)
        if nn == 0.0:
            raise GeometryError("degenerate face during resampling")
        normal = (normal[0] / nn, normal[1] / nn, normal[2] / nn)

        hit = _plane_crossing(pts, normal, p_back, seg, t, snap_tol)
        if hit is None:
            # the polyline ended before the plane; the march stalled only
            # if its last side (along which the offset is linear) does not
            # run towards the plane
            truncated = (seg + t < n - 1 - 1e-12
                         and abs(_offset(normal, p_back, pts[-1]))
                         >= abs(_offset(normal, p_back, pts[-2])))
            break
        pt, seg, t = hit
        d0, d1 = dh[seg], dh[min(seg + 1, n - 1)]
        s = 1.0 - t
        d_new = (s * d0[0] + t * d1[0], s * d0[1] + t * d1[1], s * d0[2] + t * d1[2])
        # keep the new frame exactly coplanar with the face it closes
        d_prev = new_dir[-1]
        side_new = (pt[0] - p_cur[0], pt[1] - p_cur[1], pt[2] - p_cur[2])
        face_n = _cross(side_new, d_prev)
        fn = _norm(face_n)
        if fn == 0.0:
            raise GeometryError("new side parallel to the frame direction")
        face_n = (face_n[0] / fn, face_n[1] / fn, face_n[2] / fn)
        k = d_new[0] * face_n[0] + d_new[1] * face_n[1] + d_new[2] * face_n[2]
        d_new = (d_new[0] - k * face_n[0], d_new[1] - k * face_n[1], d_new[2] - k * face_n[2])
        dn = _norm(d_new)
        if dn <= 1e-12:
            raise GeometryError("interpolated direction collapsed during projection")
        d_new = (d_new[0] / dn, d_new[1] / dn, d_new[2] / dn)

        # parallel continuation of the field along the new side: solve
        # p d_prev + q d_new = side_new on the two coordinates the face
        # normal leaves largest, by elimination with partial pivoting
        fa = [abs(c) for c in face_n]
        drop = fa.index(max(fa))
        i0, i1 = [j for j in range(3) if j != drop]
        a00, a01, r0 = d_prev[i0], d_new[i0], side_new[i0]
        a10, a11, r1 = d_prev[i1], d_new[i1], side_new[i1]
        if abs(a10) > abs(a00):
            a00, a01, r0, a10, a11, r1 = a10, a11, r1, a00, a01, r0
        if a00 == 0.0:
            raise GeometryError("singular face basis during resampling")
        m = a10 / a00
        u11 = a11 - m * a01
        if u11 == 0.0:
            raise GeometryError("singular face basis during resampling")
        q_coef = (r1 - m * r0) / u11
        p_coef = (r0 - a01 * q_coef) / a00
        if p_coef == 0.0:
            raise GeometryError("degenerate Darboux recursion during resampling")
        new_p.append(pt)
        new_dir.append(d_new)
        new_s.append(-q_coef * new_s[-1] / p_coef)

    framed = FramedPolygon.build(new_p, new_dir, closed=False)
    return ResampleResult(framed, truncated)
