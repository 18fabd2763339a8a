"""Equal-volume conditions and the inductive equal-volume resampler.

Two flavours of the constant-volume condition are evaluated here: the
framed-polygon determinant [side, side, xi] and the centro-affine
determinant of vertex triples about the origin.  The resampler rebuilds
a framed polygon so the first condition holds exactly, moving vertices
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
    dot3,
    median,
)
from .darboux import DarbouxField, FramedPolygon, once_per_field

__all__ = [
    "VolumeReport",
    "ResampleResult",
    "darboux_volumes",
    "centroaffine_volumes",
    "NotEqualVolumeError",
    "volume_constant",
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
    if denom > 0:
        dev = np.subtract(vols, c_hat)
        spread = float(np.maximum.reduce(np.abs(dev, out=dev)) / denom)  # .max() bit for bit
    else:
        spread = np.inf
    return VolumeReport(GridSeq(vols, Grid.VERTEX, topology, base), c_hat, spread)


@once_per_field
def darboux_volumes(df: DarbouxField) -> VolumeReport:
    """Volumes [side(i-1/2), side(i+1/2), xi(i)] at interior vertices.

    Evaluated once per field; later calls share the report.
    """
    p = df.frame.polygon
    if len(p) < 3:
        raise GeometryError("need at least 3 vertices")
    first, (e_left, e_right) = p.sides().stencil(-1, 0)
    xi = df.xi.window(first, len(e_left))
    return _report(det3(e_left, e_right, xi), p.topology, first)


def centroaffine_volumes(p: Polygon3) -> VolumeReport:
    """Volumes of consecutive vertex triples about the origin."""
    if len(p) < 3:
        raise GeometryError("need at least 3 vertices")
    first, (q0, q1, q2) = p.vertices.stencil(-1, 0, 1)
    return _report(det3(q0, q1, q2), p.topology, first)


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


def volume_constant(rep: VolumeReport) -> float:
    """The volume constant c of a report whose spread is within ``EQUAL_VOLUME_TOL``,
    else NotEqualVolumeError.  A spread below 1 already gives every volume
    c_hat's sign, so no separate sign check is needed."""
    if not rep.spread <= EQUAL_VOLUME_TOL:
        j = int(np.argmax(np.abs(rep.values - rep.c_hat)))
        raise NotEqualVolumeError(rep.volumes.base + j, rep.spread, EQUAL_VOLUME_TOL)
    return rep.c_hat


@dataclass(frozen=True)
class ResampleResult:
    framed: FramedPolygon
    truncated: bool


def resample_equal_volume(df: DarbouxField) -> ResampleResult:
    """Rebuild the field's open framed polygon so its Darboux volumes are constant.

    Keeps the first three vertices and their field vectors, then
    repeatedly intersects the plane through the vertex three steps back,
    parallel to the current face, with the remainder of the input
    polyline.  Each new vertex direction interpolates the input edge
    directions on the side it lands on and is projected into the current
    face so the output frame is exactly coplanar.

    The march is sequential and written as one loop on Python floats:
    each step is a few dozen scalar operations, which numpy calls on
    3-vectors would only slow down.  The last three vertices, the last
    two directions and the last two scales are held in float locals;
    the output lists are only appended to.

    ``truncated`` is set when the march stalls: the input polyline ends
    with its last side not running towards the next search plane, so no
    longer input of the same trend would have produced another vertex.
    An input that simply ends before the next plane is not truncated.
    """
    f = df.frame
    if f.closed:
        raise GeometryError("resampling is defined for open polygonal lines")
    n = len(f.polygon)
    if n < 4:
        raise GeometryError("need at least 4 vertices")
    dh_arr = f.unit_directions.values
    pts = f.polygon.points.tolist()
    dh = dh_arr.tolist()
    snap_tol = 1e-12 * f.polygon.diameter()
    nseg = n - 1

    new_p = pts[:3]
    new_dir = dh[:3]
    (bx, by, bz), (mx, my, mz), (cx, cy, cz) = new_p
    _, (ux, uy, uz), (vx, vy, vz) = new_dir
    s_mid, s_cur = dot3(df.xi.values[1:3], dh_arr[1:3]).tolist()
    # position (side, parameter) of the last vertex on the input polyline
    seg, t = 2, 0.0

    while True:
        # unit normal of the face through the last two vertices and the
        # field vector s_mid * u at the middle one
        ex, ey, ez = cx - mx, cy - my, cz - mz
        wx, wy, wz = s_mid * ux, s_mid * uy, s_mid * uz
        nx, ny, nz = ey * wz - ez * wy, ez * wx - ex * wz, ex * wy - ey * wx
        nn = math.sqrt(nx * nx + ny * ny + nz * nz)
        if nn == 0.0:
            raise GeometryError("degenerate face during resampling")
        nx, ny, nz = nx / nn, ny / nn, nz / nn

        # first forward crossing of the polyline with the plane through
        # the vertex three steps back; an input vertex within snap_tol of
        # the plane is taken exactly (keeps the construction idempotent)
        j, tj = seg, t
        if j < nseg:
            x0, y0, z0 = pts[j]
            x1, y1, z1 = pts[j + 1]
            s = 1.0 - tj
            g_prev = (nx * (x0 * s + x1 * tj - bx) + ny * (y0 * s + y1 * tj - by)
                      + nz * (z0 * s + z1 * tj - bz))
        while j < nseg:
            x, y, z = pts[j + 1]
            g_next = nx * (x - bx) + ny * (y - by) + nz * (z - bz)
            if abs(g_next) <= snap_tol:
                px, py, pz = x, y, z
                seg, t = j + 1, 0.0
                break
            if g_prev != 0.0 and (g_prev < 0.0) != (g_next < 0.0):
                t = tj + g_prev / (g_prev - g_next) * (1.0 - tj)
                s = 1.0 - t
                x0, y0, z0 = pts[j]
                px, py, pz = x0 * s + x * t, y0 * s + y * t, z0 * s + z * t
                seg = j
                break
            j, tj = j + 1, 0.0
            g_prev = g_next
        else:
            # the polyline ended before the plane; the march stalled only
            # if its last side (along which the offset is linear) does not
            # run towards the plane; (seg, t) is still the last vertex's
            # position, not the end of the scan
            (xa, ya, za), (xl, yl, zl) = pts[-2], pts[-1]
            truncated = (seg + t < n - 1 - 1e-12
                         and abs(nx * (xl - bx) + ny * (yl - by) + nz * (zl - bz))
                         >= abs(nx * (xa - bx) + ny * (ya - by) + nz * (za - bz)))
            break

        d0x, d0y, d0z = dh[seg]
        d1x, d1y, d1z = dh[min(seg + 1, nseg)]
        s = 1.0 - t
        dx, dy, dz = s * d0x + t * d1x, s * d0y + t * d1y, s * d0z + t * d1z
        # keep the new frame exactly coplanar with the face it closes
        sx, sy, sz = px - cx, py - cy, pz - cz
        fx, fy, fz = sy * vz - sz * vy, sz * vx - sx * vz, sx * vy - sy * vx
        fn = math.sqrt(fx * fx + fy * fy + fz * fz)
        if fn == 0.0:
            raise GeometryError("new side parallel to the frame direction")
        fx, fy, fz = fx / fn, fy / fn, fz / fn
        k = dx * fx + dy * fy + dz * fz
        dx, dy, dz = dx - k * fx, dy - k * fy, dz - k * fz
        dn = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dn <= 1e-12:
            raise GeometryError("interpolated direction collapsed during projection")
        dx, dy, dz = dx / dn, dy / dn, dz / dn

        # parallel continuation of the field along the new side: solve
        # p v + q d = side on the two coordinates left when the face
        # normal's largest one (the first, on a tie) is dropped, by
        # elimination with partial pivoting
        ax, ay, az = abs(fx), abs(fy), abs(fz)
        if az > (ay if ay > ax else ax):
            a00, a01, r0, a10, a11, r1 = vx, dx, sx, vy, dy, sy
        elif ay > ax:
            a00, a01, r0, a10, a11, r1 = vx, dx, sx, vz, dz, sz
        else:
            a00, a01, r0, a10, a11, r1 = vy, dy, sy, vz, dz, sz
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
        s_mid, s_cur = s_cur, -q_coef * s_cur / p_coef
        bx, by, bz, mx, my, mz, cx, cy, cz = mx, my, mz, cx, cy, cz, px, py, pz
        ux, uy, uz, vx, vy, vz = vx, vy, vz, dx, dy, dz
        new_p.append((px, py, pz))
        new_dir.append((dx, dy, dz))

    framed = FramedPolygon.build(new_p, new_dir, closed=False)
    return ResampleResult(framed, truncated)
