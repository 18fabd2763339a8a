import math
import os
import sys

import numpy as np
import pytest

from conftest import parabola_prism, random_equal_volume_polygon, random_generic_framed

from evpoly.core import GeometryError, Polygon3, dot3
from evpoly.constructions import ExampleSpiralRepresentative, sample_curve
from evpoly.darboux import DarbouxField, FramedPolygon, parallel_darboux
from evpoly.equal_volume import (
    NotEqualVolumeError,
    ResampleResult,
    centroaffine_volumes,
    darboux_volumes,
    resample_equal_volume,
    volume_constant,
)


def spiral_framed(n=300, jitter=0.0):
    rep = ExampleSpiralRepresentative()
    t = np.linspace(0.0, 2 * np.pi, n)
    if jitter:
        t = t + jitter * (2 * np.pi / n) * np.sin(7 * t)
    pts = rep(t)
    return FramedPolygon.silhouette(pts, closed=False)


# The march as it was written with numpy calls on 3-vectors, kept verbatim
# as the reference for the float march in evpoly.equal_volume.  Not
# bit-identical to it: numpy's dot, norm and 2x2 solve round differently.
def plane_crossing_numpy(points, normal, anchor, start_seg, start_t, snap_tol):
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


def resample_numpy(f: FramedPolygon, df: DarbouxField) -> ResampleResult:
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
    dh = f.unit_directions.values
    scale = f.polygon.diameter()
    snap_tol = 1e-12 * scale

    new_p = [pts[0], pts[1], pts[2]]
    new_dir = [dh[0], dh[1], dh[2]]
    new_s = [float(dot3(df.xi.values[i], dh[i])) for i in range(3)]
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

        hit = plane_crossing_numpy(pts, normal, p_back, pos[0], pos[1], snap_tol)
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


# The float march as it was written with the helpers _plane_crossing,
# _cross, _norm and _offset, kept verbatim as the bit-identical reference
# for the one-loop march in evpoly.equal_volume.
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


def resample_helpers(df: DarbouxField) -> ResampleResult:
    """Rebuild the field's open framed polygon so its Darboux volumes are constant.

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

    new_p = pts[:3]
    new_dir = dh[:3]
    new_s = [float(dot3(df.xi.values[i], dh_arr[i])) for i in range(3)]
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


def numpy_calls(fn, *args) -> int:
    """Number of calls into numpy (Python or C functions) made while ``fn`` runs."""
    count = 0
    root = os.path.dirname(np.__file__)

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += frame.f_code.co_filename.startswith(root)
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            count += module.split(".")[0] == "numpy"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


def jittered_dense_spiral(n: int, draw: int) -> np.ndarray:
    """The dense input of the resample-export benchmark (perfbench/workloads.py)."""
    rep = ExampleSpiralRepresentative()
    rng = np.random.default_rng(draw)
    h = 2 * np.pi / n
    jitter = rng.uniform(-0.25, 0.25, n - 3)
    t = np.concatenate([[0.0, 4 * h, 8 * h], 8 * h + h * (np.arange(1, n - 2) + jitter)])
    return rep(t)


def assert_same_march(f: FramedPolygon) -> ResampleResult:
    df = parallel_darboux(f)
    got, want = resample_equal_volume(df), resample_helpers(df)
    assert np.array_equal(got.framed.polygon.points, want.framed.polygon.points)
    assert np.array_equal(got.framed.directions.values, want.framed.directions.values)
    assert got.truncated == want.truncated
    return got


class TestVolumeReports:
    def test_centroaffine_random_exact(self, rng):
        p = random_equal_volume_polygon(rng, 14, c=0.7)
        rep = centroaffine_volumes(p)
        assert rep.c_hat == pytest.approx(0.7, rel=1e-10)
        assert rep.spread < 1e-10
        assert volume_constant(rep) == rep.c_hat

    def test_analytic_spiral_representative_is_equal_volume(self):
        # uniform samples of the representative differ by a unimodular
        # linear map per step, so the triple volumes are exactly constant
        poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 200)
        rep = centroaffine_volumes(poly)
        assert rep.spread < 1e-10

    def test_darboux_volumes_match_centroaffine_for_silhouette(self):
        f = spiral_framed(50)
        df = parallel_darboux(f)
        rep_d = darboux_volumes(df)
        rep_c = centroaffine_volumes(f.polygon)
        # silhouette xi is the position field scaled by s(i) = |phi(i)|/|phi(0)|
        # only the constancy transfers, not the value
        assert rep_d.spread < 1e-9
        assert rep_c.spread < 1e-9

    def test_volume_slots_open(self, rng):
        p = random_equal_volume_polygon(rng, 8)
        rep = centroaffine_volumes(p)
        assert rep.volumes.base == 1
        assert len(rep.volumes) == 6

    def test_two_vertices_have_no_triple(self):
        p = Polygon3.from_points(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(GeometryError, match="^need at least 3 vertices$"):
            centroaffine_volumes(p)

    def test_sign_change_rejected(self):
        pts = np.array([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, -1], [1, 1, -1]], float)
        rep = centroaffine_volumes(Polygon3.from_points(pts))
        # a volume of the other sign lies more than |c| from c: the spread alone refuses it
        assert np.any(rep.values > 0) and np.any(rep.values < 0)
        assert rep.spread > 1.0
        with pytest.raises(NotEqualVolumeError):
            volume_constant(rep)


class TestResampler:
    def test_already_equal_volume_is_fixed_point(self):
        f = spiral_framed(200)
        df = parallel_darboux(f)
        res = resample_equal_volume(df)
        assert not res.truncated
        np.testing.assert_allclose(res.framed.polygon.points, f.polygon.points,
                                   atol=1e-12)

    def test_output_is_equal_volume(self):
        f = spiral_framed(400, jitter=0.3)
        df = parallel_darboux(f)
        assert darboux_volumes(df).spread > 1e-3
        res = resample_equal_volume(df)
        df2 = parallel_darboux(res.framed)
        rep = darboux_volumes(df2)
        assert rep.spread <= 1e-9

    def test_idempotent(self):
        f = spiral_framed(400, jitter=0.3)
        res = resample_equal_volume(parallel_darboux(f))
        res2 = resample_equal_volume(parallel_darboux(res.framed))
        n = min(len(res.framed.polygon), len(res2.framed.polygon))
        gap = np.abs(res.framed.polygon.points[:n] - res2.framed.polygon.points[:n])
        assert gap.max() <= 1e-12 * f.polygon.diameter()

    def test_vertices_stay_on_input_polyline(self):
        f = spiral_framed(250, jitter=0.3)
        res = resample_equal_volume(parallel_darboux(f))
        pts = f.polygon.points
        for q in res.framed.polygon.points:
            d = np.inf
            for a, b in zip(pts[:-1], pts[1:]):
                ab = b - a
                t = np.clip(np.dot(q - a, ab) / np.dot(ab, ab), 0.0, 1.0)
                d = min(d, np.linalg.norm(a + t * ab - q))
            assert d <= 1e-12 * f.polygon.diameter()

    def test_truncation_flag(self):
        # polyline is left over, but its last side still runs towards the
        # next search plane: the input ended, the march did not stall
        for n in (250, 400, 600):
            f = spiral_framed(n, jitter=0.3)
            res = resample_equal_volume(parallel_darboux(f))
            assert len(res.framed.polygon) < len(f.polygon)
            assert not res.truncated

    def test_tail_turning_back_is_truncated(self):
        # the last 40 sides retrace the spiral: they run away from every
        # later search plane, so the march stalls with input left over
        pts = spiral_framed(300).polygon.points
        f = FramedPolygon.silhouette(np.vstack([pts, pts[-2:-42:-1]]))
        res = resample_equal_volume(parallel_darboux(f))
        assert res.truncated
        assert len(res.framed.polygon) <= len(pts) + 1

    def test_matches_numpy_reference(self):
        # the march amplifies a one-ulp change by 1-3 % per step, so
        # compare only a size where the two roundings stay close
        f = spiral_framed(400, jitter=0.3)
        df = parallel_darboux(f)
        got = resample_equal_volume(df).framed.polygon.points
        want = resample_numpy(f, df).framed.polygon.points
        assert len(got) == len(want) == 386
        assert np.array_equal(got[:3], f.polygon.points[:3])
        assert np.abs(got - want).max() <= 1e-10 * f.polygon.diameter()

    @pytest.mark.parametrize("n", [4000, 12000])
    def test_matches_helper_reference_bit_for_bit(self, n):
        # the benchmark's jittered inputs: the one-loop march computes every
        # product and sum in the helpers' order, so nothing may move
        for draw in range(8):
            f = FramedPolygon.silhouette(jittered_dense_spiral(n, draw))
            assert_same_march(f)

    def test_retraced_tail_matches_helper_reference(self):
        pts = spiral_framed(300).polygon.points
        f = FramedPolygon.silhouette(np.vstack([pts, pts[-2:-42:-1]]))
        assert assert_same_march(f).truncated

    def test_numpy_calls_do_not_grow_with_input(self):
        def calls(n):
            f = spiral_framed(n, jitter=0.3)
            return numpy_calls(resample_equal_volume, parallel_darboux(f))

        assert calls(400) == calls(1600)

    def test_benchmark_input_contract(self):
        # the resample-export op at 4e3 input vertices, draw 0: the output
        # keeps the head, has about (n + 5)/4 vertices and is equal-volume
        n = 4000
        pts = jittered_dense_spiral(n, 0)
        f = FramedPolygon.silhouette(pts)
        res = resample_equal_volume(parallel_darboux(f))
        out = res.framed.polygon.points
        expected = (n + 5) / 4
        assert np.array_equal(out[:3], pts[:3])
        assert abs(len(out) - expected) <= 0.03 * expected
        assert darboux_volumes(parallel_darboux(res.framed)).spread <= 1e-9

    def test_closed_input_rejected(self):
        t = np.linspace(0, 2 * np.pi, 11)[:-1]
        pts = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
        f = FramedPolygon.silhouette(pts, closed=True)
        with pytest.raises(GeometryError):
            resample_equal_volume(parallel_darboux(f))

    def test_too_short_rejected(self, rng):
        f = random_generic_framed(rng, 3)
        with pytest.raises(GeometryError):
            resample_equal_volume(parallel_darboux(f))


# ---------------------------------------------------------------- refusals of the march


def planar_directions(pts, d2, forward):
    """Directions 0 .. 2 + ``forward`` on ``pts``, each face planar by construction:
    d1 = 0.5 side(1) + 0.7 d2 and d0 = 0.5 side(0) + 0.8 d1 back from d2, then
    d(k+1) = 0.4 side(k) + d(k)."""
    d1 = 0.5 * (pts[2] - pts[1]) + 0.7 * d2
    d = [0.5 * (pts[1] - pts[0]) + 0.8 * d1, d1, d2]
    for k in range(2, 2 + forward):
        d.append(0.4 * (pts[k + 1] - pts[k]) + d[k])
    return d


def nearly_tangent_start(scale):
    # d0 lies 1e-6 off side 0 in its face, so the field's scale at vertex 1
    # is about 1e-6: with the points scaled by 1e-158, side 1 crossed with
    # that field vector, the first face normal, underflows to 0
    pts = np.array([[0, 0, 0], [1, 0.5, 0.2], [2, 0.25, -0.3], [3, 0.5, 1], [4, 0.75, 1.5]])
    d = planar_directions(pts, np.array([0.3, 1.0, 0.4]), 2)
    d[0] = pts[1] - pts[0] + 1e-6 * d[1]
    return FramedPolygon.build(scale * pts, d)


def start_off_the_first_face_by(offset):
    # vertices 1, 2 and directions 1, 2 lie in z = 0 and vertex 0 at
    # z = offset, so the plane through vertex 0 meets side 2 about
    # ``offset`` from vertex 2: at 1e-170 the new side crossed with
    # direction 2 underflows to 0
    pts = np.array([[0, 0, offset], [1, 0.5, 0], [2, 0.25, 0], [3, 0.5, 1], [4, 0.75, 1.5]])
    return FramedPolygon.build(pts, planar_directions(pts, np.array([0.3, 1.0, 0.0]), 2))


def opposite_directions_across_the_plane():
    # vertex 0 lies in the plane z = 0 of the first face, and side 3 runs
    # from z = 1 to z = -1 between opposite directions: the march lands at
    # its midpoint, where the interpolated direction is 0
    pts = np.array([[0.0, 0, 0], [1, 0.5, 0], [2, 0, 0], [3, 0.5, 1], [4, 0, -1]])
    d = planar_directions(pts, np.array([0.3, 1.0, 0.0]), 1)
    return FramedPolygon.build(pts, d + [-d[3]])


def landing_along_its_own_direction():
    # vertex 2 is the origin and vertex 5 lies on the x axis, with
    # direction x, in the plane through vertex 0 parallel to the first face:
    # the march lands on vertex 5, and the side to it runs along the
    # direction it gets there, so p = 0 in side = p v + q d
    p0, p1, d2 = np.array([-2, 1, 0.5]), np.array([-1, 0.2, 0.1]), np.array([0.3, 1, 0.2])
    n = np.cross(p1, d2)  # the first face's normal
    pts = np.array([p0, p1, [0, 0, 0], [1, 0.5, -0.7], [2, 0.3, -1], [n @ p0 / n[0], 0, 0]])
    d4 = pts[5] - pts[4] + [0.8, 0, 0]
    # direction 3 in the faces of side 2, from the origin, and of side 3
    d3 = np.cross(np.cross(pts[3], d2), np.cross(pts[4] - pts[3], d4))
    return FramedPolygon.build(pts, planar_directions(pts, d2, 0) + [d3, d4, [1.0, 0, 0]])


@pytest.mark.parametrize("frame, message", [
    (lambda: nearly_tangent_start(1e-158), "degenerate face during resampling"),
    (lambda: start_off_the_first_face_by(1e-170), "new side parallel to the frame direction"),
    (opposite_directions_across_the_plane, "interpolated direction collapsed during projection"),
    # every direction along z: the new direction is the last one, whose
    # two coordinates left after dropping the normal's largest are (0, 1)
    (lambda: parabola_prism([3, 2, 3, 3, 2, 3]), "singular face basis during resampling"),
    (landing_along_its_own_direction, "degenerate Darboux recursion during resampling"),
], ids=["degenerate-face", "parallel-side", "collapsed-direction", "singular-basis",
        "degenerate-recursion"])
def test_march_refusals_name_their_cause(frame, message):
    df = parallel_darboux(frame())
    with pytest.raises(GeometryError, match=f"^{message}$"):
        resample_equal_volume(df)


def test_the_underflowing_marches_resample_at_a_larger_size():
    for f in (nearly_tangent_start(1e-150), start_off_the_first_face_by(1e-10)):
        res = resample_equal_volume(parallel_darboux(f))
        assert len(res.framed.polygon) >= 3
