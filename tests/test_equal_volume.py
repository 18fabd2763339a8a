import os
import sys

import numpy as np
import pytest

from conftest import random_equal_volume_polygon, random_generic_framed

from evpoly.core import GeometryError, Grid, GridSeq, Polygon3
from evpoly.constructions import ExampleSpiralRepresentative, sample_curve
from evpoly.darboux import DarbouxField, FramedPolygon, parallel_darboux
from evpoly.equal_volume import (
    ResampleResult,
    centroaffine_volumes,
    darboux_volumes,
    is_equal_volume,
    resample_equal_volume,
    space_volumes,
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


class TestVolumeReports:
    def test_centroaffine_random_exact(self, rng):
        p = random_equal_volume_polygon(rng, 14, c=0.7)
        rep = centroaffine_volumes(p)
        assert rep.c_hat == pytest.approx(0.7, rel=1e-10)
        assert rep.spread < 1e-10
        assert is_equal_volume(rep)

    def test_analytic_spiral_representative_is_equal_volume(self):
        # uniform samples of the representative differ by a unimodular
        # linear map per step, so the triple volumes are exactly constant
        poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 200)
        rep = centroaffine_volumes(poly)
        assert rep.spread < 1e-10

    def test_darboux_volumes_match_centroaffine_for_silhouette(self):
        f = spiral_framed(50)
        df = parallel_darboux(f)
        rep_d = darboux_volumes(f, df)
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

    def test_sign_change_rejected(self):
        pts = np.array([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, -1], [1, 1, -1]], float)
        rep = centroaffine_volumes(Polygon3.from_points(pts))
        # a volume of the other sign lies more than |c| from c: the spread alone refuses it
        assert np.any(rep.values > 0) and np.any(rep.values < 0)
        assert rep.spread > 1.0
        assert not is_equal_volume(rep)

    def test_space_volumes_requires_side_grid(self):
        s = GridSeq(np.random.default_rng(1).normal(size=(6, 3)), Grid.VERTEX)
        with pytest.raises(GeometryError):
            space_volumes(s)

    def test_space_volumes_of_accumulated_polygon(self, rng):
        p = random_equal_volume_polygon(rng, 10, c=1.3)
        accum = np.vstack([np.zeros(3), np.cumsum(p.points, axis=0)])
        s = GridSeq(accum, Grid.SIDE)
        rep = space_volumes(s)
        assert rep.c_hat == pytest.approx(1.3, rel=1e-9)
        assert rep.spread < 1e-9


class TestResampler:
    def test_already_equal_volume_is_fixed_point(self):
        f = spiral_framed(200)
        df = parallel_darboux(f)
        res = resample_equal_volume(f, df)
        assert not res.truncated
        np.testing.assert_allclose(res.framed.polygon.points, f.polygon.points,
                                   atol=1e-12)

    def test_output_is_equal_volume(self):
        f = spiral_framed(400, jitter=0.3)
        df = parallel_darboux(f)
        assert darboux_volumes(f, df).spread > 1e-3
        res = resample_equal_volume(f, df)
        df2 = parallel_darboux(res.framed)
        rep = darboux_volumes(res.framed, df2)
        assert rep.spread <= 1e-9

    def test_idempotent(self):
        f = spiral_framed(400, jitter=0.3)
        res = resample_equal_volume(f, parallel_darboux(f))
        res2 = resample_equal_volume(res.framed, parallel_darboux(res.framed))
        n = min(len(res.framed.polygon), len(res2.framed.polygon))
        gap = np.abs(res.framed.polygon.points[:n] - res2.framed.polygon.points[:n])
        assert gap.max() <= 1e-12 * f.polygon.diameter()

    def test_vertices_stay_on_input_polyline(self):
        f = spiral_framed(250, jitter=0.3)
        res = resample_equal_volume(f, parallel_darboux(f))
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
            res = resample_equal_volume(f, parallel_darboux(f))
            assert len(res.framed.polygon) < len(f.polygon)
            assert not res.truncated

    def test_tail_turning_back_is_truncated(self):
        # the last 40 sides retrace the spiral: they run away from every
        # later search plane, so the march stalls with input left over
        pts = spiral_framed(300).polygon.points
        f = FramedPolygon.silhouette(np.vstack([pts, pts[-2:-42:-1]]))
        res = resample_equal_volume(f, parallel_darboux(f))
        assert res.truncated
        assert len(res.framed.polygon) <= len(pts) + 1

    def test_matches_numpy_reference(self):
        # the march amplifies a one-ulp change by 1-3 % per step, so
        # compare only a size where the two roundings stay close
        f = spiral_framed(400, jitter=0.3)
        df = parallel_darboux(f)
        got = resample_equal_volume(f, df).framed.polygon.points
        want = resample_numpy(f, df).framed.polygon.points
        assert len(got) == len(want) == 386
        assert np.array_equal(got[:3], f.polygon.points[:3])
        assert np.abs(got - want).max() <= 1e-10 * f.polygon.diameter()

    def test_numpy_calls_do_not_grow_with_input(self):
        def calls(n):
            f = spiral_framed(n, jitter=0.3)
            return numpy_calls(resample_equal_volume, f, parallel_darboux(f))

        assert calls(400) == calls(1600)

    def test_benchmark_input_contract(self):
        # the resample-export op at 4e3 input vertices, draw 0: the output
        # keeps the head, has about (n + 5)/4 vertices and is equal-volume
        n = 4000
        pts = jittered_dense_spiral(n, 0)
        f = FramedPolygon.silhouette(pts)
        res = resample_equal_volume(f, parallel_darboux(f))
        out = res.framed.polygon.points
        expected = (n + 5) / 4
        assert np.array_equal(out[:3], pts[:3])
        assert abs(len(out) - expected) <= 0.03 * expected
        assert darboux_volumes(res.framed, parallel_darboux(res.framed)).spread <= 1e-9

    def test_closed_input_rejected(self):
        t = np.linspace(0, 2 * np.pi, 11)[:-1]
        pts = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
        f = FramedPolygon.silhouette(pts, closed=True)
        with pytest.raises(GeometryError):
            resample_equal_volume(f, parallel_darboux(f))

    def test_too_short_rejected(self, rng):
        f = random_generic_framed(rng, 3)
        with pytest.raises(GeometryError):
            resample_equal_volume(f, parallel_darboux(f))
