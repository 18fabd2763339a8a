import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    face_planarity,
    frame_flags,
    random_cone_fixture,
    random_equal_volume_polygon,
    random_generic_framed,
    reversed_frame,
)

from evpoly.core import GeometryError, Grid, GridSeq, Polygon3, Topology
from evpoly.darboux import (
    FramedPolygon,
    SurfaceKind,
    classify_osculating,
    osculating_developable,
    osculating_points,
    parallel_darboux,
    validate_frame,
)


def helix_points(n=20):
    t = np.linspace(0, 3.0, n)
    return np.stack([np.cos(t), np.sin(t), 0.3 * t], axis=1)


@pytest.mark.parametrize("directions, message", [
    (lambda p: p[:, :2], "directions must be 3-vectors"),
    (lambda p: np.zeros_like(p), "zero direction vector"),
    # |d|^2 of the first direction, (1e-300, 0, 0), underflows to 0
    (lambda p: p * 1e-300,
     "vertex 0: its direction's length underflows to 0, though the direction is not zero"),
], ids=["planar", "zero", "underflow"])
def test_framed_polygon_refuses_directions(directions, message):
    pts = helix_points(6)
    with pytest.raises(GeometryError, match=f"^{message}$"):
        FramedPolygon.build(pts, directions(pts))


@pytest.mark.parametrize("directions, message", [
    (lambda p: GridSeq(p[:-1], Grid.VERTEX), "directions must sit on the polygon's vertex grid"),
    (lambda p: GridSeq(p, Grid.SIDE), "directions must sit on the polygon's vertex grid"),
    (lambda p: GridSeq(p, Grid.VERTEX, Topology.CLOSED), "directions and polygon topology disagree"),
], ids=["short", "side-grid", "closed"])
def test_framed_polygon_refuses_directions_off_its_vertex_grid(directions, message):
    pts = helix_points(6)
    with pytest.raises(GeometryError, match=f"^{message}$"):
        FramedPolygon(Polygon3.from_points(pts), directions(pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_silhouette_refuses_a_non_finite_apex(bad):
    with pytest.raises(GeometryError, match="^non-finite apex$"):
        FramedPolygon.silhouette(helix_points(6), (0.0, bad, 0.0))


@pytest.mark.parametrize("apex", [(0.0, 0.0), (0.0, 0.0, 0.0, 1.0), 1.0, np.ones((6, 3))],
                         ids=["2-vector", "4-vector", "scalar", "per-vertex"])
def test_silhouette_refuses_an_apex_that_is_not_one_3_vector(apex):
    with pytest.raises(GeometryError, match=r"^apex must be one 3-vector, got shape \("):
        FramedPolygon.silhouette(helix_points(6), apex)


class TestValidateFrame:
    def test_generic_frame_is_valid(self, rng):
        f = random_generic_framed(rng)
        assert validate_frame(f) is None

    def test_detects_non_coplanar_face(self, rng):
        f = random_generic_framed(rng)
        d = f.directions.values.copy()
        d[3] += np.array([0.0, 0.0, 0.31])
        bad = FramedPolygon.build(f.polygon.points, d)
        sides, _ = frame_flags(bad)
        assert 2 in sides or 3 in sides

    def test_detects_tangent_direction(self):
        pts = helix_points(8)
        d = np.tile([0.0, 0.0, 1.0], (8, 1))
        d[4] = pts[5] - pts[4]
        _, vertices = frame_flags(FramedPolygon.build(pts, d))
        assert 4 in vertices


class TestParallelDarboux:
    def test_field_carries_its_frame(self, rng):
        f, _ = random_cone_fixture(rng)
        df = parallel_darboux(f)
        assert df.frame is f

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-16, 1e-100, 1e100])
    def test_scale_covariance(self, scale):
        # the unit-length xi(0) fixes the field, so scaling the polygon by s
        # keeps xi and divides sigma by s: no gate sees the absolute size
        p = random_equal_volume_polygon(np.random.default_rng(3), 20)
        ref = parallel_darboux(FramedPolygon.silhouette(p.points))
        df = parallel_darboux(FramedPolygon.silhouette(scale * p.points))
        np.testing.assert_allclose(df.sigma.values * scale, ref.sigma.values, rtol=1e-14)
        np.testing.assert_allclose(df.xi.values, ref.xi.values, rtol=0, atol=1e-14)

    def test_silhouette_sigma_is_constant(self, rng):
        f, apex = random_cone_fixture(rng, 40)
        df = parallel_darboux(f)
        s = df.sigma.values
        assert np.max(np.abs(s - s[0])) <= 1e-10 * abs(s[0])

    def test_silhouette_with_position_vectors(self):
        # directions = position vectors and xi seeded along them: the
        # defining relation xi' = -sigma phi' fixes sigma = s / p where
        # phi' = p d0 + q d1; for a centered silhouette all sigma agree.
        pts = helix_points(12) + np.array([0, 0, 2.0])
        f = FramedPolygon.silhouette(pts)
        df = parallel_darboux(f)
        e = f.polygon.sides().values
        xi = df.xi.values
        for k in range(len(e)):
            lhs = xi[k + 1] - xi[k]
            rhs = -df.sigma.values[k] * e[k]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_prism_gives_sigma_zero(self):
        pts = helix_points(10)
        d = np.tile([0.1, -0.2, 1.0], (10, 1))
        df = parallel_darboux(FramedPolygon.build(pts, d))
        np.testing.assert_allclose(df.sigma.values, 0.0)
        # the field itself is constant along the prism
        assert np.max(np.abs(df.xi.values - df.xi.values[0])) < 1e-14

    def test_xi_prime_tangency_relation(self, rng):
        # xi' = -sigma phi' on every side, for any valid frame
        f = random_generic_framed(rng, 20)
        df = parallel_darboux(f)
        e = f.polygon.sides().values
        dxi = df.xi.values[1:] - df.xi.values[:-1]
        np.testing.assert_allclose(dxi, -df.sigma.values[:, None] * e, atol=1e-9)

    def test_closed_holonomy_one_for_silhouette(self):
        t = np.linspace(0, 2 * np.pi, 13)[:-1]
        pts = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
        f = FramedPolygon.silhouette(pts, closed=True)
        df = parallel_darboux(f)
        assert df.holonomy == pytest.approx(1.0, rel=1e-12)

    def test_rejects_invalid_frame(self, rng):
        f = random_generic_framed(rng)
        d = f.directions.values.copy()
        d[2] = d[2] + np.array([0.0, 0.47, 0.0])
        with pytest.raises(GeometryError):
            parallel_darboux(FramedPolygon.build(f.polygon.points, d))

    def test_side_parallel_to_far_direction_is_degenerate(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 1, 0], [2, 1, 1]], float)
        d = np.array([[0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]], float)
        # face 1: side (1,1,0) = p*d1 + q*d2 forces a solve; make d2 the side
        d[2] = pts[2] - pts[1]
        with pytest.raises(GeometryError):
            parallel_darboux(FramedPolygon.build(pts, d))


class TestOsculatingPoints:
    def test_cone_points_at_apex(self, rng):
        f, apex = random_cone_fixture(rng, 25)
        df = parallel_darboux(f)
        pts = osculating_points(df)
        assert not np.isnan(pts.values).any()
        err = np.abs(pts.values - apex).max()
        assert err <= 1e-9 * f.polygon.diameter()

    def test_far_end_gives_the_same_point(self, rng):
        # O(k) is phi(k) + xi(k)/sigma(k); the field is parallel, so the
        # support line through phi(k+1) meets it at the same point
        f = random_generic_framed(rng, 20)
        df = parallel_darboux(f)
        near = osculating_points(df).values
        p, xi, s = f.polygon.points, df.xi.values, df.sigma.values
        far = p[1:] + xi[1:] / s[:, None]
        scale = np.maximum(np.linalg.norm(near - p[:-1], axis=1), f.polygon.diameter())
        assert (np.linalg.norm(near - far, axis=1) <= 1e-10 * scale).all()

    @given(n=st.integers(12, 80), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reversed_frame_gives_the_same_points_and_rulings(self, n, seed):
        # O and the rulings come from the frame and p, not from the field's
        # size, which the reversed frame's recursion fixes at the other end:
        # its side n-2-k is side k, taken from its far end, and its rulings
        # are the same unit directions, up to sign
        f = random_generic_framed(np.random.default_rng(seed), n)
        assume(frame_flags(f) == ([], []))
        df, dg = parallel_darboux(f), parallel_darboux(reversed_frame(f))
        near, back = osculating_points(df).values, osculating_points(dg).values[::-1]
        scale = np.maximum(np.linalg.norm(near - f.polygon.points[:-1], axis=1),
                           f.polygon.diameter())
        assert (np.linalg.norm(near - back, axis=1) <= 1e-10 * scale).all()

        def rulings(field):
            rows = osculating_developable(field).rows
            x = rows[1::2] - rows[0::2]
            return x / np.linalg.norm(x, axis=1)[:, None]

        cosines = np.einsum("ij,ij->i", rulings(df), rulings(dg)[::-1])
        assert np.allclose(np.abs(cosines), 1.0, rtol=0.0, atol=1e-12)

    def test_prism_all_at_infinity(self):
        pts = helix_points(8)
        d = np.tile([0.0, 0.1, 1.0], (8, 1))
        f = FramedPolygon.build(pts, d)
        seq = osculating_points(parallel_darboux(f))
        assert len(seq) == 7
        assert np.all(np.isnan(seq.values))


class TestDevelopable:
    def test_faces_are_planar(self, rng):
        f = random_generic_framed(rng, 12)
        mesh = osculating_developable(parallel_darboux(f))
        assert len(mesh.faces) == 11
        assert face_planarity(mesh).max() <= 1e-9 * f.polygon.diameter()

    def test_cone_faces_contain_apex_line(self, rng):
        f, apex = random_cone_fixture(rng, 15)
        mesh = osculating_developable(parallel_darboux(f))
        for face in mesh.faces:
            quad = mesh.vertices[face]
            c = quad.mean(axis=0)
            nrm = np.cross(quad[1] - quad[0], quad[2] - quad[0])
            nrm /= np.linalg.norm(nrm)
            assert abs(np.dot(apex - c, nrm)) < 1e-8


class TestClassify:
    def test_cone(self, rng):
        f, apex = random_cone_fixture(rng, 200)
        df = parallel_darboux(f)
        cls = classify_osculating(df)
        assert cls.kind is SurfaceKind.CONE
        assert np.abs(cls.apex - apex).max() < 1e-8

    def test_cylinder(self):
        pts = helix_points(10)
        d = np.tile([0.0, 0.3, 1.0], (10, 1))
        f = FramedPolygon.build(pts, d)
        cls = classify_osculating(parallel_darboux(f))
        assert cls.kind is SurfaceKind.CYLINDER

    def test_generic(self, rng):
        f = random_generic_framed(rng, 25)
        cls = classify_osculating(parallel_darboux(f))
        assert cls.kind is SurfaceKind.GENERAL

    def test_perturbed_cone_flips_to_general(self, rng):
        f, apex = random_cone_fixture(rng, 200)
        pts, d = f.polygon.points, f.directions.values.copy()
        # the last direction turned within its face: every face stays
        # planar, and that direction's line misses the apex
        d[-1] += 1e-3 * (pts[-1] - pts[-2])
        f2 = FramedPolygon.build(pts, d)
        validate_frame(f2)
        cls = classify_osculating(parallel_darboux(f2))
        assert cls.kind is SurfaceKind.GENERAL
