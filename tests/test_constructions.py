import numpy as np
import pytest

from conftest import (
    PlanarEqualAreaPolygon,
    affine_curvature,
    area_lift,
    lift_residuals,
    random_equal_area,
    regular_equal_area,
    silhouette_lift,
    support_function,
)

from evpoly.core import GeometryError, Polygon3
from evpoly.constructions import (
    Ellipse,
    ExampleSpiral,
    ExampleSpiralRepresentative,
    GridScheme,
    sample_curve,
)
from evpoly.equal_volume import centroaffine_volumes


def unit_square():
    pts = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], float)
    return PlanarEqualAreaPolygon.from_vertices(pts, closed=True)


class TestEqualAreaPolygon:
    def test_square_area_constant(self):
        G = unit_square()
        assert G.area_constant == pytest.approx(4.0)

    def test_measures_unequal_areas(self):
        pts = np.array([[0, 0], [1, 0], [2, 0.5], [2.5, 3.0], [1, 5]], float)
        assert PlanarEqualAreaPolygon.from_vertices(pts).area_spread > 1e-10

    def test_random_generator_is_exact(self, rng):
        for _ in range(10):
            G = random_equal_area(20, rng)
            assert G.area_constant == pytest.approx(1.0, rel=1e-12)
            assert G.area_spread <= 1e-10

    def test_normalized_has_unit_constant(self):
        G = unit_square().normalized()
        assert abs(G.area_constant) == pytest.approx(1.0, rel=1e-12)

    def test_regular_gon(self):
        for n in (3, 4, 5, 7, 9, 12, 100):
            G = regular_equal_area(n)
            assert G.area_constant == pytest.approx(1.0, rel=1e-12)
            assert G.area_spread <= 1e-8

    def test_regular_gon_curvature(self):
        for n in (5, 8, 40):
            k, _ = affine_curvature(regular_equal_area(n))
            np.testing.assert_allclose(k.values, 2 - 2 * np.cos(2 * np.pi / n),
                                       atol=1e-12)

    def test_regular_gon_evolute_is_center(self):
        _, evolute = affine_curvature(regular_equal_area(9))
        assert np.abs(evolute).max() <= 1e-10


class TestSupportFunction:
    def test_square_center(self):
        z = support_function(unit_square(), [0.0, 0.0])
        np.testing.assert_allclose(z.values, 2.0)

    def test_vanishes_on_support_line(self):
        G = unit_square()
        # gamma(1) joins (1,1) to (-1,1); its support line is y = 1
        z = support_function(G, [0.3, 1.0])
        assert z.values[1] == pytest.approx(0.0, abs=1e-14)

    def test_affine_in_base_point(self, rng):
        G = random_equal_area(10, rng)
        P = rng.normal(size=2)
        t = rng.normal(size=2)
        z0 = support_function(G, P).values
        z1 = support_function(G, P + t).values
        g = G.gamma.values
        shift = -(t[0] * g[:, 1] - t[1] * g[:, 0])
        np.testing.assert_allclose(z1 - z0, shift, atol=1e-12)


class TestLifts:
    def test_silhouette_lift_is_equal_volume(self, rng):
        for _ in range(8):
            G = random_equal_area(12, rng)
            phi = silhouette_lift(G, rng.normal(size=2) * 0.4)
            rep = centroaffine_volumes(phi)
            assert rep.spread <= 1e-9
            assert rep.c_hat == pytest.approx(1.0, rel=1e-9)

    def test_lift_equation_residuals(self, rng):
        for _ in range(8):
            G = random_equal_area(12, rng)
            r_g, r_z = lift_residuals(G, rng.normal(size=2) * 0.4)
            assert r_g <= 1e-9
            assert r_z <= 1e-9

    def test_area_lift_differences_to_silhouette_lift(self, rng):
        G = random_equal_area(10, rng)
        P = np.array([0.2, -0.3])
        Phi = area_lift(G, P)
        phi = silhouette_lift(G, P)
        np.testing.assert_allclose(np.diff(Phi, axis=0), phi.points, atol=1e-12)

    def test_area_lift_has_constant_space_volumes(self, rng):
        # a space polygon is equal-volume when its difference polygon is
        # equal-volume about the origin
        G = random_equal_area(12, rng)
        phi = np.diff(area_lift(G, [0.1, 0.1]), axis=0)
        assert centroaffine_volumes(Polygon3.from_points(phi)).spread <= 1e-9


class Diagonal:
    """The line t -> (t, t, t) in 3-space."""

    dim = 3

    def __call__(self, t):
        return np.stack([t, t, t], axis=-1)


class TestSampleCurve:
    def test_half_open_step(self):
        poly = sample_curve(Diagonal(), 0.0, 1.0, 10)
        assert len(poly) == 10
        assert poly.points[-1][0] == pytest.approx(0.9)

    def test_include_both_ends(self):
        poly = sample_curve(Diagonal(), 0.0, 1.0, 11, GridScheme.INCLUDE_BOTH_ENDS)
        assert poly.points[-1][0] == pytest.approx(1.0)

    def test_spiral_is_planar_output(self):
        pts = sample_curve(ExampleSpiral(), 0.0, 2 * np.pi, 10)
        assert pts.shape == (10, 2)

    def test_representative_is_polygon3(self):
        poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 10)
        assert isinstance(poly, Polygon3)

    def test_ellipse(self):
        pts = sample_curve(Ellipse(2.0, 0.5), 0.0, 2 * np.pi, 8)
        assert pts[0] == pytest.approx([2.0, 0.0])

    def test_bad_arguments(self):
        with pytest.raises(GeometryError):
            sample_curve(ExampleSpiral(), 0.0, 1.0, 3)
        with pytest.raises(GeometryError):
            sample_curve(ExampleSpiral(), 1.0, 0.0, 10)
        with pytest.raises(GeometryError, match="^unknown grid scheme 'midpoint'$"):
            sample_curve(ExampleSpiral(), 0.0, 1.0, 10, "midpoint")
