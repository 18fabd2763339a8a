import numpy as np
import pytest

from conftest import random_equal_volume_polygon, silhouette_frenet

from evpoly.core import GeometryError, Grid, GridSeq, Polygon3, Topology
from evpoly.constructions import (
    ExampleSpiralRepresentative,
    random_equal_area,
    regular_equal_area,
    sample_curve,
    silhouette_lift,
)
from evpoly.darboux import FramedPolygon, parallel_darboux
from evpoly.equal_volume import EQUAL_VOLUME_TOL, centroaffine_volumes
from evpoly.invariants import (
    FocalKind,
    GaugeObstructionError,
    NotEqualVolumeError,
    centroaffine_frenet,
    classify_focal,
    focal_data,
    focal_set_mesh,
    frenet,
    lambda_from_tau,
    mu_prime_check,
    planar_reduction,
)


def silhouette_pipeline(pts, closed=False):
    f = FramedPolygon.silhouette(pts, closed=closed)
    df = parallel_darboux(f)
    fr = frenet(f, df)
    return f, df, fr


class TestFrenet:
    def test_fast_path_matches_solve(self, rng):
        for _ in range(40):
            p = random_equal_volume_polygon(rng, 10)
            fa = centroaffine_frenet(p)
            fb = silhouette_frenet(p)
            np.testing.assert_allclose(fa.rho1.values, fb.rho1.values, atol=1e-9)
            np.testing.assert_allclose(fa.rho2.values, fb.rho2.values, atol=1e-9)
            np.testing.assert_allclose(fa.tau.values, fb.tau.values, atol=1e-9)

    def test_compatibility_identity(self, rng):
        # -tau sigma = rho2(i) - rho1(i+1), with sigma = -1 centro-affinely
        for _ in range(25):
            p = random_equal_volume_polygon(rng, 12)
            fr = centroaffine_frenet(p)
            n = len(p)
            sigma = GridSeq(np.full(n - 1, -1.0), Grid.SIDE, Topology.OPEN)
            assert fr.compatibility_residual(sigma).max() <= 1e-9

    def test_tau_evaluations_agree(self, rng):
        p = random_equal_volume_polygon(rng, 12)
        fr = silhouette_frenet(p)
        assert fr.tau_gap.values.max() <= 1e-9

    def test_windows_open(self, rng):
        p = random_equal_volume_polygon(rng, 9)
        fr = centroaffine_frenet(p)
        # third differences exist on sides 1 .. N-3 (here N = 9)
        assert list(fr.rho2.slots) == [1, 2, 3, 4, 5, 6]
        assert list(fr.rho1.slots) == [2, 3, 4, 5, 6, 7]
        assert list(fr.tau.slots) == [1, 2, 3, 4, 5, 6]

    def test_spiral_representative_matches_smooth_limits(self):
        # for the log-spiral representative rho -> 2/3 and tau -> 20/27
        # per unit parameter as the sampling refines
        n = 2000
        h = 2 * np.pi / n
        poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, n)
        fr = centroaffine_frenet(poly)
        rho_density = fr.rho2.values / h ** 2
        tau_density = fr.tau.values / h ** 3
        mid = slice(100, -100)
        assert np.median(rho_density[mid]) == pytest.approx(2.0 / 3.0, abs=5e-3)
        assert np.median(tau_density[mid]) == pytest.approx(20.0 / 27.0, abs=5e-2)

    def test_exact_mode_rejects_varying_volumes(self, rng):
        # both Frenet paths refuse through the same gate, naming the worst vertex
        p = Polygon3.from_points(rng.normal(size=(9, 3)) + np.array([0, 0, 5.0]))
        rep = centroaffine_volumes(p)
        worst = int(rep.volumes.slots[np.argmax(np.abs(rep.values - rep.c_hat))])
        for solve in (centroaffine_frenet, silhouette_frenet):
            with pytest.raises(NotEqualVolumeError, match=rf"^vertex {worst}: ") as info:
                solve(p)
            err = info.value
            assert (err.vertex, err.threshold) == (worst, EQUAL_VOLUME_TOL)
            # the framed solve measures [side, side, xi]: the same volumes, rounded apart
            assert err.spread == pytest.approx(rep.spread, rel=1e-9)
            assert f"volume spread {err.spread:.3e} exceeds 1e-08" in str(err)

    @pytest.mark.parametrize("solve", [centroaffine_frenet, silhouette_frenet],
                             ids=["determinant", "solve"])
    def test_base_point_moves_with_the_polygon(self, rng, solve):
        p = random_equal_volume_polygon(rng, 12)
        o = np.array([0.7, -1.2, 0.4])
        moved = solve(Polygon3.from_points(p.points + o), origin=o)
        fr = solve(p)
        for name in ("rho1", "rho2", "tau"):
            np.testing.assert_allclose(getattr(moved, name).values, getattr(fr, name).values,
                                       atol=1e-9)


class TestLambdaGauge:
    def test_anti_difference(self, rng):
        tau = GridSeq(rng.normal(size=6), Grid.SIDE, base=1)
        lam = lambda_from_tau(tau, 3, 0.25)
        assert lam.at(3) == 0.25
        for k in tau.slots:
            assert lam.at(k) - lam.at(k + 1) == pytest.approx(tau.at(k))

    def test_gauge_shift_is_additive(self, rng):
        tau = GridSeq(rng.normal(size=6), Grid.SIDE, base=1)
        l0 = lambda_from_tau(tau, 1, 0.0)
        l1 = lambda_from_tau(tau, 1, 2.0)
        np.testing.assert_allclose(l1.values - l0.values, 2.0)

    def test_closed_obstruction(self, rng):
        vals = rng.normal(size=7)
        tau = GridSeq(vals, Grid.SIDE, Topology.CLOSED)
        if abs(vals.sum()) > 1e-6:
            with pytest.raises(GaugeObstructionError):
                lambda_from_tau(tau, 0, 0.0)
        balanced = GridSeq(vals - vals.mean(), Grid.SIDE, Topology.CLOSED)
        lam = lambda_from_tau(balanced, 0, 0.0)
        for k in range(7):
            gap = lam.values[k] - lam.values[(k + 1) % 7]
            assert gap == pytest.approx(balanced.values[k], abs=1e-9)


class TestFocalSet:
    def test_single_line_for_silhouette_lift(self, rng):
        for _ in range(10):
            G = random_equal_area(12, rng)
            P = rng.normal(size=2) * 0.3
            phi = silhouette_lift(G, P)
            f, df, fr = silhouette_pipeline(phi.points)
            fd = focal_data(f, df, fr)
            fc = classify_focal(df, fd)
            assert fc.kind is FocalKind.SINGLE_LINE
            assert fc.mu_spread <= 1e-9

    def test_focal_lines_are_gauge_invariant(self, rng):
        G = random_equal_area(12, rng)
        phi = silhouette_lift(G, [0.2, -0.1])
        f, df, fr = silhouette_pipeline(phi.points)
        fd0 = focal_data(f, df, fr, gauge=(fr.tau.base, 0.0))
        fd1 = focal_data(f, df, fr, gauge=(fr.tau.base, 3.7))
        for ln0, ln1 in zip(fd0.lines, fd1.lines):
            o0, d0 = ln0
            o1, d1 = ln1
            # same line: both anchor points and both directions colinear
            assert np.linalg.norm(np.cross(d0, d1)) <= 1e-9
            assert np.linalg.norm(np.cross(o1 - o0, d0)) <= 1e-8

    def test_mu_prime_identity(self, rng):
        G = random_equal_area(14, rng)
        phi = silhouette_lift(G, [0.1, 0.3])
        f, df, fr = silhouette_pipeline(phi.points)
        fd = focal_data(f, df, fr)
        rep = mu_prime_check(fr, fd, df.sigma)
        assert rep.max_residual <= 1e-9

    def test_generic_polygon_is_not_single_line(self, rng):
        p = random_equal_volume_polygon(rng, 12)
        f, df, fr = silhouette_pipeline(p.points)
        fd = focal_data(f, df, fr)
        assert classify_focal(df, fd).kind is FocalKind.GENERAL

    def test_mesh_faces_are_planar(self, rng):
        p = random_equal_volume_polygon(rng, 12)
        f, df, fr = silhouette_pipeline(p.points)
        fd = focal_data(f, df, fr)
        mesh = focal_set_mesh(fd)
        assert mesh.faces
        scale = np.abs(mesh.vertices).max()
        assert mesh.face_planarity().max() <= 1e-8 * scale


class TestPlanarReduction:
    @pytest.mark.parametrize("n", [5, 7, 12, 100])
    def test_regular_gon_curvature(self, n):
        G = regular_equal_area(n)
        pts3 = np.column_stack([G.Gamma.values, np.zeros(n)])
        red = planar_reduction(Polygon3.from_points(pts3, closed=True), [0, 0, 1])
        assert red.equal_area
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / n)
        np.testing.assert_allclose(red.rho.values, expected, atol=1e-10)

    def test_rejects_nonplanar(self, rng):
        pts = rng.normal(size=(8, 3))
        with pytest.raises(GeometryError):
            planar_reduction(Polygon3.from_points(pts), [0, 0, 1])

    def test_evolute_of_regular_gon_is_center(self):
        G = regular_equal_area(9)
        pts3 = np.column_stack([G.Gamma.values, np.zeros(9)])
        red = planar_reduction(Polygon3.from_points(pts3, closed=True), [0, 0, 1])
        assert np.abs(red.evolute).max() <= 1e-10
