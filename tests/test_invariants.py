import dataclasses

import numpy as np
import pytest

from conftest import (
    face_planarity,
    random_equal_area,
    random_equal_volume_polygon,
    regular_equal_area,
    silhouette_frenet,
    silhouette_lift,
)

from evpoly import invariants
from evpoly.core import GeometryError, Grid, GridSeq, Polygon3, Topology, cross3, face_solve
from evpoly.constructions import ExampleSpiralRepresentative, sample_curve
from evpoly.darboux import FramedPolygon, parallel_darboux
from evpoly.equal_volume import EQUAL_VOLUME_TOL, NotEqualVolumeError, centroaffine_volumes
from evpoly.invariants import (
    GAUGE_CLOSURE_TOL,
    FocalKind,
    centroaffine_frenet,
    classify_focal,
    focal_data,
    focal_lines,
    focal_set_mesh,
    frenet,
    lambda_from_tau,
)

GAUGE_REFUSAL = r"^closed polygon with sum\(tau\) = -?\d\.\d{3}e[+-]\d+: no periodic gauge exists$"


def silhouette_pipeline(pts, closed=False):
    df = parallel_darboux(FramedPolygon.silhouette(pts, closed=closed))
    return df, frenet(df)


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
        # -tau sigma = rho2(i) - rho1(i+1), with sigma = -1 centro-affinely;
        # the closed forms round rho1, rho2 and tau each on its own, while
        # frenet derives rho1 through the identity
        for _ in range(25):
            fr = centroaffine_frenet(random_equal_volume_polygon(rng, 12))
            assert np.abs(fr.tau.values - (fr.rho2.values - fr.rho1.values)).max() <= 1e-9

    def test_tau_evaluations_agree(self, rng):
        # frenet solves each face against xi(k+1) alone; the solve against
        # xi(k) gives rho1(k+1) and tau(k) again, and must agree with the
        # rho1 derived through the compatibility identity
        df, fr = silhouette_pipeline(random_equal_volume_polygon(rng, 12).points)
        k0, (em, e0, e1) = df.frame.polygon.sides().stencil(-1, 0, 1)
        d3, back = (e1 - e0) - (e0 - em), -e0
        xi_near = df.xi.window(k0, len(d3))
        rho1, tau = face_solve(d3, back, xi_near, cross3(back, xi_near))
        assert fr.tau.base == k0 and fr.rho1.base == k0 + 1
        assert np.abs(fr.tau.values - tau).max() <= 1e-9 * max(1.0, np.abs(tau).max())
        assert np.abs(fr.rho1.values - rho1).max() <= 1e-9 * max(1.0, np.abs(rho1).max())

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

    def test_base_point_moves_with_the_polygon(self, rng):
        p = random_equal_volume_polygon(rng, 12)
        o = np.array([0.7, -1.2, 0.4])
        moved = silhouette_frenet(Polygon3.from_points(p.points + o), origin=o)
        fr = silhouette_frenet(p)
        for name in ("rho1", "rho2", "tau"):
            np.testing.assert_allclose(getattr(moved, name).values, getattr(fr, name).values,
                                       atol=1e-9)


class TestLambdaGauge:
    def test_anti_difference(self, rng):
        tau = GridSeq(rng.normal(size=6), Grid.SIDE, base=1)
        lam = lambda_from_tau(tau, 0.25)
        assert lam.base == 1 and len(lam) == 7
        assert lam.at(1) == 0.25
        for k in tau.slots:
            assert lam.at(k) - lam.at(k + 1) == pytest.approx(tau.at(k))

    def test_gauge_shift_is_additive(self, rng):
        tau = GridSeq(rng.normal(size=6), Grid.SIDE, base=1)
        l0 = lambda_from_tau(tau, 0.0)
        l1 = lambda_from_tau(tau, 2.0)
        np.testing.assert_allclose(l1.values - l0.values, 2.0)

    def test_closed_obstruction(self, rng):
        vals = rng.normal(size=7)
        tau = GridSeq(vals, Grid.SIDE, Topology.CLOSED)
        if abs(vals.sum()) > 1e-6:
            with pytest.raises(GeometryError, match=GAUGE_REFUSAL):
                lambda_from_tau(tau, 0.0)
        balanced = GridSeq(vals - vals.mean(), Grid.SIDE, Topology.CLOSED)
        lam = lambda_from_tau(balanced, 0.0)
        for k in range(7):
            gap = lam.values[k] - lam.values[(k + 1) % 7]
            assert gap == pytest.approx(balanced.values[k], abs=1e-9)

    def test_closed_gauge_value_is_at_vertex_zero(self, rng):
        vals = rng.normal(size=7)
        tau = GridSeq(vals - vals.mean(), Grid.SIDE, Topology.CLOSED)
        lam = lambda_from_tau(tau, -1.5)
        assert lam.topology is Topology.CLOSED and lam.base == 0 and len(lam) == 7
        assert lam.values[0] == -1.5

    @pytest.mark.parametrize("size", [1e-6, 1.0, 1e6])
    def test_closed_gate_is_relative_to_sum_of_tau(self, rng, size):
        # below sum |tau| = 1 the gate is absolute, above it relative
        vals = rng.normal(size=7)
        vals = size * (vals - vals.mean())
        ref = GAUGE_CLOSURE_TOL * max(1.0, np.abs(vals).sum())
        vals[3] += 0.5 * ref
        lambda_from_tau(GridSeq(vals, Grid.SIDE, Topology.CLOSED), 0.0)
        vals[3] += 2.0 * ref
        with pytest.raises(GeometryError, match=GAUGE_REFUSAL):
            lambda_from_tau(GridSeq(vals, Grid.SIDE, Topology.CLOSED), 0.0)

    @pytest.mark.parametrize("n", [9, 12, 20, 30])
    def test_closed_gauge_exists_when_tau_is_roundoff(self, n):
        # tau vanishes on the closed silhouette lift of a regular polygon, so
        # what is left is roundoff: sum |tau| is 6e-14 to 5e-12 here, and
        # the gate measures the sum against max(1, sum |tau|)
        phi = silhouette_lift(regular_equal_area(n), [0.2, -0.1])
        df, fr = silhouette_pipeline(phi.points, closed=True)
        assert np.abs(fr.tau.values).sum() <= 1e-10
        fd = focal_data(df)
        assert fd.mu.topology is Topology.CLOSED and len(fd.mu) == n


class TestFocalSet:
    def test_focal_data_reads_the_fields_frenet_data(self, rng, monkeypatch):
        df, fr = silhouette_pipeline(random_equal_volume_polygon(rng, 12).points)
        gauged = []

        def spy(tau, value):
            gauged.append(tau)
            return lambda_from_tau(tau, value)

        monkeypatch.setattr(invariants, "lambda_from_tau", spy)
        mu = focal_data(df).mu
        assert len(gauged) == 1 and gauged[0] is fr.tau
        assert (mu.base, len(mu)) == (fr.tau.base, len(fr.tau))

    def test_single_line_for_silhouette_lift(self, rng):
        for _ in range(10):
            G = random_equal_area(12, rng)
            P = rng.normal(size=2) * 0.3
            phi = silhouette_lift(G, P)
            df, _ = silhouette_pipeline(phi.points)
            fd = focal_data(df)
            fc = classify_focal(fd)
            assert fc.kind is FocalKind.SINGLE_LINE
            assert fc.mu_spread <= 1e-9

    def test_focal_lines_are_gauge_invariant(self, rng):
        G = random_equal_area(12, rng)
        phi = silhouette_lift(G, [0.2, -0.1])
        df, _ = silhouette_pipeline(phi.points)
        fd0 = focal_data(df, gauge=0.0)
        fd1 = focal_data(df, gauge=3.7)
        for o0, d0, o1, d1 in zip(*focal_lines(fd0), *focal_lines(fd1)):
            # same line: both anchor points and both directions colinear
            assert np.linalg.norm(np.cross(d0, d1)) <= 1e-9
            assert np.linalg.norm(np.cross(o1 - o0, d0)) <= 1e-8

    def test_eta_and_q_are_built_on_first_read(self, rng):
        df, fr = silhouette_pipeline(random_equal_volume_polygon(rng, 12).points)
        fd = focal_data(df, gauge=0.4)
        assert "eta" not in vars(fd) and "Q" not in vars(fd)
        assert fd.lam.values.tobytes() == lambda_from_tau(fr.tau, 0.4).values.tobytes()
        q = fd.Q
        assert "eta" in vars(fd) and fd.Q is q
        # eta = phi'' + lambda xi on lambda's window; Q = P + eta / mu on mu's
        lo, (em, e0) = df.frame.polygon.sides().stencil(-1, 0)
        eta = (e0 - em) + fd.lam.values[:, None] * df.xi.window(lo, len(fd.lam))
        assert fd.eta.base == lo and fd.eta.values.tobytes() == eta.tobytes()
        k0, m = fd.mu.base, len(fd.mu)
        want = (df.frame.polygon.vertices.window(k0, m)
                + eta[k0 - lo:k0 - lo + m] / fd.mu.values[:, None])
        assert q.base == k0 and q.topology is fd.mu.topology
        assert q.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gauge", [0.0, 3.7])
    def test_mu_is_the_same_from_either_end(self, rng, gauge):
        # focal_data takes mu(k) = rho2(k) + sigma(k) lambda(k) from the near
        # end; the far end rho1(k+1) + sigma(k) lambda(k+1) is the same number.
        # So is Q(k) = P(k) + eta(k)/mu(k) against P(k+1) + eta(k+1)/mu(k), up
        # to a floor that grows with n with the roundoff of eta: the spiral
        # silhouette reads 8.2e-15 at n = 200 and 2.9e-11 at n = 10^4
        spiral = ExampleSpiralRepresentative()
        for pts, q_floor in [(random_equal_volume_polygon(rng, 14).points, 1e-12),
                             (sample_curve(spiral, 0.0, 2 * np.pi, 200).points, 1e-13),
                             (sample_curve(spiral, 0.0, 2 * np.pi, 10**4).points, 1e-10)]:
            df, fr = silhouette_pipeline(pts)
            fd = focal_data(df, gauge=gauge)
            mu = fd.mu
            lam = lambda_from_tau(fr.tau, gauge)
            k0, m = mu.base, len(mu)
            far = fr.rho1.window(k0 + 1, m) + df.sigma.window(k0, m) * lam.window(k0 + 1, m)
            assert np.abs(mu.values - far).max() <= 1e-9 * max(1.0, np.abs(mu.values).max())
            # the gap relative to max(|Q(k) - P(k)|, the polygon's diameter)
            P = df.frame.polygon.vertices
            far_q = P.window(k0 + 1, m) + fd.eta.window(k0 + 1, m) / mu.values[:, None]
            scale = np.maximum(np.linalg.norm(fd.Q.values - P.window(k0, m), axis=1),
                               df.frame.polygon.diameter())
            assert (np.linalg.norm(far_q - fd.Q.values, axis=1) / scale).max() <= q_floor

    @pytest.mark.parametrize("tiny", [0.0, -0.0, 5e-324, 1e-310])
    def test_q_is_at_infinity_where_one_over_mu_is_not_finite(self, rng, monkeypatch, tiny):
        # with tau = 0 lambda is the gauge 0 everywhere, so mu is rho2 bit for bit
        df, fr = silhouette_pipeline(random_equal_volume_polygon(rng, 12).points)
        rho2 = np.ones(len(fr.rho2))
        rho2[3] = tiny
        moved = dataclasses.replace(fr, rho2=fr.rho2.with_values(rho2),
                                    tau=fr.tau.with_values(np.zeros(len(fr.tau))))
        monkeypatch.setattr(invariants, "frenet", lambda _: moved)
        fd = focal_data(df)
        assert fd.mu.values[3] == tiny and np.signbit(fd.mu.values[3]) == np.signbit(tiny)
        assert np.isnan(fd.Q.values).all(axis=1).tolist() == [k == 3 for k in range(len(fd.Q))]

    def test_mu_prime_identity(self, rng):
        G = random_equal_area(14, rng)
        phi = silhouette_lift(G, [0.1, 0.3])
        df, fr = silhouette_pipeline(phi.points)
        fd = focal_data(df)
        # mu'(i) = rho1'(i+1/2) - sigma tau(i+1/2) and its rho2 twin, with
        # sigma constant (-1 on a silhouette) and mu' at a vertex the
        # difference of mu over its two sides
        lo, (mu_left, mu_right) = fd.mu.stencil(-1, 0)
        m = len(mu_left)

        def win(seq, start):
            return seq.window(start, m)

        mu_prime = mu_right - mu_left
        rho1_prime = win(fr.rho1, lo + 1) - win(fr.rho1, lo)
        rho2_prime = win(fr.rho2, lo) - win(fr.rho2, lo - 1)
        res1 = np.abs(mu_prime - (rho1_prime - win(df.sigma, lo) * win(fr.tau, lo)))
        res2 = np.abs(mu_prime - (rho2_prime - win(df.sigma, lo - 1) * win(fr.tau, lo - 1)))
        assert max(res1.max(), res2.max()) <= 1e-9

    def test_generic_polygon_is_not_single_line(self, rng):
        p = random_equal_volume_polygon(rng, 12)
        df, _ = silhouette_pipeline(p.points)
        fd = focal_data(df)
        assert classify_focal(fd).kind is FocalKind.GENERAL

    def test_mesh_faces_are_planar(self, rng):
        p = random_equal_volume_polygon(rng, 12)
        df, _ = silhouette_pipeline(p.points)
        fd = focal_data(df)
        mesh = focal_set_mesh(fd)
        assert len(mesh.faces)
        scale = np.abs(mesh.vertices).max()
        assert face_planarity(mesh).max() <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_mesh_scales_with_the_polygon(self, seed):
        """The lines' extension is at least twice the polygon's diameter, not
        an absolute length, so scaling the polygon scales the mesh.

        Every focal line of a silhouette passes through its origin, so the
        origins' bounding box is roundoff-sized and the floor sets the
        extent.  The scaled meshes agree to 1.9e-15 of the mesh size on
        these fixtures; an absolute floor of 1 left the 1e-6 mesh 5.83
        across, a million times too large.
        """
        pts = random_equal_volume_polygon(np.random.default_rng(seed), 20).points
        meshes = {}
        for s in (1.0, 1e-3, 1e-6):
            df, _ = silhouette_pipeline(s * pts)
            meshes[s] = focal_set_mesh(focal_data(df))
        base = meshes[1.0].vertices
        for s in (1e-3, 1e-6):
            assert np.array_equal(meshes[s].faces, meshes[1.0].faces)
            assert np.array_equal(meshes[s].lines, meshes[1.0].lines)
            assert np.abs(meshes[s].vertices / s - base).max() <= 1e-13 * np.abs(base).max()


def prism_pipeline(G):
    """The vertical prism frame over a closed planar polygon in z = 0."""
    pts3 = np.column_stack([G.Gamma.values, np.zeros(len(G.Gamma))])
    df = parallel_darboux(
        FramedPolygon.build(pts3, np.tile([0.0, 0.0, 1.0], (len(pts3), 1)), closed=True))
    return pts3, df, frenet(df)


class TestPlanarReduction:
    @pytest.mark.parametrize("n", [5, 7, 12, 100])
    def test_regular_gon_curvature(self, n):
        G = regular_equal_area(n)
        pts3, _, fr = prism_pipeline(G)
        e = np.roll(pts3, -1, axis=0) - pts3
        areas = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        assert np.abs(areas - G.area_constant).max() <= 1e-8 * abs(G.area_constant)
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / n)
        np.testing.assert_allclose(fr.rho1.values, expected, atol=1e-10)
        np.testing.assert_allclose(fr.rho2.values, expected, atol=1e-10)
        assert np.abs(fr.tau.values).max() <= 1e-12

    def test_evolute_of_regular_gon_is_center(self):
        # the focal lines pierce the polygon's plane in its affine evolute
        _, df, _ = prism_pipeline(regular_equal_area(9))
        fd = focal_data(df, gauge=0.0)
        hits = [o - (o[2] / d[2]) * d for o, d in zip(*focal_lines(fd))]
        assert np.abs(hits).max() <= 1e-10
