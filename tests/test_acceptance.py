"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line for its criterion before
asserting, so a full run doubles as a scorecard:

    python3 -m pytest tests/test_acceptance.py -s
"""

import time

import numpy as np
import pytest

from conftest import (
    affine_curvature,
    lift_residuals,
    random_cone_fixture,
    random_equal_area,
    random_equal_volume_polygon,
    random_generic_framed,
    regular_equal_area,
    silhouette_frenet,
    silhouette_lift,
    support_function,
)

from evpoly.cli import main
from evpoly.constructions import (
    ExampleSpiral,
    ExampleSpiralRepresentative,
    GridScheme,
    sample_curve,
)
from evpoly.core import Polygon3, det2
from evpoly.darboux import (
    FramedPolygon,
    SurfaceKind,
    classify_osculating,
    osculating_points,
    parallel_darboux,
)
from evpoly.equal_volume import darboux_volumes, resample_equal_volume
from evpoly.invariants import (
    FocalKind,
    centroaffine_frenet,
    classify_focal,
    focal_data,
    focal_lines,
    frenet,
)
from evpoly.projective import (
    PlanarProjectivePolygon,
    lift_representative,
    projective_lengths,
    spiral_analytic_normalization,
)

SMOOTH_REF = 7.162519249  # quoted reference value for the spiral length


def verdict(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def spiral_lift(n):
    h = 2 * np.pi / n
    pts = sample_curve(ExampleSpiral(), 0.0, 2 * np.pi, n,
                       GridScheme.HALF_OPEN_STEP)
    poly = PlanarProjectivePolygon.from_vertices(pts)
    return lift_representative(poly, spiral_analytic_normalization(0.0, h)), h


@pytest.fixture(scope="module")
def table1_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("t1") / "table.csv"
    t0 = time.perf_counter()
    code = main(["table1", "--sizes", "10,100,1000", "--csv", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = {}
    for line in out.read_text().strip().splitlines()[1:]:
        n, h, p1, p2 = line.split(",")
        rows[int(n)] = (float(p1), float(p2))
    return rows, elapsed


def test_criterion_1_table1(table1_rows):
    rows, elapsed = table1_rows
    expected = {10: (4.26627, 3.55522, 0.25),
                100: (6.87572, 6.80410, 0.05),
                1000: (7.13407, 7.12691, 0.02)}
    ok = elapsed < 2.0
    for n, (p1_ref, p2_ref, tol) in expected.items():
        p1, p2 = rows[n]
        ok = ok and abs(p1 - p1_ref) <= tol and abs(p2 - p2_ref) <= tol
    verdict(1, "Table 1 reproduction", ok)


def test_criterion_2_convergence(table1_rows):
    rows, _ = table1_rows
    ok = True
    for k in (0, 1):
        errs = [abs(rows[n][k] - SMOOTH_REF) for n in (10, 100, 1000)]
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] <= 0.04
    verdict(2, "projective length convergence", ok)


def test_criterion_3_order():
    # Per side, (rho'(i+1/2) + 2 tau(i+1/2)) / h^3 approaches 40/27.  The
    # spiral lift samples an orbit exp(tA) q0 with trace A = 0, so every
    # bracket, and hence the term, takes one value per n; that value
    # deviates from 40/27 by -0.0823 h^2 + O(h^4).  Rate: the mean
    # deviation over the window shrinks by a second-order factor in
    # [3.5, 4.5] per doubling.  Floor: the lift's scales a(i) carry a
    # relative roundoff of about eps/h^3 (they come from planar triple
    # areas of size h^3), so every side stays within 4 eps/h^6 of the mean.
    eps = np.finfo(float).eps
    mean_dev = {"rho1": {}, "rho2": {}}
    ok = True
    for n in (100, 200, 400):
        phi, h = spiral_lift(n)
        fr = centroaffine_frenet(phi)
        r1, r2, tau = fr.rho1, fr.rho2, fr.tau
        d1 = np.array([r1.at(k + 1) - r1.at(k) + 2 * tau.at(k)
                       for k in range(2, n - 2)])
        d2 = np.array([r2.at(k + 1) - r2.at(k) + 2 * tau.at(k)
                       for k in range(2, n - 3)])
        for form, d in (("rho1", d1), ("rho2", d2)):
            dev = d / h ** 3 - 40.0 / 27.0
            mean_dev[form][n] = dev.mean()
            ok = ok and np.abs(dev - dev.mean()).max() <= 4.0 * eps / h ** 6
    for devs in mean_dev.values():
        for a, b in ((100, 200), (200, 400)):
            ok = ok and 3.5 <= devs[a] / devs[b] <= 4.5
    verdict(3, "per-side invariant order", ok)


def test_criterion_4_cone_equivalence(rng):
    f, apex = random_cone_fixture(rng, 200)
    df = parallel_darboux(f)
    s = df.sigma.values
    ok = (s.max() - s.min()) / abs(np.median(s)) <= 1e-10
    pts = osculating_points(df)
    ok = ok and not np.isnan(pts.values).any()
    ok = ok and np.abs(pts.values - apex).max() <= 1e-9 * f.polygon.diameter()

    # a valid frame whose support lines meet in no one point
    cls = classify_osculating(parallel_darboux(random_generic_framed(rng, 200)))
    ok = ok and cls.kind is SurfaceKind.GENERAL

    for _ in range(50):
        fc, apex_c = random_cone_fixture(rng, 25)
        dc = parallel_darboux(fc)
        oc = osculating_points(dc)
        sc = dc.sigma.values
        ok = ok and (sc.max() - sc.min()) / abs(np.median(sc)) <= 1e-8
        ok = ok and np.abs(oc.values - apex_c).max() <= 1e-8 * fc.polygon.diameter()
    for _ in range(50):
        fg = random_generic_framed(rng, 20)
        dg = parallel_darboux(fg)
        og = osculating_points(dg)
        sg = dg.sigma.values
        sigma_varies = (sg.max() - sg.min()) > 1e-6 * max(1.0, abs(np.median(sg)))
        finite = og.values[~np.isnan(og.values[:, 0])]
        o_varies = len(finite) < 2 or np.ptp(finite, axis=0).max() > 1e-6
        # sigma constant iff the support lines meet in one point
        ok = ok and (sigma_varies == o_varies)
    verdict(4, "cone characterization", ok)


def test_criterion_5_single_line_focal(rng):
    ok = True
    for _ in range(50):
        G = random_equal_area(12, rng)
        P = rng.normal(size=2) * 0.5
        r_g, r_z = lift_residuals(G, P)
        ok = ok and r_g <= 1e-9 and r_z <= 1e-9
        phi = silhouette_lift(G, P)
        f = FramedPolygon.silhouette(phi.points, closed=False)
        df = parallel_darboux(f)
        fd0 = focal_data(df, gauge=0.0)
        fd1 = focal_data(df, gauge=1.3)
        fc = classify_focal(fd0)
        ok = ok and fc.kind is FocalKind.SINGLE_LINE and fc.mu_spread <= 1e-9
        for o0, d0, o1, d1 in zip(*focal_lines(fd0), *focal_lines(fd1)):
            ok = ok and np.linalg.norm(np.cross(d0, d1)) <= 1e-9
            ok = ok and np.linalg.norm(np.cross(o1 - o0, d0)) <= 1e-8
    for _ in range(10):
        # the hidden base point: z(i) = [Gamma(i+1/2), gamma(i)] - [P, gamma(i)]
        # is linear in P, so least squares recovers it from z
        G = random_equal_area(12, rng).normalized()
        P = rng.normal(size=2)
        g = G.gamma.values
        a = np.column_stack([g[:, 1], -g[:, 0]])  # [P, gamma] = Px gy - Py gx
        b = det2(G.Gamma.values[1:], g) - support_function(G, P).values
        P_rec = np.linalg.lstsq(a, b, rcond=None)[0]
        ok = ok and np.abs(P_rec - P).max() <= 1e-8 and np.abs(a @ P_rec - b).max() <= 1e-8
    verdict(5, "single-line focal sets", ok)


def test_criterion_6_resampler():
    rep = ExampleSpiralRepresentative()
    t = np.linspace(0.0, 2 * np.pi, 600)
    t = t + 0.3 * (2 * np.pi / 600) * np.sin(7 * t)
    f = FramedPolygon.silhouette(rep(t), closed=False)
    scale = f.polygon.diameter()
    res = resample_equal_volume(parallel_darboux(f))
    out = res.framed
    spread = darboux_volumes(parallel_darboux(out)).spread
    ok = spread <= 1e-9

    res2 = resample_equal_volume(parallel_darboux(out))
    n = min(len(out.polygon), len(res2.framed.polygon))
    gap = np.abs(out.polygon.points[:n] - res2.framed.polygon.points[:n]).max()
    ok = ok and gap <= 1e-12 * scale

    pts = f.polygon.points
    for q in out.polygon.points:
        seg = pts[1:] - pts[:-1]
        w = q - pts[:-1]
        tt = np.clip(np.einsum("ij,ij->i", w, seg) / np.einsum("ij,ij->i", seg, seg), 0, 1)
        d = np.linalg.norm(w - tt[:, None] * seg, axis=1).min()
        ok = ok and d <= 1e-12 * scale
    verdict(6, "equal-volume resampler", ok)


def test_criterion_7_compatibility_corpus(rng):
    ok = True
    for _ in range(1000):
        p = random_equal_volume_polygon(rng, 10)
        # the determinant formulas against the framed face solve
        fa = centroaffine_frenet(p)
        fb = silhouette_frenet(p)
        # -tau sigma = rho2(i) - rho1(i+1) with sigma = -1; frenet derives
        # rho1 through it, so only the closed forms, each rounded on its
        # own, can miss it
        ok = ok and np.abs(fa.tau.values - (fa.rho2.values - fa.rho1.values)).max() <= 1e-9
        ok = ok and np.abs(fa.rho1.values - fb.rho1.values).max() <= 1e-9
        ok = ok and np.abs(fa.rho2.values - fb.rho2.values).max() <= 1e-9
        ok = ok and np.abs(fa.tau.values - fb.tau.values).max() <= 1e-9
        if not ok:
            break
    verdict(7, "compatibility and fast path on random corpus", ok)


def test_criterion_8_planar_reduction(rng):
    ok = True
    # vertical prism frame over an equal-area planar polygon: tau vanishes
    for _ in range(5):
        G = random_equal_area(14, rng)
        pts3 = np.column_stack([G.Gamma.values, np.zeros(len(G.Gamma))])
        f = FramedPolygon.build(pts3, np.tile([0.0, 0.0, 1.0], (len(pts3), 1)))
        df = parallel_darboux(f)
        fr = frenet(df)
        ok = ok and np.abs(fr.tau.values).max() <= 1e-12

        # the focal lines pierce the polygon's plane in the affine evolute
        fd = focal_data(df, gauge=0.0)
        _, evolute = affine_curvature(G)
        evolute = np.column_stack([evolute, np.zeros(len(evolute))])
        hits = []
        for origin, d in zip(*focal_lines(fd)):
            hits.append(origin - (origin[2] / d[2]) * d)
        hits = np.asarray(hits)
        scale = max(np.abs(evolute).max(), 1.0)
        ok = ok and np.abs(hits - evolute).max() <= 1e-9 * scale

    for n in (5, 7, 12, 100):
        k, _ = affine_curvature(regular_equal_area(n))
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / n)
        ok = ok and np.abs(k.values - expected).max() <= 1e-10
    verdict(8, "planar reduction", ok)


def test_criterion_9_quadratic_cone():
    def ellipse_rep(n, a=2.0, b=0.5):
        t = 2 * np.pi * np.arange(n) / n
        s = (a * b) ** (-1.0 / 3.0)
        pts = np.stack([s * a * np.cos(t), s * b * np.sin(t),
                        s * np.ones(n)], axis=1)
        return Polygon3.from_points(pts, closed=True)

    # On the uniformly sampled ellipse rho1' + 2 tau = rho2' + 2 tau = 0
    # exactly.  Reflecting through side k's midpoint swaps q(k-1) <-> q(k+2)
    # and q(k) <-> q(k+1) by a linear map of determinant -1, so tau = 0;
    # the step q(k) -> q(k+1) has determinant 1, so rho1 and rho2 are
    # constant.  Floor: the O(h^3) brackets are computed from O(|q|)
    # coordinates, so every quantity is zero up to eps max|q|^3 / c, and
    # each projective length up to the sum of the cube roots of that floor.
    # A per-side term of order h^3 exceeds this floor by a factor of about
    # 1e7 at n = 100, so the spiral lift in place of the ellipse fails.
    eps = np.finfo(float).eps
    ok = True
    for n in (100, 200, 400, 1600):
        q = ellipse_rep(n)
        fr = centroaffine_frenet(q)
        floor = eps * np.linalg.norm(q.points, axis=1).max() ** 3 / abs(fr.c)
        tau = fr.tau.values
        ok = ok and np.abs(tau).max() <= floor
        for rho in (fr.rho1.values, fr.rho2.values):
            ok = ok and np.ptp(rho) <= floor
            term = np.roll(rho, -1) - rho + 2 * tau
            ok = ok and np.abs(term).max() <= floor
        rep = projective_lengths(q)
        for pl, terms in ((rep.pl1, rep.per_side_terms1),
                          (rep.pl2, rep.per_side_terms2)):
            ok = ok and np.abs(terms.values ** 3).max() <= floor
            ok = ok and abs(pl) <= len(terms.values) * np.cbrt(floor)
    verdict(9, "quadratic cone identity", ok)
