"""The batched Darboux, Frenet and focal kernels against short references.

The references here are deliberately plain: a sequential product loop for
the Darboux scales and an exact rational least-squares solve of the same
float64 data for the Frenet coefficients.  The error-path cases inject one
bad side and check that the error names it.
"""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cone_fixture, random_equal_volume_polygon, random_generic_framed

from evpoly import cli
from evpoly.constructions import ExampleSpiralRepresentative, sample_curve
from evpoly.core import GeometryError, Grid, GridSeq
from evpoly.darboux import (
    DarbouxField,
    DegenerateFrameError,
    FramedPolygon,
    osculating_points,
    parallel_darboux,
    validate_frame,
)
from evpoly.documents import PolygonDocument, write_document
from evpoly.invariants import SolveMode, focal_data, frenet

REL_TOL = 1e-12


def exact_face_solve(v, a, b):
    """Least-squares (x, y) with v ~ x*a + y*b, in exact rationals."""
    v, a, b = ([Fraction(float(c)) for c in w] for w in (v, a, b))
    dot = lambda u, w: sum(p * q for p, q in zip(u, w))
    aa, ab, bb, av, bv = dot(a, a), dot(a, b), dot(b, b), dot(a, v), dot(b, v)
    det = aa * bb - ab * ab
    return (bb * av - ab * bv) / det, (aa * bv - ab * av) / det


def reference_scales(f: FramedPolygon, seed_scale=1.0):
    """Darboux scales per vertex and sigma per side, one side at a time."""
    e = f.polygon.sides().values
    dh = f.unit_directions
    n = len(dh)
    s = [seed_scale]
    sigma = []
    for k in range(len(e)):
        d0, d1 = dh[k], dh[(k + 1) % n]
        if np.linalg.norm(np.cross(d0, d1)) <= 1e-12:
            s.append(s[-1] * np.sign(np.dot(d0, d1)))
            sigma.append(0.0)
            continue
        p, q = (float(c) for c in exact_face_solve(e[k], d0, d1))
        sigma.append(s[-1] / p)
        s.append(-q * s[-1] / p)
    return np.array(s[:n]), np.array(sigma)


def framed_fixture(kind, seed, n, closed):
    rng = np.random.default_rng(seed)
    if kind == "equal_volume":
        return FramedPolygon.silhouette(random_equal_volume_polygon(rng, n).points, closed=closed)
    if kind == "cone":
        f, apex = random_cone_fixture(rng, n)
        return FramedPolygon.silhouette(f.polygon.points, apex, closed=closed)
    return random_generic_framed(rng, n, closed=closed)


def coefficient_scales(v, a, b):
    """Bounds |v||b|/|a x b| and |v||a|/|a x b| on the two face coefficients.

    Relative to these bounds the face solve is accurate to a few eps;
    relative to a coefficient far below its bound (cancellation) the error
    reached 4e-12 on these fixtures.
    """
    area = np.linalg.norm(np.cross(a, b))
    return (np.linalg.norm(v) * np.linalg.norm(b) / area,
            np.linalg.norm(v) * np.linalg.norm(a) / area)


def assert_close(got, want, scale):
    assert abs(got - want) <= REL_TOL * scale, (got, want, scale)


@given(kind=st.sampled_from(["equal_volume", "cone", "generic"]), closed=st.booleans(),
       seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40))
@settings(max_examples=60, deadline=None)
def test_batched_kernels_match_references(kind, closed, seed, n):
    f = framed_fixture(kind, seed, n, closed)
    df = parallel_darboux(f)
    s_ref, sigma_ref = reference_scales(f)
    s = np.einsum("ij,ij->i", df.xi.values, f.unit_directions)
    np.testing.assert_allclose(s, s_ref, rtol=REL_TOL, atol=0)
    np.testing.assert_allclose(df.sigma.values, sigma_ref, rtol=REL_TOL, atol=0)

    exact = kind == "equal_volume" and not closed
    fr = frenet(f, df, SolveMode.EXACT if exact else SolveMode.LEAST_SQUARES)
    p, xi = f.polygon.points, df.xi.values
    for k in np.random.default_rng(seed).choice(fr.tau.slots, size=min(6, len(fr.tau))):
        k = int(k)
        km, k1, k2 = (k - 1) % n, (k + 1) % n, (k + 2) % n
        d3 = p[k2] - 3 * p[k1] + 3 * p[k] - p[km]
        edge = p[k1] - p[k]
        rho2, tau_a = exact_face_solve(d3, -edge, xi[k1])
        rho1, tau_b = exact_face_solve(d3, -edge, xi[k])
        rho2_scale, tau_a_scale = coefficient_scales(d3, edge, xi[k1])
        rho1_scale, tau_b_scale = coefficient_scales(d3, edge, xi[k])
        assert_close(fr.rho2.at(k), float(rho2), rho2_scale)
        assert_close(fr.rho1.at(k + 1), float(rho1), rho1_scale)
        assert_close(fr.tau.at(k), float((tau_a + tau_b) / 2), max(tau_a_scale, tau_b_scale))


# ---------------------------------------------------------------- error paths


def planar_framed(rng, n=8):
    """Framed polygon in the plane z = 0: every face is exactly coplanar."""
    pts = np.cumsum(rng.uniform(0.5, 1.5, size=(n, 3)) * [1, 1, 0], axis=0)
    d = rng.normal(size=(n, 3)) * [1, 1, 0]
    return pts, d


def turn_into_side(pts, k, angle):
    """Direction k+1 turned by ``angle`` away from side k, within the plane."""
    e = pts[k + 1] - pts[k]
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * e[0] - s * e[1], s * e[0] + c * e[1], 0.0])


def test_singular_recursion_names_side():
    rng = np.random.default_rng(7)
    pts, d = planar_framed(rng)
    d[4] = turn_into_side(pts, 3, 1e-15)
    with pytest.raises(DegenerateFrameError) as info:
        parallel_darboux(FramedPolygon.build(pts, d), tol_face=1e-30)
    assert info.value.side == 3


def test_overflow_names_side():
    rng = np.random.default_rng(7)
    pts, d = planar_framed(rng)
    d[4] = turn_into_side(pts, 3, 1e-10)
    f = FramedPolygon.build(pts, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parallel_darboux(f, seed_scale=1e290, tol_face=1e-12)
        with pytest.raises(DegenerateFrameError) as info:
            parallel_darboux(f, seed_scale=1e300, tol_face=1e-12)
    assert info.value.side == 3


def test_overflow_on_long_generic_polygon(tmp_path, capsys):
    # the benchmark's generic input: drawn after a cone fixture of the same size
    rng = np.random.default_rng(1)
    random_cone_fixture(rng, 10_000)
    f = random_generic_framed(rng, 10_000)
    e, dh = f.polygon.sides().values, f.unit_directions
    s, first = np.float64(1.0), None
    for k in range(len(e)):
        (p, q), *_ = np.linalg.lstsq(np.stack([dh[k], dh[k + 1]], axis=1), e[k], rcond=None)
        with np.errstate(over="ignore"):
            s *= -q / p
        if not np.isfinite(s):
            first = k
            break
    assert first is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFrameError) as info:
            parallel_darboux(f)
        assert info.value.side == first
        doc = tmp_path / "generic.json"
        write_document(PolygonDocument.from_framed(f), doc)
        assert cli.main(["analyze", str(doc)]) == 2
    assert f"side {first}:" in capsys.readouterr().err


def test_frame_report_names_injected_face():
    f = random_generic_framed(np.random.default_rng(3), 12)
    d = f.directions.values.copy()
    d[5] += [0.0, 0.0, 0.4]
    rep = validate_frame(FramedPolygon.build(f.polygon.points, d))
    assert rep.bad_sides == [4, 5]
    assert rep.bad_vertices == []


@pytest.fixture
def pipeline():
    p = random_equal_volume_polygon(np.random.default_rng(11), 12)
    f = FramedPolygon.silhouette(p.points)
    df = parallel_darboux(f)
    return f, df, frenet(f, df)


def with_xi(df, xi):
    return DarbouxField(GridSeq(xi, Grid.VERTEX), df.sigma, df.holonomy)


def test_degenerate_frenet_face_names_side(pipeline):
    f, df, _ = pipeline
    xi = df.xi.values.copy()
    xi[5] = f.polygon.points[6] - f.polygon.points[5]
    with pytest.raises(GeometryError, match=r"^side 5: degenerate face basis"):
        frenet(f, with_xi(df, xi), SolveMode.LEAST_SQUARES)


def test_tau_gap_names_side(pipeline):
    # moving xi(5) along side 5 keeps every volume but tilts the face of side 4
    f, df, _ = pipeline
    xi = df.xi.values.copy()
    xi[5] += 1e-3 * (f.polygon.points[6] - f.polygon.points[5])
    with pytest.raises(GeometryError, match=r"^side 4: the two tau evaluations"):
        frenet(f, with_xi(df, xi))


def test_support_line_gap_names_side(pipeline):
    f, df, _ = pipeline
    sigma = df.sigma.values.copy()
    sigma[6] *= 1.001
    bad = DarbouxField(df.xi, df.sigma.with_values(sigma), df.holonomy)
    with pytest.raises(GeometryError, match=r"^side 6: the two support-line evaluations"):
        osculating_points(f, bad)


def test_mu_gap_names_side(pipeline):
    f, df, fr = pipeline
    rho2 = fr.rho2.values.copy()
    rho2[fr.rho2.slots == 4] += 1e-3
    with pytest.raises(GeometryError, match=r"^side 4: the two mu evaluations"):
        focal_data(f, df, dataclasses.replace(fr, rho2=fr.rho2.with_values(rho2)))


def test_q_gap_names_side(pipeline):
    # shifting rho2(k) and rho1(k+1) together moves mu(k) without a mu gap
    f, df, fr = pipeline
    mu = focal_data(f, df, fr).mu
    shift = 0.1 * abs(mu.at(3))
    rho1, rho2 = fr.rho1.values.copy(), fr.rho2.values.copy()
    rho1[fr.rho1.slots == 4] += shift
    rho2[fr.rho2.slots == 3] += shift
    moved = dataclasses.replace(fr, rho1=fr.rho1.with_values(rho1),
                                rho2=fr.rho2.with_values(rho2))
    with pytest.raises(GeometryError, match=r"^side 3: the two Q evaluations"):
        focal_data(f, df, moved)


# ---------------------------------------------------------------- loop guard


@pytest.mark.parametrize("n", [200, 2000])
def test_analyze_makes_no_per_vertex_lookups(n, tmp_path, monkeypatch):
    calls = []
    at = GridSeq.at

    def counted(self, slot):
        calls.append(slot)
        return at(self, slot)

    phi = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, n)
    doc, out = tmp_path / "spiral.json", tmp_path / "report.json"
    write_document(PolygonDocument.from_framed(FramedPolygon.silhouette(phi.points)), doc)
    monkeypatch.setattr(GridSeq, "at", counted)
    assert cli.main(["analyze", str(doc), "--json", str(out)]) == 0
    assert '"rho1"' in out.read_text()
    assert calls == []
