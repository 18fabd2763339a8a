"""The batched Darboux, Frenet and focal kernels against short references.

The references here are deliberately plain: a sequential product loop for
the Darboux scales, an exact rational least-squares solve of the same
float64 data for the face-plane solve and the Frenet coefficients, and the
per-side loop that the batched determinant Frenet replaced.  A closed
polygon must give, bit for bit, what the open polygon padded with its
wrap-around vertices gives.  The error-path cases inject one bad side or
vertex and check that the error names it.
"""

import argparse
import dataclasses
import functools
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    PlanarEqualAreaPolygon,
    affine_curvature,
    frame_flags,
    parabola_prism,
    random_cone_fixture,
    random_equal_area,
    random_equal_volume_polygon,
    random_generic_framed,
    regular_equal_area,
    silhouette_lift,
    strict_json,
    support_function,
)

from evpoly import cli, darboux, invariants
from evpoly.constructions import Ellipse, ExampleSpiralRepresentative, GridScheme, sample_curve
from evpoly.core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    cross3,
    det3,
    dot3,
    face_solve,
    forward_diff,
    norm3,
)
from evpoly.darboux import (
    DarbouxField,
    FramedPolygon,
    once_per_field,
    osculating_points,
    parallel_darboux,
    validate_frame,
)
from evpoly.documents import PolygonDocument, write_document
from evpoly.equal_volume import (
    EQUAL_VOLUME_TOL,
    NotEqualVolumeError,
    centroaffine_volumes,
    darboux_volumes,
    volume_constant,
)
from evpoly.invariants import (
    centroaffine_frenet,
    focal_data,
    focal_lines,
    focal_set_mesh,
    frenet,
    lambda_from_tau,
)
from evpoly.projective import b_sequence

REL_TOL = 1e-12


def exact_face_solve(v, a, b):
    """Least-squares (x, y) with v ~ x*a + y*b, in exact rationals."""
    v, a, b = ([Fraction(float(c)) for c in w] for w in (v, a, b))
    dot = lambda u, w: sum(p * q for p, q in zip(u, w))
    aa, ab, bb, av, bv = dot(a, a), dot(a, b), dot(b, b), dot(a, v), dot(b, v)
    det = aa * bb - ab * ab
    return (bb * av - ab * bv) / det, (aa * bv - ab * av) / det


def reference_scales(f: FramedPolygon):
    """Darboux scales per vertex and sigma per side, one side at a time."""
    e = f.polygon.sides().values
    dh = f.unit_directions.values
    n = len(dh)
    s = [1.0]
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


def third_diff_faces(f, df, k):
    """Third difference, side vector and the two end Darboux vectors of side k."""
    p, xi, n = f.polygon.points, df.xi.values, len(f.polygon)
    km, k1, k2 = (k - 1) % n, (k + 1) % n, (k + 2) % n
    return p[k2] - 3 * p[k1] + 3 * p[k] - p[km], p[k1] - p[k], xi[k % n], xi[k1]


@given(kind=st.sampled_from(["equal_volume", "cone", "generic"]), closed=st.booleans(),
       seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40))
@settings(max_examples=60, deadline=None)
def test_batched_kernels_match_references(kind, closed, seed, n):
    f = framed_fixture(kind, seed, n, closed)
    df = parallel_darboux(f)
    s_ref, sigma_ref = reference_scales(f)
    s = np.einsum("ij,ij->i", df.xi.values, f.unit_directions.values)
    np.testing.assert_allclose(s, s_ref, rtol=REL_TOL, atol=0)
    np.testing.assert_allclose(df.sigma.values, sigma_ref, rtol=REL_TOL, atol=0)
    if kind != "equal_volume" or closed:
        return  # no Frenet data: test_face_solve_matches_exact_least_squares covers these faces

    fr = frenet(df)
    for k in np.random.default_rng(seed).choice(fr.tau.slots, size=min(6, len(fr.tau))):
        k = int(k)
        d3, edge, xi_k, xi_k1 = third_diff_faces(f, df, k)
        rho2, tau_a = exact_face_solve(d3, -edge, xi_k1)
        rho1, tau_b = exact_face_solve(d3, -edge, xi_k)
        rho2_scale, tau_a_scale = coefficient_scales(d3, edge, xi_k1)
        rho1_scale, tau_b_scale = coefficient_scales(d3, edge, xi_k)
        assert_close(fr.rho2.at(k), float(rho2), rho2_scale)
        assert_close(fr.rho1.at(k + 1), float(rho1), rho1_scale)
        assert_close(fr.tau.at(k), float((tau_a + tau_b) / 2), max(tau_a_scale, tau_b_scale))


@given(kind=st.sampled_from(["equal_volume", "cone", "generic"]), closed=st.booleans(),
       seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40))
@settings(max_examples=60, deadline=None)
def test_face_solve_matches_exact_least_squares(kind, closed, seed, n):
    """``core.face_solve`` on the Frenet faces, in-plane or not, row by row.

    On the cone, generic and closed fixtures the third difference leaves
    the face plane, so these rows check the least-squares projection.
    """
    f = framed_fixture(kind, seed, n, closed)
    df = parallel_darboux(f)
    slots = np.random.default_rng(seed).choice(side_slots(n, closed), size=6)
    d3, edge, xi_k, xi_k1 = (np.array(rows) for rows in
                             zip(*(third_diff_faces(f, df, int(k)) for k in slots)))
    for near in (xi_k, xi_k1):
        x, y = face_solve(d3, -edge, near, cross3(-edge, near))
        for j in range(len(slots)):
            x_ref, y_ref = exact_face_solve(d3[j], -edge[j], near[j])
            x_scale, y_scale = coefficient_scales(d3[j], edge[j], near[j])
            assert_close(x[j], float(x_ref), x_scale)
            assert_close(y[j], float(y_ref), y_scale)


def test_face_solve_ignores_the_memory_layout_of_the_normal(rng):
    """C-ordered, F-ordered and strided copies of one normal give the same bits.

    ``core.dot3`` sums |n|^2 column by column, in one order for every
    layout; ``np.einsum``'s order follows the layout of n, and moved the
    last bits of about one row in four of the F-ordered and column-strided
    normals.
    """
    for _ in range(20):
        v, a, b = (rng.normal(size=(50, 3)) * rng.uniform(0.1, 10, size=(50, 1)) for _ in range(3))
        n = cross3(a, b)
        rows, columns = np.empty((100, 3))[::2], np.empty((50, 6))[:, ::2]
        rows[...] = columns[...] = n
        for layout in (np.asfortranarray(n), rows, columns):
            assert not layout.flags.c_contiguous and np.array_equal(layout, n)
            for got, want in zip(face_solve(v, a, b, layout), face_solve(v, a, b, n)):
                assert got.tobytes() == want.tobytes()


def frame_with_parallel_faces(rng, parallel, n=12):
    """Generic frame whose faces in ``parallel`` have parallel end directions.

    Built as ``random_generic_framed`` is, direction i+1 = a side(i) + b
    direction(i), with a = 0 on the parallel faces; the first of them
    reverses the direction (b < 0), so its scale changes sign.
    """
    pts = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    d = np.empty((n, 3))
    d[0] = rng.normal(size=3)
    for i in range(n - 1):
        a = 0.0 if i in parallel else rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        sign = -1.0 if i == parallel[0] else 1.0 if i in parallel else rng.choice([-1.0, 1.0])
        d[i + 1] = a * (pts[i + 1] - pts[i]) + sign * rng.uniform(0.4, 1.5) * d[i]
    return FramedPolygon.build(pts, d)


def where_scales(f):
    """Scales and sigma by the one-pass formula that evaluates the parallel
    branch on every face and picks per face with ``np.where``."""
    e = f.polygon.sides().values
    _, (d0, d1) = f.unit_directions.stencil(0, 1)
    nf = f.face_normals
    p, q = face_solve(e, d0, d1, nf)
    parallel = np.linalg.norm(nf, axis=1) <= 1e-12
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.where(parallel, np.sign(np.einsum("ij,ij->i", d0, d1)), -q / p)
        scales = np.cumprod(np.concatenate([[1.0], ratio]))
        sigma = scales[:len(e)] / p
    sigma[parallel] = 0.0
    return scales[:len(f.polygon)], sigma


@pytest.mark.parametrize("parallel", [(4,), (2, 7)], ids=["one", "two-apart"])
@pytest.mark.parametrize("seed", range(4))
def test_parallel_faces_among_generic_ones(parallel, seed):
    """The parallel branch runs only on the faces that need it, with the bits
    of the formula that ran it on every face, and the scales follow the
    sequential product."""
    f = frame_with_parallel_faces(np.random.default_rng(seed), parallel)
    df = parallel_darboux(f)
    scales, sigma = where_scales(f)
    assert np.flatnonzero(sigma == 0.0).tolist() == list(parallel)
    assert (scales[parallel[0] + 1] < 0) != (scales[parallel[0]] < 0)
    assert df.sigma.values.tobytes() == sigma.tobytes()
    assert df.xi.values.tobytes() == (scales[:, None] * f.unit_directions.values).tobytes()
    s_ref, sigma_ref = reference_scales(f)
    s = np.einsum("ij,ij->i", df.xi.values, f.unit_directions.values)
    np.testing.assert_allclose(s, s_ref, rtol=REL_TOL, atol=0)
    np.testing.assert_allclose(df.sigma.values, sigma_ref, rtol=REL_TOL, atol=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 here, no more precise than the code")
@pytest.mark.parametrize("n", [2000, 10_000])
def test_frenet_third_differences_match_long_double(n, monkeypatch):
    """The third differences that ``frenet`` solves, against the same
    vertices differenced in long double, relative to max |d3|.

    Nested on the sides they are good to 3.1e-13 and 8.9e-12 here; the
    expanded p(k+2) - 3 p(k+1) + 3 p(k) - p(k-1) missed by 7.4e-8 and 9.2e-6.
    """
    phi = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, n)
    f = FramedPolygon.silhouette(phi.points)
    solved = []

    def spy(v, a, b, normal):
        solved.append(v)
        return face_solve(v, a, b, normal)

    monkeypatch.setattr(invariants, "face_solve", spy)
    frenet(parallel_darboux(f))
    e = np.diff(f.polygon.points.astype(np.longdouble), axis=0)
    ref = (e[2:] - e[1:-1]) - (e[1:-1] - e[:-2])
    scale = np.abs(ref).max()
    assert all(d3 is solved[0] for d3 in solved) and solved[0].shape == ref.shape
    assert np.abs(solved[0] - ref).max() <= 1e-10 * scale
    p = f.polygon.points
    expanded = p[3:] - 3 * p[2:-1] + 3 * p[1:-2] - p[:-3]
    assert np.abs(expanded - ref).max() > 1e-10 * scale  # the fixture tells the forms apart


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 here, no more precise than the code")
def test_eta_second_differences_match_long_double(monkeypatch):
    """The phi'' in eta = phi'' + lambda xi, against the vertices
    differenced in long double, relative to max |phi''|, at N = 10^4.

    As the difference of the sides it is good to 2.5e-15 here; the
    expanded p(i+1) - 2 p(i) + p(i-1) missed by 3.0e-12.
    """
    phi = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 10_000)
    df = parallel_darboux(FramedPolygon.silhouette(phi.points))
    gauges = []

    def spy(tau, value):
        gauges.append(lambda_from_tau(tau, value))
        return gauges[-1]

    monkeypatch.setattr(invariants, "lambda_from_tau", spy)
    eta = focal_data(df).eta
    (lam,) = gauges
    pp = eta.values - lam.values[:, None] * df.xi.window(lam.base, len(lam))
    e = np.diff(df.frame.polygon.points.astype(np.longdouble), axis=0)
    ref = e[1:] - e[:-1]
    assert eta.base == 1 and pp.shape == ref.shape
    assert np.abs(pp - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------- one stencil for both topologies


def pad(values, lead, trail):
    """A closed polygon's slots as an open run, with wrap-around slots on both ends."""
    return np.concatenate([values[len(values) - lead:], values, values[:trail]])


def assert_same_slots(closed, open_, lead):
    """The open result covers every slot of the closed one, bit for bit."""
    assert len(open_) == len(closed)
    assert np.array_equal(closed.window(open_.base - lead, len(open_)), open_.values)


def closed_equal_area(rng, n):
    """A regular n-gon under a random orientation-preserving linear map."""
    m = rng.normal(size=(2, 2))
    m[:, 0] *= np.sign(np.linalg.det(m))
    Gamma = regular_equal_area(n).Gamma.values @ m.T
    return PlanarEqualAreaPolygon.from_vertices(Gamma, closed=True)


@given(k=st.integers(3, 20), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_equals_open_padded_with_wrap_around(k, seed):
    rng = np.random.default_rng(seed)
    n = 2 * k + 1
    G = closed_equal_area(rng, n)
    P = rng.normal(size=2) * 0.3

    G_open = PlanarEqualAreaPolygon.from_vertices(pad(G.Gamma.values, 1, 0))
    assert_same_slots(support_function(G, P), support_function(G_open, P), 1)
    G_open = PlanarEqualAreaPolygon.from_vertices(pad(G.Gamma.values, 2, 1))
    assert_same_slots(affine_curvature(G)[0], affine_curvature(G_open)[0], 2)

    t = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.8, n)) / n
    convex = np.column_stack([1.5 * np.cos(t), 0.7 * np.sin(t)])
    assert_same_slots(b_sequence(GridSeq(convex, Grid.VERTEX, Topology.CLOSED)),
                      b_sequence(GridSeq(pad(convex, 1, 1), Grid.VERTEX)), 1)

    pts, xi = rng.normal(size=(2, n, 3))
    closed = FramedPolygon.silhouette(pts, closed=True)
    # sigma 0 on every side: parallel faces, where p is NaN
    df = DarbouxField(closed, GridSeq(xi, Grid.VERTEX, Topology.CLOSED),
                      GridSeq(np.zeros(n), Grid.SIDE, Topology.CLOSED), np.full(n, np.nan))
    open_ = FramedPolygon.silhouette(pad(pts, 1, 1))
    df_open = DarbouxField(open_, GridSeq(pad(xi, 1, 1), Grid.VERTEX),
                           GridSeq(np.zeros(n + 1), Grid.SIDE), np.full(n + 1, np.nan))
    assert_same_slots(darboux_volumes(df).volumes,
                      darboux_volumes(df_open).volumes, 1)
    e = np.roll(pts, -1, axis=0) - pts
    assert np.array_equal(darboux_volumes(df).values, det3(np.roll(e, 1, axis=0), e, xi))

    # The padded run repeats vertex 0's triple volume once.  With n odd and
    # vertex 0 carrying the median volume, both medians (the constant c)
    # are that same volume, so the Frenet values must agree bitwise too.
    phi = silhouette_lift(G, P).points
    vols = centroaffine_volumes(Polygon3.from_points(phi, closed=True)).values
    phi = Polygon3.from_points(np.roll(phi, -int(np.argmax(vols == np.median(vols))), axis=0),
                               closed=True)
    assert_same_slots(centroaffine_volumes(phi).volumes,
                      centroaffine_volumes(Polygon3.from_points(pad(phi.points, 1, 1))).volumes, 1)
    fr = centroaffine_frenet(phi)
    fr_open = centroaffine_frenet(Polygon3.from_points(pad(phi.points, 1, 2)))
    for name in ("rho1", "rho2", "tau"):
        assert_same_slots(getattr(fr, name), getattr(fr_open, name), 1)


def reference_centroaffine_frenet(q, c, slots):
    """The per-side determinant loop that the batched form replaced.

    Returns rho1 (of side k, so at vertex k+1), rho2 and tau per side.
    """
    n = len(q)
    rows = []
    for k in slots:
        d_a = det3(q[(k - 1) % n], q[k % n], q[(k + 2) % n])
        d_b = det3(q[(k + 2) % n], q[(k + 1) % n], q[(k - 1) % n])
        rows.append((3.0 - d_a / c, 3.0 + d_b / c, (d_a + d_b) / c))
    return np.array(rows).T


def side_slots(n, closed):
    return range(n) if closed else range(1, n - 2)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_centroaffine_frenet_matches_per_side_loop(closed, seed):
    rng = np.random.default_rng(seed)
    if closed:
        phi = silhouette_lift(closed_equal_area(rng, 9 + seed), rng.normal(size=2) * 0.3)
    else:
        phi = random_equal_volume_polygon(rng, 12 + seed)
    fr = centroaffine_frenet(phi)
    slots = side_slots(len(phi), closed)
    rho1, rho2, tau = reference_centroaffine_frenet(phi.points, fr.c, slots)
    assert np.array_equal(fr.rho1.window(slots[0] + 1, len(slots)), rho1)
    assert np.array_equal(fr.rho2.values, rho2)
    assert np.array_equal(fr.tau.values, tau)
    assert (fr.rho2.base, fr.tau.base) == (slots[0], slots[0])


@pytest.mark.parametrize("frame", ["prism", "lift"])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_planar_reduction_reads_affine_curvature(frame, closed, seed):
    """Both Frenet kernels reduce to the planar affine curvature k.

    Over the vertical prism frame of an equal-area polygon, ``frenet``
    gives rho1 = rho2 = k(i+1) on side i (the side is gamma(i+1)) and tau
    = 0; on the silhouette lift, ``centroaffine_frenet`` gives rho1 = rho2
    = k at each vertex gamma(i).
    """
    rng = np.random.default_rng(seed)
    G = closed_equal_area(rng, 9 + seed) if closed else random_equal_area(12 + seed, rng)
    k, _ = affine_curvature(G)
    if frame == "prism":
        pts3 = np.column_stack([G.Gamma.values, np.zeros(len(G.Gamma))])
        f = FramedPolygon.build(pts3, np.tile([0.0, 0.0, 1.0], (len(pts3), 1)), closed=closed)
        fr = frenet(parallel_darboux(f))
        assert np.abs(fr.tau.values).max() <= 1e-12
        rho1_slot, rho2_slot = fr.rho1.base, fr.rho2.base + 1
    else:
        fr = centroaffine_frenet(silhouette_lift(G, rng.normal(size=2) * 0.3))
        rho1_slot, rho2_slot = fr.rho1.base + G.gamma.base, fr.rho2.base + G.gamma.base
    scale = max(np.abs(k.values).max(), 1.0)
    for got, slot in ((fr.rho1, rho1_slot), (fr.rho2, rho2_slot)):
        assert np.abs(got.values - k.window(slot, len(got))).max() <= 1e-10 * scale


# ---------------------------------------------------------------- frame validation and focal lines


def reference_frame_measures(f):
    """Face residual |det3(unit side, d_left, d_right)| per side, and the
    vertex margins from side arrays padded with inf and rolled by one."""
    e = f.polygon.sides().values
    eh = e / np.linalg.norm(e, axis=1)[:, None]
    n, nsides = len(f.polygon), len(e)
    _, (dl, dr) = f.unit_directions.stencil(0, 1)

    def on_vertices(side_values):
        out = np.full(n, np.inf)
        out[:nsides] = side_values
        return out

    margins = np.minimum(on_vertices(np.linalg.norm(np.cross(dl, eh), axis=1)),
                         np.roll(on_vertices(np.linalg.norm(np.cross(dr, eh), axis=1)), 1))
    return np.abs(det3(eh, dl, dr)), margins


@given(kind=st.sampled_from(["equal_volume", "cone", "generic"]), closed=st.booleans(),
       seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30))
@settings(max_examples=40, deadline=None)
def test_validate_frame_flags_what_the_determinant_and_padded_margins_flag(kind, closed, seed, n):
    """Every residual and every margin is tried as the gate ``TOL_FACE``,
    and so is the float just below it.

    At one of the two, a value one ulp off the reference would move its
    side or vertex across the gate (residual > tol, margin <= tol).
    """
    f = framed_fixture(kind, seed, n, closed)
    cop, margins = reference_frame_measures(f)
    at = np.concatenate([cop, margins, [darboux.TOL_FACE]])
    for tol in np.unique(np.concatenate([at, np.nextafter(at, -np.inf)])):
        with mock.patch.object(darboux, "TOL_FACE", tol):
            sides, vertices = frame_flags(f)
        assert sides == np.flatnonzero(cop > tol).tolist()
        assert vertices == np.flatnonzero(margins <= tol).tolist()


def test_validate_frame_on_a_two_vertex_polygon():
    f = FramedPolygon.build([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    _, margins = reference_frame_measures(f)
    assert margins.tolist() == [1.0, 0.0]
    assert frame_flags(f) == ([], [1])


def reference_focal_lines(fd):
    """Per side an (origin, direction) tuple of row views, None where O and Q
    are both at infinity, built from the same O, Q, mu and eta."""
    df, eta = fd.field, fd.eta
    k0, m = fd.Q.base, len(fd.Q)
    O, q_pts = fd.O.window(k0, m), fd.Q.values
    o_inf = np.isnan(O[:, 0])
    with np.errstate(divide="ignore"):
        q_inf = ~np.isfinite(1.0 / fd.mu.values)
    origin = np.where(o_inf[:, None], q_pts, O)
    d = np.where(o_inf[:, None], df.xi.window(k0, m), q_pts - O)
    with np.errstate(invalid="ignore"):
        use_eta = ~o_inf & (q_inf | (np.linalg.norm(d, axis=1) == 0.0))
        d = np.where(use_eta[:, None], eta.window(k0, m), d)
        d = d / np.linalg.norm(d, axis=1)[:, None]
    lines = list(zip(origin, d))
    for j in np.flatnonzero(o_inf & q_inf):
        lines[j] = None
    return lines


def reference_focal_mesh(fd, lines, diameter):
    """The focal set mesh rebuilt from the list of line tuples."""
    usable = np.array([ln is not None for ln in lines], dtype=bool)
    idx = np.flatnonzero(usable)
    origin = np.array([lines[j][0] for j in idx]).reshape(-1, 3)
    d = np.array([lines[j][1] for j in idx]).reshape(-1, 3)
    span = np.ptp(origin, axis=0) if len(idx) else np.zeros(3)
    extent = 2.0 * max(float(norm3(span)), diameter)
    q = fd.Q.values[idx]
    with np.errstate(invalid="ignore"):
        t_q = np.where(np.isfinite(q).all(axis=1), dot3(q - origin, d), 0.0)
    lo = (np.minimum(0.0, t_q) - extent)[:, None]
    hi = (np.maximum(0.0, t_q) + extent)[:, None]
    verts = np.stack([origin + lo * d, origin + hi * d], axis=1).reshape(-1, 3)
    nxt = idx + 1
    if fd.mu.topology is Topology.CLOSED:
        nxt %= len(usable)
    both = nxt < len(usable)
    both[both] = usable[nxt[both]]
    i0 = 2 * np.flatnonzero(both)
    i1 = 2 * (np.cumsum(usable)[nxt[both]] - 1)
    return verts, np.stack([i0, i0 + 1, i1 + 1, i1], axis=1)


def focal_fixture(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "single_line":
        pts = silhouette_lift(random_equal_area(12, rng), rng.normal(size=2) * 0.3).points
        f = FramedPolygon.silhouette(pts)
    elif kind == "general":
        f = FramedPolygon.silhouette(random_equal_volume_polygon(rng, 12 + seed).points)
    elif kind == "closed":
        pts = silhouette_lift(closed_equal_area(rng, 9 + 2 * seed), rng.normal(size=2) * 0.3).points
        f = FramedPolygon.silhouette(pts, closed=True)
    elif kind == "prism":
        G = random_equal_area(14, rng)
        pts = np.column_stack([G.Gamma.values, np.zeros(len(G.Gamma))])
        f = FramedPolygon.build(pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
    else:
        f = parabola_prism(rng.choice([1, 2, 2, 3], size=10 + seed))
    return f, parallel_darboux(f)


@pytest.mark.parametrize("kind", ["single_line", "general", "closed", "prism", "parabola"])
@pytest.mark.parametrize("seed", range(3))
def test_focal_line_arrays_match_the_list_of_tuples(kind, seed):
    f, df = focal_fixture(kind, seed)
    fd = focal_data(df, 0.7 * seed)
    lines = reference_focal_lines(fd)
    origins, directions = focal_lines(fd)
    assert origins.shape == directions.shape == (len(lines), 3)
    for j, line in enumerate(lines):
        if line is None:
            assert np.isnan(origins[j]).all() and np.isnan(directions[j]).all()
        else:
            assert origins[j].tobytes() == line[0].tobytes()
            assert directions[j].tobytes() == line[1].tobytes()
    if kind == "parabola":
        assert None in lines and any(ln is not None for ln in lines)
    mesh = focal_set_mesh(fd)
    verts, faces = reference_focal_mesh(fd, lines, f.polygon.diameter())
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(mesh.faces, faces)
    assert np.array_equal(mesh.lines, np.arange(len(verts)).reshape(-1, 2))


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


@pytest.mark.parametrize("angle, refused", [(1e-15, True), (5e-9, True), (2e-8, False)])
def test_direction_turned_into_its_side_stops_at_the_frame_gate(angle, refused):
    # a vertex margin at or below TOL_FACE is refused before the recursion
    # runs, so no side reaches it nearly parallel to its far direction
    rng = np.random.default_rng(7)
    pts, d = planar_framed(rng)
    d[4] = turn_into_side(pts, 3, angle)
    f = FramedPolygon.build(pts, d)
    if refused:
        with pytest.raises(GeometryError,
                           match=r"^frame validation failed \(sides \[\], vertices \[4\]\)$"):
            parallel_darboux(f)
    else:
        assert np.isfinite(parallel_darboux(f).sigma.values).all()


@pytest.mark.parametrize("scale", [1e-16, 1e16])
@pytest.mark.parametrize("angle, refused", [(5e-9, True), (2e-8, False)])
def test_frame_gate_ignores_scale(scale, angle, refused):
    # margins are sines of angles, so the polygon's size moves no vertex
    # across TOL_FACE
    rng = np.random.default_rng(7)
    pts, d = planar_framed(rng)
    d[4] = turn_into_side(pts, 3, angle)
    assert frame_flags(FramedPolygon.build(scale * pts, d)) == ([], [4] if refused else [])


def test_overflow_names_side():
    # each side turned towards its far direction by 2e-8, above the 1e-8
    # frame gate, multiplies the scale by about 1e7
    rng = np.random.default_rng(7)
    pts, d = planar_framed(rng, 50)
    for k in range(44):
        d[k + 1] = turn_into_side(pts, k, 2e-8)
    inside = FramedPolygon.build(pts, d)
    d[45] = turn_into_side(pts, 44, 2e-8)
    outside = FramedPolygon.build(pts, d)
    validate_frame(inside)
    validate_frame(outside)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        df = parallel_darboux(inside)
        assert np.abs(df.xi.values).max() > 1e307  # just inside the float range
        with pytest.raises(GeometryError, match=r"^side 44: the Darboux recursion overflows"):
            parallel_darboux(outside)


def test_underflow_names_side():
    # each side whose near direction is turned towards it by 2e-8, above the
    # 1e-8 frame gate, divides the scale by about 1e7
    rng = np.random.default_rng(7)
    pts, d = planar_framed(rng, 50)
    for k in range(43):
        d[k] = turn_into_side(pts, k, 2e-8)
    inside = FramedPolygon.build(pts, d)
    for k in (43, 44):
        d[k] = turn_into_side(pts, k, 2e-8)
    outside = FramedPolygon.build(pts, d)
    validate_frame(inside)
    validate_frame(outside)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        df = parallel_darboux(inside)
        assert np.abs(df.xi.values).max(axis=1).min() < 1e-300  # just inside the normal range
        with pytest.raises(GeometryError, match=r"^side 44: the Darboux recursion underflows"):
            parallel_darboux(outside)


def test_overflow_on_long_generic_polygon(tmp_path, capsys):
    # the benchmark's generic input: drawn after a cone fixture of the same size
    rng = np.random.default_rng(1)
    random_cone_fixture(rng, 10_000)
    f = random_generic_framed(rng, 10_000)
    e, dh = f.polygon.sides().values, f.unit_directions.values
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
        with pytest.raises(GeometryError, match=f"^side {first}: the Darboux recursion overflows"):
            parallel_darboux(f)
        doc = tmp_path / "generic.json"
        write_document(PolygonDocument.from_framed(f), doc)
        assert cli.main(["analyze", str(doc)]) == 2
    assert f"side {first}:" in capsys.readouterr().err


def test_frame_report_names_injected_face():
    f = random_generic_framed(np.random.default_rng(3), 12)
    d = f.directions.values.copy()
    d[5] += [0.0, 0.0, 0.4]
    assert frame_flags(FramedPolygon.build(f.polygon.points, d)) == ([4, 5], [])


@pytest.fixture
def pipeline():
    p = random_equal_volume_polygon(np.random.default_rng(11), 12)
    df = parallel_darboux(FramedPolygon.silhouette(p.points))
    return df, frenet(df)


def with_xi(df, xi):
    return dataclasses.replace(df, xi=GridSeq(xi, Grid.VERTEX))


def test_degenerate_frenet_face_names_side(pipeline):
    # xi(5) along side 5 flattens the face of side 5 and zeroes the volume at
    # vertex 5, so the volume gate refuses it before any face solve
    df, _ = pipeline
    p = df.frame.polygon.points
    xi = df.xi.values.copy()
    xi[5] = p[6] - p[5]
    with pytest.raises(NotEqualVolumeError, match=r"^vertex 5: volume spread") as info:
        frenet(with_xi(df, xi))
    assert info.value.vertex == 5


def short_side_cone(scale):
    """An open equal-volume silhouette of 5 vertices about the origin, times ``scale``.

    Side 2 is (0, 1e-6, 0) at distance about 1 from the origin, and
    vertices 1 and 4 lie 7e5 away, perpendicular to vertices 2 and 3, so
    each centro-affine volume is 1: vertex 0 at y = 1e-6 gives the first.
    Vertex 0 lies 1.1e4 away, so |xi| is about 1e-4 at vertex 3.
    """
    far = 1 / 2e-6
    pts = [[1e4, 1e-6, 5e3], [-far, 0, far], [1, 0, 1], [1, 1e-6, 1], [-far, 0.5, far]]
    return FramedPolygon.silhouette(scale * np.array(pts))


def test_frenet_face_basis_that_underflows_names_side(tmp_path, capsys):
    # scaled by 1e-153 the volumes are about 9e-311 and still equal, but on
    # side 2 the normal side x xi is about 1e-163, whose square underflows to
    # 0: the face solve has no basis there
    assert frenet(parallel_darboux(short_side_cone(1.0))).tau.values.size == 2
    df = parallel_darboux(short_side_cone(1e-153))
    assert 0 < volume_constant(darboux_volumes(df)) < 1e-308
    with pytest.raises(GeometryError, match=r"^side 2: degenerate face basis in Frenet solve$"):
        frenet(df)
    doc = tmp_path / "short.json"
    write_document(PolygonDocument.from_polygon(df.frame.polygon), doc)
    assert cli.main(["analyze", str(doc), "--origin", "0,0,0"]) == 2
    assert capsys.readouterr().err == "evpoly: side 2: degenerate face basis in Frenet solve\n"


def test_cone_line_moves_within_the_volume_gate_get_a_focal_set(tmp_path):
    # each vertex of an n = 12 corpus polygon moved along its cone line by
    # 1e-9 N(0, 1), relative: the faces stay planar and the volume spread stays
    # within EQUAL_VOLUME_TOL, so analyze and focal take Q and exit 0, though
    # the two ends of side 6 see Q 2.1e-8 apart: the volume gate alone decides
    rng = np.random.default_rng(24)
    p = random_equal_volume_polygon(rng, 12).points
    moved = p * (1.0 + 1e-9 * rng.normal(size=(12, 1)))
    spread = darboux_volumes(parallel_darboux(FramedPolygon.silhouette(moved))).spread
    assert 1e-9 < spread <= EQUAL_VOLUME_TOL
    doc = tmp_path / "moved.json"
    write_document(PolygonDocument.from_polygon(Polygon3.from_points(moved)), doc)
    assert cli.main(["analyze", str(doc), "--origin", "0,0,0"]) == 0
    assert cli.main(["focal", str(doc), "--origin", "0,0,0", "--obj", str(tmp_path / "f.obj")]) == 0


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 40), along=st.booleans(),
       size=st.sampled_from([1e-10, 1e-9, 3e-9]))
@settings(max_examples=30, deadline=None)
def test_focal_data_needs_only_the_frame_and_volume_gates(seed, n, along, size):
    """An open silhouette polygon that passes ``validate_frame`` and the
    volume gate gets its focal data: no later check refuses it.

    A corpus polygon is moved by ``size`` N(0, 1), relative, either along
    its cone lines or in any direction.
    """
    rng = np.random.default_rng(seed)
    p = random_equal_volume_polygon(rng, n).points
    if along:
        moved = p * (1.0 + size * rng.normal(size=(n, 1)))
    else:
        moved = p + size * np.abs(p).max() * rng.normal(size=p.shape)
    f = FramedPolygon.silhouette(moved)
    assume(frame_flags(f) == ([], []))
    df = parallel_darboux(f)
    try:
        volume_constant(darboux_volumes(df))
    except NotEqualVolumeError:
        reject()
    focal_data(df)


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_cone_frame_off_its_lines_by_roundoff_is_a_cone(seed, tmp_path):
    # each direction of the n = 46 spiral silhouette turned off its cone line,
    # perpendicular to it, by 1e-10 relative: the faces stay planar within
    # TOL_FACE, so analyze takes O for the apex and reports the cone
    phi = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 46).points
    rng = np.random.default_rng(seed)
    u = phi / np.linalg.norm(phi, axis=1)[:, None]
    r = rng.normal(size=phi.shape)
    perp = r - np.einsum("ij,ij->i", r, u)[:, None] * u
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    f = FramedPolygon.build(phi, phi + 1e-10 * np.linalg.norm(phi, axis=1)[:, None] * perp)
    validate_frame(f)
    doc, out = tmp_path / "tilted.json", tmp_path / "report.json"
    write_document(PolygonDocument.from_framed(f), doc)
    assert cli.main(["analyze", str(doc), "--json", str(out)]) == 0
    assert strict_json(out)["classification"] == "cone"


# ---------------------------------------------------------------- loop guard


def analyze_spiral(n, d):
    phi = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, n)
    doc, out = d / "spiral.json", d / "report.json"
    write_document(PolygonDocument.from_framed(FramedPolygon.silhouette(phi.points)), doc)
    return ["analyze", str(doc), "--json", str(out)], out


def plength_ellipse_arc(n, d):
    pts = sample_curve(Ellipse(1.5, 0.8), 0.3, 1.7, n, GridScheme.INCLUDE_BOTH_ENDS)
    src, out = d / "arc.csv", d / "report.json"
    src.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts))
    return ["plength", str(src), "--auto-seed", "--report", str(out)], out


def table1(n, d):
    out = d / "table1.csv"
    return ["table1", "--sizes", str(n), "--csv", str(out)], out


@pytest.mark.parametrize("command, n, code, expect", [
    pytest.param(analyze_spiral, 200, 0, '"rho1"', id="200"),
    pytest.param(analyze_spiral, 2000, 0, '"rho1"', id="2000"),
    pytest.param(plength_ellipse_arc, 200, 0, '"pl1"', id="plength-200"),
    # the volume gate rejects this arc (spread 5.7e-7 grows as eps/h^3), after the lift
    pytest.param(plength_ellipse_arc, 2000, 2, None, id="plength-2000"),
    pytest.param(table1, 1000, 0, "1000,", id="table1-1000"),
])
def test_analyze_makes_no_per_vertex_lookups(command, n, code, expect, tmp_path, monkeypatch):
    """CLI runs that make no per-slot ``GridSeq.at`` lookups."""
    calls = []
    at = GridSeq.at

    def counted(self, slot):
        calls.append(slot)
        return at(self, slot)

    argv, out = command(n, tmp_path)
    monkeypatch.setattr(GridSeq, "at", counted)
    assert cli.main(argv) == code
    if expect is not None:
        assert expect in out.read_text()
        if out.suffix == ".json":
            strict_json(out)
    assert calls == []


def recording(fn, calls: list):
    """``fn``, appending the result of each call to ``calls``."""
    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out)
        return out
    return recorded


def replace_everywhere(monkeypatch, fn, replacement) -> None:
    """Put ``replacement`` in place of ``fn`` in every evpoly module that holds it."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "evpoly"]:
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def record_calls(monkeypatch, fn, calls: list) -> None:
    """Record the calls of ``fn`` made through any evpoly module."""
    replace_everywhere(monkeypatch, fn, recording(fn, calls))


def test_analyze_computes_each_derived_quantity_once(rng, tmp_path, monkeypatch):
    """One ``analyze --origin`` call on a small polygon pays each derived array once,
    and nothing that its report and gates do not read."""
    src, out = tmp_path / "ev.json", tmp_path / "report.json"
    write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 40)), src)
    diffs, volumes, points, crosses, normals, numpy_calls = [], [], [], [], [], []
    parses, lines = [], []
    record_calls(monkeypatch, forward_diff, diffs)
    record_calls(monkeypatch, darboux_volumes, volumes)
    record_calls(monkeypatch, osculating_points, points)
    record_calls(monkeypatch, cross3, crosses)
    record_calls(monkeypatch, focal_lines, lines)
    face_normals = functools.cached_property(recording(FramedPolygon.face_normals.func, normals))
    face_normals.__set_name__(FramedPolygon, "face_normals")
    monkeypatch.setattr(FramedPolygon, "face_normals", face_normals)
    # this polygon has no parallel face and no point at infinity, so the
    # work kept for those cases does not run; the cone apex is a row mean
    # that skips np.mean
    for name in ("cross", "median", "stack", "roll", "mean", "where"):
        monkeypatch.setattr(np, name, recording(getattr(np, name), numpy_calls))
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        recording(argparse.ArgumentParser.parse_known_args, parses))
    gridseqs = []
    monkeypatch.setattr(GridSeq, "__init__", recording(GridSeq.__init__, gridseqs))

    assert cli.main(["analyze", str(src), "--origin", "0,0,0", "--json", str(out)]) == 0
    assert "rho1" in strict_json(out)
    # a command line in the plain form is read without argparse
    assert parses == []
    assert len(diffs) == 1
    # the face normals once, read by validate_frame and parallel_darboux;
    # then the two margins and the one Frenet face normal, all distinct
    assert len(normals) == 1
    assert len(crosses) == 4 and len({c.tobytes() for c in crosses}) == 4
    assert numpy_calls == []
    # eta and Q are built on first read, and the report reads neither
    assert len(gridseqs) == 13
    # evaluations, not calls: a repeated call must hand back the same result
    assert volumes and len({id(r) for r in volumes}) == 1
    assert points and len({id(seq) for seq in points}) == 1
    # the report holds no focal line; the focal mesh builds them once
    assert lines == []
    assert cli.main(["focal", str(src), "--origin", "0,0,0", "--obj", str(tmp_path / "f.obj")]) == 0
    assert len(lines) == 1


def test_memo_keeps_each_result_on_its_field(rng):
    f, _ = random_cone_fixture(rng)
    df = parallel_darboux(f)
    assert darboux_volumes(df) is darboux_volumes(df)
    assert osculating_points(df) is osculating_points(df)
    # another field of the same frame evaluates again
    assert darboux_volumes(parallel_darboux(f)) is not darboux_volumes(df)


def test_memo_keeps_the_frenet_data_on_their_field(rng):
    # the cone fixture is not equal-volume, so the Frenet data need their own polygon
    f = FramedPolygon.silhouette(random_equal_volume_polygon(rng, 12).points)
    df = parallel_darboux(f)
    assert frenet(df) is frenet(df)
    assert frenet(parallel_darboux(f)) is not frenet(df)


def test_analyze_evaluates_each_field_memo_once(rng, tmp_path, monkeypatch):
    """On a cone ``analyze`` reads the Darboux volumes, the osculating points
    and the Frenet data twice each, and each kernel body runs once."""
    src, out = tmp_path / "cone.json", tmp_path / "report.json"
    write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 40)), src)
    evaluated = []

    def counted(body):
        def run(df):
            evaluated.append(body.__name__)
            return body(df)
        return once_per_field(run)

    replace_everywhere(monkeypatch, darboux_volumes, counted(darboux_volumes.__wrapped__))
    replace_everywhere(monkeypatch, osculating_points, counted(osculating_points.__wrapped__))
    replace_everywhere(monkeypatch, frenet, counted(frenet.__wrapped__))

    assert cli.main(["analyze", str(src), "--origin", "0,0,0", "--json", str(out)]) == 0
    report = strict_json(out)
    assert "rho1" in report and report["classification"] == "cone"
    assert sorted(evaluated) == ["darboux_volumes", "frenet", "osculating_points"]
