"""The batched Darboux, Frenet and focal kernels against short references.

The references here are deliberately plain: a sequential product loop for
the Darboux scales, an exact rational least-squares solve of the same
float64 data for the face-plane solve and the Frenet coefficients, and the
per-side loops that the batched determinant Frenet and planar reduction
replaced.  A closed polygon must give, bit for bit, what the open polygon
padded with its wrap-around vertices gives.  The error-path cases inject
one bad side or vertex and check that the error names it.
"""

import dataclasses
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cone_fixture, random_equal_volume_polygon, random_generic_framed

from evpoly import cli
from evpoly.constructions import (
    Ellipse,
    ExampleSpiralRepresentative,
    GridScheme,
    PlanarEqualAreaPolygon,
    affine_curvature,
    random_equal_area,
    regular_equal_area,
    sample_curve,
    silhouette_lift,
    support_function,
)
from evpoly.core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    det3,
    face_solve,
    forward_diff,
)
from evpoly.darboux import (
    DarbouxField,
    DegenerateFrameError,
    FramedPolygon,
    osculating_points,
    parallel_darboux,
    validate_frame,
)
from evpoly.documents import PolygonDocument, write_document
from evpoly.equal_volume import centroaffine_volumes, darboux_volumes
from evpoly.invariants import (
    NotEqualVolumeError,
    centroaffine_frenet,
    focal_data,
    frenet,
    planar_reduction,
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


def reference_scales(f: FramedPolygon, seed_scale=1.0):
    """Darboux scales per vertex and sigma per side, one side at a time."""
    e = f.polygon.sides().values
    dh = f.unit_directions.values
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

    fr = frenet(f, df)
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
        x, y = face_solve(d3, -edge, near)
        for j in range(len(slots)):
            x_ref, y_ref = exact_face_solve(d3[j], -edge[j], near[j])
            x_scale, y_scale = coefficient_scales(d3[j], edge[j], near[j])
            assert_close(x[j], float(x_ref), x_scale)
            assert_close(y[j], float(y_ref), y_scale)


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
    assert_same_slots(affine_curvature(G), affine_curvature(G_open), 2)

    t = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.8, n)) / n
    convex = np.column_stack([1.5 * np.cos(t), 0.7 * np.sin(t)])
    assert_same_slots(b_sequence(GridSeq(convex, Grid.VERTEX, Topology.CLOSED)),
                      b_sequence(GridSeq(pad(convex, 1, 1), Grid.VERTEX)), 1)

    pts, xi = rng.normal(size=(2, n, 3))
    closed = FramedPolygon.silhouette(pts, closed=True)
    df = DarbouxField(GridSeq(xi, Grid.VERTEX, Topology.CLOSED),
                      GridSeq(np.zeros(n), Grid.SIDE, Topology.CLOSED))
    open_ = FramedPolygon.silhouette(pad(pts, 1, 1))
    df_open = DarbouxField(GridSeq(pad(xi, 1, 1), Grid.VERTEX), GridSeq(np.zeros(n + 1), Grid.SIDE))
    assert_same_slots(darboux_volumes(closed, df).volumes,
                      darboux_volumes(open_, df_open).volumes, 1)
    e = np.roll(pts, -1, axis=0) - pts
    assert np.array_equal(darboux_volumes(closed, df).values, det3(np.roll(e, 1, axis=0), e, xi))

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


def reference_planar_reduction(xy, slots):
    """The per-side curvature and evolute loop that the batched form replaced."""
    n = len(xy)
    rho, evolute = [], []
    for k in slots:
        d3 = xy[(k + 2) % n] - 3 * xy[(k + 1) % n] + 3 * xy[k % n] - xy[(k - 1) % n]
        edge = xy[(k + 1) % n] - xy[k % n]
        r = -float(np.dot(d3, edge) / np.dot(edge, edge))
        rho.append(r)
        pp = xy[(k + 1) % n] - 2 * xy[k % n] + xy[(k - 1) % n]
        if r != 0.0:
            evolute.append(xy[k % n] + pp / r)
    return np.array(rho), np.array(evolute)


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


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_planar_reduction_matches_per_side_loop(closed, seed):
    rng = np.random.default_rng(seed)
    G = closed_equal_area(rng, 9 + seed) if closed else random_equal_area(12 + seed, rng)
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pts = G.Gamma.values @ frame[:2] + rng.normal(size=3)
    red = planar_reduction(Polygon3.from_points(pts, closed=closed), frame[2])
    c0, u, v, _ = red.frame
    xy = np.stack([(pts - c0) @ u, (pts - c0) @ v], axis=1)
    slots = side_slots(len(pts), closed)
    rho, evolute = reference_planar_reduction(xy, slots)
    evolute = c0 + evolute[:, :1] * u + evolute[:, 1:] * v
    # the dot products moved from np.dot to matmul: 1e-14 of max(|value|, 1)
    for got, want in ((red.rho.values, rho), (red.evolute, evolute)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
    assert red.rho.base == slots[0]


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
    # xi(5) along side 5 flattens the face of side 5 and zeroes the volume at
    # vertex 5, so the volume gate refuses it before any face solve
    f, df, _ = pipeline
    xi = df.xi.values.copy()
    xi[5] = f.polygon.points[6] - f.polygon.points[5]
    with pytest.raises(NotEqualVolumeError, match=r"^vertex 5: volume spread") as info:
        frenet(f, with_xi(df, xi))
    assert info.value.vertex == 5


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
    assert calls == []


def recording(fn, calls: list):
    """``fn``, appending the result of each call to ``calls``."""
    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out)
        return out
    return recorded


def record_calls(monkeypatch, fn, calls: list) -> None:
    """Record the calls of ``fn`` made through any evpoly module."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "evpoly"]:
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, recording(fn, calls))


def test_analyze_computes_each_derived_quantity_once(rng, tmp_path, monkeypatch):
    """One ``analyze --origin`` call on a small polygon pays each derived array once."""
    src, out = tmp_path / "ev.json", tmp_path / "report.json"
    write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 40)), src)
    diffs, volumes, points, numpy_calls = [], [], [], []
    record_calls(monkeypatch, forward_diff, diffs)
    record_calls(monkeypatch, darboux_volumes, volumes)
    record_calls(monkeypatch, osculating_points, points)
    for name in ("cross", "median"):
        monkeypatch.setattr(np, name, recording(getattr(np, name), numpy_calls))

    assert cli.main(["analyze", str(src), "--origin", "0,0,0", "--json", str(out)]) == 0
    assert '"rho1"' in out.read_text()
    assert len(diffs) == 1
    assert numpy_calls == []
    # evaluations, not calls: a repeated call must hand back the same result
    assert volumes and len({id(r) for r in volumes}) == 1
    assert points and len({id(seq) for seq, _ in points}) == 1
