import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpoly.core import GeometryError, Grid, GridSeq, Polygon3, Topology, det3
from evpoly.constructions import Ellipse, ExampleSpiral, GridScheme, sample_curve
from evpoly.equal_volume import centroaffine_volumes
from evpoly.projective import (
    LIFT_COORD_MAX,
    SPIRAL_SMOOTH_LENGTH,
    InflectionError,
    LiftNormalization,
    PlanarProjectivePolygon,
    b_sequence,
    default_normalization,
    lift_representative,
    projective_lengths,
    spiral_analytic_normalization,
    table1_experiment,
)

SQUARE = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], float)


def spiral_poly(n):
    pts = sample_curve(ExampleSpiral(), 0.0, 2 * np.pi, n,
                       GridScheme.HALF_OPEN_STEP)
    return PlanarProjectivePolygon.from_vertices(pts)


def ellipse_arc_poly(n):
    pts = sample_curve(Ellipse(2.0, 1.0), 0.2, 1.6, n, GridScheme.INCLUDE_BOTH_ENDS)
    return PlanarProjectivePolygon.from_vertices(pts)


def lift_scales_loop(poly, norm):
    """Reference: the lift's scales by the sequential recursion."""
    n = len(poly.vertices)
    b = poly.b.window(1, n - 2)
    a = np.empty(n)
    a[0], a[1] = norm.a1, norm.a2
    with np.errstate(all="ignore"):
        for i in range(1, n - 1):
            a[i + 1] = norm.c / (a[i - 1] * a[i] * b[i - 1])
    return a


def line_events(fn, *args) -> int:
    """Number of traced line events executed in ``fn``'s own frame."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is fn.__code__ else None)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


class TestBSequence:
    def test_square(self):
        b = b_sequence(PlanarProjectivePolygon.from_vertices(SQUARE, closed=True).vertices)
        np.testing.assert_allclose(b.values, 4.0)

    def test_collinear_raises_with_index(self):
        pts = np.array([[0, 0], [1, 0], [2, 0], [3, 1]], float)
        with pytest.raises(InflectionError) as exc:
            b_sequence(GridSeq(pts, Grid.VERTEX))
        assert exc.value.index == 1

    def test_spiral_all_positive(self):
        poly = spiral_poly(100)
        assert np.all(poly.b.values > 0)


class TestLift:
    def test_square_in_unit_plane_unit_scales(self):
        poly = PlanarProjectivePolygon.from_vertices(SQUARE)
        phi = lift_representative(poly, LiftNormalization(1.0, 1.0, 4.0))
        np.testing.assert_allclose(np.linalg.norm(phi.points, axis=1),
                                   np.sqrt(3.0), rtol=1e-12)

    def test_constant_volume_exact(self, rng):
        poly = spiral_poly(200)
        norm = default_normalization(poly)
        phi = lift_representative(poly, norm)
        rep = centroaffine_volumes(phi)
        # the recursion enforces every triple volume; only roundoff is left
        assert rep.spread <= 1e-11

    def test_c_homogeneity(self):
        poly = spiral_poly(50)
        n0 = spiral_analytic_normalization(0.0, 2 * np.pi / 50)
        k = 1.7
        n1 = LiftNormalization(k * n0.a1, k * n0.a2, k ** 3 * n0.c)
        phi0 = lift_representative(poly, n0)
        phi1 = lift_representative(poly, n1)
        np.testing.assert_allclose(phi1.points, k * phi0.points, rtol=1e-10)

    def test_seed_homogeneity_to_a_few_roundings(self):
        # each chain is its seed times one ratio product that no seed
        # affects; the sequential recursion drifts by about 100 eps here
        n = 10000
        poly = spiral_poly(n)
        n0 = spiral_analytic_normalization(0.0, 2 * np.pi / n)
        a0 = lift_representative(poly, n0).points[:, 2]
        for k in (1.7, 0.3):
            n1 = LiftNormalization(k * n0.a1, k * n0.a2, k ** 3 * n0.c)
            a1 = lift_representative(poly, n1).points[:, 2]
            assert np.max(np.abs(a1 / (k * a0) - 1.0)) <= 8 * np.finfo(float).eps

    def test_analytic_seeds_track_analytic_scales(self):
        n = 200
        h = 2 * np.pi / n
        poly = spiral_poly(n)
        phi = lift_representative(poly, spiral_analytic_normalization(0.0, h))
        t = h * np.arange(n)
        a_true = 2.0 ** (-1.0 / 3.0) * np.exp(2.0 * t / 3.0)
        a_got = phi.points[:, 2]
        assert np.max(np.abs(a_got / a_true - 1.0)) < 5 * h

    @given(kind=st.sampled_from(["ellipse", "spiral"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(4, 3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_recursion(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        t0, span = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.2, 5.0)
        curve = Ellipse(*rng.uniform(0.3, 3.0, 2)) if kind == "ellipse" else ExampleSpiral()
        pts = sample_curve(curve, t0, t0 + span, n, GridScheme.INCLUDE_BOTH_ENDS)
        poly = PlanarProjectivePolygon.from_vertices(pts)
        a1, a2, c = np.exp(rng.uniform(-3.0, 3.0, 3))
        norm = LiftNormalization(a1, a2, c)
        a = lift_representative(poly, norm).points[:, 2]
        ref = lift_scales_loop(poly, norm)
        # both orders accumulate O(N) roundings of size eps as a random walk
        assert np.max(np.abs(a / ref - 1.0)) <= 8 * np.finfo(float).eps * np.sqrt(n)

    @pytest.mark.parametrize("n, loop_error", [(1000, 1.44e-10), (10000, 4.01e-8)])
    def test_analytic_scale_error_within_loop_error(self, n, loop_error):
        # the sequential recursion's largest |log a - analytic| on the spiral
        h = 2 * np.pi / n
        phi = lift_representative(spiral_poly(n), spiral_analytic_normalization(0.0, h))
        log_true = np.log(2.0 ** (-1.0 / 3.0)) + 2.0 * h * np.arange(n) / 3.0
        assert np.max(np.abs(np.log(phi.points[:, 2]) - log_true)) <= 2 * loop_error

    def test_no_loop_over_vertices(self):
        def lines(n):
            norm = spiral_analytic_normalization(0.0, 2 * np.pi / n)
            return line_events(lift_representative, spiral_poly(n), norm)

        assert lines(100) == lines(10000)

    def test_overflowing_seeds_name_vertex_2_without_warnings(self):
        # a(0) a(1) overflows, so a(2) = c / inf = 0 is the first bad scale
        norm = LiftNormalization(1e300, 1e300, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=r"^vertex 2: lift recursion overflowed"):
                lift_representative(ellipse_arc_poly(100), norm)

    def test_lift_beyond_det3_range_names_vertex_2_without_warnings(self):
        # a(2) = c / (a(0) a(1) b(1)) is about 3e305: finite, but det3 of
        # such points overflows
        norm = LiftNormalization(1e-300, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=r"^vertex 2: lifted coordinate"):
                lift_representative(ellipse_arc_poly(100), norm)

    def test_overflowing_lifted_coordinate_is_refused_without_warnings(self):
        # every scale is finite, but a(1) x(1) = 1e300 * 1e10 is not
        pts = np.column_stack([1e10 * np.arange(8.0), np.ones(8)])
        poly = PlanarProjectivePolygon(GridSeq(pts, Grid.VERTEX, Topology.OPEN),
                                       GridSeq(np.ones(6), Grid.VERTEX, Topology.OPEN, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=r"^vertex 1: lifted coordinate inf "):
                lift_representative(poly, LiftNormalization(1.0, 1e300, 1e300))

    def test_det3_is_finite_up_to_the_lift_range(self):
        m = LIFT_COORD_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(det3([m, -m, m], [m, m, -m], [-m, m, m])) == pytest.approx(4 * m**3)

    def test_partial_products_stay_within_the_float_range(self):
        # b(1)/b(2) = b(4)/b(5) = 1e200: the ratio product of the chain from
        # a(0) = 1e-300 reaches 1e400, its scales only 1e-100 and 1e100
        b = np.array([1e100, 1e-100, 1.0, 1e100, 1e-100, 1.0])
        pts = np.column_stack([np.arange(8.0), np.ones(8)])
        poly = PlanarProjectivePolygon(GridSeq(pts, Grid.VERTEX, Topology.OPEN),
                                       GridSeq(b, Grid.VERTEX, Topology.OPEN, 1))
        norm = LiftNormalization(1e-300, 1.0, 1e-200)
        a = lift_representative(poly, norm).points[:, 2]
        np.testing.assert_allclose(a, lift_scales_loop(poly, norm), rtol=1e-15)
        assert a[6] == pytest.approx(1e100, rel=1e-15)

    @pytest.mark.parametrize("a1, first", [(1.7e308, 3), (1e308, 15)])
    def test_overflow_names_the_first_scale_out_of_range(self, a1, first):
        # the recursion in logarithms cannot overflow; at a1 = 1e308 the
        # sequential loop stopped at vertex 12, whose scale is 1.65e308,
        # because its denominator a(10) a(11) b(11) underflowed
        poly = spiral_poly(100)
        n = len(poly.vertices)
        log_b = np.log(poly.b.window(1, n - 2))
        log_a = np.empty(n)
        log_a[0], log_a[1] = np.log(a1), 0.0
        for i in range(1, n - 1):
            log_a[i + 1] = -log_a[i - 1] - log_a[i] - log_b[i - 1]
        assert int(np.argmax(log_a > np.log(np.finfo(float).max))) == first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=rf"^vertex {first}: "):
                lift_representative(poly, LiftNormalization(a1, 1.0, 1.0))

    def test_closed_polygon_rejected(self):
        poly = PlanarProjectivePolygon.from_vertices(SQUARE, closed=True)
        with pytest.raises(GeometryError):
            lift_representative(poly, LiftNormalization(1.0, 1.0, 4.0))


class TestProjectiveLengths:
    def test_table1_values(self):
        rows = {n: (p1, p2) for n, _, p1, p2 in table1_experiment([10, 100, 1000])}
        assert rows[10][0] == pytest.approx(4.26627, abs=1e-5)
        assert rows[10][1] == pytest.approx(3.55522, abs=1e-5)
        assert rows[100][0] == pytest.approx(6.87572, abs=1e-5)
        assert rows[100][1] == pytest.approx(6.80410, abs=1e-5)
        assert rows[1000][0] == pytest.approx(7.13407, abs=1e-5)
        assert rows[1000][1] == pytest.approx(7.12691, abs=1e-5)

    def test_estimators_differ_but_converge_together(self):
        rows = table1_experiment([10, 100, 1000])
        gaps = [abs(p1 - p2) for _, _, p1, p2 in rows]
        assert gaps[0] > 1e-3
        assert gaps[0] > gaps[1] > gaps[2]

    def test_summation_window(self):
        n = 12
        poly = spiral_poly(n)
        phi = lift_representative(poly, spiral_analytic_normalization(0.0, 2 * np.pi / n))
        rep = projective_lengths(phi)
        assert rep.summation_range == (2, n - 3)
        assert len(rep.per_side_terms2) == n - 5
        assert rep.pl1 == pytest.approx(float(rep.per_side_terms1.values.sum()))

    def test_reversal_flips_sign(self):
        n = 60
        poly = spiral_poly(n)
        phi = lift_representative(poly, spiral_analytic_normalization(0.0, 2 * np.pi / n))
        rep = projective_lengths(phi)
        rev = Polygon3.from_points(phi.points[::-1])
        rep_rev = projective_lengths(rev)
        assert rep_rev.pl1 == pytest.approx(-rep.pl1, rel=1e-9)
        assert rep_rev.pl2 == pytest.approx(-rep.pl2, rel=1e-9)

    def test_regular_polygon_lift_has_zero_length(self):
        t = np.linspace(0, 2 * np.pi, 13)[:-1]
        pts = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
        scale = det3(pts[0], pts[1], pts[2]) ** (-1.0 / 3.0)
        phi = Polygon3.from_points(scale * pts, closed=True)
        rep = projective_lengths(phi)
        # terms are cube roots of ~1e-17 roundoff, hence the loose bound
        assert rep.pl1 == pytest.approx(0.0, abs=1e-4)
        assert rep.pl2 == pytest.approx(0.0, abs=1e-4)

    def test_too_short(self):
        poly = spiral_poly(8)
        phi = lift_representative(poly, spiral_analytic_normalization(0.0, 2 * np.pi / 8))
        projective_lengths(phi)  # 8 vertices is the minimum with both windows
        with pytest.raises(GeometryError):
            projective_lengths(Polygon3.from_points(phi.points[:5]))


def test_spiral_smooth_length_closed_form():
    # the spiral's rho' + 2 tau is the constant 40/27 over [0, 2 pi]
    assert SPIRAL_SMOOTH_LENGTH == pytest.approx(2 * np.pi * (40.0 / 27.0) ** (1 / 3), rel=1e-15)
    # commonly quoted rounded value
    assert SPIRAL_SMOOTH_LENGTH == pytest.approx(7.1625, abs=3e-4)
