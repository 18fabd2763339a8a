import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evpoly.core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    cross3,
    det2,
    det3,
    dot3,
    face_solve,
    forward_diff,
    median,
    norm3,
)
from evpoly import core
from evpoly.darboux import FramedPolygon, osculating_developable, parallel_darboux, validate_frame
from evpoly.invariants import focal_data, focal_set_mesh, lambda_from_tau
from evpoly.projective import PlanarProjectivePolygon

vec3 = arrays(np.float64, 3, elements=st.floats(-100, 100))


class TestDet3:
    def test_unit_axes(self):
        assert det3([1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1.0

    def test_matches_numpy_det(self, rng):
        m = rng.normal(size=(3, 3))
        assert det3(m[0], m[1], m[2]) == pytest.approx(np.linalg.det(m), rel=1e-12)

    def test_broadcasts(self, rng):
        u, v, w = rng.normal(size=(3, 7, 3))
        out = det3(u, v, w)
        assert out.shape == (7,)
        for i in range(7):
            assert out[i] == pytest.approx(det3(u[i], v[i], w[i]))

    @given(u=vec3, v=vec3, w=vec3)
    @settings(max_examples=80)
    def test_antisymmetry(self, u, v, w):
        assert det3(u, v, w) == pytest.approx(-det3(v, u, w), abs=1e-6)

    @given(u=vec3, v=vec3, w=vec3, a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=80)
    def test_multilinearity_first_slot(self, u, v, w, a, b):
        lhs = det3(a * u + b * v, v, w)
        rhs = a * det3(u, v, w)  # the b*v part dies by antisymmetry
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_degenerate_triple_is_zero(self):
        u = np.array([1.0, 2.0, 3.0])
        assert det3(u, u, [0, 1, 0]) == 0.0


finite = st.floats(-1e100, 1e100)


@given(st.data())
@settings(max_examples=100)
def test_cross3_is_np_cross_bit_for_bit(data):
    # stacked rows, broadcast against one vector or across a new axis
    lead_u, lead_v = data.draw(st.sampled_from(
        [((), ()), ((5,), ()), ((5,), (5,)), ((4, 1), (1, 3)), ((2, 3), (3,))]))
    u = data.draw(arrays(np.float64, lead_u + (3,), elements=finite))
    v = data.draw(arrays(np.float64, lead_v + (3,), elements=finite))
    got, want = cross3(u, v), np.cross(u, v)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# finite values, with the edge cases of a sum of squares mixed in
edge = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                        1e154, -1.5e154, 1.7976931348623157e308, -1e-200])


@given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)),
              elements=st.one_of(st.floats(-10.0, 10.0), edge,
                                 st.floats(allow_nan=False, allow_infinity=False))))
@settings(max_examples=200)
def test_norm3_is_np_linalg_norm_bit_for_bit(x):
    with np.errstate(over="ignore"):  # squares beyond the float range
        got, want = norm3(x), np.linalg.norm(x, axis=1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_norm3_on_strided_rows(rng):
    x = rng.normal(size=(50, 6))
    for rows in (x[:, ::2], x[:, 3:], x[::-1, 1:4]):
        assert norm3(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()


def test_dot3_sums_left_to_right():
    """(a0 b0 + a1 b1) + a2 b2: the 1 is lost to 2^70 before -2^70 cancels it."""
    assert dot3([[2**70, 1, -2**70]], [[1, 1, 1]]).tolist() == [0.0]
    assert dot3([2**70, 1, -2**70], [1, 1, 1]) == 0.0
    assert dot3(np.ones((4, 1, 3)), np.arange(6.0).reshape(2, 3)).shape == (4, 2)


def test_face_solve_sums_the_normal_left_to_right(rng):
    """|n|^2 in ``dot3``'s order on every row, bit for bit."""
    for _ in range(20):
        v, a, b = (rng.normal(size=(50, 3)) * rng.uniform(0.1, 10, size=(50, 1)) for _ in range(3))
        n = cross3(a, b)
        nn = (n[:, 0] * n[:, 0] + n[:, 1] * n[:, 1]) + n[:, 2] * n[:, 2]
        x, y = face_solve(v, a, b, n)
        assert x.tobytes() == (det3(v, b, n) / nn).tobytes()
        assert y.tobytes() == (det3(a, v, n) / nn).tobytes()


# numpy's sums of products, each rounding in an order of its own; the
# package takes every one through core.dot3, except the Gram matrix of
# cli._planar, whose screen allows for any summation order
OTHER_DOTS = {"np.einsum", "np.dot", "np.linalg.norm"}


def other_dots(source: str, exempt: str | None = None) -> list:
    """Lines of ``source`` that take a sum of products past ``dot3``, outside function ``exempt``."""
    tree = ast.parse(source)
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == exempt for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in skip and (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and (node.attr == "dot"
                                                or ast.unparse(node) in OTHER_DOTS))]


def test_sums_of_products_go_through_dot3():
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        exempt = "_planar" if path.name == "cli.py" else None
        found += [f"{path.name}:{line}" for line in other_dots(path.read_text(), exempt)]
    assert found == [], "sums of products go through core.dot3 or core.norm3"


@pytest.mark.parametrize("source", ["x = np.einsum('ij,ij->i', a, b)", "x = np.dot(a, b)",
                                    "x = a.dot(b)", "x = np.linalg.norm(a, axis=1)",
                                    "x = a @ b", "a @= b"])
def test_other_dots_are_caught(source):
    assert other_dots(source, exempt="_planar") == [1]
    assert other_dots(f"def _planar(q):\n    {source}", exempt="_planar") == []


@pytest.mark.parametrize("n", [1, 2, 5, 6, 45, 46])
def test_median_is_np_median_bit_for_bit(rng, n):
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324])
    for _ in range(200):
        x = rng.choice(pool, size=n) * rng.choice([1.0, rng.normal()], size=n)
        assert np.float64(median(x)).tobytes() == np.median(x).tobytes()


@pytest.mark.parametrize("x", [[-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [3.0, 3.0, 1.0, 3.0]])
def test_median_of_signed_zeros_and_repeats(x):
    assert np.float64(median(np.array(x))).tobytes() == np.median(x).tobytes()


def test_median_of_nan_is_nan():
    assert np.isnan(median(np.array([1.0, np.nan, 2.0])))


def test_cached_arrays_are_read_only():
    p = Polygon3.from_points([[0, 0, 0], [1, 0, 0], [1, 2, 0]])
    f = FramedPolygon.silhouette(p.points, (0.0, 0.0, 1.0))
    assert p.sides() is p.sides() and f.unit_directions is f.unit_directions
    for cached in (p.sides().values, f.unit_directions.values):
        with pytest.raises(ValueError):
            cached[0, 0] = 5.0


def test_direction_lengths_are_taken_once_and_give_the_unit_directions(rng):
    d = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-150, 150, size=(20, 1))
    f = FramedPolygon.build(np.cumsum(rng.normal(size=(20, 3)), axis=0), d)
    assert f.direction_lengths.tobytes() == norm3(d).tobytes()
    assert f.unit_directions.values.tobytes() == (d / norm3(d)[:, None]).tobytes()
    with pytest.raises(ValueError):
        f.direction_lengths[0] = 1.0


def test_det2():
    assert det2([1, 0], [0, 1]) == 1.0
    assert det2([2, 1], [4, 2]) == 0.0


class TestGridSeq:
    def test_closed_base_must_be_zero(self):
        with pytest.raises(GeometryError):
            GridSeq(np.arange(4.0), Grid.VERTEX, Topology.CLOSED, base=1)

    def test_slots_and_at(self):
        s = GridSeq(np.array([10.0, 11.0, 12.0]), Grid.SIDE, base=2)
        assert list(s.slots) == [2, 3, 4]
        assert s.at(3) == 11.0
        with pytest.raises(IndexError):
            s.at(5)

    def test_at_wraps_when_closed(self):
        s = GridSeq(np.arange(5.0), Grid.VERTEX, Topology.CLOSED)
        assert s.at(7) == 2.0
        assert s.at(-1) == 4.0

    def test_open_window_is_a_read_only_view(self):
        s = GridSeq(np.arange(6.0), Grid.VERTEX, base=2)
        w = s.window(3, 4)
        assert np.shares_memory(w, s.values)
        assert list(w) == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            w[0] = 5.0

    @pytest.mark.parametrize("start, count", [(1, 2), (5, 4), (2, 7)])
    def test_open_window_outside_its_slots_is_refused(self, start, count):
        s = GridSeq(np.arange(6.0), Grid.VERTEX, base=2)
        message = rf"^slots \[{start}, {start + count}\) outside \[2, 8\)$"
        with pytest.raises(IndexError, match=message):
            s.window(start, count)

    def test_closed_window_is_a_read_only_view_unless_it_wraps(self):
        s = GridSeq(np.arange(6.0), Grid.VERTEX, Topology.CLOSED)
        w = s.window(0, 6)
        assert np.shares_memory(w, s.values) and not w.flags.writeable
        # a start past the end counts mod N
        assert np.shares_memory(s.window(8, 3), s.values)
        assert list(s.window(8, 3)) == [2.0, 3.0, 4.0]
        assert list(s.window(-2, 3)) == [4.0, 5.0, 0.0]

    @pytest.mark.parametrize("start", [0, 3, 7])
    def test_closed_window_of_more_than_its_slots_is_refused(self, start):
        # a run past N slots would repeat one; N itself wraps once
        s = GridSeq(np.arange(5.0), Grid.VERTEX, Topology.CLOSED)
        assert list(s.window(start, 5)) == [float((start + k) % 5) for k in range(5)]
        message = rf"^6 slots from {start}, more than the 5 of a closed sequence$"
        with pytest.raises(IndexError, match=message):
            s.window(start, 6)

    def test_stencil_open_with_base(self):
        v = np.arange(10.0) ** 2
        s = GridSeq(v, Grid.SIDE, base=3)
        first, (a, b, c) = s.stencil(-2, 0, 1)
        # slot k needs slots k-2 and k+1, which exist for k in 5 .. 11
        assert first == 5
        k = np.arange(5, 12)
        for got, off in ((a, -2), (b, 0), (c, 1)):
            assert np.array_equal(got, v[k + off - 3])

    def test_stencil_closed_wraps(self):
        v = np.arange(7.0) ** 2
        s = GridSeq(v, Grid.VERTEX, Topology.CLOSED)
        first, (a, b, c) = s.stencil(-1, 0, 2)
        assert first == 0
        k = np.arange(7)
        for got, off in ((a, -1), (b, 0), (c, 2)):
            assert np.array_equal(got, v[(k + off) % 7])

    def test_stencil_offsets_need_not_include_zero(self):
        v = np.arange(5.0)
        first, (a, b) = GridSeq(v, Grid.VERTEX).stencil(1, 3)
        assert first == -1
        assert np.array_equal(a, v[:3]) and np.array_equal(b, v[2:])

    def test_stencil_too_short(self):
        s = GridSeq(np.arange(3.0), Grid.VERTEX, base=1)
        assert len(s.stencil(-1, 0, 1)[1][0]) == 1
        with pytest.raises(GeometryError):
            s.stencil(-1, 0, 1, 2)

    def test_values_are_frozen(self):
        a = np.arange(3.0)
        s = GridSeq(a, Grid.VERTEX)
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        # a read-only view: the caller's array is neither frozen nor copied
        a[0] = 5.0
        assert np.shares_memory(s.values, a)

    def test_values_view_the_callers_array_which_stays_writeable(self):
        a = np.arange(6.0).reshape(3, 2)
        s = GridSeq(a, Grid.VERTEX, Topology.OPEN, 2)
        assert s.values is not a and np.shares_memory(s.values, a) and s.values.shape == a.shape
        assert not s.values.flags.writeable and a.flags.writeable
        # an array that is read-only already is kept as it is
        assert GridSeq(s.values, Grid.SIDE).values is s.values

    @pytest.mark.parametrize("given", [[1, 2, 3], [[1, 2], [3, 4]], [0.5, 2, -3],
                                       np.arange(3), np.arange(3, dtype=np.float32),
                                       np.arange(3.0).astype(">f8")],
                             ids=["ints", "int-rows", "mixed", "int64", "float32", "big-endian"])
    def test_lists_and_ints_become_float64(self, given):
        s = GridSeq(given, Grid.VERTEX)
        assert s.values.dtype == np.dtype(float) and s.values.dtype.isnative
        assert s.values.tobytes() == np.asarray(given, dtype=float).tobytes()
        assert not s.values.flags.writeable

    def test_fields_cannot_be_assigned(self):
        s = GridSeq(values=np.arange(3.0), grid=Grid.SIDE, topology=Topology.OPEN, base=1)
        assert (s.grid, s.topology, s.base) == (Grid.SIDE, Topology.OPEN, 1)
        for name, value in (("values", np.zeros(3)), ("grid", Grid.VERTEX),
                            ("topology", Topology.CLOSED), ("base", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, value)
        assert (s.grid, s.topology, s.base) == (Grid.SIDE, Topology.OPEN, 1)


class TestDifferencing:
    def test_vertex_diff_keeps_base(self):
        s = GridSeq(np.array([0.0, 1.0, 4.0, 9.0]), Grid.VERTEX, base=0)
        d = forward_diff(s)
        assert d.grid is Grid.SIDE
        assert d.base == 0
        assert list(d.values) == [1.0, 3.0, 5.0]

    def test_side_diff_shifts_base(self):
        s = GridSeq(np.array([1.0, 3.0, 5.0]), Grid.SIDE, base=0)
        d = forward_diff(s)
        assert d.grid is Grid.VERTEX
        assert d.base == 1

    @given(arrays(np.float64, st.integers(2, 12), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=60)
    def test_closed_diff_telescopes_to_zero(self, vals):
        s = GridSeq(vals, Grid.VERTEX, Topology.CLOSED)
        d = forward_diff(s)
        assert len(d) == len(s)
        assert float(d.values.sum()) == pytest.approx(0.0, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(GeometryError):
            forward_diff(GridSeq(np.array([1.0]), Grid.VERTEX))


class TestPolygon3:
    @pytest.mark.parametrize("vertices, message", [
        (GridSeq(np.eye(3), Grid.SIDE), "polygon vertices must live on the vertex grid"),
        (GridSeq(np.eye(3)[:, :2], Grid.VERTEX), "polygon vertices must be 3-vectors"),
    ], ids=["side-grid", "2-vectors"])
    def test_rejects_vertices_off_the_vertex_grid_or_not_in_space(self, vertices, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            Polygon3(vertices)

    def test_rejects_repeated_vertex(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]]
        with pytest.raises(GeometryError, match="^vertices 1 and 2 coincide$"):
            Polygon3.from_points(pts)

    def test_closed_checks_wraparound_edge(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]]
        with pytest.raises(GeometryError, match="^vertices 3 and 4 coincide$"):
            Polygon3.from_points(pts, closed=True)

    def test_degenerate_index_counts_from_the_base(self):
        # an open run of vertices from slot 5: the repeated vertex is slot 7
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 0], [0, 1, 0]], float)
        with pytest.raises(GeometryError, match="^vertices 7 and 8 coincide$"):
            Polygon3(GridSeq(pts, Grid.VERTEX, Topology.OPEN, 5))

    @pytest.mark.parametrize("closed, k", [(False, 1), (True, 1), (True, 3)])
    def test_side_whose_square_underflows_is_degenerate(self, closed, k):
        # vertices 1e-170 apart: the side is nonzero, its squared length is 0
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
        pts[(k + 1) % 4] = pts[k] + [0.0, 0.0, 1e-170]
        message = (f"^side {k}: its length underflows to 0, though vertices {k} and "
                   f"{(k + 1) % 4} differ$")
        with pytest.raises(GeometryError, match=message):
            Polygon3.from_points(pts, closed=closed)

    def test_polygon_scaled_to_1e_300_is_refused_for_its_underflow(self, rng):
        pts = rng.normal(size=(8, 3)) * 1e-300
        assert not (pts[1:] == pts[:-1]).all(axis=1).any()
        with pytest.raises(GeometryError, match="^side 0: its length underflows to 0, "
                                                "though vertices 0 and 1 differ$"):
            Polygon3.from_points(pts)
        pts[3] = pts[2]  # vertices that are equal are still coinciding vertices
        pts[:2] *= 1e300
        with pytest.raises(GeometryError, match="^vertices 2 and 3 coincide$"):
            Polygon3.from_points(pts)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_side_lengths_are_norm3_of_the_sides(self, rng, closed, scale):
        p = Polygon3.from_points(rng.normal(size=(50, 3)) * scale, closed=closed)
        assert p.side_lengths.tobytes() == norm3(p.sides().values).tobytes()
        with pytest.raises(ValueError):
            p.side_lengths[0] = 1.0

    def test_sides_and_diameter(self):
        p = Polygon3.from_points([[0, 0, 0], [1, 0, 0], [1, 2, 0]])
        np.testing.assert_allclose(p.sides().values, [[1, 0, 0], [0, 2, 0]])
        assert p.diameter() == pytest.approx(np.sqrt(5.0))


# a convex arc on the plane z = 1, framed by the lines through the origin
ARC = np.column_stack([np.cos(np.arange(6) / 3), np.sin(np.arange(6) / 3), np.ones(6)])

# each place where coordinates enter, fed a copy of ARC
ENTRY_POINTS = {
    "Polygon3": (Polygon3.from_points, "coordinate"),
    "FramedPolygon-directions": (lambda d: FramedPolygon.build(ARC, d), "direction"),
    "PlanarProjectivePolygon": (lambda p: PlanarProjectivePolygon.from_vertices(p[:, :2]),
                                "coordinate"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_non_finite_coordinates(entry, bad):
    build, what = ENTRY_POINTS[entry]
    pts = ARC.copy()
    pts[3, 1] = bad
    with pytest.raises(GeometryError, match=f"^vertex 3: non-finite {what}$"):
        build(pts)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_coordinates_beyond_the_bound(entry, sign):
    build, what = ENTRY_POINTS[entry]
    pts = ARC.copy()
    pts[3, 1] = sign * 1e200
    pts[4, 0] = sign * 1e250
    message = (f"^vertex 3: {what} 1\\.000e\\+200 exceeds COORD_MAX = 3\\.352e\\+153, "
               "beyond which a length can overflow$")
    with pytest.raises(GeometryError, match=message):
        build(pts)
    pts[2, 0] = np.nan  # a NaN or infinity is named first, as before
    with pytest.raises(GeometryError, match=f"^vertex 2: non-finite {what}$"):
        build(pts)


def test_coordinates_at_the_bound_give_finite_lengths():
    # a side of the largest size, 2 COORD_MAX in each coordinate, and a
    # convex planar turn at each vertex
    pts = core.COORD_MAX * np.array([[1, 1, 1], [-1, -1, -1], [1, -1, 1], [-1, 1, -1]], float)
    with np.errstate(all="raise"):
        p = Polygon3.from_points(pts)
        f = FramedPolygon.build(ARC[:4], pts)
        planar = PlanarProjectivePolygon.from_vertices(pts[:, :2])
    assert np.isfinite(p.side_lengths).all() and np.isfinite(f.direction_lengths).all()
    assert np.isfinite(planar.b.values).all() and (planar.b.values > 0).all()


# each entry point that keeps a caller's coordinates, and the array it keeps
KEPT_ARRAYS = {
    "Polygon3": (Polygon3.from_points, lambda p: p.points),
    "FramedPolygon-points": (lambda p: FramedPolygon.build(p, ARC), lambda f: f.polygon.points),
    "FramedPolygon-directions": (lambda d: FramedPolygon.build(ARC, d),
                                 lambda f: f.directions.values),
    "silhouette-points": (FramedPolygon.silhouette, lambda f: f.polygon.points),
    "silhouette-directions": (FramedPolygon.silhouette, lambda f: f.directions.values),
    "PlanarProjectivePolygon": (lambda p: PlanarProjectivePolygon.from_vertices(p[:, :2]),
                                lambda p: p.vertices.values),
}


@pytest.mark.parametrize("entry", KEPT_ARRAYS)
def test_entry_points_leave_the_callers_array_writeable(entry):
    build, kept = KEPT_ARRAYS[entry]
    pts = ARC.copy()
    obj = build(pts)
    before = kept(obj).copy()
    pts[0, 0] = 5.0
    assert np.array_equal(kept(obj), before)
    with pytest.raises(ValueError):
        kept(obj)[0, 0] = 5.0


@pytest.mark.parametrize("apex", [(0.0, 0.0, 0.0), (0.3, -0.2, 1.5)])
def test_silhouette_builds_its_directions_without_a_second_copy(apex):
    pts = ARC.copy()
    f = FramedPolygon.silhouette(pts, apex)
    for kept in (f.polygon.points, f.directions.values):
        assert not np.shares_memory(kept, pts)
    assert not np.shares_memory(f.polygon.points, f.directions.values)
    ref = FramedPolygon.build(pts, pts - np.asarray(apex))
    assert f.polygon.points.tobytes() == ref.polygon.points.tobytes()
    assert f.directions.values.tobytes() == ref.directions.values.tobytes()
    assert f.directions.topology is f.polygon.topology


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_gauge_value_is_refused(bad):
    # the one parameter that brings a value from outside into a derived sequence
    with pytest.raises(GeometryError, match="^non-finite gauge value$"):
        lambda_from_tau(GridSeq(np.ones(4), Grid.SIDE), bad)


FRAMED_ARC = FramedPolygon.silhouette(ARC)


def arc_focal_data():
    return focal_data(parallel_darboux(FRAMED_ARC))


# each call passes a parameter that the function no longer takes: a frame
# tolerance, a mesh extent or a gauge anchor index
REMOVED = {
    "validate_frame-tol_face": lambda: validate_frame(FRAMED_ARC, tol_face=1e-8),
    "parallel_darboux-tol_face": lambda: parallel_darboux(FRAMED_ARC, tol_face=1e-8),
    "osculating_developable-extent": lambda: osculating_developable(
        parallel_darboux(FRAMED_ARC), extent=1.0),
    "focal_set_mesh-extent": lambda: focal_set_mesh(arc_focal_data(), extent=1.0),
    "lambda_from_tau-anchor": lambda: lambda_from_tau(GridSeq(np.ones(4), Grid.SIDE), 0, 0.0),
}


@pytest.mark.parametrize("call", REMOVED)
def test_removed_parameters_are_refused(call):
    with pytest.raises(TypeError):
        REMOVED[call]()
