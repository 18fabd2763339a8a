import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evpoly.core import (
    DegenerateVertexError,
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    cross3,
    det2,
    det3,
    forward_diff,
    median,
)
from evpoly.darboux import FramedPolygon

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
    for cached in (p.sides().values, f.unit_directions):
        with pytest.raises(ValueError):
            cached[0, 0] = 5.0


def test_det2():
    assert det2([1, 0], [0, 1]) == 1.0
    assert det2([2, 1], [4, 2]) == 0.0


class TestGridSeq:
    def test_rejects_nan_by_default(self):
        with pytest.raises(GeometryError):
            GridSeq(np.array([1.0, np.nan]), Grid.VERTEX)

    def test_nan_allowed_when_marked(self):
        s = GridSeq(np.array([1.0, np.nan]), Grid.VERTEX, finite=False)
        assert np.isnan(s.values[1])

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
        s = GridSeq(np.arange(3.0), Grid.VERTEX)
        with pytest.raises(ValueError):
            s.values[0] = 5.0


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
    def test_rejects_repeated_vertex(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]]
        with pytest.raises(DegenerateVertexError) as exc:
            Polygon3.from_points(pts)
        assert exc.value.index == 1

    def test_closed_checks_wraparound_edge(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]]
        with pytest.raises(DegenerateVertexError):
            Polygon3.from_points(pts, closed=True)

    def test_sides_and_diameter(self):
        p = Polygon3.from_points([[0, 0, 0], [1, 0, 0], [1, 2, 0]])
        np.testing.assert_allclose(p.sides().values, [[1, 0, 0], [0, 2, 0]])
        assert p.diameter() == pytest.approx(np.sqrt(5.0))
