"""The projective chain's written-out kernels and its per-call counts.

Each kernel that writes a numpy expression out, into buffers or Python
floats, is compared bit for bit with the generic form it replaces,
written out here.  The counts of ``GridSeq`` constructions and ``det3``
calls, of the files opened, of argparse passes and of the calls into
numpy's Python-level functions per command call are capped, so that the
fixed cost per call cannot creep back unseen; they are counts, not
timings.
"""

import argparse
import builtins
import collections
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import random_equal_volume_polygon

from evpoly import cli, projective
from evpoly.constructions import (
    Ellipse,
    ExampleSpiral,
    ExampleSpiralRepresentative,
    GridScheme,
    sample_curve,
)
from evpoly.core import GeometryError, Grid, GridSeq, Polygon3, Topology, det2, det3, forward_diff
from evpoly.darboux import FramedPolygon
from evpoly.documents import PolygonDocument, write_document
from evpoly.invariants import _frenet_data
from evpoly.projective import (
    PlanarProjectivePolygon,
    b_sequence,
    default_normalization,
    lift_representative,
    projective_lengths,
    spiral_analytic_normalization,
)


# the generic forms

def det3_generic(u, v, w):
    u, v, w = (np.asarray(x, dtype=float) for x in (u, v, w))
    r = (u[..., 0] * (v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1])
         - u[..., 1] * (v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0])
         + u[..., 2] * (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]))
    return float(r) if r.ndim == 0 else r


def det2_generic(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    r = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return float(r) if r.ndim == 0 else r


def spiral_generic(t):
    e = np.exp(-t)
    return np.stack([e * np.cos(t), e * np.sin(t)], axis=-1)


def representative_generic(t):
    a = 2.0 ** (-1.0 / 3.0) * np.exp(2.0 * t / 3.0)
    e = np.exp(-t)
    return np.stack([a * e * np.cos(t), a * e * np.sin(t), a], axis=-1)


def ellipse_generic(a, b, t):
    return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)


def b_sequence_generic(poly):
    """(first slot, b) from the sides of ``forward_diff`` and their determinants."""
    first, (e_left, e_right) = forward_diff(poly).stencil(-1, 0)
    return first, det2_generic(e_left, e_right)


def per_side_terms_generic(fr):
    """Both sums, both term arrays and the window, from two ``forward_diff`` sequences."""
    tau = fr.tau
    d1, d2 = forward_diff(fr.rho1), forward_diff(fr.rho2)
    start = max(d1.base, d2.base, tau.base)
    stop1, stop2 = (min(d.base + len(d), tau.base + len(tau)) - 1 for d in (d1, d2))
    m1, m2 = stop1 + 1 - start, stop2 + 1 - start
    t1 = np.cbrt(d1.window(start, m1) + 2.0 * tau.window(start, m1))
    t2 = np.cbrt(d2.window(start, m2) + 2.0 * tau.window(start, m2))
    return float(t1.sum()), float(t2.sum()), t1, t2, (start, stop1)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# the curves

params = st.one_of(st.floats(-30.0, 30.0),
                   arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
                          elements=st.floats(-30.0, 30.0)))


@given(t=params, a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
@settings(max_examples=150)
def test_curves_are_their_stacked_columns_bit_for_bit(t, a, b):
    assert same_bits(ExampleSpiral()(t), spiral_generic(t))
    assert same_bits(ExampleSpiralRepresentative()(t), representative_generic(t))
    assert same_bits(Ellipse(a, b)(t), ellipse_generic(float(a), float(b), t))


@given(t0=st.floats(-3.0, 3.0), n=st.integers(6, 3000))
@settings(max_examples=100)
def test_analytic_seeds_are_det3_of_the_stacked_points_bit_for_bit(t0, n):
    h = 2.0 * np.pi / n
    p = representative_generic(t0 + h * np.arange(3))
    norm = spiral_analytic_normalization(t0, h)
    assert (norm.a1, norm.a2) == (float(p[0, 2]), float(p[1, 2]))
    assert np.float64(norm.c).tobytes() == np.float64(det3_generic(p[0], p[1], p[2])).tobytes()
    assert all(type(x) is float for x in (norm.a1, norm.a2, norm.c))


@pytest.mark.parametrize("scheme", [GridScheme.HALF_OPEN_STEP, GridScheme.INCLUDE_BOTH_ENDS])
def test_sampled_curves_keep_their_types(scheme):
    pts = sample_curve(Ellipse(1.5, 0.5), 0.2, 1.4, 50, scheme)
    assert type(pts) is np.ndarray and pts.shape == (50, 2) and pts.flags.c_contiguous
    phi = sample_curve(ExampleSpiralRepresentative(), 0.0, 1.0, 50, scheme)
    assert isinstance(phi, Polygon3) and phi.points.shape == (50, 3)


# det3 and det2

finite = st.floats(-1e100, 1e100)
ints = st.integers(-10**6, 10**6)
LEADS3 = [((), (), ()), ((5,), (5,), (5,)), ((5,), (), (5,)), ((4, 1), (1, 3), (3,)),
          ((2, 3), (3,), (2, 1))]


@given(st.data())
@settings(max_examples=200)
def test_det3_is_its_generic_form_bit_for_bit(data):
    leads = data.draw(st.sampled_from(LEADS3))
    as_lists = data.draw(st.booleans())
    elements = data.draw(st.sampled_from([finite, ints]))
    dtype = np.int64 if elements is ints else np.float64
    u, v, w = (data.draw(arrays(dtype, lead + (3,), elements=elements)) for lead in leads)
    if as_lists:
        u, v, w = u.tolist(), v.tolist(), w.tolist()
    got, want = det3(u, v, w), det3_generic(u, v, w)
    assert type(got) is type(want)
    assert same_bits(got, want)


@given(st.data())
@settings(max_examples=200)
def test_det2_is_its_generic_form_bit_for_bit(data):
    leads = data.draw(st.sampled_from([((), ()), ((6,), (6,)), ((6,), ()), ((3, 1), (4,))]))
    as_lists = data.draw(st.booleans())
    elements = data.draw(st.sampled_from([finite, ints]))
    dtype = np.int64 if elements is ints else np.float64
    u, v = (data.draw(arrays(dtype, lead + (2,), elements=elements)) for lead in leads)
    if as_lists:
        u, v = u.tolist(), v.tolist()
    got, want = det2(u, v), det2_generic(u, v)
    assert type(got) is type(want)
    assert same_bits(got, want)


def test_det3_and_det2_take_plain_lists():
    assert det3([1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1.0
    assert det3([[1, 0, 0]], [[0, 1, 0]], [[0, 0, 2]]).tolist() == [2.0]
    assert det2([2, 0], [0, 3]) == 6.0


# b_sequence

@st.composite
def planar_polygons(draw):
    n = draw(st.integers(3, 30))
    if draw(st.booleans()):  # a convex arc, whose b are all positive
        a, b = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
        t = np.sort(draw(arrays(np.float64, n, elements=st.floats(0.0, 6.0), unique=True)))
        pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
    else:
        pts = draw(arrays(np.float64, (n, 2), elements=st.floats(-1e3, 1e3)))
    topo = draw(st.sampled_from([Topology.OPEN, Topology.CLOSED]))
    return GridSeq(pts, Grid.VERTEX, topo)


@given(poly=planar_polygons())
@settings(max_examples=200)
def test_b_sequence_is_forward_diff_and_det2_bit_for_bit(poly):
    first, b = b_sequence_generic(poly)
    bad = np.flatnonzero(b <= 0.0)
    if len(bad):
        j = bad[0]
        message = f"vertex {first + j}: b = {b[j]:.3e} <= 0"
        with pytest.raises(GeometryError, match="^" + re.escape(message)):
            b_sequence(poly)
    else:
        got = b_sequence(poly)
        assert (got.grid, got.topology, got.base) == (Grid.VERTEX, poly.topology, first)
        assert same_bits(got.values, b)


# the per-side terms of the projective lengths

@st.composite
def frenet_data(draw):
    """Frenet data on the windows that ``centroaffine_frenet`` gives, open or closed."""
    closed = draw(st.booleans())
    n = draw(st.integers(6, 40))
    m = n if closed else n - 3
    rho1, rho2, tau = (draw(arrays(np.float64, m, elements=st.floats(-1e3, 1e3)))
                       for _ in range(3))
    topo = Topology.CLOSED if closed else Topology.OPEN
    return n, _frenet_data(topo, 0 if closed else 1, 1.0, rho1, rho2, tau)


@given(data=frenet_data())
@settings(max_examples=150)
def test_per_side_terms_are_the_forward_diff_form_bit_for_bit(data):
    n, fr = data
    t = np.linspace(0.1, 6.0, n)  # n distinct points; only the topology is read
    phi = Polygon3.from_points(np.column_stack([np.cos(t), np.sin(t), t]),
                               closed=fr.tau.topology is Topology.CLOSED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projective, "centroaffine_frenet", lambda p: fr)
        rep = projective_lengths(phi)
    pl1, pl2, t1, t2, window = per_side_terms_generic(fr)
    assert rep.summation_range == window
    assert same_bits(rep.pl1, pl1) and same_bits(rep.pl2, pl2)
    for got, want in ((rep.per_side_terms1, t1), (rep.per_side_terms2, t2)):
        assert (got.grid, got.topology, got.base) == (Grid.SIDE, phi.topology, window[0])
        assert same_bits(got.values, want)


@pytest.mark.parametrize("n", [6, 7, 50, 200])
def test_per_side_terms_of_lifted_arcs_are_the_forward_diff_form(n):
    pts = sample_curve(Ellipse(1.7, 0.8), 0.3, 1.8, n, GridScheme.INCLUDE_BOTH_ENDS)
    poly = PlanarProjectivePolygon.from_vertices(pts)
    phi = lift_representative(poly, default_normalization(poly))
    rep = projective_lengths(phi)
    pl1, pl2, t1, t2, window = per_side_terms_generic(projective.centroaffine_frenet(phi))
    assert (rep.pl1, rep.pl2, rep.summation_range) == (pl1, pl2, window)
    assert same_bits(rep.per_side_terms1.values, t1)
    assert same_bits(rep.per_side_terms2.values, t2)


# the count guard

# GridSeq constructions and det3 calls per command call, as this tree
# leaves them; a change that raises one fails here
COUNT_LIMITS = {"table1": (9, 3), "plength": (9, 3), "analyze": (13, 5)}


def command_argv(command, rng, tmp_path) -> list:
    if command == "table1":
        return ["table1", "--sizes", "10", "--csv", str(tmp_path / "t.csv")]
    if command == "plength":
        pts = sample_curve(Ellipse(1.5, 0.9), 0.3, 1.7, 100, GridScheme.INCLUDE_BOTH_ENDS)
        src = tmp_path / "arc.csv"
        src.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
        return ["plength", str(src), "--report", str(tmp_path / "r.json")]
    src = tmp_path / "ev.json"
    write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 40)), src)
    return ["analyze", str(src), "--origin", "0,0,0", "--json", str(tmp_path / "a.json")]


@pytest.mark.parametrize("command", sorted(COUNT_LIMITS))
def test_gridseq_and_det3_counts_per_call(command, rng, tmp_path, monkeypatch):
    argv = command_argv(command, rng, tmp_path)
    counts = {"GridSeq": 0, "det3": 0}
    init = GridSeq.__init__

    def counted_init(self, *args, **kwargs):
        counts["GridSeq"] += 1
        init(self, *args, **kwargs)

    def counted_det3(*args):
        counts["det3"] += 1
        return det3(*args)

    monkeypatch.setattr(GridSeq, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "evpoly" and getattr(module, "det3", None) is det3:
            monkeypatch.setattr(module, "det3", counted_det3)
    assert cli.main(argv) == 0
    most_gridseqs, most_det3 = COUNT_LIMITS[command]
    assert counts["GridSeq"] <= most_gridseqs and counts["det3"] <= most_det3, counts


# the files each command opens, each as one bare descriptor: its input
# to read and its output to write; no file object, so no text-mode stack
OPENS = {"table1": ["write"], "plength": ["read", "write"], "analyze": ["read", "write"]}


@pytest.mark.parametrize("command", sorted(OPENS))
def test_files_opened_per_call(command, rng, tmp_path, monkeypatch):
    argv = command_argv(command, rng, tmp_path)
    descriptors, file_objects = [], []
    open_fd, open_file = os.open, builtins.open

    def fd_recording(path, flags, *args, **kwargs):
        descriptors.append("write" if flags & os.O_WRONLY else "read")
        return open_fd(path, flags, *args, **kwargs)

    def file_recording(*args, **kwargs):
        file_objects.append(args)
        return open_file(*args, **kwargs)

    monkeypatch.setattr(os, "open", fd_recording)
    monkeypatch.setattr(builtins, "open", file_recording)
    assert cli.main(argv) == 0
    assert descriptors == OPENS[command] and file_objects == []


# calls into functions defined in numpy's Python files during one
# ``analyze --origin`` call on a non-planar polygon.  np.errstate's
# methods (three blocks: the osculating points take none) are all there
# is: no einsum (|n|^2 is core.dot3's), no ndarray.all/any/max/min
# wrapper, np.concatenate, np.cumprod, np.cumsum or np.linalg.svd
NUMPY_PYTHON_CALLS = 9
NUMPY_PYTHON_FUNCTIONS = {"_ufunc_config.py:__init__", "_ufunc_config.py:__enter__",
                          "_ufunc_config.py:__exit__"}


def test_numpy_python_calls_per_analyze_call(rng, tmp_path):
    argv = command_argv("analyze", rng, tmp_path)
    assert cli.main(argv) == 0  # imports and caches
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            code = frame.f_code
            calls[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    kept = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert cli.main(argv) == 0
    finally:
        sys.setprofile(kept)
    assert set(calls) <= NUMPY_PYTHON_FUNCTIONS, calls
    assert sum(calls.values()) <= NUMPY_PYTHON_CALLS, calls


# argparse passes per successful call: a command line in the plain form
# is read from the command's grammar, without argparse

def framed_command_argv(command, tmp_path) -> list:
    """A successful ``resample``, ``developable`` or ``focal`` command line."""
    poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 60)
    src = tmp_path / "spiral.json"
    write_document(PolygonDocument.from_framed(FramedPolygon.silhouette(poly.points)), src)
    flag, out = {"resample": ("--out", "o.json"), "developable": ("--obj", "d.obj"),
                 "focal": ("--obj", "f.obj")}[command]
    return [command, str(src), flag, str(tmp_path / out)]


@pytest.mark.parametrize("command", ["analyze", "developable", "focal", "plength", "resample",
                                     "table1"])
def test_no_argparse_pass_per_successful_call(command, rng, tmp_path, monkeypatch):
    if command in ("resample", "developable", "focal"):
        argv = framed_command_argv(command, tmp_path)
    else:
        argv = command_argv(command, rng, tmp_path)
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert cli.main(argv) == 0
    assert passes == []
