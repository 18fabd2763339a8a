import json
import os
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from evpoly import core
from evpoly.core import (GeometryError, Grid, GridSeq, Polygon3, Topology, det2, forward_diff,
                         median)
from evpoly.darboux import DarbouxField, FramedPolygon, validate_frame
from evpoly.invariants import frenet


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def traced_peak(fn) -> int:
    """Peak bytes of the allocations traced while ``fn()`` runs.

    What ``fn`` reads from outside is not counted, only what it allocates.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class FakeOs:
    """``os`` as ``core.read_text`` and ``core.write_text`` see it, with the calls given replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(os, name)


def short_writes(monkeypatch) -> list:
    """Make every ``os.write`` of ``core`` take at most 7 bytes; returns the calls' sizes."""
    sizes = []

    def write(fd, data):
        sizes.append(os.write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(core, "os", FakeOs(write=write))
    return sizes


def refuse_opening(monkeypatch, path) -> None:
    """Make ``core``'s ``os.open`` of ``path`` fail as a file the user may not open does."""
    def refuse(name, *args, **kwargs):
        if os.fspath(name) == os.fspath(path):
            raise PermissionError(13, "Permission denied", name)
        return os.open(name, *args, **kwargs)

    monkeypatch.setattr(core, "os", FakeOs(open=refuse))


def open_fds() -> int:
    """Descriptors this process holds open."""
    return len(os.listdir("/proc/self/fd"))


def random_equal_volume_polygon(rng, n=12, c=1.0, closed=False):
    """Open polygon with exactly constant centro-affine volume c.

    Each new vertex is a combination of the previous two plus the unique
    component along their cross product that fixes the triple volume.
    """
    while True:
        pts = np.empty((n, 3))
        pts[0] = rng.normal(size=3)
        pts[1] = rng.normal(size=3)
        ok = True
        for i in range(1, n - 1):
            u, v = pts[i - 1], pts[i]
            w = np.cross(u, v)
            nw = np.dot(w, w)
            if nw < 1e-6:
                ok = False
                break
            alpha = rng.uniform(-0.6, 0.6)
            beta = rng.uniform(-0.6, 0.6)
            pts[i + 1] = alpha * u + beta * v + c * w / nw
        if not ok:
            continue
        scale = np.abs(pts).max()
        if scale > 50.0 or scale < 1e-3:
            continue
        return Polygon3.from_points(pts, closed=closed)


def silhouette_frenet(p, origin=(0.0, 0.0, 0.0)):
    """Frenet data of ``p`` by the framed face solve, for cross-checks.

    The centro-affine framing: directions through the base point, with
    xi = phi - origin, sigma = -1 and p = -|phi - origin| (each side is
    |d(k+1)| d(k+1) - |d(k)| d(k) in unit directions), the data that
    ``invariants.centroaffine_frenet`` evaluates in closed form.
    """
    o = np.asarray(origin, dtype=float)
    topo = p.vertices.topology
    f = FramedPolygon.silhouette(p.points, o, closed=p.closed)
    xi = GridSeq(p.points - o, Grid.VERTEX, topo)
    nsides = len(p.sides())
    sigma = GridSeq(np.full(nsides, -1.0), Grid.SIDE, topo)
    return frenet(DarbouxField(f, xi, sigma, -f.direction_lengths[:nsides],
                               1.0 if p.closed else None))


def random_cone_fixture(rng, n=30):
    """Polygon on a cone, framed by the lines through its apex."""
    apex = rng.normal(size=3)
    t = np.sort(rng.uniform(0, 3, size=n))
    t += 0.02 * np.arange(n)
    r = 1.0 + 0.4 * np.sin(3 * t + rng.uniform(0, 6))
    u = np.stack([np.cos(t), np.sin(t), 0.5 + 0.1 * t], axis=1)
    pts = apex + r[:, None] * u
    return FramedPolygon.silhouette(pts, apex, closed=False), apex


def random_generic_framed(rng, n=15, closed=False):
    """Framed polygon with valid coplanar faces but non-constant sigma.

    Direction i+1 is a transversal combination a side(i) + b d(i), with
    |a| in [0.2, 1] and |b| in [0.4, 1.5] and each sign drawn, so every
    face is planar by construction.  When closed, the last vertex is
    placed on a line through vertex 0 that keeps the closing face,
    spanned by directions N-1 and 0, planar as well.

    The recursion runs on Python floats, and each sign is drawn as
    ``rng.integers(0, 2)``, which consumes the stream as
    ``rng.choice([-1.0, 1.0])`` does: the frames are bit for bit those of
    the same recursion on numpy rows, at a third of its time.
    """
    pts = np.cumsum(rng.normal(size=(n, 3)), axis=0).tolist()
    d = [rng.normal(size=3).tolist()]
    uniform, integers, signs = rng.uniform, rng.integers, (-1.0, 1.0)
    for i in range(n - 1):
        a = uniform(0.2, 1.0) * signs[integers(0, 2)]
        b = uniform(0.4, 1.5) * signs[integers(0, 2)]
        if closed and i == n - 2:
            c = uniform(-1.0, 1.0)
            w = [a * (x0 - x) + b * y + c * y0
                 for x0, x, y, y0 in zip(pts[0], pts[i], d[i], d[0])]
            t = uniform(0.2, 0.6)
            pts[i + 1] = [x0 + t * wj for x0, wj in zip(pts[0], w)]
        d.append([a * (x1 - x) + b * y for x1, x, y in zip(pts[i + 1], pts[i], d[i])])
    return FramedPolygon.build(pts, d, closed=closed)


def reversed_frame(f):
    """``f`` walked from its last vertex to its first: side k is f's side n-2-k."""
    return FramedPolygon.build(f.polygon.points[::-1], f.directions.values[::-1], f.closed)


FRAME_REFUSAL = re.compile(
    r"frame validation failed \(sides (\[[\d, ]*\]), vertices (\[[\d, ]*\])\)")


def frame_flags(f) -> tuple:
    """The sides and the vertices that ``validate_frame`` names in refusing ``f``,
    read back from its whole message; two empty lists when it accepts ``f``."""
    try:
        assert validate_frame(f) is None
    except GeometryError as exc:
        sides, vertices = map(json.loads, FRAME_REFUSAL.fullmatch(str(exc)).groups())
        assert sides or vertices, str(exc)
        return sides, vertices
    return [], []


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(source):
    """A report or document as strict JSON reads it, from a path or from its
    text: ``NaN``, ``Infinity`` and ``-Infinity``, which ``json.loads``
    otherwise accepts, raise ValueError."""
    text = source.read_text() if isinstance(source, os.PathLike) else source
    return json.loads(text, parse_constant=_refuse_constant)


def zero_width_quads(path) -> tuple:
    """How many quads an OBJ file of quads with four ``v`` records each holds,
    and how many of them have their first two records equal: the developable's
    P(k) - X(k) and P(k) + X(k) with a ruling X(k) that is zero or NaN."""
    v = [line for line in path.read_text().splitlines() if line[:2] == "v "]
    return len(v) // 4, sum(map(str.__eq__, v[0::4], v[1::4]))


def parabola_prism(turns):
    """Vertical prism over an integer equal-area polygon.

    Its sides follow s(k+1) = turns(k) s(k) - s(k-1), so the third
    difference of side k is (turns(k) - 2) s(k): a side with turn 2 has
    mu = 0 exactly, and every side has sigma = 0, so O and Q are both at
    infinity there.
    """
    sides = [np.array([1.0, 1.0]), np.array([0.0, 1.0])]
    for t in turns:
        sides.append(t * sides[-1] - sides[-2])
    xy = np.concatenate([[[0.0, 0.0]], np.cumsum(sides, axis=0)])
    pts = np.column_stack([xy, np.zeros(len(xy))])
    return FramedPolygon.build(pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)))


def face_planarity(mesh):
    """Smallest singular value of each face's centred vertices: 0 for a planar face."""
    pts = mesh.vertices[mesh.faces]
    return np.linalg.svd(pts - pts.mean(axis=1, keepdims=True), compute_uv=False)[:, -1]


# The paper's equal-area polygons and their lifts, the oracles of the
# single-line focal set and the planar reduction.  An equal-area planar
# polygon Gamma lives on the side grid (vertices at half-integer slots);
# its difference polygon gamma(i) = Gamma'(i) sits on the vertex grid and
# satisfies [gamma(i), gamma(i+1)] = const.  Lifting with a base point P
# gives space polygons whose affine focal set is a single line (silhouette
# lift) or whose mu is constant (area lift).


@dataclass(frozen=True)
class PlanarEqualAreaPolygon:
    """Planar polygon Gamma on the side grid, its differences gamma, the
    median ``area_constant`` of [gamma(i), gamma(i+1)] and the largest
    relative deviation from it, ``area_spread``."""

    Gamma: GridSeq
    gamma: GridSeq
    area_constant: float
    area_spread: float

    @classmethod
    def from_vertices(cls, points, closed=False):
        topo = Topology.CLOSED if closed else Topology.OPEN
        Gamma = GridSeq(np.array(points, dtype=float), Grid.SIDE, topo)
        gamma = forward_diff(Gamma)
        _, (g0, g1) = gamma.stencil(0, 1)
        areas = det2(g0, g1)
        c = median(areas)
        return cls(Gamma, gamma, c, float(np.max(np.abs(areas - c)) / abs(c)))

    @property
    def closed(self):
        return self.Gamma.topology is Topology.CLOSED

    def normalized(self):
        """Rescaled so the area constant is +-1 (unit equal-area form)."""
        s = abs(self.area_constant) ** -0.5
        if s == 1.0:
            return self
        return PlanarEqualAreaPolygon.from_vertices(s * self.Gamma.values, self.closed)


def regular_equal_area(N):
    """Closed regular N-gon scaled so the edge-pair area constant is 1."""
    theta = 2.0 * np.pi * (np.arange(N) + 0.5) / N
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    # edge length 2 R sin(pi/N), turning angle 2 pi / N
    area = 4.0 * np.sin(np.pi / N) ** 2 * np.sin(2.0 * np.pi / N)
    return PlanarEqualAreaPolygon.from_vertices(area ** -0.5 * pts, closed=True)


def random_equal_area(N, rng):
    """Open equal-area polygon with unit constant, grown edge by edge.

    Each new difference vector is t*gamma + rot90(gamma)/|gamma|^2 for a
    random t, which keeps [gamma(i), gamma(i+1)] = 1 exactly.
    """
    g = np.empty((N - 1, 2))
    ang = rng.uniform(0, 2 * np.pi)
    g[0] = np.array([np.cos(ang), np.sin(ang)]) * rng.uniform(0.7, 1.4)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(1, N - 1):
        t = rng.uniform(0.5, 1.8)
        g[i] = t * g[i - 1] + rot @ g[i - 1] / np.dot(g[i - 1], g[i - 1])
    start = rng.normal(size=2)
    return PlanarEqualAreaPolygon.from_vertices(np.vstack([start, start + np.cumsum(g, axis=0)]))


def support_function(G, P):
    """Affine distance z(i) = [Gamma(i+1/2) - P, gamma(i)] per vertex.

    The mean of the determinants from both ends of gamma(i), which agree
    because gamma is the difference of Gamma.
    """
    _, (left, right) = G.Gamma.stencil(-1, 0)
    g = G.gamma.values
    return G.gamma.with_values(0.5 * (det2(right - P, g) + det2(left - P, g)))


def affine_curvature(G):
    """Affine curvature k(i) and evolute of an equal-area polygon.

    On an equal-area polygon gamma''(i) = -k(i) gamma(i), so k(i) = 2 -
    (gamma(i+1) + gamma(i-1)).gamma(i) / |gamma(i)|^2, taken with the
    second difference nested as (gamma(i+1) - gamma(i)) - (gamma(i) -
    gamma(i-1)).  The evolute vertex is Gamma(i-1/2) + Gamma''(i-1/2) /
    k(i).  Returns k as a vertex sequence and the evolute as an array.
    """
    first, (g_prev, g, g_next) = G.gamma.stencil(-1, 0, 1)
    gg = (g_next - g) - (g - g_prev)
    k = -np.einsum("ij,ij->i", gg, g) / np.einsum("ij,ij->i", g, g)
    evolute = G.Gamma.window(first - 1, len(k)) + (g - g_prev) / k[:, None]
    return GridSeq(k, Grid.VERTEX, G.gamma.topology, first), evolute


def silhouette_lift(G, P):
    """Space polygon phi(i) = (gamma(i), z(i)), equal-volume about the origin.

    The input is rescaled to unit area constant first, so the lifted
    polygon satisfies the affine relation phi''(i) = -k(i) phi(i) + (0,0,1)
    with k the planar affine curvature.  Its focal set is a single line.
    """
    Gn = G.normalized()
    z = support_function(Gn, P)
    return Polygon3.from_points(np.column_stack([Gn.gamma.values, z.values]), closed=G.closed)


def area_lift(G, P):
    """Vertices Phi(i+1/2) = (Gamma(i+1/2), Z(i+1/2)) of an open polygon's area lift.

    Z accumulates the support function from zero at the first vertex, so
    the differences of Phi are exactly the silhouette lift.  Phi has
    constant mu.
    """
    Gn = G.normalized()
    Z = np.concatenate([[0.0], np.cumsum(support_function(Gn, P).values)])
    return np.column_stack([Gn.Gamma.values, Z])


def lift_residuals(G, P):
    """Componentwise residuals of the lift relation phi'' = -k phi + (0,0,1).

    Returns (max residual of gamma'' + k gamma, max residual of
    z'' + k z - 1), both on the unit-normalized polygon.
    """
    Gn = G.normalized()
    k = affine_curvature(Gn)[0].values
    _, (g_prev, g, g_next) = Gn.gamma.stencil(-1, 0, 1)
    _, (z_prev, z, z_next) = support_function(Gn, P).stencil(-1, 0, 1)
    sign = 1.0 if Gn.area_constant > 0 else -1.0
    r_g = float(np.max(np.abs(g_next - 2 * g + g_prev + k[:, None] * g)))
    r_z = float(np.max(np.abs(z_next - 2 * z + z_prev + k * z - sign)))
    return r_g, r_z
