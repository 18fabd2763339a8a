import numpy as np
import pytest

from evpoly.core import Grid, GridSeq, Polygon3
from evpoly.darboux import DarbouxField, FramedPolygon
from evpoly.invariants import frenet


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
    xi = phi - origin and sigma = -1, the data that
    ``invariants.centroaffine_frenet`` evaluates in closed form.
    """
    o = np.asarray(origin, dtype=float)
    topo = p.vertices.topology
    f = FramedPolygon.silhouette(p.points, o, closed=p.closed)
    xi = GridSeq(p.points - o, Grid.VERTEX, topo)
    sigma = GridSeq(np.full(f.n_sides(), -1.0), Grid.SIDE, topo)
    return frenet(f, DarbouxField(xi, sigma, 1.0 if p.closed else None))


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

    Direction i+1 is a transversal combination of side i and direction i,
    so every face is planar by construction.  When closed, the last vertex
    is placed on a line through vertex 0 that keeps the closing face,
    spanned by directions N-1 and 0, planar as well.
    """
    pts = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    d = np.empty((n, 3))
    d[0] = rng.normal(size=3)
    for i in range(n - 1):
        edge = pts[i + 1] - pts[i]
        a = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.4, 1.5) * rng.choice([-1.0, 1.0])
        if closed and i == n - 2:
            w = a * (pts[0] - pts[i]) + b * d[i] + rng.uniform(-1.0, 1.0) * d[0]
            pts[i + 1] = pts[0] + rng.uniform(0.2, 0.6) * w
            edge = pts[i + 1] - pts[i]
        d[i + 1] = a * edge + b * d[i]
    return FramedPolygon.build(pts, d, closed=closed)
