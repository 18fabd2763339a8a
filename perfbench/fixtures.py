"""Input generators for the benchmark.

Frozen copies of the generators in ``tests/conftest.py``: the benchmark
keeps its own so that its inputs, and therefore its baseline, do not move
when a test fixture is edited.
"""

import numpy as np

from evpoly.core import Polygon3
from evpoly.darboux import FramedPolygon


def random_equal_volume_polygon(rng, n=12, c=1.0, closed=False):
    """Open polygon with exactly constant centro-affine volume c."""
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


def random_cone_fixture(rng, n=30):
    """Polygon on a cone, framed by the lines through its apex."""
    apex = rng.normal(size=3)
    t = np.sort(rng.uniform(0, 3, size=n))
    t += 0.02 * np.arange(n)
    r = 1.0 + 0.4 * np.sin(3 * t + rng.uniform(0, 6))
    u = np.stack([np.cos(t), np.sin(t), 0.5 + 0.1 * t], axis=1)
    pts = apex + r[:, None] * u
    return FramedPolygon.silhouette(pts, apex, closed=False), apex


def random_generic_framed(rng, n=15):
    """Framed polygon with valid coplanar faces but non-constant sigma."""
    pts = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    d = np.empty((n, 3))
    d[0] = rng.normal(size=3)
    for i in range(n - 1):
        edge = pts[i + 1] - pts[i]
        a = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.4, 1.5) * rng.choice([-1.0, 1.0])
        d[i + 1] = a * edge + b * d[i]
    return FramedPolygon.build(pts, d, closed=False)
