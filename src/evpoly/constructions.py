"""Curve samplers: the logarithmic spiral, its centro-affine representative
in 3-space and the ellipse, sampled on a uniform parameter grid.

Each curve writes its coordinate columns into one array instead of
stacking them; the points are bit for bit those of ``np.stack`` of the
column expressions, which tests/test_fixed_cost.py writes out.
"""

from __future__ import annotations

import numpy as np

from .core import GeometryError, Polygon3

__all__ = [
    "ExampleSpiral",
    "ExampleSpiralRepresentative",
    "Ellipse",
    "GridScheme",
    "sample_curve",
]


class ExampleSpiral:
    """Planar logarithmic spiral t -> (exp(-t) cos t, exp(-t) sin t)."""

    dim = 2

    def __call__(self, t):
        out = np.empty(np.shape(t) + (2,))
        x, y = out[..., 0], out[..., 1]
        e = np.exp(-t)
        np.multiply(e, np.cos(t, out=x), out=x)
        np.multiply(e, np.sin(t, out=y), out=y)
        return out


class ExampleSpiralRepresentative:
    """The spiral's centro-affine arc-length representative in 3-space.

    phi(t) = 2^(-1/3) exp(2t/3) (exp(-t) cos t, exp(-t) sin t, 1); its
    consecutive-triple volumes about the origin are exactly constant on
    any uniform grid.
    """

    dim = 3

    def __call__(self, t):
        out = np.empty(np.shape(t) + (3,))
        x, y, a = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(2.0 ** (-1.0 / 3.0), np.exp(2.0 * t / 3.0), out=a)
        ae = np.multiply(a, np.exp(-t))
        np.multiply(ae, np.cos(t, out=x), out=x)
        np.multiply(ae, np.sin(t, out=y), out=y)
        return out


class Ellipse:
    """Planar ellipse t -> (a cos t, b sin t)."""

    dim = 2

    def __init__(self, a: float = 1.0, b: float = 1.0):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, t):
        out = np.empty(np.shape(t) + (2,))
        x, y = out[..., 0], out[..., 1]
        np.multiply(self.a, np.cos(t, out=x), out=x)
        np.multiply(self.b, np.sin(t, out=y), out=y)
        return out


class GridScheme:
    HALF_OPEN_STEP = "half_open_step"
    INCLUDE_BOTH_ENDS = "include_both_ends"


def sample_curve(curve, t0: float, t1: float, N: int,
                 scheme: str = GridScheme.HALF_OPEN_STEP):
    """Sample a parametric curve on a uniform grid.

    ``half_open_step`` uses h = (t1 - t0)/N with samples at t0 + i*h for
    i = 0..N-1 (the last point stops one step short of t1);
    ``include_both_ends`` uses h = (t1 - t0)/(N - 1).  Returns an open
    Polygon3 for 3-space curves, or the raw (N, 2) vertex array for
    planar ones.
    """
    if N < 4:
        raise GeometryError("need at least 4 samples")
    if not t1 > t0:
        raise GeometryError("need t1 > t0")
    if scheme == GridScheme.HALF_OPEN_STEP:
        h = (t1 - t0) / N
        t = t0 + h * np.arange(N)
    elif scheme == GridScheme.INCLUDE_BOTH_ENDS:
        t = np.linspace(t0, t1, N)
    else:
        raise GeometryError(f"unknown grid scheme {scheme!r}")
    pts = np.asarray(curve(t), dtype=float)
    if curve.dim == 3:
        return Polygon3.from_points(pts, closed=False)
    return pts
