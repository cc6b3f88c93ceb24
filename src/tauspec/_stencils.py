"""Finite-difference stencils with closed-form weights.

Order 2 works on any grid; order 4 demands a uniform one and closes its
5-point interior stencils with constant one-sided rows at the edges.
"""

from __future__ import annotations

import numpy as np

from .core import uniform_spacing

__all__ = ["differentiate", "second_difference"]

# 12 h^2 times the 6-point second-derivative weights at nodes 0 and 1.
_EDGE_ROWS_4 = np.array(
    [[45.0, -154.0, 214.0, -156.0, 61.0, -10.0], [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]]
)


def differentiate(x: np.ndarray, f: np.ndarray, order: int = 2) -> np.ndarray:
    """First derivative of samples ``f`` on grid ``x``.

    ``order=2`` uses centered differences and tolerates mild non-uniformity
    (it falls back to the exact two-sided weights).  ``order=4`` uses the
    five-point stencil and demands a uniform grid.

    Raises:
        NonUniformGrid: for ``order=4`` on a non-uniform grid.
        ValueError: for an unsupported order or too few nodes.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f)
    if order == 2:
        if x.size < 3:
            raise ValueError("order-2 derivative needs at least 3 nodes")
        return np.gradient(f, x, edge_order=2)
    if order != 4:
        raise ValueError("stencil order must be 2 or 4")
    if x.size < 5:
        raise ValueError("order-4 derivative needs at least 5 nodes")
    h = uniform_spacing(x, "order-4 derivative requires a uniform grid")
    out = np.empty_like(f, dtype=np.result_type(f, float))
    # interior: (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / (12 h)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    # one-sided closures of the same order at the four edge nodes
    w_edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    w_off = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    out[0] = np.dot(w_edge, f[:5]) / h
    out[1] = np.dot(w_off, f[:5]) / h
    out[-1] = -np.dot(w_edge, f[-5:][::-1]) / h
    out[-2] = -np.dot(w_off, f[-5:][::-1]) / h
    return out


def second_difference(x: np.ndarray, f: np.ndarray, order: int = 2) -> np.ndarray:
    """Second derivative of samples ``f`` on grid ``x``.

    ``order=2`` takes at each node the curvature of the parabola through
    three consecutive nodes, on any grid; an end node shares its
    neighbour's parabola, which is the one-sided 3-point rule.

    Raises:
        NonUniformGrid: for ``order=4`` on a non-uniform grid.
        ValueError: for an unsupported order or too few nodes.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f)
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    npts = 3 if order == 2 else 6
    if x.size < npts:
        raise ValueError(f"order-{order} second derivative needs >= {npts} nodes")
    out = np.empty_like(f, dtype=np.result_type(f, float))
    if order == 2:
        a = x[1:-1] - x[:-2]
        b = x[2:] - x[1:-1]
        out[1:-1] = 2.0 * (
            f[:-2] / (a * (a + b)) - f[1:-1] / (a * b) + f[2:] / (b * (a + b))
        )
        out[0], out[-1] = out[1], out[-2]
        return out
    denom = 12.0 * uniform_spacing(x, "second difference requires a uniform grid") ** 2
    out[2:-2] = (
        -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
    ) / denom
    # even under reflection: the right end takes the same rows, reversed samples
    out[:2] = _EDGE_ROWS_4 @ f[:6] / denom
    out[:-3:-1] = _EDGE_ROWS_4 @ f[:-7:-1] / denom
    return out
