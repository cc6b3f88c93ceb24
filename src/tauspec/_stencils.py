"""Finite-difference stencil machinery.

Weights come from the standard recursion for polynomial interpolation
derivatives on arbitrary nodes, so the same code path serves the uniform
interior stencils and the one-sided edge formulas.
"""

from __future__ import annotations

import numpy as np

from .core import uniform_spacing
from .errors import NonUniformGrid

__all__ = ["fd_weights", "differentiate", "second_difference"]


def fd_weights(nodes: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Weights for the ``order``-th derivative at ``x0`` from samples at ``nodes``.

    Args:
        nodes: sample locations, need not be uniform or sorted.
        x0: evaluation point.
        order: derivative order, 0 gives interpolation weights.

    Returns:
        Array ``w`` with ``sum(w * f(nodes))`` approximating the derivative.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if order >= n:
        raise ValueError("need at least order+1 nodes")
    # c[j, k] = weight of f(nodes[j]) in the k-th derivative.
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


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

    Uniform grids use the classical 3-point (``order=2``) or 5-point
    (``order=4``) stencils with matching one-sided closures; non-uniform
    grids fall back to exact local weights at ``order=2``.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f)
    npts = 3 if order == 2 else 5
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    if x.size < npts:
        raise ValueError(f"order-{order} second derivative needs >= {npts} nodes")
    out = np.empty_like(f, dtype=np.result_type(f, float))
    half = npts // 2
    try:
        h = uniform_spacing(x, "second difference requires a uniform grid")
        uniform = True
    except NonUniformGrid:
        if order == 4:
            raise
        uniform = False
    if uniform and order == 2:
        out[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / h**2
        w = fd_weights(x[:3] - x[0], 0.0, 2)
        out[0] = np.dot(w, f[:3])
        out[-1] = np.dot(w[::-1], f[-3:])
        return out
    if uniform:
        out[2:-2] = (
            -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
        ) / (12.0 * h**2)
        for i in (0, 1):
            w = fd_weights(x[:6] - x[i], 0.0, 2)
            out[i] = np.dot(w, f[:6])
            w = fd_weights(x[-6:] - x[-1 - i], 0.0, 2)
            out[-1 - i] = np.dot(w, f[-6:])
        return out
    # non-uniform, order 2: local 3-point exact weights
    for i in range(x.size):
        lo = min(max(i - half, 0), x.size - npts)
        sel = slice(lo, lo + npts)
        w = fd_weights(x[sel] - x[i], 0.0, 2)
        out[i] = np.dot(w, f[sel])
    return out
