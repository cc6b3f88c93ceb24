"""First-derivative stencils with closed-form weights.

Order 2 works on any grid; order 4 demands a uniform one and closes its
5-point interior stencil with constant one-sided rows at the edges.
"""

from __future__ import annotations

import numpy as np

from .core import uniform_spacing

__all__ = ["differentiate"]


def differentiate(x: np.ndarray, *fs: np.ndarray, order: int = 2):
    """First derivative on grid ``x`` of each of the samples ``fs``, the
    grid checked once; one comes back bare, several as a list.

    ``order=2`` uses centered differences and tolerates mild non-uniformity
    (it falls back to the exact two-sided weights).  ``order=4`` uses the
    five-point stencil and demands a uniform grid.

    Raises:
        NonUniformGrid: for ``order=4`` on a non-uniform grid.
        ValueError: for an unsupported order or too few nodes.
    """
    x = np.asarray(x, dtype=float)
    if order == 2:
        if x.size < 3:
            raise ValueError("order-2 derivative needs at least 3 nodes")
        outs = [np.gradient(np.asarray(f), x, edge_order=2) for f in fs]
        return outs[0] if len(outs) == 1 else outs
    if order != 4:
        raise ValueError("stencil order must be 2 or 4")
    if x.size < 5:
        raise ValueError("order-4 derivative needs at least 5 nodes")
    h = uniform_spacing(x, "order-4 derivative requires a uniform grid")
    w_edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    w_off = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    outs = []
    for f in map(np.asarray, fs):
        out = np.empty_like(f, dtype=np.result_type(f, float))
        # interior: (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / (12 h), each
        # operation as that expression makes it, with one scratch buffer
        mid = np.multiply(8.0, f[1:-3], out=out[2:-2])
        np.subtract(f[:-4], mid, out=mid)
        mid += np.multiply(8.0, f[3:-1], out=np.empty_like(mid))
        mid -= f[4:]
        mid /= 12.0 * h
        # one-sided closures of the same order at the four edge nodes
        out[0] = np.dot(w_edge, f[:5]) / h
        out[1] = np.dot(w_off, f[:5]) / h
        out[-1] = -np.dot(w_edge, f[-5:][::-1]) / h
        out[-2] = -np.dot(w_off, f[-5:][::-1]) / h
        outs.append(out)
    return outs[0] if len(outs) == 1 else outs
