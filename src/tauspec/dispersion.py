"""Dispersion-integral machinery: Hilbert transforms, causality residuals,
sum rules, residue series, and contour counting.

The discrete Hilbert transform uses the skip-node trapezoid rule, which is
second-order accurate through the singular cell, evaluated as a single
convolution.  Optional tail models extend the principal-value integral
beyond the grid with closed-form corrections for 1/omega or 1/omega^2
falloff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    _pointwise,
    _require_finite,
    model_tau,
    uniform_spacing,
)
from .errors import (
    MIN_SAMPLES_PER_EDGE,
    GridError,
    NonPositiveGrid,
    NonUniformGrid,
    OriginGapTooWide,
    OriginInGrid,
    SingularityOnContour,
)

__all__ = [
    "TAIL_MODELS",
    "KKReport",
    "Contour",
    "hilbert_transform",
    "kk_residual",
    "tau_kk_residual",
    "frequency_sum_rule",
    "residue_time_domain",
    "winding_number",
]

TAIL_MODELS = ("none", "one_over_omega", "one_over_omega2")

# tau_kk_residual zero-fills k = omega_min / h nodes per side; past this many
# per input node the padding, not the data, would set the cost.
_MAX_ORIGIN_PAD_RATIO = 8
# The share of nodes per side a causality residual leaves out of its
# statistics, where the truncated principal-value integral is least sure.
_EDGE_FRACTION = 0.05


@dataclass(frozen=True)
class KKReport:
    """Summary of a causality-residual evaluation.

    residual_max and residual_l2 (root mean square) are taken over the
    reported nodes only: edge bands are dropped, and for gapped grids the
    zero-filled origin window is excluded.  origin_gap is the half-width
    of that window, zero when the input grid crosses the origin itself.
    """

    residual_max: float
    residual_l2: float
    tail_model: str
    nodes: int
    origin_gap: float = 0.0

    def __post_init__(self):
        _check_tail(self.tail_model)
        if self.residual_max < 0 or self.residual_l2 < 0:
            raise ValueError("residual norms must be non-negative")
        if self.nodes < 1:
            raise ValueError("report must cover at least one node")
        if self.origin_gap < 0:
            raise ValueError("origin_gap must be non-negative")


def _check_tail(tail_model: str) -> None:
    if tail_model not in TAIL_MODELS:
        raise ValueError(f"unknown tail model {tail_model!r}")


def _fft_length(m: int) -> int:
    """Smallest 2**a 3**b 5**c at or above m >= 1: numpy's fast FFT lengths."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # The least power of two that lifts this 3**b 5**c to m.
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@functools.lru_cache(maxsize=2)
def _kernel_spectrum(n: int):
    """FFT length L and the rfft of the skip-node kernel for n nodes.

    L is the smallest 5-smooth length >= 2n - 1, a length numpy's FFT
    takes fast, though not always the fastest one above 2n - 1.  The
    kernel 1/m, 0 < |m| < n, is stored wrapped, 1/m at index m and -1/m
    at L - m, so a circular convolution at length L has no wrap-around in
    its first n outputs.  The spectrum depends on n alone;
    the two most recent sizes stay cached (about 16 n bytes each), which
    covers a caller alternating a spectrum and the half line of a tau grid.
    """
    size = _fft_length(2 * n - 1)
    kernel = np.zeros(size)
    kernel[1:n] = 1.0 / np.arange(1, n)
    kernel[size - n + 1 :] = -kernel[n - 1 : 0 : -1]
    half = np.fft.rfft(kernel)
    half.setflags(write=False)
    return size, half


@functools.lru_cache(maxsize=1)
def _hankel_spectrum(n: int):
    """rfft of the kernel 1/s, 0 < s < 2n - 1, at ``_kernel_spectrum(n)``'s length."""
    kernel = np.zeros(_fft_length(2 * n - 1))
    kernel[1 : 2 * n - 1] = 1.0 / np.arange(1, 2 * n - 1)
    half = np.fft.rfft(kernel)
    half.setflags(write=False)
    return half


def _times_kernel(spectrum: np.ndarray, half: np.ndarray) -> np.ndarray:
    """``spectrum`` times, in place, the Hermitian completion of ``half``."""
    spectrum[: half.size] *= half
    spectrum[half.size :] *= np.conj(half[(spectrum.size - 1) // 2 : 0 : -1])
    return spectrum


def _skip_node_sums(values: np.ndarray) -> np.ndarray:
    """Trapezoid sums S_i = sum_{j != i} w_j f_j / (i - j), w half at ends.

    One circular FFT convolution of w f with the real, odd kernel of
    ``_kernel_spectrum``.
    """
    n = values.size
    size, half = _kernel_spectrum(n)
    weighted = np.array(values, dtype=complex)
    weighted[[0, -1]] *= 0.5
    spectrum = _times_kernel(np.fft.fft(weighted, size), half)
    return np.fft.ifft(spectrum, out=spectrum)[:n]


def _half_line_sums(values: np.ndarray) -> np.ndarray:
    """``_skip_node_sums`` of the array mirrored by f(-p) = conj(f(p)), at
    p = 0..m from f there.  With u = w f, s_p = sum_{q != p} u_q / (p - q)
    + sum_{q >= 1} conj(u_q) / (p + q): a Toeplitz convolution and a Hankel
    product, whose conj(u_q) at index -q mod L has the spectrum conj(U).
    f(0) = 0, zero-filled, keeps out the Hankel term q = 0."""
    n = values.size
    size, toeplitz = _kernel_spectrum(n)
    weighted = np.array(values, dtype=complex)
    weighted[-1] *= 0.5
    spectrum = np.fft.fft(weighted, size)
    mirrored = _times_kernel(np.conj(spectrum), _hankel_spectrum(n))
    np.add(_times_kernel(spectrum, toeplitz), mirrored, out=spectrum)
    return np.fft.ifft(spectrum, out=spectrum)[:n]


def _pv_core(values: np.ndarray, sums: np.ndarray, n: int) -> np.ndarray:
    """Principal-value quadrature by singularity subtraction, into ``sums``.

    Writes PV int f/(omega-eta) as the integral of the regularised
    difference quotient plus f(omega) times the exact logarithmic kernel
    integral.  The regular part is plain trapezoid, so the interior error
    reduces to endpoint terms: the rule stays accurate across sharp
    resonances instead of degrading with the local curvature.  The two
    end nodes fall back to the skip-node sum; they are edge-band anyway.
    The skip-node sums of f = 1 are harmonic numbers, H_i - H_{n-1-i},
    less the half-weight end terms.  ``values`` and their skip-node
    ``sums`` may be the last nodes of an n-node grid; the first falls back.
    """
    mid = sums[1:-1]
    # ones_sums = H[1:-1] - H[-2:0:-1] - 0.5 / idx + 0.5 / (n - 1 - idx) and
    # log(idx / (n - 1 - idx)) at the mid nodes, as n - 1 - idx is idx reversed
    counts = np.arange(1, n, dtype=float)
    idx, scratch, harmonic = counts[:-1], np.divide(1.0, counts), np.zeros(n)
    np.cumsum(scratch, out=harmonic[1:])
    at_mid = slice(n - sums.size, None)
    ones_sums = np.subtract(harmonic[1:-1][at_mid], harmonic[-2:0:-1][at_mid])
    ones_sums -= (q := np.divide(0.5, idx, out=scratch[:-1]))[at_mid]
    ones_sums += q[::-1][at_mid]
    log_kernel = np.log(np.divide(idx[at_mid], idx[::-1][at_mid], out=q[at_mid]), out=q[at_mid])
    # sums - values * ones_sums - centre + values * log_kernel at the mid nodes, in
    # that order, centre = 0.5 * (values[2:] - values[:-2]), in one buffer
    mid -= (centre := np.multiply(values[1:-1], ones_sums))
    mid -= np.multiply(0.5, np.subtract(values[2:], values[:-2], out=centre), out=centre)
    mid += np.multiply(values[1:-1], log_kernel, out=centre)
    return sums


def _log_ratio_over_omega(omega, edge):
    """log1p(-omega/edge) / omega with the removable singularity filled."""
    small = np.flatnonzero(np.abs(omega) <= 1e-8 * abs(edge))
    # The nodes in ``small`` may divide by zero or overflow; they are refilled.
    with np.errstate(all="ignore"):
        out = -omega / edge
        np.divide(np.log1p(out, out=out), omega, out=out)
    out[small] = -1.0 / edge - omega[small] / (2.0 * edge**2)
    return out


def _log_ratio_balanced(omega, edge):
    """log1p(-omega/edge)/omega^2 + 1/(omega*edge), filled near zero."""
    small = np.flatnonzero(np.abs(omega) <= 1e-5 * abs(edge))
    # The nodes in ``small`` may divide by zero or overflow; they are refilled.
    with np.errstate(all="ignore"):
        out = -omega / edge
        np.divide(np.log1p(out, out=out), (scratch := np.square(omega)), out=out)
        out += np.divide(1.0, np.multiply(omega, edge, out=scratch), out=scratch)
    out[small] = -1.0 / (2.0 * edge**2) - omega[small] / (3.0 * edge**3)
    return out


def _tail_correction(x, f, h, tail_model, mirrored=False):
    """Closed-form tails of the principal-value integral beyond the grid.

    The quadrature covers [x0 - h/2, xN + h/2] in effect, so the tail
    models take over from half a cell beyond the end nodes; this also
    keeps the logarithms finite at the end nodes themselves.  ``mirrored``
    x >= 0 and f are the right half of a grid whose left is -x and conj(f).
    """
    if not mirrored and (x[0] >= 0 or x[-1] <= 0):
        raise ValueError("tail corrections need a grid spanning the origin")
    b = x[-1] + 0.5 * h
    count = max(3, int(round(0.05 * (2 * x.size - 1 if mirrored else x.size))))
    if tail_model == "one_over_omega":
        power, ratio = 1, _log_ratio_over_omega
    else:
        power, ratio = 2, _log_ratio_balanced
    a_right = np.mean(f[-count:] * x[-count:] ** power)
    if mirrored:
        a, a_left = -b, np.mean(np.conj(f[-count:]) * (-x[-count:]) ** power)
    else:
        a, a_left = x[0] - 0.5 * h, np.mean(f[:count] * x[:count] ** power)
    return a_right * ratio(x, b) - a_left * ratio(x, a)


def hilbert_transform(
    spectrum_values: np.ndarray,
    grid: FrequencyGrid,
    tail_model: str = "none",
) -> np.ndarray:
    """Discrete principal-value transform (1/pi) PV int f(eta)/(omega-eta).

    Args:
        spectrum_values: samples of f on the grid, real or complex.
        grid: uniform frequency grid.
        tail_model: "none", "one_over_omega", or "one_over_omega2";
            the latter two fit the outer 5 percent of nodes per side and
            add the analytic tail of the assumed falloff.  Tail models
            need a grid spanning the origin.

    Returns:
        Array of transform values on the same grid.
    """
    _check_tail(tail_model)
    f = np.asarray(spectrum_values, dtype=complex)
    x = grid.values
    if f.shape != x.shape:
        raise ValueError("values must match the grid length")
    h = uniform_spacing(x, "hilbert_transform needs a uniform grid")
    out = _pv_core(f, _skip_node_sums(f), f.size)
    if tail_model != "none":
        out += _tail_correction(x, f, h, tail_model)
    out /= np.pi
    return out


def _interior(n: int) -> slice:
    k = int(_EDGE_FRACTION * n)
    return slice(k, n - k)


def _kk_report(values, transformed, tail_model, keep, origin_gap=0.0, sides=1) -> KKReport:
    """Statistics of the residual |S - i H[S]| over the nodes ``keep`` picks,
    from S and H[S], which this overwrites; each node counts ``sides`` times."""
    np.subtract(values, np.multiply(1j, transformed, out=transformed), out=transformed)
    inner = np.abs(transformed)[keep]
    return KKReport(
        residual_max=float(np.max(inner)),
        residual_l2=float(np.sqrt(np.mean(np.square(inner, out=inner)))),
        tail_model=tail_model,
        nodes=sides * int(inner.size),
        origin_gap=origin_gap,
    )


def kk_residual(spectrum: ComplexSpectrum, tail_model: str = "none") -> KKReport:
    """Causality residual S - i H[S] of a sampled response.

    A response whose poles all sit in the lower half-plane satisfies
    S = i H[S] on the real line, so the residual is a direct causality
    probe: it stays at the quadrature level for retarded responses and
    grows to order 2|S| for advanced ones.

    Statistics are reported over the interior nodes only, dropping 5
    percent of the grid per side where the truncated principal-value
    integral is least trustworthy.
    """
    transformed = hilbert_transform(spectrum.values, spectrum.grid, tail_model)
    return _kk_report(spectrum.values, transformed, tail_model, _interior(transformed.size))


def tau_kk_residual(temporal: TemporalSpectrum, tail_model: str = "none") -> KKReport:
    """Causality residual of a temporal function given on omega > 0 only.

    The samples are mirrored with tau(-omega) = conj(tau(omega)), embedded
    in a uniform grid through the origin, and zero-filled across the
    origin window the input grid excludes.  Residual statistics skip that
    window (its half-width is returned as ``origin_gap``) along with the
    usual edge bands, but the zero-filled nodes still influence the
    transform, so a grid reaching close to the origin probes more than a
    widely gapped one.  With the gap capped at 8 steps per input node, the
    edge bands leave at least 0.1 n + 0.05 of the n positive nodes.

    As H[tau](-omega) = -conj(H[tau](omega)), the residual is taken on the
    half line omega >= 0: a Toeplitz plus a Hankel convolution, one FFT
    pair at the least 5-smooth length >= 2m + 1 for the m + 1 nodes from
    the origin, both kernel spectra cached.  It agrees with the whole
    mirrored grid's to rounding, 1e-12 relative; ``nodes`` counts both sides.

    Raises:
        ValueError: unknown tail model.
        NonPositiveGrid: input grid is not strictly positive.
        NonUniformGrid: input nodes do not sit on a uniform grid aligned
            with the origin.
        OriginGapTooWide: the gap to the origin spans more than
            8 steps per input node.
    """
    _check_tail(tail_model)
    g = temporal.grid.values
    if g[0] <= 0:
        raise NonPositiveGrid("extension needs a strictly positive grid")
    h = uniform_spacing(g, "tau_kk_residual needs a uniform grid")
    k = int(round(g[0] / h))
    n = g.size
    if k > _MAX_ORIGIN_PAD_RATIO * n:
        raise OriginGapTooWide(
            f"zero-filling to the origin needs {k} steps per side for "
            f"{n} nodes (limit {_MAX_ORIGIN_PAD_RATIO} per node)"
        )
    if k < 1 or abs(g[0] - k * h) > 1e-6 * h:
        raise NonUniformGrid("positive grid must sit on a uniform grid through the origin")
    m = k + n - 1
    # tau at nodes 0..m of the half line; node 0, at the origin, falls back to
    # its skip-node sum, as no statistic reads the zero-filled window
    half = np.zeros(m + 1, dtype=complex)
    half.real[k:], half.imag[k:] = temporal.tau1, temporal.tau2
    out = _pv_core(half, _half_line_sums(half), 2 * m + 1)
    if tail_model != "none":
        out += _tail_correction(h * np.arange(m + 1), half, h, tail_model, mirrored=True)
    out /= np.pi
    keep = slice(k, _interior(2 * m + 1).stop - m)  # the origin window, edge bands
    return _kk_report(half, out, tail_model, keep, float(g[0]), sides=2)


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` bit for bit, for two values or more, without
    its NaN check, which loads numpy.ma."""
    half = values.size // 2
    part = np.partition(values, (half - 1, half))
    return float(part[half] if values.size % 2 else (part[half - 1] + part[half]) / 2)


def _sum_rule_blocks(grid_values: np.ndarray):
    steps = np.diff(grid_values)
    cuts = np.nonzero(steps > 1.5 * _median(steps))[0]
    edges = np.concatenate(([0], cuts + 1, [grid_values.size]))
    return [
        slice(int(edges[i]), int(edges[i + 1]))
        for i in range(edges.size - 1)
        if edges[i + 1] - edges[i] >= 2
    ]


def frequency_sum_rule(spectrum: ComplexSpectrum, temporal: TemporalSpectrum):
    """Weighted balance integral int S/omega (tau - i/omega) d omega, and
    the L1 scale of its integrand, for judging how small the value is.

    For a response regular at the origin with S(0) = 0 this vanishes.
    The grid must exclude a window around omega = 0; integration is by
    trapezoid per contiguous block, never across a gap (blocks split
    where the spacing jumps above 1.5 times the median).

    Returns:
        Tuple (value, scale): the complex integral over the sampled blocks,
        and the float integral of its modulus.
    """
    g = spectrum.grid.values
    if not np.array_equal(g, temporal.grid.values):
        raise GridError("sum rule needs matching spectrum and tau grids")
    if float(np.min(np.abs(g))) < 1e-12 * max(1.0, spectrum.grid.span):
        raise OriginInGrid("sum rule grid must exclude the origin")
    integrand = spectrum.values / g * (temporal.tau - 1j / g)
    value, scale = 0.0 + 0.0j, 0.0
    for block in _sum_rule_blocks(g):
        value += np.trapezoid(integrand[block], g[block])
        scale += float(np.trapezoid(np.abs(integrand[block]), g[block]))
    return complex(value), scale


def residue_time_domain(model: PoleZeroModel, t):
    """Closed-form time-domain temporal function of a pole-zero model.

    Each resonance contributes -cos(omega_n t) exp(-gamma_n |t|) to the
    real part; the imaginary part is the odd completion
    tau2(t) = -i sgn(t) tau1(t) with sgn(0) = 0.  The power prefactor
    contributes nothing here.  A NaN or infinite t raises ValueError.

    Returns:
        Tuple (tau1_t, tau2_t): a real and a complex value or array
        matching the shape of ``t``.
    """
    _require_finite(t, "t")
    t_arr = np.asarray(t, dtype=float)
    wn, gn = np.reshape(model.resonances, (-1, 2)).T
    terms = -np.cos(np.multiply.outer(t_arr, wn)) * np.exp(
        -np.multiply.outer(np.abs(t_arr), gn)
    )
    tau1 = np.sum(terms, axis=-1)
    tau2 = -1j * np.sign(t_arr) * tau1
    return _pointwise(t, tau1, tau2)


@dataclass(frozen=True, eq=False)
class Contour:
    """Counterclockwise rectangle re_min..re_max by im_min..im_max in the
    complex frequency plane; ``vertices`` are its corners from (re_min,
    im_min) round and back."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle bounds must be ordered")
        lo, hi = complex(self.re_min, self.im_min), complex(self.re_max, self.im_max)
        v = np.array([lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag), lo])
        if not np.isfinite(v).all():
            raise ValueError("contour vertices must be finite")
        # The shoelace products square the corner sizes, as the quadrature's
        # segment lengths do; where they overflow, so would the count.
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.conj(v[:-1]) * v[1:]
            area = np.sum(products.imag)
        if not (np.isfinite(products).all() and np.isfinite(area)):
            raise ValueError("contour area overflows")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @classmethod
    def rectangle(cls, re_min, re_max, im_min, im_max):
        return cls(re_min, re_max, im_min, im_max)


def _boundary_gap(contour: Contour, points: np.ndarray) -> float:
    """Smallest distance from any of ``points`` to the rectangle's edges.

    dx and dy are how far a point lies past the nearer side on each axis:
    beyond a side the distance is the hypot of the positive ones, inside
    it is -max(dx, dy).  A difference past the float range is inf: far."""
    x, y = points.real, points.imag
    with np.errstate(over="ignore"):
        dx = np.maximum(contour.re_min - x, x - contour.re_max)
        dy = np.maximum(contour.im_min - y, y - contour.im_max)
    beyond = np.maximum(dx, dy)
    outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
    return float(np.min(np.where(beyond > 0, outside, -beyond)))


# The 8-node Gauss-Legendre rule on [-1, 1], bit for bit as
# np.polynomial.legendre.leggauss(8) gives it, without loading numpy.polynomial.
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


def winding_number(
    model: PoleZeroModel, contour: Contour,
    samples_per_edge: int = MIN_SAMPLES_PER_EDGE,
) -> float:
    """Contour integral (1/2 pi) oint tau d omega of a pole-zero model.

    Counts the zeros minus the poles of the response inside the rectangle;
    the result is real up to quadrature noise.
    Each edge is split into ``samples_per_edge`` panels with 8-node
    Gauss-Legendre quadrature per panel.

    Raises:
        SingularityOnContour: an edge passes within 1e-6 of a zero,
            pole, or (for a power prefactor) the origin.
    """
    if samples_per_edge < MIN_SAMPLES_PER_EDGE:
        raise ValueError(f"samples_per_edge must be at least {MIN_SAMPLES_PER_EDGE}")
    singular = np.array([root for root, _, _ in model.response().factors], dtype=complex)
    if singular.size and _boundary_gap(contour, singular) < 1e-6:
        raise SingularityOnContour("contour edge within 1e-6 of a zero or pole")

    v = contour.vertices
    edges = np.linspace(0.0, 1.0, samples_per_edge + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    s_q = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _GAUSS_NODES
    dv = (v[1:] - v[:-1])[:, None]
    tau_q = model_tau(model, v[:-1, None, None] + dv[..., None] * s_q)
    panel = np.sum(_GAUSS_WEIGHTS * tau_q, axis=-1)
    scale = dv * half
    # The real part, from real parts as scalar complex arithmetic rounds it,
    # summed panel by panel in edge-then-panel order: a pairwise np.sum
    # rounds differently and moves the last printed digit of the count.
    terms = scale.real * panel.real - scale.imag * panel.imag
    total = np.cumsum(np.concatenate(([0.0], terms.ravel())))[-1]
    return float(total / (2.0 * np.pi))
