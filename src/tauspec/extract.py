"""Extraction of temporal functions from sampled spectra, plus diagnostics.

The extractor differentiates the unwrapped phase and the log-modulus of a
sampled response.  The other operations here are consumers of the same
log-spectrum machinery: curvature (broadening), saturated-front response
shapes, the energy-time uncertainty budget, and a half-line Wigner
transform for time-frequency structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._stencils import differentiate, second_difference
from .core import (ComplexSpectrum, FrequencyGrid, TemporalSpectrum, _pointwise,
                   uniform_spacing)
from .errors import (
    InsufficientSupport,
    NonPositiveSigma,
    PhaseJump,
    ZeroModulus,
    ZeroNorm,
)

__all__ = [
    "ExtractionOptions",
    "BroadeningSpectrum",
    "UncertaintyBudget",
    "extract_temporal",
    "broadening",
    "normal_response",
    "anomalous_response",
    "combined_response",
    "uncertainty_product",
    "temporal_wigner",
]


@dataclass(frozen=True)
class ExtractionOptions:
    """Knobs for the finite-difference extraction.

    Attributes:
        stencil_order: 2 or 4; order 4 needs a uniform grid.
        unwrap_tolerance: largest accepted phase step after unwrapping.
            The default pi accepts anything the unwrapper produces; a
            tighter value flags under-resolved grids.
        min_modulus: floor below which log and phase are considered
            undefined.
    """

    stencil_order: int = 2
    unwrap_tolerance: float = float(np.pi)
    min_modulus: float = 1e-12

    def __post_init__(self):
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")
        if self.unwrap_tolerance <= 0 or self.min_modulus <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class BroadeningSpectrum:
    """Complex curvature sigma(omega) of the log-response."""

    grid: FrequencyGrid
    sigma: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sigma, dtype=complex)
        if arr.shape != (len(self.grid),):
            raise ValueError("sigma must match the grid length")
        object.__setattr__(self, "sigma", arr)


class UncertaintyBudget(NamedTuple):
    delta_e: float
    delta_t: float
    covariance: float


def _unwrap(phase: np.ndarray) -> np.ndarray:
    """numpy's ``unwrap`` of ``phase``, bit for bit, paying only at its jumps.

    numpy wraps every step into [-pi, pi) and then zeroes the correction
    of each step below pi.  Here the same formula, boundary fix included,
    runs only on the steps of pi or more (and NaN steps, which numpy's
    mask keeps too); the corrections are scattered into zeros and summed
    as numpy sums them, so every addition is the one numpy makes.
    """
    steps = np.diff(phase)
    jumps = np.nonzero(~(np.abs(steps) < np.pi))[0]
    d = steps[jumps]
    wrapped = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    np.copyto(wrapped, np.pi, where=(wrapped == -np.pi) & (d > 0))
    correction = np.zeros(steps.shape)
    correction[jumps] = wrapped - d
    out = np.array(phase, dtype=float)
    out[1:] = phase[1:] + np.cumsum(correction)
    return out


def _log_spectrum(spectrum: ComplexSpectrum, options: ExtractionOptions):
    """Split samples into log-modulus and unwrapped phase, with guards."""
    moduli = np.abs(spectrum.values)
    low = np.nonzero(moduli < options.min_modulus)[0]
    if low.size:
        raise ZeroModulus(
            f"|S| below {options.min_modulus:g} at node {low[0]}",
            node=int(low[0]),
        )
    phase = _unwrap(np.angle(spectrum.values))
    steps = np.abs(np.diff(phase))
    bad = np.nonzero(steps > options.unwrap_tolerance)[0]
    if bad.size:
        raise PhaseJump(
            f"phase step {steps[bad[0]]:.3g} exceeds tolerance at node {bad[0] + 1}",
            node=int(bad[0] + 1),
        )
    return np.log(moduli), phase


def extract_temporal(
    spectrum: ComplexSpectrum, options: ExtractionOptions | None = None
) -> TemporalSpectrum:
    """Extract delay and formation times from a sampled response.

    tau1 is the derivative of the unwrapped phase, tau2 is minus the
    derivative of the log-modulus.  Edge nodes use one-sided stencils of
    matching order and are flagged via ``edge_nodes`` on the result.

    Raises:
        ZeroModulus: some |S| is below ``min_modulus``.
        PhaseJump: unwrapped phase still steps by more than the tolerance.
        NonUniformGrid: order-4 stencil on a non-uniform grid.
    """
    opts = options if options is not None else ExtractionOptions()
    log_mod, phase = _log_spectrum(spectrum, opts)
    x = spectrum.grid.values
    tau1 = differentiate(x, phase, opts.stencil_order)
    tau2 = -differentiate(x, log_mod, opts.stencil_order)
    return TemporalSpectrum(
        spectrum.grid, tau1, tau2, edge_nodes=opts.stencil_order // 2
    )


def broadening(
    spectrum: ComplexSpectrum, options: ExtractionOptions | None = None
) -> BroadeningSpectrum:
    """Second log-derivative diagnostic sigma = -(d/domega)^2 ln R.

    Equals -i times the derivative of the complex time, so a flat tau
    means no pulse reshaping along the path.
    """
    opts = options if options is not None else ExtractionOptions()
    log_mod, phase = _log_spectrum(spectrum, opts)
    x = spectrum.grid.values
    sigma = -second_difference(x, log_mod + 1j * phase, opts.stencil_order)
    return BroadeningSpectrum(spectrum.grid, sigma)


def _erf_any(z):
    from scipy.special import erf  # lazy: off the import path

    z = np.asarray(z)
    if np.iscomplexobj(z):
        return erf(z.astype(complex))
    return erf(z)


def _front_response(omega0, tau, sigma, r0, t, erf_sign):
    sigma = complex(sigma) if np.iscomplexobj(np.asarray(sigma)) else float(sigma)
    if np.real(sigma) <= 0:
        raise NonPositiveSigma("sigma must have positive real part")
    root = np.lib.scimath.sqrt(2.0 * sigma)
    # A scalar t too goes through as an array: numpy may round a complex
    # product of scalars otherwise than the same product over an array.
    ts = np.atleast_1d(t)
    x = (ts - tau) / root
    prefactor = r0 / np.lib.scimath.sqrt(8.0 * np.pi * sigma)
    front = 1.0 + erf_sign * _erf_any(x)
    value = prefactor * np.exp(-1j * omega0 * ts - x**2) * front
    return _pointwise(t, value)


def normal_response(omega0, tau, sigma, r0, t):
    """Saturated-front response for positive formation time.

    R(t) = r0 (8 pi sigma)^(-1/2) exp{-i omega0 t - (t-tau)^2 / 2 sigma}
           [1 - erf((t-tau)/sqrt(2 sigma))]

    ``sigma`` may be complex; the principal branch of the square root is
    used and the real part must be positive.

    Raises:
        NonPositiveSigma: Re(sigma) <= 0.
    """
    return _front_response(omega0, tau, sigma, r0, t, -1.0)


def anomalous_response(omega0, tau, sigma, r0, t):
    """Mirror branch of ``normal_response`` with the opposite erf sign."""
    return _front_response(omega0, tau, sigma, r0, t, 1.0)


def combined_response(omega0, tau, sigma, r0, t, tau2):
    """Step-weighted sum of the two response branches.

    The normal branch carries positive formation time, the anomalous one
    negative; at tau2 = 0 both get weight one half.
    """
    up = 1.0 if tau2 > 0 else (0.5 if tau2 == 0 else 0.0)
    down = 1.0 - up
    out = 0.0 + 0.0j
    if up:
        out = out + up * normal_response(omega0, tau, sigma, r0, t)
    if down:
        out = out + down * anomalous_response(omega0, tau, sigma, r0, t)
    return out


def uncertainty_product(spectrum: ComplexSpectrum) -> UncertaintyBudget:
    """Energy and time spreads of a spectrum plus their covariance term.

    delta_e is the standard deviation of the |S(E)|^2 distribution on the
    grid.  delta_t is the same for |S(t)|^2 with S(t) the discrete Fourier
    transform of the samples, zero-padded fourfold so the time tail is
    resolved.  The covariance term is the symmetrised product average

        cov = <E tau1 + tau1 E> - 2 <E> <tau1> = 2 (<E tau1> - <E><tau1>)

    with |S|^2-weighted averages and tau1 the unwrapped-phase slope; it
    feeds the testable bound (delta_e * delta_t)^2 >= 1/4 + cov^2 / 4.

    Raises:
        ZeroNorm: all samples vanish.
        NonUniformGrid: the transform needs uniform spacing.
    """
    grid = spectrum.grid
    h = uniform_spacing(grid.values, "uncertainty_product needs a uniform grid")
    e = grid.values
    weight = np.abs(spectrum.values) ** 2
    norm = float(np.sum(weight))
    if norm == 0.0:
        raise ZeroNorm("spectrum has zero norm")
    weight = weight / norm
    mean_e = float(np.sum(weight * e))
    delta_e = float(np.sqrt(np.sum(weight * (e - mean_e) ** 2)))

    n_pad = 4 * len(grid)
    s_t = np.fft.fft(spectrum.values, n=n_pad)
    t = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=h)
    w_t = np.abs(s_t) ** 2
    w_t = w_t / np.sum(w_t)
    mean_t = float(np.sum(w_t * t))
    delta_t = float(np.sqrt(np.sum(w_t * (t - mean_t) ** 2)))

    phase = _unwrap(np.angle(spectrum.values))
    tau1 = np.gradient(phase, e)
    mean_tau = float(np.sum(weight * tau1))
    covariance = 2.0 * (float(np.sum(weight * e * tau1)) - mean_e * mean_tau)
    return UncertaintyBudget(delta_e, delta_t, covariance)


def temporal_wigner(
    psi: np.ndarray,
    times: np.ndarray,
    omega: float,
    t: float,
    branch: str = "+",
    periodic: bool = False,
    taper: float = 0.0,
) -> complex:
    """Half-line Wigner transform of a sampled signal.

    w(omega, t) = (1/2 pi) int_0^inf dtau e^{i omega tau}
                  psi(t + tau/2) psi*(t - tau/2)

    evaluated by trapezoid on the lag axis with linear interpolation of
    psi at half steps.  The "-" branch returns the "+" branch at -omega.

    Args:
        psi: complex samples on a uniform time grid.
        times: the grid itself.
        omega: analysis frequency.
        t: analysis time, strictly inside the grid.
        branch: "+" or "-".
        periodic: wrap the signal instead of requiring decay at the ends.
        taper: optional exponential damping rate e^{-taper * tau} applied
            to the lag integrand, for signals that do not decay.

    Raises:
        InsufficientSupport: signal not decayed at the ends and neither
            ``periodic`` nor a positive ``taper`` was given.
    """
    psi = np.asarray(psi, dtype=complex)
    times = np.asarray(times, dtype=float)
    if psi.shape != times.shape or psi.ndim != 1 or psi.size < 3:
        raise ValueError("psi and times must be matching 1-d arrays")
    h = uniform_spacing(times, "temporal_wigner needs a uniform time grid")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if not (times[0] < t < times[-1]):
        raise ValueError("t must lie strictly inside the time grid")
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        return 0.0 + 0.0j
    if not periodic and taper <= 0.0:
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge > 1e-6 * peak:
            raise InsufficientSupport(
                "signal has not decayed at the grid ends; pass periodic=True "
                "or a positive taper"
            )

    span = float(times[-1] - times[0])
    if periodic:
        lag_max = span
    else:
        lag_max = 2.0 * min(t - times[0], times[-1] - t)
    n_lag = int(np.floor(lag_max / h))
    lags = h * np.arange(n_lag + 1)

    def sample(points):
        return np.interp(points, times, psi, period=span if periodic else None)

    om = omega if branch == "+" else -omega
    integrand = (
        np.exp((1j * om - taper) * lags)
        * sample(t + 0.5 * lags)
        * np.conj(sample(t - 0.5 * lags))
    )
    return complex(np.trapezoid(integrand, dx=h) / (2.0 * np.pi))
