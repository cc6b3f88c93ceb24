"""Extraction of temporal functions from sampled spectra, plus diagnostics.

The extractor differentiates the unwrapped phase and the log-modulus of a
sampled response.  Beside it sits the energy-time uncertainty budget,
which weighs the same unwrapped phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._stencils import differentiate
from .core import ComplexSpectrum, TemporalSpectrum, uniform_spacing
from .errors import ZeroModulus, ZeroNorm

__all__ = [
    "ExtractionOptions",
    "UncertaintyBudget",
    "extract_temporal",
    "uncertainty_product",
]

# The floor of |S| below which log and phase are taken as undefined.
_MIN_MODULUS = 1e-12


@dataclass(frozen=True)
class ExtractionOptions:
    """Knobs for the finite-difference extraction.

    Attributes:
        stencil_order: 2 or 4; order 4 needs a uniform grid.
    """

    stencil_order: int = 2

    def __post_init__(self):
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")


class UncertaintyBudget(NamedTuple):
    delta_e: float
    delta_t: float
    covariance: float


def _unwrap(phase: np.ndarray) -> np.ndarray:
    """numpy's ``unwrap`` of ``phase``, bit for bit, paying only at its jumps.

    numpy wraps every step into [-pi, pi) and then zeroes the correction
    of each step below pi.  Here the same formula, boundary fix included,
    runs only on the steps of pi or more (and NaN steps, which numpy's
    mask keeps too).  numpy's running sum of the corrections adds +0 between
    jumps, which changes no sum (none is -0): summed over the jumps alone
    and spread over the nodes by np.repeat, every addition is numpy's.
    """
    steps = np.diff(phase)
    jumps = np.flatnonzero(~(np.abs(steps) < np.pi))
    d = steps[jumps]
    wrapped = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    np.copyto(wrapped, np.pi, where=(wrapped == -np.pi) & (d > 0))
    sums = np.zeros(jumps.size + 1)
    np.cumsum(wrapped - d, out=sums[1:])
    out = np.empty(phase.shape)
    out[:1] = phase[:1]
    np.add(phase[1:], np.repeat(sums, np.diff(jumps, prepend=0, append=steps.size)),
           out=out[1:])
    return out


def _log_spectrum(spectrum: ComplexSpectrum):
    """Log-modulus and unwrapped phase of the samples.  The modulus floor is
    one reduction; the node it names is looked for when it trips."""
    moduli = np.abs(spectrum.values)
    if np.min(moduli) < _MIN_MODULUS:
        low = int(np.argmax(moduli < _MIN_MODULUS))
        raise ZeroModulus(f"|S| below {_MIN_MODULUS:g} at node {low}", node=low)
    phase = _unwrap(np.angle(spectrum.values))
    return np.log(moduli, out=moduli), phase


def extract_temporal(
    spectrum: ComplexSpectrum, options: ExtractionOptions | None = None
) -> TemporalSpectrum:
    """Extract delay and formation times from a sampled response.

    tau1 is the derivative of the phase, unwrapped as np.unwrap does (a
    step of exactly pi is kept), tau2 is minus that of the log-modulus.
    Edge nodes use one-sided stencils of matching order and are flagged
    via ``edge_nodes`` on the result.

    Raises:
        ZeroModulus: some |S| is below 1e-12.
        NonUniformGrid: order-4 stencil on a non-uniform grid.
    """
    opts = options if options is not None else ExtractionOptions()
    log_mod, phase = _log_spectrum(spectrum)
    x = spectrum.grid.values
    tau1, tau2 = differentiate(x, phase, log_mod, order=opts.stencil_order)
    np.negative(tau2, out=tau2)
    return TemporalSpectrum(
        spectrum.grid, tau1, tau2, edge_nodes=opts.stencil_order // 2
    )


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

