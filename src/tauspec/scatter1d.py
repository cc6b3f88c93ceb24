"""Scattering on piecewise-constant 1-d potentials.

Units: hbar = 1 and 2m = 1, so the lead wavenumber is k = sqrt(E).
Profiles are ordered left to right; the leads on both sides are at zero
potential.  Transfer matrices through classically forbidden segments are
accumulated in scaled form, so deep tunnelling (kappa a of hundreds) stays
finite.  The energy derivative of the product rides through the same
products, so one sweep gives the transmission and its exact complex time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _complex, _pointwise
from .errors import DegenerateEnergy, ZeroTransmission

__all__ = [
    "PotentialProfile",
    "ScatteringMatrix1D",
    "s_matrix",
    "transmission_and_time",
    "find_resonance",
]

# Energies of find_resonance's scan, and of each of its zoomed rescans.
_SCAN_POINTS = 201


@dataclass(frozen=True)
class PotentialProfile:
    """Sequence of (width, height) segments, left to right.

    Heights may be negative (wells).  An empty profile is the trivial
    scatterer.
    """

    segments: tuple

    def __post_init__(self):
        clean = []
        for seg in self.segments:
            width, height = float(seg[0]), float(seg[1])
            if not (width > 0 and np.isfinite(width)):
                raise ValueError("segment widths must be positive and finite")
            if not np.isfinite(height):
                raise ValueError("segment heights must be finite")
            clean.append((width, height))
        object.__setattr__(self, "segments", tuple(clean))

    @classmethod
    def single(cls, width: float, height: float) -> "PotentialProfile":
        return cls(((width, height),))


@dataclass(frozen=True)
class ScatteringMatrix1D:
    """Reflection and transmission amplitudes for both incidence sides.

    Complex scalars at one energy, complex arrays over an energy array.
    """

    r: complex
    t: complex
    r_prime: complex
    t_prime: complex

    def unitarity_defect(self) -> float:
        """Largest entry of |S^dagger S - 1| for the 2x2 amplitude matrix,
        over every energy."""
        s = np.array([[self.r, self.t_prime], [self.t, self.r_prime]])
        s = np.moveaxis(s, (0, 1), (-2, -1))
        return float(np.max(np.abs(np.swapaxes(s.conj(), -1, -2) @ s - np.eye(2))))


def _transfer(profile: PotentialProfile, energy):
    """Amplitude-basis transfer matrix as (T22, T21, log-scale L, dT22).

    The wavefunction-basis product W = e^-L M_n ... M_1, acting on
    (psi, psi'), is real, so it runs as closed-form 2x2 products on four
    arrays.  Each node takes the propagating or the evanescent segment
    matrix by the sign of energy - height; an evanescent one is scaled by
    e^-(kappa width), which L collects.  In the lead plane waves (1, ik)
    and (1, -ik), T = e^L Q^-1 W Q has
    T22 = [(w00 + w11) + i (w10/k - k w01)] / 2 and
    T21 = [(w00 - w11) + i (k w01 + w10/k)] / 2, with T11 = conj(T22) and
    T12 = conj(T21).  G = e^-L d(e^L W)/dE rides through the same products
    (forward mode) to dT22 = e^-L d(e^L T22)/dE.  Its terms may overflow,
    silently, where W's do not: E near 0 or 1e308, widths past 1e102.
    """
    energy = np.asarray(energy, dtype=float)
    if not np.all((energy > 0) & (energy < np.inf)):
        raise ValueError("energy must be positive and finite")
    w00, w01, w10, w11 = 1.0, 0.0, 0.0, 1.0
    g00 = g01 = g10 = g11 = 0.0
    log_scale = np.zeros(energy.shape)
    for width, height in profile.segments:
        gap = energy - height
        if np.any(np.abs(gap) < 1e-12):
            raise DegenerateEnergy(
                f"energy within 1e-12 of segment height {height:g}"
            )
        above = gap > 0
        k = np.sqrt(np.abs(gap))
        ka = k * width
        q_1 = np.expm1(-2.0 * ka)
        # M = [[c, s/k], [-+k s, c]]: cos and sin, or the scaled cosh and sinh.
        c = np.where(above, np.cos(ka), 1.0 + 0.5 * q_1)
        s = np.where(above, np.sin(ka), -0.5 * q_1)
        s_k = s / k
        m10 = np.where(above, -k, k) * s
        log_scale += np.where(above, 0.0, ka)
        with np.errstate(over="ignore", invalid="ignore"):
            # e^-(kappa a) dM/dE for both signs of the gap, with a numpy width
            # a: a**3 overflows to inf, not OverflowError.  (a c - s/k) / (2 gap)
            # cancels as k a -> 0, so there it takes its series in u = gap a^2.
            a = np.float64(width)
            u = gap * a**2
            near = a**3 * (-1 / 6 + u * (1 / 60 + u * (-1 / 1680 + u / 90720)))
            d00 = -0.5 * a * s_k
            d01 = np.where(np.abs(u) < 1e-2, np.where(above, 1.0, np.sqrt(1.0 + q_1)) * near,
                           (a * c - s_k) / (2.0 * gap))
            d10 = -0.5 * (s_k + a * c)
            g00, g01, g10, g11 = (
                d00 * w00 + d01 * w10 + c * g00 + s_k * g10,
                d00 * w01 + d01 * w11 + c * g01 + s_k * g11,
                d10 * w00 + d00 * w10 + m10 * g00 + c * g10,
                d10 * w01 + d00 * w11 + m10 * g01 + c * g11,
            )
        w00, w01, w10, w11 = (c * w00 + s_k * w10, c * w01 + s_k * w11,
                              m10 * w00 + c * w10, m10 * w01 + c * w11)
    k0 = np.sqrt(energy)
    t22 = _complex(0.5 * (w00 + w11), 0.5 * (w10 / k0 - k0 * w01))
    t21 = _complex(0.5 * (w00 - w11), 0.5 * (k0 * w01 + w10 / k0))
    # The lead's k = sqrt(E) moves with E too: at fixed W it moves Im T22
    # by -Im T21 / (2E) per unit energy.
    with np.errstate(over="ignore", invalid="ignore"):
        dt22 = _complex(0.5 * (g00 + g11), 0.5 * (g10 / k0 - k0 * g01 - t21.imag / energy))
    return t22, t21, log_scale, dt22


def s_matrix(profile: PotentialProfile, energy) -> ScatteringMatrix1D:
    """Scattering amplitudes, stable under deep tunnelling.

    A scalar energy gives complex fields; an energy array gives complex
    arrays of its shape.
    """
    t22, t21, log_scale, _ = _transfer(profile, energy)
    t = np.exp(-log_scale) / t22
    return ScatteringMatrix1D(*_pointwise(energy, -t21 / t22, t, np.conj(t21) / t22, t))


def transmission_and_time(profile: PotentialProfile, energy):
    """Transmission amplitude t and its exact complex time, from one sweep.

    t = e^-L / T22, and with dT22 carried through the transfer product
    tau = -i d ln t / dE = i dT22 / T22 = tau1 + i tau2: tau1 is the
    derivative of the transmission phase, tau2 minus that of ln |t|.
    A scalar energy gives two complex numbers, an energy array two
    complex arrays.

    Raises:
        ZeroTransmission: |t| below 1e-12 at a node, or tau not finite
            there.
    """
    t22, _, log_scale, dt22 = _transfer(profile, energy)
    t = np.exp(-log_scale) / t22
    if np.any(np.hypot(t.real, t.imag) < 1e-12):
        raise ZeroTransmission("transmission too small to differentiate")
    if not np.all(np.isfinite(dt22)):
        raise ZeroTransmission("complex time is not finite")
    ratio = dt22 / t22
    return _pointwise(energy, t, _complex(-ratio.imag, ratio.real))


def find_resonance(profile: PotentialProfile, e_lo: float, e_hi: float) -> float:
    """Locate a transmission maximum by a scan plus zoomed rescans.

    Scans 201 energies on [e_lo, e_hi] and takes the best interior node.
    Each further round rescans the bracket between that node's two
    neighbours with 201 energies, until the bracket spans at most 1.5e-8
    of the peak energy.

    Raises:
        ValueError: the scan peak sits on the window boundary.
    """
    if not (0 < e_lo < e_hi):
        raise ValueError("need 0 < e_lo < e_hi")
    energies = np.linspace(e_lo, e_hi, _SCAN_POINTS)
    t = s_matrix(profile, energies).t
    peak = int(np.argmax(np.hypot(t.real, t.imag) ** 2))
    if peak in (0, _SCAN_POINTS - 1):
        raise ValueError("transmission peak at scan boundary; widen the window")
    while energies[peak + 1] - energies[peak - 1] > 1.5e-8 * energies[peak]:
        energies = np.linspace(energies[peak - 1], energies[peak + 1], _SCAN_POINTS)
        t = s_matrix(profile, energies).t
        peak = int(np.argmax(np.hypot(t.real, t.imag) ** 2))
        peak = min(max(peak, 1), _SCAN_POINTS - 2)
    return float(energies[peak])
