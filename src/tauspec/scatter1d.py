"""Scattering on piecewise-constant 1-d potentials.

Units: hbar = 1 and 2m = 1, so the lead wavenumber is k = sqrt(E).
Profiles are ordered left to right; the leads on both sides are at zero
potential.  Transfer matrices through classically forbidden segments are
accumulated in scaled form, so deep tunnelling (kappa a of hundreds) stays
finite; only the explicit full-scale matrix can overflow.  The energy
derivative of the product rides through the same products, so one sweep
gives the transmission and its exact complex time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _pointwise
from .errors import DegenerateEnergy, ZeroTransmission

__all__ = [
    "PotentialProfile",
    "ScatteringMatrix1D",
    "transfer_matrix",
    "s_matrix",
    "transmission_probability",
    "transmission_and_time",
    "complex_time",
    "find_resonance",
]


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


def _complex(re, im):
    """One complex array from its real and imaginary parts, bit for bit."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _transfer(profile: PotentialProfile, energy, derivative: bool = False):
    """Amplitude-basis transfer matrix as (T22, T21, log-scale L, dT22).

    The wavefunction-basis product W = e^-L M_n ... M_1, acting on
    (psi, psi'), is real, so it runs as closed-form 2x2 products on four
    arrays.  Each node takes the propagating or the evanescent segment
    matrix by the sign of energy - height; an evanescent one is scaled by
    e^-(kappa width), which L collects.  In the lead plane waves (1, ik)
    and (1, -ik), T = e^L Q^-1 W Q has
    T22 = [(w00 + w11) + i (w10/k - k w01)] / 2 and
    T21 = [(w00 - w11) + i (k w01 + w10/k)] / 2, with T11 = conj(T22) and
    T12 = conj(T21).  With ``derivative``, G = e^-L d(e^L W)/dE rides
    through the same products (forward mode), and dT22 = e^-L d(e^L T22)/dE
    comes back in place of None.
    """
    energy = np.asarray(energy, dtype=float)
    if np.any(energy <= 0):
        raise ValueError("energy must be positive")
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
        if derivative:
            # e^-(kappa width) dM/dE, one form for both signs of the gap.
            # (width c - s/k) / (2 gap) cancels as k width -> 0, so there it
            # takes the series in u = gap width^2 of the same function.
            u = gap * width**2
            near = width**3 * (-1 / 6 + u * (1 / 60 + u * (-1 / 1680 + u / 90720)))
            d00 = -0.5 * width * s_k
            d01 = np.where(np.abs(u) < 1e-2, np.where(above, 1.0, np.sqrt(1.0 + q_1)) * near,
                           (width * c - s_k) / (2.0 * gap))
            d10 = -0.5 * (s_k + width * c)
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
    if not derivative:
        return t22, t21, log_scale, None
    # The lead's k = sqrt(E) moves with E too: at fixed W it moves Im T22
    # by -Im T21 / (2E) per unit energy.
    dt22 = _complex(0.5 * (g00 + g11), 0.5 * (g10 / k0 - k0 * g01 - t21.imag / energy))
    return t22, t21, log_scale, dt22


def transfer_matrix(profile: PotentialProfile, energy) -> np.ndarray:
    """Full amplitude-basis transfer matrix across the profile.

    Maps (rightward, leftward) amplitudes on the left lead to those on the
    right lead, with phases referenced to the structure edges.  A free
    stretch of width a gives diag(e^{ika}, e^{-ika}).  For strongly
    forbidden profiles the entries grow like e^{kappa a}; use
    ``s_matrix`` when only amplitudes are needed.  An energy array of
    shape (...) gives matrices of shape (..., 2, 2).
    """
    t22, t21, log_scale, _ = _transfer(profile, energy)
    scaled = np.stack([np.conj(t22), np.conj(t21), t21, t22], axis=-1)
    return np.exp(log_scale)[..., None, None] * scaled.reshape(t22.shape + (2, 2))


def s_matrix(profile: PotentialProfile, energy) -> ScatteringMatrix1D:
    """Scattering amplitudes, stable under deep tunnelling.

    A scalar energy gives complex fields; an energy array gives complex
    arrays of its shape.
    """
    t22, t21, log_scale, _ = _transfer(profile, energy)
    t = np.exp(-log_scale) / t22
    return ScatteringMatrix1D(*_pointwise(energy, -t21 / t22, t, np.conj(t21) / t22, t))


def transmission_probability(profile: PotentialProfile, energy):
    """|t|^2 at a scalar energy (float) or an energy array."""
    t = np.asarray(s_matrix(profile, energy).t)
    return _pointwise(energy, np.hypot(t.real, t.imag) ** 2)


def transmission_and_time(profile: PotentialProfile, energy):
    """Transmission amplitude t and its exact complex time, from one sweep.

    t = e^-L / T22, and with dT22 carried through the transfer product
    tau = -i d ln t / dE = i dT22 / T22 = tau1 + i tau2: tau1 is the
    derivative of the transmission phase, tau2 minus that of ln |t|.
    A scalar energy gives two complex numbers, an energy array two
    complex arrays.

    Raises:
        ZeroTransmission: |t| below 1e-12 at a node.
    """
    t22, _, log_scale, dt22 = _transfer(profile, energy, derivative=True)
    t = np.exp(-log_scale) / t22
    if np.any(np.hypot(t.real, t.imag) < 1e-12):
        raise ZeroTransmission("transmission too small to differentiate")
    ratio = dt22 / t22
    return _pointwise(energy, t, _complex(-ratio.imag, ratio.real))


def complex_time(profile: PotentialProfile, energy, step: float | None = None):
    """Complex time tau = -i d ln t / dE = tau1 + i tau2.

    Without ``step`` it is the exact derivative of
    ``transmission_and_time``.  With a step it is a central difference:
    tau1 is the energy derivative of the transmission phase, taken
    through the complex product t(E + step) conj(t(E - step)), so it is
    insensitive to branch cuts as long as the phase moves by less than pi
    across 2*step; tau2 is minus the derivative of the log transmission
    modulus.  The difference carries O(step^2) truncation and
    O(1e-16 / step) cancellation.  A scalar energy gives a complex, an
    energy array a complex array; both are formed from real parts, which
    round as scalar complex arithmetic.

    Raises:
        ValueError: a step outside 0 < step < energy at some node.
        ZeroTransmission: |t| below 1e-12 at a node, or with a step at a
            difference node.
    """
    if step is None:
        return transmission_and_time(profile, energy)[1]
    if step <= 0 or np.any(np.asarray(energy) - step <= 0):
        raise ValueError("need 0 < step < energy")
    t_hi = np.asarray(s_matrix(profile, np.add(energy, step)).t)
    t_lo = np.asarray(s_matrix(profile, np.subtract(energy, step)).t)
    hr, hi, lr, li = t_hi.real, t_hi.imag, t_lo.real, t_lo.imag
    mod_hi, mod_lo = np.hypot(hr, hi), np.hypot(lr, li)
    if np.any(mod_hi < 1e-12) or np.any(mod_lo < 1e-12):
        raise ZeroTransmission("transmission too small to differentiate")
    tau = _complex(np.arctan2(hi * lr - hr * li, hr * lr + hi * li) / (2.0 * step),
                   -(np.log(mod_hi) - np.log(mod_lo)) / (2.0 * step))
    return _pointwise(energy, tau)


def find_resonance(
    profile: PotentialProfile, e_lo: float, e_hi: float, points: int = 201
) -> float:
    """Locate a transmission maximum by a scan plus zoomed rescans.

    Scans ``points`` energies on [e_lo, e_hi] and takes the best interior
    node.  Each further round rescans the bracket between that node's two
    neighbours with max(points, 5) energies, until the bracket spans at
    most 1.5e-8 of the peak energy.

    Raises:
        ValueError: the scan peak sits on the window boundary.
    """
    if not (0 < e_lo < e_hi):
        raise ValueError("need 0 < e_lo < e_hi")
    if points < 3:
        raise ValueError("need at least three scan points")
    energies = np.linspace(e_lo, e_hi, points)
    peak = int(np.argmax(transmission_probability(profile, energies)))
    if peak in (0, points - 1):
        raise ValueError("transmission peak at scan boundary; widen the window")
    zoom = max(points, 5)
    while energies[peak + 1] - energies[peak - 1] > 1.5e-8 * energies[peak]:
        energies = np.linspace(energies[peak - 1], energies[peak + 1], zoom)
        peak = int(np.argmax(transmission_probability(profile, energies)))
        peak = min(max(peak, 1), zoom - 2)
    return float(energies[peak])
