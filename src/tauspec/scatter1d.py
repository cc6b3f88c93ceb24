"""Scattering on piecewise-constant 1-d potentials.

Units: hbar = 1 and 2m = 1, so the lead wavenumber is k = sqrt(E).
Profiles are ordered left to right; the leads on both sides are at zero
potential.  Transfer matrices through classically forbidden segments are
accumulated in scaled form, so deep tunnelling (kappa a of hundreds) stays
finite; only the explicit full-scale matrix can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _pointwise
from .errors import DegenerateEnergy, ZeroTransmission

__all__ = [
    "DIFFERENCE_STEP",
    "PotentialProfile",
    "ScatteringMatrix1D",
    "transfer_matrix",
    "s_matrix",
    "transmission_probability",
    "complex_time",
    "find_resonance",
]

DIFFERENCE_STEP = 1e-4


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


def _segment_matrix(energy: np.ndarray, width: float, height: float):
    """Scaled wavefunction-basis transfer matrices (..., 2, 2) and log-scales.

    Each node takes the propagating or the evanescent form by the sign of
    energy - height; the log-scale is kappa * width on evanescent nodes.
    """
    gap = energy - height
    if np.any(np.abs(gap) < 1e-12):
        raise DegenerateEnergy(
            f"energy within 1e-12 of segment height {height:g}"
        )
    above = gap > 0
    k = np.sqrt(np.abs(gap))
    ka = k * width
    cos, sin = np.cos(ka), np.sin(ka)
    q = np.exp(-2.0 * k * width)
    mat = np.empty(gap.shape + (2, 2), dtype=complex)
    mat[..., 0, 0] = mat[..., 1, 1] = np.where(above, cos, 0.5 * (1.0 + q))
    mat[..., 0, 1] = np.where(above, sin / k, 0.5 * ((1.0 - q) / k))
    mat[..., 1, 0] = np.where(above, -k * sin, 0.5 * (k * (1.0 - q)))
    return mat, np.where(above, 0.0, ka)


def _scaled_transfer(profile: PotentialProfile, energy):
    """Amplitude-basis transfer matrices as (scaled (..., 2, 2), log-scale (...))."""
    energy = np.asarray(energy, dtype=float)
    if np.any(energy <= 0):
        raise ValueError("energy must be positive")
    wave = np.eye(2, dtype=complex)
    log_scale = np.zeros(energy.shape)
    for width, height in profile.segments:
        mat, extra = _segment_matrix(energy, width, height)
        wave = mat @ wave
        log_scale += extra
    k0 = np.sqrt(energy)
    q = np.ones(energy.shape + (2, 2), dtype=complex)
    q[..., 1, 0], q[..., 1, 1] = 1j * k0, -1j * k0
    q_inv = np.full_like(q, 0.5)
    q_inv[..., 0, 1], q_inv[..., 1, 1] = 0.5 * (-1j / k0), 0.5 * (1j / k0)
    return q_inv @ wave @ q, log_scale


def transfer_matrix(profile: PotentialProfile, energy) -> np.ndarray:
    """Full amplitude-basis transfer matrix across the profile.

    Maps (rightward, leftward) amplitudes on the left lead to those on the
    right lead, with phases referenced to the structure edges.  A free
    stretch of width a gives diag(e^{ika}, e^{-ika}).  For strongly
    forbidden profiles the entries grow like e^{kappa a}; use
    ``s_matrix`` when only amplitudes are needed.  An energy array of
    shape (...) gives matrices of shape (..., 2, 2).
    """
    scaled, log_scale = _scaled_transfer(profile, energy)
    return np.exp(log_scale)[..., None, None] * scaled


def s_matrix(profile: PotentialProfile, energy) -> ScatteringMatrix1D:
    """Scattering amplitudes, stable under deep tunnelling.

    A scalar energy gives complex fields; an energy array gives complex
    arrays of its shape.
    """
    scaled, log_scale = _scaled_transfer(profile, energy)
    m22 = scaled[..., 1, 1]
    t = np.exp(-log_scale) / m22
    return ScatteringMatrix1D(
        *_pointwise(energy, -scaled[..., 1, 0] / m22, t, scaled[..., 0, 1] / m22, t))


def transmission_probability(profile: PotentialProfile, energy):
    """|t|^2 at a scalar energy (float) or an energy array."""
    t = np.asarray(s_matrix(profile, energy).t)
    return _pointwise(energy, np.hypot(t.real, t.imag) ** 2)


def complex_time(profile: PotentialProfile, energy, step: float = DIFFERENCE_STEP):
    """Complex time tau = -i d ln t / dE = tau1 + i tau2 by central difference.

    tau1 is the energy derivative of the transmission phase, taken through
    the complex product t(E + step) conj(t(E - step)), so it is insensitive
    to branch cuts as long as the phase moves by less than pi across
    2*step.  tau2 is minus the derivative of the log transmission modulus.
    A scalar energy gives a complex, an energy array a complex array; both
    are formed from real parts, which round as scalar complex arithmetic.

    Raises:
        ValueError: unless 0 < step < energy at every node.
        ZeroTransmission: |t| below 1e-12 at a difference node.
    """
    if step <= 0 or np.any(np.asarray(energy) - step <= 0):
        raise ValueError("need 0 < step < energy")
    t_hi = np.asarray(s_matrix(profile, np.add(energy, step)).t)
    t_lo = np.asarray(s_matrix(profile, np.subtract(energy, step)).t)
    hr, hi, lr, li = t_hi.real, t_hi.imag, t_lo.real, t_lo.imag
    mod_hi, mod_lo = np.hypot(hr, hi), np.hypot(lr, li)
    if np.any(mod_hi < 1e-12) or np.any(mod_lo < 1e-12):
        raise ZeroTransmission("transmission too small to differentiate")
    tau = np.empty(t_hi.shape, dtype=complex)
    tau.real = np.arctan2(hi * lr - hr * li, hr * lr + hi * li) / (2.0 * step)
    tau.imag = -(np.log(mod_hi) - np.log(mod_lo)) / (2.0 * step)
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
