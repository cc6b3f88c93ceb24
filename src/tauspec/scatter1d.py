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

from .errors import DegenerateEnergy, ZeroTransmission

__all__ = [
    "PotentialProfile",
    "ScatteringMatrix1D",
    "transfer_matrix",
    "s_matrix",
    "transmission_probability",
    "complex_time",
    "wigner_delay",
    "formation_time",
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

    @property
    def total_width(self) -> float:
        return float(sum(w for w, _ in self.segments))


@dataclass(frozen=True)
class ScatteringMatrix1D:
    """Reflection and transmission amplitudes for both incidence sides."""

    r: complex
    t: complex
    r_prime: complex
    t_prime: complex

    def unitarity_defect(self) -> float:
        """Largest entry of |S^dagger S - 1| for the 2x2 amplitude matrix."""
        s = np.array([[self.r, self.t_prime], [self.t, self.r_prime]])
        return float(np.max(np.abs(s.conj().T @ s - np.eye(2))))


def _segment_matrix(energy: float, width: float, height: float):
    """Scaled wavefunction-basis transfer matrix and its log-scale."""
    gap = energy - height
    if abs(gap) < 1e-12:
        raise DegenerateEnergy(
            f"energy within 1e-12 of segment height {height:g}"
        )
    if gap > 0:
        k = np.sqrt(gap)
        ka = k * width
        mat = np.array(
            [
                [np.cos(ka), np.sin(ka) / k],
                [-k * np.sin(ka), np.cos(ka)],
            ],
            dtype=complex,
        )
        return mat, 0.0
    kappa = np.sqrt(-gap)
    q = np.exp(-2.0 * kappa * width)
    mat = 0.5 * np.array(
        [
            [1.0 + q, (1.0 - q) / kappa],
            [kappa * (1.0 - q), 1.0 + q],
        ],
        dtype=complex,
    )
    return mat, float(kappa * width)


def _scaled_transfer(profile: PotentialProfile, energy: float):
    """Amplitude-basis transfer matrix as (scaled matrix, log-scale)."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    wave = np.eye(2, dtype=complex)
    log_scale = 0.0
    for width, height in profile.segments:
        mat, extra = _segment_matrix(energy, width, height)
        wave = mat @ wave
        log_scale += extra
    k0 = np.sqrt(energy)
    q = np.array([[1.0, 1.0], [1j * k0, -1j * k0]], dtype=complex)
    q_inv = 0.5 * np.array([[1.0, -1j / k0], [1.0, 1j / k0]], dtype=complex)
    return q_inv @ wave @ q, log_scale


def transfer_matrix(profile: PotentialProfile, energy: float) -> np.ndarray:
    """Full amplitude-basis transfer matrix across the profile.

    Maps (rightward, leftward) amplitudes on the left lead to those on the
    right lead, with phases referenced to the structure edges.  A free
    stretch of width a gives diag(e^{ika}, e^{-ika}).  For strongly
    forbidden profiles the entries grow like e^{kappa a}; use
    ``s_matrix`` when only amplitudes are needed.
    """
    scaled, log_scale = _scaled_transfer(profile, energy)
    return np.exp(log_scale) * scaled


def s_matrix(profile: PotentialProfile, energy: float) -> ScatteringMatrix1D:
    """Scattering amplitudes at a given energy, stable under deep tunnelling."""
    scaled, log_scale = _scaled_transfer(profile, energy)
    m22 = scaled[1, 1]
    t = np.exp(-log_scale) / m22
    return ScatteringMatrix1D(
        r=complex(-scaled[1, 0] / m22),
        t=complex(t),
        r_prime=complex(scaled[0, 1] / m22),
        t_prime=complex(t),
    )


def transmission_probability(profile: PotentialProfile, energy: float) -> float:
    return abs(s_matrix(profile, energy).t) ** 2


def complex_time(profile: PotentialProfile, energy: float, step: float = 1e-4) -> complex:
    """Complex time tau = -i d ln t / dE = tau1 + i tau2 by central difference.

    tau1 is the energy derivative of the transmission phase, taken through
    the complex product t(E + step) conj(t(E - step)), so it is insensitive
    to branch cuts as long as the phase moves by less than pi across
    2*step.  tau2 is minus the derivative of the log transmission modulus.

    Raises:
        ValueError: unless 0 < step < energy.
        ZeroTransmission: |t| below 1e-12 at either difference node.
    """
    if step <= 0 or energy - step <= 0:
        raise ValueError("need 0 < step < energy")
    t_hi = s_matrix(profile, energy + step).t
    t_lo = s_matrix(profile, energy - step).t
    if abs(t_hi) < 1e-12 or abs(t_lo) < 1e-12:
        raise ZeroTransmission("transmission too small to differentiate")
    return complex(
        float(np.angle(t_hi * np.conj(t_lo)) / (2.0 * step)),
        float(-(np.log(abs(t_hi)) - np.log(abs(t_lo))) / (2.0 * step)),
    )


def wigner_delay(profile: PotentialProfile, energy: float, step: float = 1e-4) -> float:
    """Energy derivative of the transmission phase: ``complex_time(...).real``."""
    return complex_time(profile, energy, step).real


def formation_time(profile: PotentialProfile, energy: float, step: float = 1e-4) -> float:
    """Minus the energy derivative of ln |t|: ``complex_time(...).imag``."""
    return complex_time(profile, energy, step).imag


def find_resonance(
    profile: PotentialProfile, e_lo: float, e_hi: float, points: int = 201
) -> float:
    """Locate a transmission maximum by scan plus golden-section refinement.

    Scans ``points`` energies on [e_lo, e_hi], brackets the best interior
    node, and polishes with a golden-section search.

    Raises:
        ValueError: the scan peak sits on the window boundary.
    """
    from scipy.optimize import minimize_scalar  # lazy: off the import path

    if not (0 < e_lo < e_hi):
        raise ValueError("need 0 < e_lo < e_hi")
    if points < 3:
        raise ValueError("need at least three scan points")
    energies = np.linspace(e_lo, e_hi, points)
    trans = np.array([transmission_probability(profile, e) for e in energies])
    peak = int(np.argmax(trans))
    if peak in (0, points - 1):
        raise ValueError("transmission peak at scan boundary; widen the window")
    bracket = (energies[peak - 1], energies[peak], energies[peak + 1])
    result = minimize_scalar(
        lambda e: -transmission_probability(profile, e),
        bracket=bracket,
        method="golden",
    )
    return float(result.x)
