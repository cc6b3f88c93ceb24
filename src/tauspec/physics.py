"""Closed-form temporal functions for standard physical systems.

Damped oscillator response, Breit-Wigner resonances, kinetic estimates
for a dilute medium, the driven photon mode, and the formation time of a
measured cross-section.  All formulas are analytic, save the log slope
of cross-section samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stencils import differentiate
from .core import FrequencyGrid, RationalResponse
from .errors import NonPositiveCrossSection, NonPositiveEta

__all__ = [
    "CLASSICAL_ELECTRON_RADIUS_CM",
    "SPEED_OF_LIGHT_CM_PER_S",
    "OscillatorParams",
    "LorentzMediumParams",
    "TwoLevelParams",
    "KineticMediumParams",
    "PhotonParams",
    "mean_delay",
    "group_index_coefficient",
    "cross_section_tau2",
]

CLASSICAL_ELECTRON_RADIUS_CM = 2.81794e-13
SPEED_OF_LIGHT_CM_PER_S = 2.9979e10


@dataclass(frozen=True)
class OscillatorParams:
    """Damped-oscillator resonance: position omega0 and full damping gamma."""

    omega0: float
    gamma: float

    def __post_init__(self):
        if not (self.omega0 > 0 and np.isfinite(self.omega0)):
            raise ValueError("omega0 must be positive and finite")
        if not (0 < self.gamma < 2 * self.omega0):
            raise ValueError("gamma must satisfy 0 < gamma < 2 omega0")

    @property
    def omega1(self) -> float:
        """Shifted resonance position sqrt(omega0^2 - gamma^2/4)."""
        return float(np.sqrt(self.omega0**2 - 0.25 * self.gamma**2))

    def response(self) -> RationalResponse:
        """-1/(2 pi) times two simple poles at +-omega1 - i gamma/2."""
        poles = (self.omega1 - 0.5j * self.gamma, -self.omega1 - 0.5j * self.gamma)
        return RationalResponse(-1.0 / (2.0 * np.pi), tuple((p, 1, -1) for p in poles))


@dataclass(frozen=True)
class LorentzMediumParams:
    plasma_frequency: float
    oscillator: OscillatorParams

    def __post_init__(self):
        if not (self.plasma_frequency > 0 and np.isfinite(self.plasma_frequency)):
            raise ValueError("plasma_frequency must be positive and finite")

    def response(self) -> RationalResponse:
        """The oscillator's response: chi(omega) up to a constant factor,
        which S(omega) / S(omega_first) cancels."""
        return self.oscillator.response()


@dataclass(frozen=True)
class TwoLevelParams:
    """Resonance with total width gamma and partial width gamma0, on the
    "lower" (retarded) or "upper" (advanced) branch."""

    omega0: float
    gamma: float
    gamma0: float = 0.0
    branch: str = "lower"

    def __post_init__(self):
        if self.branch not in ("upper", "lower"):
            raise ValueError("branch must be 'upper' or 'lower'")
        if not (self.omega0 > 0 and np.isfinite(self.omega0)):
            raise ValueError("omega0 must be positive and finite")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if not (0 <= self.gamma0 <= self.gamma):
            raise ValueError("gamma0 must satisfy 0 <= gamma0 <= gamma")

    def response(self) -> RationalResponse:
        """(omega - omega0 - +i gamma/2)**(+-1/pi), upper sign on the "upper"
        branch: its tau is the propagator 1/[pi (gamma/2 +- i(omega - omega0))]."""
        sign = 1.0 if self.branch == "upper" else -1.0
        return RationalResponse(1.0, ((self.omega0 + 0.5j * sign * self.gamma, 1, sign / np.pi),))


@dataclass(frozen=True)
class KineticMediumParams:
    """Dilute-medium kinetics: density in cm^-3, wavenumber in cm^-1,
    resonance width in s^-1."""

    electron_density: float
    wavenumber: float
    width: float

    def __post_init__(self):
        if self.electron_density < 0:
            raise ValueError("electron_density must be non-negative")
        if not (self.wavenumber > 0 and self.width > 0):
            raise ValueError("wavenumber and width must be positive")


@dataclass(frozen=True)
class PhotonParams:
    """Driven photon mode: spatial frequency magnitude and damping eta."""

    k_abs: float
    eta: float

    def __post_init__(self):
        if self.k_abs < 0:
            raise ValueError("k_abs must be non-negative")
        if self.eta <= 0:
            raise NonPositiveEta("eta must be positive")

    def response(self) -> RationalResponse:
        """4 pi / (omega^2 - k^2 + i eta) as one factor of degree 2: two poles
        at the rounded roots +-sqrt(k^2 - i eta) would leave tau2 far from
        zero on the shell omega = k when eta is small."""
        return RationalResponse(4.0 * np.pi, ((self.k_abs**2 - 1j * self.eta, 2, -1),))


def mean_delay(params: KineticMediumParams) -> float:
    """Resonant dwell estimate 2 k r0 / Gamma in seconds."""
    return 2.0 * params.wavenumber * CLASSICAL_ELECTRON_RADIUS_CM / params.width


def group_index_coefficient(params: KineticMediumParams) -> float:
    """Density coefficient of the group index, in cm^3."""
    return (
        SPEED_OF_LIGHT_CM_PER_S
        * 4.0
        * np.pi
        * CLASSICAL_ELECTRON_RADIUS_CM**2
        / params.width
    )


def cross_section_tau2(sigma_samples: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Formation time from the logarithmic slope of a cross-section.

    tau2 = -(1/2) d ln sigma / d E.  Multiplicative factors in sigma are
    additive here, so overall normalisation drops out.

    Raises:
        NonPositiveCrossSection: any sample is not strictly positive.
    """
    sigma = np.asarray(sigma_samples, dtype=float)
    if sigma.shape != (len(grid),):
        raise ValueError("cross-section samples must match the grid")
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise NonPositiveCrossSection("cross-section must be finite and positive")
    return -0.5 * differentiate(grid.values, np.log(sigma), order=2)

