"""Closed-form temporal functions for standard physical systems.

Damped oscillator response, Lorentz medium observables, Breit-Wigner
resonances, resolvent-difference delays, kinetic estimates for a dilute
medium, the driven photon mode, and radiation formation lengths.  All
formulas are analytic; no grids or transforms are involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._stencils import differentiate
from .core import FrequencyGrid, RationalResponse, _pointwise
from .errors import (
    BelowMassShell,
    DegenerateFrequency,
    EnergyMismatch,
    NonPositiveCrossSection,
    NonPositiveEta,
    NonPositiveFrequency,
)

__all__ = [
    "CLASSICAL_ELECTRON_RADIUS_CM",
    "SPEED_OF_LIGHT_CM_PER_S",
    "OscillatorParams",
    "LorentzMediumParams",
    "TwoLevelParams",
    "KineticMediumParams",
    "PhotonParams",
    "MediumInequalityResult",
    "FormationSummary",
    "oscillator_green",
    "oscillator_tau",
    "lorentz_medium",
    "medium_inequality",
    "breit_wigner_tau",
    "resolvent_delay",
    "resolvent_delay_sum",
    "mean_delay",
    "group_index",
    "group_index_coefficient",
    "photon_response",
    "photon_tau",
    "cross_section_tau2",
    "bremsstrahlung_formation",
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


@dataclass(frozen=True)
class TwoLevelParams:
    """Resonance with total width gamma and partial width gamma0."""

    omega0: float
    gamma: float
    gamma0: float = 0.0

    def __post_init__(self):
        if not (self.omega0 > 0 and np.isfinite(self.omega0)):
            raise ValueError("omega0 must be positive and finite")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if not (0 <= self.gamma0 <= self.gamma):
            raise ValueError("gamma0 must satisfy 0 <= gamma0 <= gamma")


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


@dataclass(frozen=True)
class MediumInequalityResult:
    lhs: float
    rhs: float
    satisfied: bool
    in_regime: bool


class FormationSummary(NamedTuple):
    tau2: float
    rho2: float
    rho_perp: float
    regime: str


def oscillator_green(params: OscillatorParams, omega):
    """Frequency response of the damped oscillator.

    G(omega) = -1 / [2 pi (omega - omega1 + i gamma/2)
                        (omega + omega1 + i gamma/2)]
    """
    return params.response().values(omega)


def oscillator_tau(params: OscillatorParams, omega):
    """Delay and formation times (tau1, tau2) of the damped oscillator
    response, floats or arrays matching ``omega``: each pole gives a
    Lorentzian delay and an antisymmetric formation term."""
    tau = params.response().tau(np.asarray(omega, dtype=float))
    return tau.real, tau.imag


def lorentz_medium(params: LorentzMediumParams, omega):
    """Dispersive permittivity offset and elastic cross-section.

    eps1 - 1 = wp^2 (omega0 - omega) / (2 omega [(omega0-omega)^2 + gamma^2/4])
    sigma_el = wp^2 / (8 pi gamma [(omega0-omega)^2 + gamma^2/4])

    Raises:
        NonPositiveFrequency: omega <= 0 somewhere.
    """
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0):
        raise NonPositiveFrequency("lorentz_medium needs omega > 0")
    osc = params.oscillator
    wp2 = params.plasma_frequency**2
    detune = osc.omega0 - om
    den = detune**2 + 0.25 * osc.gamma**2
    eps1_minus_1 = wp2 * detune / (2.0 * om * den)
    sigma_el = wp2 / (8.0 * np.pi * osc.gamma * den)
    return _pointwise(omega, eps1_minus_1, sigma_el)


def medium_inequality(params: LorentzMediumParams, omega: float) -> MediumInequalityResult:
    """Below-resonance bound tau1 + tau2 < 1/omega for the dilute medium.

    Only the oscillator block of ``params`` enters; the bound is
    meaningful well below resonance and ``in_regime`` records whether
    omega < omega0 - 5 gamma.  No exception is raised outside the
    window, the flags just say so.
    """
    if omega <= 0:
        raise NonPositiveFrequency("medium_inequality needs omega > 0")
    osc = params.oscillator
    tau1, tau2 = oscillator_tau(osc, omega)
    lhs = tau1 + tau2
    rhs = 1.0 / omega
    in_regime = omega < osc.omega0 - 5.0 * osc.gamma
    return MediumInequalityResult(
        lhs=float(lhs), rhs=float(rhs), satisfied=bool(lhs < rhs), in_regime=in_regime
    )


def breit_wigner_tau(params: TwoLevelParams, omega, branch: str = "lower"):
    """Temporal functions of a single Breit-Wigner resonance factor.

    The response 1/[pi (gamma/2 +- i(omega - omega0))] gives

        tau1 = (gamma/2) / (pi D)          (both branches)
        tau2 = -+ (omega - omega0) / (pi D)

    where D = (omega - omega0)^2 + gamma^2/4.  The "upper" branch puts
    the pole in the upper half-plane (advanced), the "lower" branch is
    the retarded one.
    """
    if branch not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    om = np.asarray(omega, dtype=float)
    detune = om - params.omega0
    den = np.pi * (detune**2 + 0.25 * params.gamma**2)
    tau1 = 0.5 * params.gamma / den
    tau2 = -detune / den if branch == "upper" else detune / den
    return _pointwise(omega, tau1, tau2)


def resolvent_delay(params: TwoLevelParams, energy):
    """Delay shift from swapping the total width for the partial one.

    Delta tau(E) = i [ 1/(E - E0 - i gamma/2) - 1/(E - E0 - i gamma0/2) ]

    Positive at resonance: the broader level is traversed faster.
    """
    if params.gamma0 <= 0:
        raise ValueError("resolvent_delay needs a positive gamma0")
    e = np.asarray(energy, dtype=complex)
    out = 1j * (
        1.0 / (e - params.omega0 - 0.5j * params.gamma)
        - 1.0 / (e - params.omega0 - 0.5j * params.gamma0)
    )
    return _pointwise(energy, out)


def resolvent_delay_sum(params_seq, energy):
    """Sum of resolvent delay shifts over independent levels; zeros of the
    shape of ``energy`` when there are none."""
    total = np.zeros(np.shape(energy), complex)
    for params in params_seq:
        total += resolvent_delay(params, energy)
    return _pointwise(energy, total)


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


def group_index(params: KineticMediumParams) -> float:
    """Group index 1 + c N 4 pi r0^2 / Gamma of the dilute medium."""
    return 1.0 + group_index_coefficient(params) * params.electron_density


def photon_response(omega, k_abs: float, eta: float):
    """Driven-mode response 4 pi / (omega^2 - k^2 + i eta); only k^2 enters."""
    return PhotonParams(abs(k_abs), eta).response().values(omega)


def photon_tau(omega, k_abs: float, eta: float):
    """Temporal functions (tau1, tau2) of the driven photon mode.

    tau2 changes sign where omega crosses |k| and is exactly zero there;
    as eta -> 0 the tau1 peak narrows onto the mass shell.

    Raises:
        NonPositiveEta: eta <= 0.
    """
    tau = PhotonParams(abs(k_abs), eta).response().tau(np.asarray(omega, dtype=float))
    return tau.real, tau.imag


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


def bremsstrahlung_formation(
    epsilon: float,
    epsilon_prime: float,
    omega: float,
    mass: float,
    theta: float = 0.0,
) -> FormationSummary:
    """Formation time and lengths for radiating a photon of energy omega.

    Energies must balance: epsilon = epsilon_prime + omega.  In the
    moderate regime the formation time is the photon period scale 1/omega
    and the length follows the momentum balance

        rho2 = k'/(epsilon omega) + (k' - k) / (2 (epsilon epsilon' + m^2))

    with k = sqrt(epsilon^2 - m^2).  In the ultrarelativistic regime
    (both energies at least 10 m) time and length collapse onto

        tau2 = rho2 = 2 epsilon (epsilon' + omega) / (m^2 omega)

    and the transverse displacement rho_perp = 2 epsilon theta / m^2 is
    reported for the emission angle theta in both regimes.

    Raises:
        EnergyMismatch: energies do not balance to 1e-9.
        BelowMassShell: a lepton energy is below its mass.
        DegenerateFrequency: omega <= 0.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    if abs(epsilon - epsilon_prime - omega) > 1e-9:
        raise EnergyMismatch("epsilon must equal epsilon_prime + omega")
    if omega <= 0:
        raise DegenerateFrequency("omega must be positive")
    if epsilon < mass or epsilon_prime < mass:
        raise BelowMassShell("lepton energies must be at least the mass")
    rho_perp = 2.0 * epsilon * theta / mass**2
    ultra = (epsilon / mass >= 10.0) and (epsilon_prime / mass >= 10.0)
    if ultra:
        tau2 = 2.0 * epsilon * (epsilon_prime + omega) / (mass**2 * omega)
        return FormationSummary(tau2, tau2, rho_perp, "ultra")
    k = float(np.sqrt(epsilon**2 - mass**2))
    k_prime = float(np.sqrt(epsilon_prime**2 - mass**2))
    tau2 = 1.0 / omega
    rho2 = k_prime / (epsilon * omega) + 0.5 * (k_prime - k) / (
        epsilon * epsilon_prime + mass**2
    )
    return FormationSummary(tau2, rho2, rho_perp, "moderate")
