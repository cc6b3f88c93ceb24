"""Oscillator, dilute medium, two-level, kinetic, photon, radiation ops."""

import numpy as np
import pytest

from tauspec import fileio
from tauspec.core import FrequencyGrid
from tauspec.errors import (
    BelowMassShell,
    DegenerateFrequency,
    EnergyMismatch,
    NonPositiveCrossSection,
    NonPositiveEta,
    NonPositiveFrequency,
)
from tauspec.physics import (
    CLASSICAL_ELECTRON_RADIUS_CM,
    SPEED_OF_LIGHT_CM_PER_S,
    KineticMediumParams,
    LorentzMediumParams,
    OscillatorParams,
    PhotonParams,
    TwoLevelParams,
    breit_wigner_tau,
    bremsstrahlung_formation,
    cross_section_tau2,
    group_index,
    group_index_coefficient,
    lorentz_medium,
    mean_delay,
    medium_inequality,
    oscillator_green,
    oscillator_tau,
    photon_response,
    photon_tau,
    resolvent_delay,
    resolvent_delay_sum,
)

OSC = OscillatorParams(omega0=1.0, gamma=0.2)
# The grid of the generic-against-closed-form checks: 120,001 nodes.
WIDE = FrequencyGrid.linspace(0.05, 3.0, 120001)


# Hand-written closed forms, the references of the generic rational
# response: they share no code with tauspec.
def oscillator_reference(params, om):
    """(G, tau1, tau2) of the damped oscillator, written out: with
    D-+ = (omega -+ omega1)^2 + gamma^2/4, each pole gives a Lorentzian
    delay and an antisymmetric formation term."""
    w1, half = params.omega1, 0.5 * params.gamma
    green = -1.0 / (2.0 * np.pi * (om - w1 + 1j * half) * (om + w1 + 1j * half))
    d_minus, d_plus = (om - w1) ** 2 + half**2, (om + w1) ** 2 + half**2
    tau1 = half * (1.0 / d_minus + 1.0 / d_plus)
    tau2 = (om - w1) / d_minus + (om + w1) / d_plus
    return green, tau1, tau2


def photon_reference(om, k_abs, eta):
    """(S, tau1, tau2) of the driven photon mode 4 pi / (omega^2 - k^2 + i eta)."""
    u = om**2 - k_abs**2
    den = u**2 + eta**2
    return 4.0 * np.pi / (u + 1j * eta), 2.0 * om * eta / den, 2.0 * om * u / den


def assert_matches_reference(got, want):
    """Each of S, tau1 and tau2 agrees to 1e-15 of the largest |S| or |tau|."""
    (s, tau1, tau2), (s_ref, tau1_ref, tau2_ref) = got, want
    assert np.max(np.abs(s - s_ref)) <= 1e-15 * np.max(np.abs(s_ref))
    scale = np.max(np.abs(tau1_ref + 1j * tau2_ref))
    assert np.max(np.abs(tau1 - tau1_ref)) <= 1e-15 * scale
    assert np.max(np.abs(tau2 - tau2_ref)) <= 1e-15 * scale


def sample(kind, params, grid):
    """(S, tau1, tau2) of a model kind's sampler, as the model verb takes it."""
    return fileio.ModelDocument(kind, params).sample(grid)


class TestOscillator:
    def test_static_limit(self):
        assert oscillator_green(OSC, 0.0) == pytest.approx(1.0 / (2.0 * np.pi))

    def test_resonant_magnitude(self):
        g = oscillator_green(OSC, OSC.omega1)
        assert abs(g) == pytest.approx(0.798776, abs=1e-6)
        assert abs(g) == pytest.approx(0.79893, abs=1e-3)

    def test_tau_at_resonance(self):
        tau1, tau2 = oscillator_tau(OSC, OSC.omega1)
        assert tau1 == pytest.approx(10.0251889, abs=1e-6)
        assert tau2 == pytest.approx(0.50125312, abs=1e-7)

    def test_shifted_center(self):
        assert OSC.omega1 == pytest.approx(np.sqrt(1.0 - 0.01))

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            OscillatorParams(omega0=1.0, gamma=2.5)
        with pytest.raises(ValueError):
            OscillatorParams(omega0=1.0, gamma=0.0)

    @pytest.mark.parametrize("path", ["functions", "sampler"])
    @pytest.mark.parametrize("gamma", [1e-3, 0.2, 1.5])
    def test_generic_response_matches_closed_form(self, path, gamma):
        params = OscillatorParams(omega0=1.0, gamma=gamma)
        x = WIDE.values
        if path == "functions":
            got = (oscillator_green(params, x), *oscillator_tau(params, x))
        else:
            got = sample("oscillator", params, WIDE)
        assert_matches_reference(got, oscillator_reference(params, x))

    def test_narrow_resonance_single_pole_limit(self):
        """At gamma = 1e-3 the sharp factor dominates: tau2 ~ 1/(w - w1)."""
        params = OscillatorParams(omega0=1.0, gamma=1e-3)
        om = params.omega1 + 0.01
        _, tau2 = oscillator_tau(params, om)
        assert abs(tau2 - 100.0) / 100.0 < 5e-3


class TestLorentzMedium:
    PARAMS = LorentzMediumParams(plasma_frequency=1.0, oscillator=OSC)

    def test_dispersion_vanishes_on_resonance(self):
        eps1_minus_1, _ = lorentz_medium(self.PARAMS, 1.0)
        assert eps1_minus_1 == 0.0

    def test_resonant_cross_section(self):
        _, sigma = lorentz_medium(self.PARAMS, 1.0)
        assert sigma == pytest.approx(1.0 / (2.0 * np.pi * 0.2**3), rel=1e-12)
        assert sigma == pytest.approx(19.894368, abs=1e-6)

    def test_far_wing_ratios(self):
        """Far above resonance the medium quantities track the sharp factor.

        Dropping the antiresonant term of oscillator_tau leaves
        (eps1 - 1)/tau2 ~ -wp^2/(2w) and sigma_el/tau1 ~ wp^2/(4 pi gamma^2),
        both within ten percent at w = 2 w0.
        """
        om = 2.0
        eps1_minus_1, sigma = lorentz_medium(self.PARAMS, om)
        tau1, tau2 = oscillator_tau(OSC, om)
        d_plus = (om + OSC.omega1) ** 2 + 0.25 * OSC.gamma**2
        tau1_near = tau1 - 0.5 * OSC.gamma / d_plus
        tau2_near = tau2 - (om + OSC.omega1) / d_plus
        assert abs(eps1_minus_1 / tau2_near) == pytest.approx(
            1.0 / (2.0 * om), rel=0.1
        )
        assert sigma / tau1_near == pytest.approx(
            1.0 / (4.0 * np.pi * 0.2**2), rel=0.1
        )

    def test_needs_positive_frequency(self):
        with pytest.raises(NonPositiveFrequency):
            lorentz_medium(self.PARAMS, 0.0)

    def test_inequality_below_resonance(self):
        params = LorentzMediumParams(
            plasma_frequency=1.0,
            oscillator=OscillatorParams(omega0=1.0, gamma=0.05),
        )
        res = medium_inequality(params, 0.2)
        assert res.satisfied
        assert res.in_regime
        assert res.rhs == pytest.approx(5.0)
        assert res.lhs < res.rhs

    def test_inequality_flags_anomalous_window(self):
        params = LorentzMediumParams(
            plasma_frequency=1.0,
            oscillator=OscillatorParams(omega0=1.0, gamma=0.05),
        )
        res = medium_inequality(params, 0.97)
        assert not res.in_regime

    def test_inequality_scan_in_window(self):
        params = LorentzMediumParams(plasma_frequency=1.0, oscillator=OSC)
        for om in np.linspace(0.05, 0.95, 19):
            res = medium_inequality(params, float(om))
            if res.in_regime:
                assert res.satisfied

    def test_inequality_needs_positive_frequency(self):
        with pytest.raises(NonPositiveFrequency):
            medium_inequality(self.PARAMS, -1.0)


class TestBreitWigner:
    def test_resonance_peak(self):
        params = TwoLevelParams(omega0=5.0, gamma=0.2)
        tau1, tau2 = breit_wigner_tau(params, 5.0)
        assert tau1 == pytest.approx(2.0 / (np.pi * 0.2))
        assert tau1 == pytest.approx(3.18310, abs=1e-5)
        assert tau2 == 0.0

    def test_branch_flips_formation_sign(self):
        params = TwoLevelParams(omega0=5.0, gamma=0.2)
        _, lower = breit_wigner_tau(params, 5.3, branch="lower")
        _, upper = breit_wigner_tau(params, 5.3, branch="upper")
        assert lower == pytest.approx(-upper)
        assert lower > 0

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            breit_wigner_tau(TwoLevelParams(5.0, 0.2), 5.0, branch="middle")

    def test_delay_integral_normalisation(self):
        """Both branch delays together integrate to 2 over a wide window."""
        params = TwoLevelParams(omega0=5.0, gamma=0.5)
        om = np.linspace(5.0 - 25.0, 5.0 + 25.0, 200001)
        t_lo, _ = breit_wigner_tau(params, om, branch="lower")
        t_up, _ = breit_wigner_tau(params, om, branch="upper")
        total = np.trapezoid(t_lo + t_up, om)
        assert total == pytest.approx(2.0, rel=0.02)

    def test_width_ordering(self):
        with pytest.raises(ValueError):
            TwoLevelParams(omega0=5.0, gamma=0.2, gamma0=0.5)


class TestResolvent:
    PARAMS = TwoLevelParams(omega0=5.0, gamma=0.2, gamma0=0.1)

    def test_peak_value(self):
        assert resolvent_delay(self.PARAMS, 5.0) == pytest.approx(10.0 + 0j)

    def test_far_tail_sign_and_scale(self):
        x = 45.0
        out = resolvent_delay(self.PARAMS, 5.0 + x)
        assert out.real == pytest.approx(-(0.2 - 0.1) / (2.0 * x**2), rel=1e-2)

    def test_requires_partial_width(self):
        with pytest.raises(ValueError):
            resolvent_delay(TwoLevelParams(5.0, 0.2), 5.0)

    def test_sum_is_additive(self):
        other = TwoLevelParams(omega0=7.0, gamma=0.4, gamma0=0.2)
        total = resolvent_delay_sum([self.PARAMS, other], 6.0)
        parts = resolvent_delay(self.PARAMS, 6.0) + resolvent_delay(other, 6.0)
        assert total == pytest.approx(parts)

    @pytest.mark.parametrize("energy", [6.0, np.array([5.0, 6.0])])
    def test_sum_of_no_levels_is_zeros_of_the_energy_shape(self, energy):
        total = resolvent_delay_sum([], energy)
        if np.ndim(energy):
            assert total.dtype == complex and np.array_equal(total, np.zeros(2))
        else:
            assert type(total) is complex and total == 0


class TestKinetics:
    PARAMS = KineticMediumParams(
        electron_density=2.69e19, wavenumber=6.3e4, width=1e8
    )

    def test_mean_delay_scale(self):
        value = mean_delay(self.PARAMS)
        assert value == pytest.approx(
            2.0 * 6.3e4 * CLASSICAL_ELECTRON_RADIUS_CM / 1e8, rel=1e-12
        )
        assert 1e-16 < value < 1e-15

    def test_group_index_coefficient(self):
        coeff = group_index_coefficient(self.PARAMS)
        expected = (
            SPEED_OF_LIGHT_CM_PER_S
            * 4.0
            * np.pi
            * CLASSICAL_ELECTRON_RADIUS_CM**2
            / 1e8
        )
        assert coeff == pytest.approx(expected, rel=1e-12)
        assert coeff == pytest.approx(3e-22, rel=0.2)

    def test_group_index_excess(self):
        assert group_index(self.PARAMS) - 1.0 == pytest.approx(8.047e-3, rel=1e-3)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            KineticMediumParams(electron_density=-1.0, wavenumber=1.0, width=1.0)
        with pytest.raises(ValueError):
            KineticMediumParams(electron_density=1.0, wavenumber=0.0, width=1.0)


class TestPhoton:
    def test_mass_shell_limits(self):
        """Both sides of the shell give 2 omega / (omega^2 - k^2) -> +-4/3."""
        eta = 1e-8
        _, above = photon_tau(2.0, 1.0, eta)
        _, below = photon_tau(0.5, 1.0, eta)
        assert abs(above - 4.0 / 3.0) < 1e-6
        assert abs(below + 4.0 / 3.0) < 1e-6

    def test_sign_flips_on_shell(self):
        eta = 1e-3
        _, on_shell = photon_tau(1.0, 1.0, eta)
        assert on_shell == 0.0
        _, lo = photon_tau(1.0 - 1e-9, 1.0, eta)
        _, hi = photon_tau(1.0 + 1e-9, 1.0, eta)
        assert lo < 0 < hi

    @pytest.mark.parametrize("path", ["functions", "sampler"])
    @pytest.mark.parametrize("eta", [1e-8, 1e-2, 1.0])
    def test_generic_response_matches_closed_form(self, path, eta):
        x = WIDE.values
        if path == "functions":
            got = (photon_response(x, 1.3, eta), *photon_tau(x, 1.3, eta))
        else:
            got = sample("photon", PhotonParams(1.3, eta), WIDE)
        assert_matches_reference(got, photon_reference(x, 1.3, eta))

    @pytest.mark.parametrize("path", ["functions", "sampler"])
    @pytest.mark.parametrize("eta", [1e-12, 1e-8, 1e-3, 1.0])
    def test_formation_is_zero_on_shell_and_flips_sign(self, path, eta):
        """tau2 is +0.0 at omega = k, which the csv writes as 0.000000000000e+00,
        and changes sign 1e-9 to either side."""
        om = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        if path == "functions":
            _, tau2 = photon_tau(om, 1.0, eta)
        else:
            _, _, tau2 = sample("photon", PhotonParams(1.0, eta), FrequencyGrid(om))
        assert tau2[1] == 0.0 and not np.signbit(tau2[1])
        assert tau2[0] < 0.0 < tau2[2]

    def test_response_pole_structure(self):
        out = photon_response(2.0, 1.0, 1e-2)
        assert out == pytest.approx(4.0 * np.pi / (3.0 + 1e-2j))

    def test_positive_eta_required(self):
        with pytest.raises(NonPositiveEta):
            photon_tau(1.0, 1.0, 0.0)
        with pytest.raises(NonPositiveEta):
            photon_response(1.0, 1.0, -1e-3)
        with pytest.raises(NonPositiveEta):
            PhotonParams(k_abs=1.0, eta=0.0)

    def test_delay_integral_approaches_half_circle(self):
        """Integral of tau1 over all omega > 0 tends to pi/2 + atan(k^2/eta)."""
        eta = 1e-3
        k = 1.0
        pieces = [
            np.arange(0.0, 0.9, 1e-3),
            np.arange(0.9, 1.1, 1e-6),
            np.arange(1.1, 20.0 + 1e-9, 1e-3),
        ]
        om = np.unique(np.concatenate(pieces))
        tau1, _ = photon_tau(om, k, eta)
        total = np.trapezoid(tau1, om)
        expected = 0.5 * np.pi + np.arctan(k**2 / eta)
        assert total == pytest.approx(expected, rel=1e-5)


class TestCrossSectionRule:
    def test_rutherford_slope(self):
        grid = FrequencyGrid.linspace(1.0, 4.0, 601)
        sigma = grid.values**-2.0
        tau2 = cross_section_tau2(sigma, grid)
        ref = 1.0 / grid.values
        assert np.max(np.abs(tau2 - ref) / ref) < 1e-3

    def test_compton_slope(self):
        m = 1.0
        grid = FrequencyGrid.linspace(0.05, 0.25, 401)
        sigma = 1.0 / (m * grid.values**2) * (1.0 - 2.0 * grid.values / m)
        tau2 = cross_section_tau2(sigma, grid)
        at = np.searchsorted(grid.values, 0.1)
        expected = 1.0 / grid.values + 1.0 / (m * (1.0 - 2.0 * grid.values / m))
        assert tau2[at] == pytest.approx(expected[at], rel=1e-4)

    def test_normalisation_drops_out(self):
        grid = FrequencyGrid.linspace(1.0, 2.0, 101)
        sigma = np.exp(-grid.values)
        a = cross_section_tau2(sigma, grid)
        b = cross_section_tau2(137.0 * sigma, grid)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_multiplicative_additivity(self):
        grid = FrequencyGrid.linspace(1.0, 2.0, 101)
        f = grid.values**-1.5
        g = np.exp(-0.3 * grid.values)
        combined = cross_section_tau2(f * g, grid)
        parts = cross_section_tau2(f, grid) + cross_section_tau2(g, grid)
        np.testing.assert_allclose(combined, parts, atol=1e-8)

    def test_positive_samples_required(self):
        grid = FrequencyGrid.linspace(1.0, 2.0, 11)
        bad = np.ones(11)
        bad[4] = 0.0
        with pytest.raises(NonPositiveCrossSection):
            cross_section_tau2(bad, grid)


class TestBremsstrahlung:
    def test_ultrarelativistic_collapse(self):
        out = bremsstrahlung_formation(50.0, 49.0, 1.0, 1.0)
        assert out.regime == "ultra"
        assert out.tau2 == pytest.approx(5000.0)
        assert out.rho2 == pytest.approx(5000.0)

    def test_transverse_displacement(self):
        out = bremsstrahlung_formation(50.0, 49.0, 1.0, 1.0, theta=0.01)
        assert out.rho_perp == pytest.approx(1.0)

    def test_moderate_regime(self):
        out = bremsstrahlung_formation(3.0, 2.0, 1.0, 1.0)
        assert out.regime == "moderate"
        assert out.tau2 == pytest.approx(1.0)
        k = np.sqrt(8.0)
        k_prime = np.sqrt(3.0)
        expected = k_prime / 3.0 + 0.5 * (k_prime - k) / 7.0
        assert out.rho2 == pytest.approx(expected)

    def test_energy_balance_enforced(self):
        with pytest.raises(EnergyMismatch):
            bremsstrahlung_formation(50.0, 49.0, 1.5, 1.0)

    def test_frequency_and_shell_guards(self):
        with pytest.raises(DegenerateFrequency):
            bremsstrahlung_formation(50.0, 50.0, 0.0, 1.0)
        with pytest.raises(BelowMassShell):
            bremsstrahlung_formation(1.2, 0.2, 1.0, 1.0)
