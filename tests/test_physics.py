"""Oscillator, Lorentz medium, two-level, kinetic, photon and cross-section ops."""

import numpy as np
import pytest

from tauspec import cli, fileio
from tauspec.core import FrequencyGrid, reconstruct
from tauspec.errors import NonPositiveCrossSection, NonPositiveEta
from tauspec.physics import (
    CLASSICAL_ELECTRON_RADIUS_CM,
    SPEED_OF_LIGHT_CM_PER_S,
    KineticMediumParams,
    LorentzMediumParams,
    OscillatorParams,
    PhotonParams,
    TwoLevelParams,
    cross_section_tau2,
    group_index_coefficient,
    mean_delay,
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


def breit_wigner_reference(params, om):
    """(S normalised at om[0], tau) of one Breit-Wigner level, written out:
    S = ((omega - r) / (omega_first - r))**p with r = omega0 +- i gamma/2
    and p = +-1/pi, and the propagator tau = 1/(pi (gamma/2 +- i Delta)),
    Delta = omega - omega0, the upper sign on the "upper" branch."""
    sign = 1.0 if params.branch == "upper" else -1.0
    root = complex(params.omega0, sign * 0.5 * params.gamma)
    values = ((om - root) / (om[0] - root)) ** (sign / np.pi)
    return values, 1.0 / (np.pi * (0.5 * params.gamma + 1j * sign * (om - params.omega0)))


def assert_matches_reference(got, want):
    """Each of S, tau1 and tau2 agrees to 1e-15 of the largest |S| or |tau|."""
    (s, tau1, tau2), (s_ref, tau1_ref, tau2_ref) = got, want
    assert np.max(np.abs(s - s_ref)) <= 1e-15 * np.max(np.abs(s_ref))
    scale = np.max(np.abs(tau1_ref + 1j * tau2_ref))
    assert np.max(np.abs(tau1 - tau1_ref)) <= 1e-15 * scale
    assert np.max(np.abs(tau2 - tau2_ref)) <= 1e-15 * scale


def sample(kind, params, grid):
    """(S, tau1, tau2) of a model kind's sampler, as the model verb splits it."""
    values, tau = fileio.ModelDocument(kind, params).sample(grid)
    return values, tau.real, tau.imag


def response_tables(params, x):
    """(S, tau1, tau2) of ``params.response()`` at ``x``."""
    response = params.response()
    tau = response.tau(x)
    return response.values(x), tau.real, tau.imag


class TestOscillator:
    def test_static_limit(self):
        assert OSC.response().values(0.0) == pytest.approx(1.0 / (2.0 * np.pi))

    def test_resonant_magnitude(self):
        g = OSC.response().values(OSC.omega1)
        assert abs(g) == pytest.approx(0.798776, abs=1e-6)
        assert abs(g) == pytest.approx(0.79893, abs=1e-3)

    def test_tau_at_resonance(self):
        tau = OSC.response().tau(OSC.omega1)
        assert tau.real == pytest.approx(10.0251889, abs=1e-6)
        assert tau.imag == pytest.approx(0.50125312, abs=1e-7)

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
            got = response_tables(params, x)
        else:
            got = sample("oscillator", params, WIDE)
        assert_matches_reference(got, oscillator_reference(params, x))

    def test_narrow_resonance_single_pole_limit(self):
        """At gamma = 1e-3 the sharp factor dominates: tau2 ~ 1/(w - w1)."""
        params = OscillatorParams(omega0=1.0, gamma=1e-3)
        om = params.omega1 + 0.01
        tau2 = params.response().tau(om).imag
        assert abs(tau2 - 100.0) / 100.0 < 5e-3


class TestLorentz:
    def test_sampler_matches_normalised_closed_form(self):
        """S is chi(omega)/chi(omega_first) = G/G[0] to 1e-13 at 120,001
        nodes, and tau is the oscillator's, bit for bit."""
        params = LorentzMediumParams(2.0, OscillatorParams(1.5, 0.3))
        values, tau1, tau2 = sample("lorentz", params, WIDE)
        green = oscillator_reference(params.oscillator, WIDE.values)[0]
        assert np.max(np.abs(values / (green / green[0]) - 1.0)) <= 1e-13
        tau = params.oscillator.response().tau(WIDE.values)
        assert np.array_equal(tau1, tau.real) and np.array_equal(tau2, tau.imag)

    def test_plasma_frequency_cancels(self):
        grid = FrequencyGrid.linspace(0.5, 2.5, 201)
        one, three = (sample("lorentz", LorentzMediumParams(wp, OSC), grid) for wp in (1.0, 3.0))
        assert all(np.array_equal(a, b) for a, b in zip(one, three))

    def test_far_grid_is_finite(self):
        """Each factor's ratio is near 1 at 1e200, where chi underflows."""
        grid = FrequencyGrid.linspace(1e200, 2e200, 11)
        values, tau1, tau2 = sample("lorentz", LorentzMediumParams(1.0, OSC), grid)
        assert all(np.isfinite(a).all() for a in (values, tau1, tau2))
        assert values[0] == 1.0 and values[-1] == pytest.approx(0.25, rel=1e-15)


class TestBreitWigner:
    def test_resonance_peak(self):
        params = TwoLevelParams(omega0=5.0, gamma=0.2)
        tau = params.response().tau(5.0)
        assert tau.real == pytest.approx(2.0 / (np.pi * 0.2))
        assert tau.real == pytest.approx(3.18310, abs=1e-5)
        assert tau.imag == 0.0

    def test_branch_flips_formation_sign(self):
        lower = TwoLevelParams(5.0, 0.2, branch="lower").response().tau(5.3).imag
        upper = TwoLevelParams(5.0, 0.2, branch="upper").response().tau(5.3).imag
        assert lower == pytest.approx(-upper)
        assert lower > 0

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    @pytest.mark.parametrize("gamma", [1e-3, 0.2])
    def test_tau_is_the_propagator(self, branch, gamma):
        """The 1/pi-power factor's tau is 1/(pi (gamma/2 +- i Delta)) to 1e-15."""
        params = TwoLevelParams(1.5, gamma, branch=branch)
        want = breit_wigner_reference(params, WIDE.values)[1]
        np.testing.assert_allclose(params.response().tau(WIDE.values), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_sampler_matches_normalised_closed_form(self, branch):
        """S is ((omega - r)/(omega_first - r))**p to 1e-13 at 120,001 nodes,
        and tau is the response's, bit for bit."""
        params = TwoLevelParams(1.5, 0.2, 0.1, branch)
        values, tau1, tau2 = sample("breit_wigner", params, WIDE)
        want = breit_wigner_reference(params, WIDE.values)[0]
        np.testing.assert_allclose(values, want, rtol=1e-13, atol=0)
        tau = params.response().tau(WIDE.values)
        assert np.array_equal(tau1, tau.real) and np.array_equal(tau2, tau.imag)

    @pytest.mark.parametrize("path", ["function", "sampler"])
    def test_tau2_vanishes_at_omega0(self, path):
        """tau2 = -+(omega - omega0)/(pi D) is zero at omega0 on both branches."""
        om = np.array([9.9, 10.0, 10.1])
        for branch in ("upper", "lower"):
            params = TwoLevelParams(10.0, 0.2, branch=branch)
            if path == "function":
                tau2 = params.response().tau(om).imag
            else:
                tau2 = sample("breit_wigner", params, FrequencyGrid(om))[2]
            assert tau2[1] == 0.0 and tau2[0] * tau2[2] < 0
        assert TwoLevelParams(10.0, 0.2, branch="upper").response().tau(10.0).imag == 0.0

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_reconstruct_of_written_tau_gives_written_spectrum(self, tmp_path, branch):
        """The trapezoid rebuild of m.tau.csv from S = 1 at the first node
        gives m.spectrum.csv within the trapezoid's error bound,
        (b - a) h^2 max|tau''| / 12 with max|tau''| = 2 / (pi (gamma/2)^3),
        and the error falls as h^2."""
        doc = tmp_path / "m.json"
        doc.write_text(f'{{"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2, '
                       f'"branch": "{branch}"}}')
        errors = []
        for points in (201, 401):
            stem = str(tmp_path / "m")
            assert cli.main(["model", str(doc), "--from", "9.5", "--to", "10.5",
                             "--points", str(points), "-o", stem]) == 0
            written = fileio.read_spectrum(stem + ".spectrum.csv").values
            rebuilt = reconstruct(fileio.read_temporal(stem + ".tau.csv"), 9.5, 1.0 + 0.0j)
            errors.append(np.max(np.abs(rebuilt.values / written - 1.0)))
            h = 1.0 / (points - 1)
            assert errors[-1] <= h**2 / 12 * 2 / (np.pi * 0.1**3)
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.01)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="branch"):
            TwoLevelParams(5.0, 0.2, branch="middle")

    def test_delay_integral_normalisation(self):
        """Both branch delays together integrate to 2 over a wide window."""
        om = np.linspace(5.0 - 25.0, 5.0 + 25.0, 200001)
        t_lo, t_up = (TwoLevelParams(5.0, 0.5, branch=branch).response().tau(om).real
                      for branch in ("lower", "upper"))
        total = np.trapezoid(t_lo + t_up, om)
        assert total == pytest.approx(2.0, rel=0.02)

    def test_width_ordering(self):
        with pytest.raises(ValueError):
            TwoLevelParams(omega0=5.0, gamma=0.2, gamma0=0.5)


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

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            KineticMediumParams(electron_density=-1.0, wavenumber=1.0, width=1.0)
        with pytest.raises(ValueError):
            KineticMediumParams(electron_density=1.0, wavenumber=0.0, width=1.0)


class TestPhoton:
    def test_mass_shell_limits(self):
        """Both sides of the shell give 2 omega / (omega^2 - k^2) -> +-4/3."""
        eta = 1e-8
        response = PhotonParams(1.0, eta).response()
        above, below = response.tau(2.0).imag, response.tau(0.5).imag
        assert abs(above - 4.0 / 3.0) < 1e-6
        assert abs(below + 4.0 / 3.0) < 1e-6

    def test_sign_flips_on_shell(self):
        eta = 1e-3
        response = PhotonParams(1.0, eta).response()
        assert response.tau(1.0).imag == 0.0
        lo, hi = response.tau(1.0 - 1e-9).imag, response.tau(1.0 + 1e-9).imag
        assert lo < 0 < hi

    @pytest.mark.parametrize("path", ["functions", "sampler"])
    @pytest.mark.parametrize("eta", [1e-8, 1e-2, 1.0])
    def test_generic_response_matches_closed_form(self, path, eta):
        x = WIDE.values
        if path == "functions":
            got = response_tables(PhotonParams(1.3, eta), x)
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
            tau2 = PhotonParams(1.0, eta).response().tau(om).imag
        else:
            _, _, tau2 = sample("photon", PhotonParams(1.0, eta), FrequencyGrid(om))
        assert tau2[1] == 0.0 and not np.signbit(tau2[1])
        assert tau2[0] < 0.0 < tau2[2]

    def test_response_pole_structure(self):
        out = PhotonParams(1.0, 1e-2).response().values(2.0)
        assert out == pytest.approx(4.0 * np.pi / (3.0 + 1e-2j))

    def test_positive_eta_required(self):
        for eta in (0.0, -1e-3):
            with pytest.raises(NonPositiveEta):
                PhotonParams(k_abs=1.0, eta=eta)

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
        tau1 = PhotonParams(k, eta).response().tau(om).real
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

