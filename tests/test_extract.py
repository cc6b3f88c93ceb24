"""Finite-difference extraction, broadening, responses, wigner density."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from tauspec.core import ComplexSpectrum, FrequencyGrid, PoleZeroModel, evaluate_model, model_tau
from tauspec.errors import (
    InsufficientSupport,
    NonPositiveSigma,
    NonUniformGrid,
    PhaseJump,
    ZeroModulus,
    ZeroNorm,
)
from tauspec.extract import (
    ExtractionOptions,
    _unwrap,
    anomalous_response,
    broadening,
    combined_response,
    extract_temporal,
    normal_response,
    temporal_wigner,
    uncertainty_product,
)


def reference_response(omega0, tau, sigma, r0, t, front):
    """Both response branches written out apart, ``front`` picking
    1 - erf (normal) or 1 + erf (anomalous)."""
    sigma = complex(sigma) if np.iscomplexobj(np.asarray(sigma)) else float(sigma)
    x = (np.asarray(t) - tau) / np.lib.scimath.sqrt(2.0 * sigma)
    prefactor = r0 / np.lib.scimath.sqrt(8.0 * np.pi * sigma)
    e = erf(x.astype(complex)) if np.iscomplexobj(x) else erf(x)
    return prefactor * np.exp(-1j * omega0 * np.asarray(t) - x**2) * front(e)


def blaschke_spectrum(n=4001, lo=0.25, hi=1.75, gamma=0.2):
    model = PoleZeroModel(resonances=((1.0, gamma),))
    grid = FrequencyGrid.linspace(lo, hi, n)
    return model, ComplexSpectrum(grid, evaluate_model(model, grid.values))


# Steps that land on numpy's wrapping boundary, or past it, or well short.
UNWRAP_STEPS = (np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi, 3.5, -3.5, 0.25, -1.0)

phases = st.one_of(
    # Finite walks through the boundary steps.
    st.tuples(st.floats(-10.0, 10.0), st.lists(st.sampled_from(UNWRAP_STEPS), max_size=40))
    .map(lambda walk: np.cumsum([walk[0], *walk[1]])),
    # Signed zeros next to steps of exactly pi and 2 pi.
    st.lists(st.sampled_from((0.0, -0.0, np.pi, -np.pi)), max_size=20)
    .map(lambda values: np.array(values, dtype=float)),
    # Long runs without a jump: the steps below pi that skip the wrap.
    st.tuples(st.integers(2, 5000), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0))
    .map(lambda run: run[1] + run[2] * np.arange(run[0])),
    # The wrapped phase of a sampled Blaschke product.
    st.lists(st.tuples(st.floats(0.2, 2.8), st.floats(0.01, 0.5)), min_size=1, max_size=3)
    .map(lambda res: np.angle(evaluate_model(PoleZeroModel(resonances=tuple(res)),
                                             np.linspace(0.0, 3.0, 601)))),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phase=phases)
@example(phase=np.array([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -0.0]))
@example(phase=np.array([0.0, np.nan, 1.0, -np.inf, 2.0]))
def test_unwrap_matches_numpy_bit_for_bit(phase):
    # numpy's mask takes NaN steps as jumps; a mask of steps above pi does not.
    with np.errstate(invalid="ignore"):
        got = _unwrap(phase)
        want = np.unwrap(phase)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestExtraction:
    def test_matches_model_tau_order2(self):
        model, spec = blaschke_spectrum()
        out = extract_temporal(spec)
        ref = model_tau(model, spec.grid.values)
        sl = out.interior
        err = np.abs(out.tau[sl] - ref[sl]) / np.abs(ref[sl])
        assert err.max() < 1e-5

    def test_matches_model_tau_order4(self):
        model, spec = blaschke_spectrum()
        out = extract_temporal(spec, ExtractionOptions(stencil_order=4))
        ref = model_tau(model, spec.grid.values)
        sl = out.interior
        err = np.abs(out.tau[sl] - ref[sl]) / np.abs(ref[sl])
        assert err.max() < 1e-8

    def test_edge_nodes_follow_stencil(self):
        _, spec = blaschke_spectrum(n=64)
        assert extract_temporal(spec).edge_nodes == 1
        opts = ExtractionOptions(stencil_order=4)
        assert extract_temporal(spec, opts).edge_nodes == 2

    def test_constant_spectrum_gives_zero_tau(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 33)
        spec = ComplexSpectrum(g, np.full(33, 2.0 - 1.0j))
        out = extract_temporal(spec)
        np.testing.assert_allclose(out.tau1, 0.0, atol=1e-14)
        np.testing.assert_allclose(out.tau2, 0.0, atol=1e-14)

    def test_scale_invariance(self):
        """Multiplying S by a nonzero constant leaves tau untouched."""
        _, spec = blaschke_spectrum(n=256)
        scaled = ComplexSpectrum(spec.grid, spec.values * (3.0 - 4.0j))
        a = extract_temporal(spec)
        b = extract_temporal(scaled)
        np.testing.assert_allclose(a.tau, b.tau, rtol=0, atol=1e-11)

    def test_zero_modulus_reports_node(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 11)
        vals = np.ones(11, dtype=complex)
        vals[7] = 0.0
        with pytest.raises(ZeroModulus) as info:
            extract_temporal(ComplexSpectrum(g, vals))
        assert info.value.node == 7

    def test_phase_jump_reports_node(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 11)
        vals = np.exp(1j * np.linspace(0.0, 0.5, 11))
        vals[5:] *= np.exp(2.0j)
        opts = ExtractionOptions(unwrap_tolerance=0.5)
        with pytest.raises(PhaseJump) as info:
            extract_temporal(ComplexSpectrum(g, vals), opts)
        assert info.value.node == 5

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            ExtractionOptions(stencil_order=3)
        with pytest.raises(ValueError):
            ExtractionOptions(min_modulus=0.0)


class TestBroadening:
    def test_gaussian_log_modulus(self):
        """ln|S| = -w^2/(2 s0) has constant curvature, sigma = 1/s0."""
        g = FrequencyGrid.linspace(-5.0, 5.0, 2001)
        spec = ComplexSpectrum(g, np.exp(-g.values**2 / 20.0 + 0j))
        out = broadening(spec)
        inner = slice(4, -4)
        np.testing.assert_allclose(out.sigma.real[inner], 0.1, rtol=1e-9)
        np.testing.assert_allclose(out.sigma.imag[inner], 0.0, atol=1e-12)

    def test_linear_phase_is_flat(self):
        g = FrequencyGrid.linspace(-5.0, 5.0, 2001)
        spec = ComplexSpectrum(g, np.exp(3j * g.values))
        out = broadening(spec)
        assert np.max(np.abs(out.sigma[4:-4])) < 1e-8

    def test_order2_nonuniform_quadratic_exact_at_every_node(self):
        """ln S = c w^2 + i w has curvature 2c at every node, ends included."""
        x = np.cumsum(np.r_[-2.0, 0.01 + 0.04 * np.random.default_rng(7).random(120)])
        c = -0.05 + 0.3j
        spec = ComplexSpectrum(FrequencyGrid(x), np.exp(c * x**2 + 1j * x))
        assert not spec.grid.is_uniform
        out = broadening(spec)
        np.testing.assert_allclose(out.sigma, -2.0 * c, rtol=0, atol=1e-9)

    def test_order2_ends_take_the_one_sided_three_point_rule(self):
        """On a cubic each end gets the curvature of the parabola through
        the three nodes nearest it."""
        x = np.array([0.0, 0.03, 0.05, 0.11, 0.16, 0.2, 0.28, 0.31])
        log_s = (0.4 - 0.2j) * x**3 + 0.5j * x**2 + 1j * x
        out = broadening(ComplexSpectrum(FrequencyGrid(x), np.exp(log_s)))
        for ends, node in ((slice(0, 3), 0), (slice(-3, None), -1)):
            fit = 2.0 * np.polyfit(x[ends], log_s[ends], 2)[0]
            assert abs(out.sigma[node] + fit) < 1e-9

    def test_order4_uniform_quintic_exact_at_every_node(self):
        """The 5-point stencil and its 6-point closures are exact on quintics."""
        g = FrequencyGrid.linspace(-1.0, 1.0, 41)
        w = g.values
        coeffs = [0.2, 0.5j, -0.3 + 0.1j, 0.15, -0.1j, 0.05 + 0.02j]
        log_s = np.polynomial.polynomial.polyval(w, coeffs)
        exact = np.polynomial.polynomial.polyval(
            w, np.polynomial.polynomial.polyder(coeffs, 2)
        )
        out = broadening(ComplexSpectrum(g, np.exp(log_s)), ExtractionOptions(stencil_order=4))
        np.testing.assert_allclose(out.sigma, -exact, rtol=0, atol=1e-9)

    def test_order4_needs_six_nodes(self):
        opts = ExtractionOptions(stencil_order=4)
        five = FrequencyGrid.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="needs >= 6 nodes"):
            broadening(ComplexSpectrum(five, np.exp(1j * five.values)), opts)
        six = FrequencyGrid.linspace(0.0, 1.0, 6)
        out = broadening(ComplexSpectrum(six, np.exp(0.5 * six.values**2 + 0j)), opts)
        np.testing.assert_allclose(out.sigma, -1.0, rtol=0, atol=1e-9)


class TestResponses:
    def test_normal_amplitude_oracle(self):
        r = normal_response(1.0, 2.0, 0.5, 1.0, np.array([3.0]))
        assert abs(r[0]) == pytest.approx(0.016324, abs=1e-5)

    def test_branches_sum_to_full_envelope(self):
        """erf and its complement cancel, leaving twice the bare packet."""
        t = np.linspace(0.0, 5.0, 41)
        total = normal_response(1.0, 2.0, 0.5, 1.0, t) + anomalous_response(
            1.0, 2.0, 0.5, 1.0, t
        )
        x = (t - 2.0) / np.sqrt(2.0 * 0.5)
        bare = (8.0 * np.pi * 0.5) ** -0.5 * np.exp(-1j * t - x**2)
        np.testing.assert_allclose(total, 2.0 * bare, rtol=1e-12, atol=1e-15)

    def test_normal_uses_erf_complement(self):
        t = np.array([3.0])
        r = normal_response(1.0, 2.0, 0.5, 1.0, t)
        x = (3.0 - 2.0) / np.sqrt(1.0)
        expected = (
            (8.0 * np.pi * 0.5) ** -0.5
            * np.exp(-3j - x**2)
            * (1.0 - erf(x))
        )
        assert r[0] == pytest.approx(expected)

    def test_combined_selects_by_formation_sign(self):
        t = np.linspace(1.5, 2.5, 7)
        plus = normal_response(1.0, 2.0, 0.5, 1.0, t)
        minus = anomalous_response(1.0, 2.0, 0.5, 1.0, t)
        np.testing.assert_allclose(combined_response(1.0, 2.0, 0.5, 1.0, t, 0.3), plus)
        np.testing.assert_allclose(combined_response(1.0, 2.0, 0.5, 1.0, t, -0.3), minus)
        half = combined_response(1.0, 2.0, 0.5, 1.0, t, 0.0)
        np.testing.assert_allclose(half, 0.5 * (plus + minus))

    def test_complex_sigma_allowed(self):
        r = normal_response(1.0, 2.0, 0.5 + 0.2j, 1.0, np.array([3.0]))
        assert abs(r[0]) == pytest.approx(0.021345, abs=1e-5)

    @pytest.mark.parametrize("sigma", [0.5, 0.5 + 0.2j, 0.3 - 0.4j])
    def test_branches_bitwise_equal_to_reference(self, sigma):
        t = np.linspace(-1.0, 6.0, 57)
        pairs = [
            (normal_response, lambda e: 1.0 - e),
            (anomalous_response, lambda e: 1.0 + e),
        ]
        for branch, front in pairs:
            expected = reference_response(1.3, 2.0, sigma, 0.7, t, front)
            assert np.array_equal(branch(1.3, 2.0, sigma, 0.7, t), expected)
            scalar = branch(1.3, 2.0, sigma, 0.7, 2.5)
            assert type(scalar) is complex
            # A scalar t is evaluated as a one-element array.
            one = reference_response(1.3, 2.0, sigma, 0.7, np.array([2.5]), front)
            assert scalar == complex(one[0])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(NonPositiveSigma):
            normal_response(1.0, 2.0, -0.5, 1.0, np.array([3.0]))
        with pytest.raises(NonPositiveSigma):
            anomalous_response(1.0, 2.0, -0.1 + 1.0j, 1.0, np.array([3.0]))


class TestUncertainty:
    def test_gaussian_reaches_half(self):
        g = FrequencyGrid.linspace(-8.0, 8.0, 4001)
        spec = ComplexSpectrum(g, np.exp(-g.values**2 + 0j))
        budget = uncertainty_product(spec)
        assert budget.delta_e * budget.delta_t == pytest.approx(0.5, abs=1e-3)
        assert abs(budget.covariance) < 1e-6

    def test_chirp_saturates_covariance_floor(self):
        """A quadratic phase raises the product exactly onto the floor."""
        g = FrequencyGrid.linspace(-8.0, 8.0, 4001)
        spec = ComplexSpectrum(g, np.exp(-(1.0 + 2.0j) * g.values**2))
        budget = uncertainty_product(spec)
        prod2 = (budget.delta_e * budget.delta_t) ** 2
        floor = 0.25 + 0.25 * budget.covariance**2
        assert prod2 >= floor - 1e-6
        assert prod2 == pytest.approx(floor, rel=1e-6)
        assert prod2 == pytest.approx(1.25, rel=1e-3)

    def test_lorentzian_sits_above_floor(self):
        g = FrequencyGrid.linspace(-4.0, 4.0, 8001)
        spec = ComplexSpectrum(g, 1.0 / (g.values - 0.002j))
        budget = uncertainty_product(spec)
        prod2 = (budget.delta_e * budget.delta_t) ** 2
        assert prod2 >= 0.25 + 0.25 * budget.covariance**2 - 1e-6
        assert prod2 > 1.0

    def test_non_uniform_grid_rejected(self):
        g = FrequencyGrid(np.array([-1.0, -0.5, 0.25, 1.0]))
        with pytest.raises(NonUniformGrid, match="uncertainty_product"):
            uncertainty_product(ComplexSpectrum(g, np.ones(4, dtype=complex)))

    def test_zero_norm_rejected(self):
        g = FrequencyGrid.linspace(-1.0, 1.0, 33)
        with pytest.raises(ZeroNorm):
            uncertainty_product(ComplexSpectrum(g, np.zeros(33, dtype=complex)))


class TestTemporalWigner:
    def test_damped_wave_matches_lorentzian(self):
        """exp(-i w0 t - lam |t|) has Re w+ = lam / (2 pi (lam^2 + (w-w0)^2))."""
        times = np.linspace(-150.0, 150.0, 12001)
        psi = np.exp(-2j * times - 0.1 * np.abs(times))
        omegas = np.linspace(1.6, 2.4, 81)
        vals = np.array([temporal_wigner(psi, times, w, 0.0) for w in omegas])
        closed = 0.1 / (2.0 * np.pi * (0.01 + (omegas - 2.0) ** 2))
        assert np.max(np.abs(vals.real - closed)) < 2e-3
        peak = omegas[np.argmax(vals.real)]
        assert peak == pytest.approx(2.0, abs=0.011)

    def test_half_width_within_twenty_percent(self):
        times = np.linspace(-150.0, 150.0, 12001)
        psi = np.exp(-2j * times - 0.1 * np.abs(times))
        omegas = np.linspace(1.7, 2.3, 241)
        vals = np.array([temporal_wigner(psi, times, w, 0.0).real for w in omegas])
        above = omegas[vals >= 0.5 * vals.max()]
        hwhm = 0.5 * (above[-1] - above[0])
        assert abs(hwhm - 0.1) / 0.1 < 0.2

    def test_taper_localises_monochromatic_peak(self):
        times = np.linspace(-60.0, 60.0, 4801)
        psi = np.exp(-2j * times)
        omegas = np.linspace(1.0, 3.0, 41)
        vals = [temporal_wigner(psi, times, w, 0.0, taper=0.05).real for w in omegas]
        assert omegas[int(np.argmax(vals))] == pytest.approx(2.0, abs=0.06)

    def test_insufficient_support_raised(self):
        times = np.linspace(-50.0, 50.0, 2001)
        psi = np.exp(-2j * times - 0.05 * np.abs(times))
        with pytest.raises(InsufficientSupport):
            temporal_wigner(psi, times, 2.0, 0.0)

    @pytest.mark.parametrize(
        "times",
        [np.linspace(10.0, -10.0, 201), np.linspace(-10.0, 10.0, 201) ** 3],
        ids=["decreasing", "non-uniform"],
    )
    def test_non_uniform_time_grid_rejected(self, times):
        psi = np.exp(-np.abs(times))
        with pytest.raises(NonUniformGrid, match="temporal_wigner"):
            temporal_wigner(psi, times, 1.0, 0.0)

    def test_zero_signal_returns_zero(self):
        times = np.linspace(-10.0, 10.0, 201)
        assert temporal_wigner(np.zeros(201, dtype=complex), times, 1.0, 0.0) == 0j

    def test_minus_branch_mirrors_frequency(self):
        times = np.linspace(-150.0, 150.0, 6001)
        psi = np.exp(-2j * times - 0.1 * np.abs(times))
        a = temporal_wigner(psi, times, -2.0, 0.0, branch="-")
        b = temporal_wigner(psi, times, 2.0, 0.0, branch="+")
        assert a == pytest.approx(b)

    def test_periodic_signal_accepted(self):
        times = np.linspace(0.0, 20.0 * np.pi, 4001)
        psi = np.exp(-2j * times)
        out = temporal_wigner(psi, times, 2.0, 10.0, periodic=True)
        assert out.real > 0
