"""Finite-difference extraction and the uncertainty budget."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauspec.core import ComplexSpectrum, FrequencyGrid, PoleZeroModel, evaluate_model, model_tau
from tauspec.errors import NonUniformGrid, ZeroModulus, ZeroNorm
from tauspec.extract import ExtractionOptions, _unwrap, extract_temporal, uncertainty_product


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

    @pytest.mark.parametrize("n", [20, 36])
    def test_sign_flip_is_extracted_as_a_pi_step(self, n):
        """S turns to -S at the last node: the phase steps by pi there,
        np.unwrap keeps it, and the slope takes it whichever sign it has."""
        g = FrequencyGrid.linspace(0.0, 1.0, n + 1)
        vals = np.exp(2.5j * np.arange(n + 1))
        vals[n] = -vals[n - 1]
        out = extract_temporal(ComplexSpectrum(g, vals))
        phase = np.unwrap(np.angle(vals))
        assert abs(abs(phase[n] - phase[n - 1]) - np.pi) < 1e-12
        np.testing.assert_array_equal(out.tau1, np.gradient(phase, g.values, edge_order=2))

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            ExtractionOptions(stencil_order=3)


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

