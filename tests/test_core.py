"""Grid, spectrum containers, pole-zero models, reconstruction, and the
scalar convention of every pointwise function."""

import dataclasses
import importlib

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import tauspec
from tauspec import physics
from tauspec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    evaluate_model,
    extend_negative_frequencies,
    model_tau,
    reconstruct,
    uniform_spacing,
)
from tauspec.dispersion import Contour, residue_time_domain
from tauspec.errors import (
    AnchorOutOfRange,
    GridError,
    NonPositiveGrid,
    NonUniformGrid,
    PoleProximity,
)
from tauspec.scatter1d import PotentialProfile, s_matrix, transmission_and_time


def single_factor(omega0=1.0, gamma=0.2, **kw):
    return PoleZeroModel(resonances=((omega0, gamma),), **kw)


class TestFrequencyGrid:
    def test_linspace_matches_numpy(self):
        g = FrequencyGrid.linspace(0.0, 2.0, 11)
        np.testing.assert_allclose(g.values, np.linspace(0.0, 2.0, 11))
        assert uniform_spacing(g.values, "msg") == pytest.approx(0.2)
        assert g.span == pytest.approx(2.0)

    def test_needs_three_points(self):
        with pytest.raises(GridError):
            FrequencyGrid(np.array([0.0, 1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(GridError):
            FrequencyGrid(np.array([0.0, 2.0, 1.0]))

    def test_rejects_duplicates(self):
        with pytest.raises(GridError):
            FrequencyGrid(np.array([0.0, 1.0, 1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(GridError):
            FrequencyGrid(np.array([0.0, 1.0, np.inf]))

    def test_non_uniform_detected(self):
        g = FrequencyGrid(np.array([0.0, 1.0, 3.0, 7.0]))
        with pytest.raises(NonUniformGrid, match="^msg$"):
            uniform_spacing(g.values, "msg")

    def test_compares_and_hashes_by_identity(self):
        """A container of arrays is equal only to itself: numpy's == of
        two arrays has no single truth value, and an array no hash."""
        g = FrequencyGrid(np.array([1.0, 2.0, 3.0]))
        values = np.ones(3, dtype=complex)
        for a, b in [(g, FrequencyGrid(np.array([1.0, 2.0, 3.0]))),
                     (ComplexSpectrum(g, values), ComplexSpectrum(g, values)),
                     (TemporalSpectrum(g, np.ones(3), np.ones(3)),
                      TemporalSpectrum(g, np.ones(3), np.ones(3))),
                     (Contour.rectangle(0, 1, 0, 1), Contour.rectangle(0, 1, 0, 1))]:
            assert a == a and a != b and not (a == b)
            assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestUniformSpacing:
    def test_returns_mean_step(self):
        x = np.linspace(0.0, 1.0, 11)
        assert uniform_spacing(x, "msg") == float(np.mean(np.diff(x)))

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(1.0, 0.0, 11),
            np.array([0.0, 1.0, 3.0]),
            np.array([0.0]),
            np.array([0.0, 0.0, 0.0]),
            np.array([0.0, np.nan, 2.0]),
        ],
        ids=["decreasing", "non-uniform", "one-node", "zero-step", "nan"],
    )
    def test_rejects_with_the_callers_message(self, x):
        with pytest.raises(NonUniformGrid, match="^caller message$"):
            uniform_spacing(x, "caller message")

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tolerance_is_relative_to_the_step(self, scale):
        x = scale * np.arange(5.0)
        assert uniform_spacing(x, "msg") == pytest.approx(scale, rel=1e-12)
        x[2] += 1e-11 * scale
        assert uniform_spacing(x, "msg") == pytest.approx(scale, rel=1e-12)
        x[2] += 1e-8 * scale
        with pytest.raises(NonUniformGrid):
            uniform_spacing(x, "msg")

    def test_tolerance_admits_csv_round_off_and_no_more(self):
        """A %.12e cell near 1 moves by up to 5e-13, so a step by up to 1e-12:
        far more than 1e-9 of a step of 1e-5."""
        x = 1.0 + 1e-5 * np.arange(5)
        x[2] += 0.9e-12
        assert uniform_spacing(x, "msg") == pytest.approx(1e-5, rel=1e-9)
        x[2] += 2e-12
        with pytest.raises(NonUniformGrid):
            uniform_spacing(x, "msg")


class TestContainers:
    def test_spectrum_length_mismatch(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 5)
        with pytest.raises(GridError):
            ComplexSpectrum(g, np.ones(4, dtype=complex))

    def test_temporal_tau_combines_parts(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 5)
        t = TemporalSpectrum(g, np.arange(5.0), -np.arange(5.0))
        np.testing.assert_allclose(t.tau, np.arange(5.0) * (1 - 1j))

    def test_temporal_tau_keeps_negative_zero(self):
        """tau2 = -0 stays -0 in tau: tau1 + 1j * tau2 would make it +0."""
        t = TemporalSpectrum(FrequencyGrid([1.0, 2.0, 3.0]), np.ones(3), [-0.0, 1.0, -0.0])
        assert np.array_equal(np.signbit(t.tau.imag), [True, False, True])
        assert np.array_equal(t.tau.real, t.tau1) and np.array_equal(t.tau.imag, t.tau2)

    def test_interior_drops_edge_nodes(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 9)
        t = TemporalSpectrum(g, np.ones(9), np.zeros(9), edge_nodes=2)
        assert t.interior == slice(2, -2)


class TestPoleZeroModel:
    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            PoleZeroModel(p=-1, resonances=((1.0, 0.2),))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            PoleZeroModel(resonances=((1.0, 0.0),))

    def test_rejects_nonpositive_center(self):
        with pytest.raises(ValueError):
            PoleZeroModel(resonances=((-1.0, 0.2),))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            PoleZeroModel(resonances=((1.0, 0.2),), prefactor_sign=2)

    @pytest.mark.parametrize("scale", [np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0)])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="^scale must be finite and nonzero$"):
            PoleZeroModel(scale=scale, resonances=((1.0, 0.2),))

    @pytest.mark.parametrize("resonance", [(np.inf, 0.2), (1.0, np.nan), (np.nan, 0.2),
                                           (1.0, np.inf)])
    def test_rejects_non_finite_resonance(self, resonance):
        with pytest.raises(ValueError, match="^resonances need positive finite"):
            PoleZeroModel(resonances=((2.0, 0.1), resonance))

    def test_zeros_upper_poles_lower(self):
        m = PoleZeroModel(resonances=((1.0, 0.2), (2.0, 0.6)))
        assert all(z.imag > 0 for z in m.zeros())
        assert all(p.imag < 0 for p in m.poles())
        np.testing.assert_allclose(m.zeros(), np.conj(m.poles()))

    def test_unit_modulus_on_real_axis(self):
        """A pure factor ratio with real scale has |S| = 1 for real omega."""
        m = single_factor()
        omega = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(np.abs(evaluate_model(m, omega)), 1.0)

    def test_delay_peak_is_four_over_gamma(self):
        m = single_factor(gamma=0.4)
        tau = model_tau(m, np.array([1.0]))
        assert tau[0].real == pytest.approx(4.0 / 0.4)
        assert tau[0].imag == pytest.approx(0.0, abs=1e-14)

    def test_power_prefactor_adds_imaginary_term(self):
        m = PoleZeroModel(p=2, resonances=((1.0, 0.2),))
        base = single_factor()
        om = np.array([0.7])
        extra = model_tau(m, om) - model_tau(base, om)
        assert extra[0] == pytest.approx(2j / 0.7)

    @pytest.mark.parametrize("p,sign", [(0, 1), (1, 1), (2, -1)])
    def test_s_and_tau_are_the_pairwise_closed_forms_to_the_bit(self, p, sign):
        """The generic factor product and sum give, bit for bit, the closed
        forms that take each zero with its mirrored pole, the origin factor
        first in S and its term last in tau, so model tables keep their
        exact text."""
        m = PoleZeroModel(scale=0.5 + 0.25j, p=p, resonances=((1.0, 0.2), (2.5, 0.05)),
                          prefactor_sign=sign)
        x = np.linspace(0.5, 3.0, 40001)
        s = np.full(x.shape, m.scale) * x.astype(complex) ** (-sign * p)
        tau = np.zeros(x.shape, complex)
        for z in m.zeros():
            s = s * (x - z) / (x - np.conj(z))
            tau += -1j * (1.0 / (x - z) - 1.0 / (x - np.conj(z)))
        if p:
            tau += 1j * sign * p / x
        assert np.array_equal(evaluate_model(m, x).view(np.int64), s.view(np.int64))
        assert np.array_equal(model_tau(m, x).view(np.int64), tau.view(np.int64))

    def test_pole_proximity_guard(self):
        m = single_factor()
        pole = 1.0 - 0.1j
        with pytest.raises(PoleProximity):
            model_tau(m, np.array([pole + 1e-14]))

    def test_origin_guard_with_prefactor(self):
        m = PoleZeroModel(p=1, resonances=((1.0, 0.2),))
        with pytest.raises(PoleProximity):
            model_tau(m, np.array([0.0]))

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
    def test_non_finite_omega_rejected(self, omega):
        """Refused at entry, before any arithmetic: the suite makes the
        warnings it would raise errors, and model_tau's 0 at omega = inf is
        refused too, so the rule is simply finite in."""
        for func in (evaluate_model, model_tau):
            for arg in (omega, np.array([0.5, omega])):
                with pytest.raises(ValueError, match="^omega must be finite$"):
                    func(single_factor(), arg)


class TestReconstruct:
    def test_round_trip_to_anchor(self):
        m = single_factor()
        g = FrequencyGrid.linspace(0.25, 1.75, 8001)
        tau = model_tau(m, g.values)
        temporal = TemporalSpectrum(g, tau.real, tau.imag)
        mid = len(g) // 2
        anchor = complex(evaluate_model(m, g.values[mid : mid + 1])[0])
        rec = reconstruct(temporal, float(g.values[mid]), anchor)
        expected = evaluate_model(m, g.values)
        rel = np.abs(rec.values - expected) / np.abs(expected)
        assert rel.max() < 1e-6

    def test_bitwise_equal_to_scipy_cumulative_trapezoid(self):
        rng = np.random.default_rng(5)
        g = FrequencyGrid(np.cumsum(rng.uniform(0.01, 0.1, 501)))
        t = TemporalSpectrum(g, rng.standard_normal(501), rng.standard_normal(501))
        anchor_omega, anchor = float(g.values[123]), 0.5 - 2.0j
        log_s = cumulative_trapezoid(1j * t.tau1 - t.tau2, g.values, initial=0.0)
        at_anchor = np.interp(anchor_omega, g.values, log_s.real) + 1j * np.interp(
            anchor_omega, g.values, log_s.imag
        )
        expected = anchor * np.exp(log_s - at_anchor)
        assert np.array_equal(reconstruct(t, anchor_omega, anchor).values, expected)

    def test_anchor_must_sit_on_grid_range(self):
        g = FrequencyGrid.linspace(0.0, 1.0, 11)
        t = TemporalSpectrum(g, np.zeros(11), np.zeros(11))
        with pytest.raises(AnchorOutOfRange):
            reconstruct(t, 2.0, 1.0 + 0j)

    def test_constant_tau_gives_plain_exponential(self):
        g = FrequencyGrid.linspace(-1.0, 1.0, 201)
        t = TemporalSpectrum(g, np.full(201, 3.0), np.zeros(201))
        rec = reconstruct(t, 0.0, 1.0 + 0j)
        np.testing.assert_allclose(
            rec.values, np.exp(3j * g.values), rtol=1e-12, atol=1e-12
        )


class TestNegativeExtension:
    def test_parity(self):
        g = FrequencyGrid.linspace(0.5, 2.0, 16)
        t1 = np.linspace(1.0, 2.0, 16)
        t2 = np.linspace(-1.0, 1.0, 16)
        ext = extend_negative_frequencies(TemporalSpectrum(g, t1, t2))
        n = len(ext.grid)
        np.testing.assert_allclose(ext.grid.values[: n // 2], -g.values[::-1])
        np.testing.assert_allclose(ext.tau1[: n // 2], t1[::-1])
        np.testing.assert_allclose(ext.tau2[: n // 2], -t2[::-1])

    def test_requires_positive_grid(self):
        g = FrequencyGrid.linspace(-0.5, 2.0, 6)
        t = TemporalSpectrum(g, np.zeros(6), np.zeros(6))
        with pytest.raises(NonPositiveGrid):
            extend_negative_frequencies(t)


_MODEL = PoleZeroModel(scale=0.5 + 0.25j, p=1, resonances=((1.0, 0.2), (2.5, 0.05)))
_OSC = physics.OscillatorParams(1.0, 0.2)
_LEVEL = physics.TwoLevelParams(2.0, 0.3, 0.1, "upper")
_BARRIER = PotentialProfile(((1.0, 1.2), (0.5, -0.3)))

# Every pointwise function: (call at one argument, argument, result types);
# a tuple of types is a tuple of results.
POINTWISE = {
    "evaluate_model": (lambda w: evaluate_model(_MODEL, w), 0.7, complex),
    "model_tau": (lambda w: model_tau(_MODEL, w), 0.7 - 0.1j, complex),
    "RationalResponse.values": (lambda w: _OSC.response().values(w), 0.7, complex),
    "RationalResponse.ratio": (lambda w: _OSC.response().ratio(w, 0.5), 0.7, complex),
    "RationalResponse.tau": (lambda w: _OSC.response().tau(w), 0.7, complex),
    "breit_wigner_tau": (lambda w: _LEVEL.response().tau(w), 1.9, complex),
    "s_matrix": (lambda e: dataclasses.astuple(s_matrix(_BARRIER, e)), 0.9, (complex,) * 4),
    "transmission_and_time": (lambda e: transmission_and_time(_BARRIER, e), 0.9,
                              (complex, complex)),
    "residue_time_domain": (lambda t: residue_time_domain(_MODEL, t), 0.4, (float, complex)),
}


@pytest.mark.parametrize("name", sorted(POINTWISE))
def test_scalar_argument_gives_python_scalars(name):
    """A 0-d argument gives Python scalars, each equal to element 0 of the
    result on a one-element array.  numpy may fuse the multiply-adds of a
    complex product over an array but not over a scalar, so the two may
    differ in the last bit or two."""
    call, arg, types = POINTWISE[name]
    scalar, batch = call(arg), call(np.array([arg]))
    if not isinstance(types, tuple):
        scalar, batch, types = (scalar,), (batch,), (types,)
    assert tuple(type(v) for v in scalar) == types
    assert all(isinstance(b, np.ndarray) and b.shape == (1,) for b in batch)
    assert scalar == pytest.approx(tuple(b[0] for b in batch), rel=1e-15, abs=0)


@pytest.mark.parametrize("module", ["core", "dispersion", "extract", "physics", "scatter1d"])
def test_package_exports_every_public_name(module):
    """``tauspec.<name>`` is the module's own object for each name in its
    ``__all__``."""
    mod = importlib.import_module(f"tauspec.{module}")
    assert [n for n in mod.__all__ if getattr(tauspec, n, None) is not getattr(mod, n)] == []
