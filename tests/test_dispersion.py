"""Hilbert transform, causality residuals, sum rules, winding integral."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tauspec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    model_tau,
)
from tauspec.dispersion import (
    Contour,
    _boundary_gap,
    _fft_length,
    _half_line_sums,
    _kernel_spectrum,
    _pv_core,
    _skip_node_sums,
    frequency_sum_rule,
    hilbert_transform,
    kk_residual,
    residue_time_domain,
    tau_kk_residual,
    winding_number,
)
from tauspec.errors import (
    GridError,
    NonPositiveGrid,
    NonUniformGrid,
    OriginGapTooWide,
    OriginInGrid,
    SingularityOnContour,
)


def pole_spectrum(sign, n=40001, half=60.0):
    """Simple pole at omega = 1 with the half-plane chosen by sign."""
    g = FrequencyGrid.linspace(-half, half, n)
    vals = 1.0 / (g.values - 1.0 + sign * 0.1j)
    return ComplexSpectrum(g, vals)


def direct_skip_node_sums(values, subtract_diagonal=False):
    """O(n^2) trapezoid sums sum_{j != i} w_j (f_j - c_i) / (i - j), with
    c_i = f_i when ``subtract_diagonal`` and 0 otherwise; w is half at the
    two ends.  Row blocks keep the memory at a few MB."""
    n = values.size
    weights = np.ones(n)
    weights[[0, -1]] = 0.5
    j = np.arange(n)
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, 256):
        i = np.arange(lo, min(lo + 256, n))[:, None]
        with np.errstate(divide="ignore"):
            kernel = np.where(i == j, 0.0, 1.0 / (i - j))
        diff = values[None, :] - (values[i] if subtract_diagonal else 0.0)
        out[i[:, 0]] = np.sum(kernel * weights * diff, axis=1)
    return out


def direct_pv_core(values):
    """The subtracted principal-value rule of ``_pv_core``, summed directly."""
    n = values.size
    out = direct_skip_node_sums(values)
    idx = np.arange(1, n - 1)
    out[1:-1] = (
        direct_skip_node_sums(values, subtract_diagonal=True)[1:-1]
        - 0.5 * (values[2:] - values[:-2])
        + values[1:-1] * np.log(idx / (n - 1 - idx))
    )
    return out


# Largest absolute error allowed against the direct sums, for data of unit
# size.  At n = 3000 the skip-node sums differ from them by at most 4e-15,
# and the subtracted rule with its harmonic-number closed form by 7e-14.
DIRECT_SUM_TOL = 2.5e-13


def smallest_5_smooth(m):
    """The least k >= m with no prime factor above 5, by trial division."""
    k = m
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def test_fft_length_is_smallest_5_smooth():
    assert [_fft_length(m) for m in range(1, 5001)] == [
        smallest_5_smooth(m) for m in range(1, 5001)
    ]


class TestSkipNodeSums:
    """The FFT convolution and the closed form against direct O(n^2) sums.

    At n = 13, 41 and 63 the FFT length is exactly 2n - 1 (25, 81 and
    125), so the wrapped kernel's two halves meet with no zero between
    them; an off-by-one in the wrap shows there first."""

    @pytest.mark.parametrize("n", [1, 2, 3, 11, 13, 41, 63, 1024, 1025, 3000])
    def test_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for values in (data, np.ones(n)):
            err = np.abs(_skip_node_sums(values) - direct_skip_node_sums(values))
            assert np.max(err) <= DIRECT_SUM_TOL

    @pytest.mark.parametrize("n", [2, 3, 11, 13, 41, 63, 1024, 1025, 3000])
    def test_pv_core_matches_direct_rule(self, n):
        rng = np.random.default_rng(n)
        data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for values in (data, np.ones(n, dtype=complex)):
            err = np.abs(_pv_core(values, _skip_node_sums(values), n) - direct_pv_core(values))
            assert np.max(err) <= DIRECT_SUM_TOL


@st.composite
def half_lines(draw):
    """f at nodes 0..m = k + n - 1 of a half line: zero below k, 1 <= k <= 8n
    (tau_kk_residual's cap), drawn values from k on, some imaginary parts -0."""
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, 8 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(k + n, dtype=complex)
    scale = 10.0 ** rng.integers(-3, 4)
    values[k:] = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if draw(st.booleans()):
        values.imag[k:][rng.random(n) < 0.3] = -0.0
    return values


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=half_lines())
@example(values=np.array([0.0, 1.0 - 0.0j]))
@example(values=np.concatenate((np.zeros(36), np.arange(1.0, 6.0) * (1 - 2j))))  # L = 2m + 1 = 81
@example(values=np.concatenate((np.zeros(8), np.linspace(1.0, 2.0, 20_000) + 0.5j)))
def test_half_line_sums_match_the_mirrored_array(values):
    """The Toeplitz + Hankel sums on nodes 0..m are ``_skip_node_sums`` of the
    explicitly mirrored array f(-p) = conj(f(p)): s_p at p, and -conj(s_p)
    at -p, within 1e-13 of the sum of |w f|.  ``_pv_core`` on the half is
    the whole array's core at p >= 1 within as much."""
    m = values.size - 1
    mirrored = np.concatenate((np.conj(values[:0:-1]), values))
    whole = _skip_node_sums(mirrored)
    half = _half_line_sums(values)
    tol = 1e-13 * (np.sum(np.abs(values[:-1])) + 0.5 * abs(values[-1]))
    assert np.max(np.abs(half - whole[m:])) <= tol
    assert np.max(np.abs(-np.conj(half) - whole[m::-1])) <= tol
    core = _pv_core(values, half, 2 * m + 1)
    assert np.max(np.abs(core - _pv_core(mirrored, whole, 2 * m + 1)[m:])[1:]) <= tol


class TestKernelSpectrumCache:
    """The kernel spectrum is cached per node count, two sizes at a time;
    a warm cache must give the same bits as a cold one."""

    def test_cached_half_is_read_only(self):
        size, half = _kernel_spectrum(41)
        assert size == _fft_length(81)
        assert not half.flags.writeable
        with pytest.raises(ValueError):
            half[0] = 0.0

    def test_repeated_call_gives_equal_report(self):
        spectrum = pole_spectrum(+1, n=4001)
        first = kk_residual(spectrum, tail_model="one_over_omega")
        assert kk_residual(spectrum, tail_model="one_over_omega") == first

    def test_alternating_sizes_match_a_cold_cache(self):
        sizes = (4001, 3001, 4001, 3001, 2001)
        spectra = {n: pole_spectrum(+1, n=n) for n in set(sizes)}
        _kernel_spectrum.cache_clear()
        warm = []
        for n in sizes:
            warm.append(kk_residual(spectra[n], tail_model="one_over_omega"))
            assert _kernel_spectrum.cache_info().currsize <= 2
        assert _kernel_spectrum.cache_info().hits == 2
        cold = []
        for n in sizes:
            _kernel_spectrum.cache_clear()
            cold.append(kk_residual(spectra[n], tail_model="one_over_omega"))
        assert warm == cold


class TestHilbertTransform:
    def test_lorentzian_pair_annihilates(self):
        """Real and imaginary parts of a retarded pole are KK partners."""
        g = FrequencyGrid.linspace(-40.0, 40.0, 16001)
        vals = 1.0 / (g.values - 0.5 + 0.2j)
        h = hilbert_transform(vals, g, tail_model="one_over_omega")
        resid = np.abs(vals - 1j * h)
        assert resid[len(g) // 4 : -len(g) // 4].max() < 1e-4

    def test_advanced_pole_doubles(self):
        """With the pole above the axis, S - iH[S] tends to 2S instead."""
        g = FrequencyGrid.linspace(-40.0, 40.0, 16001)
        vals = 1.0 / (g.values - 1.0 - 0.1j)
        h = hilbert_transform(vals, g, tail_model="one_over_omega")
        mid = slice(len(g) // 4, -len(g) // 4)
        resid = np.abs(vals - 1j * h)[mid]
        doubled = np.abs(2.0 * vals - (vals - 1j * h))[mid]
        assert doubled.max() < 1e-3
        assert resid.max() > 0.5 * np.abs(vals[mid]).max()

    def test_tail_model_lifts_truncation_floor(self):
        g = FrequencyGrid.linspace(-30.0, 30.0, 12001)
        vals = 1.0 / (g.values - 1.0 + 0.1j)
        bare = kk_residual(ComplexSpectrum(g, vals))
        w1 = kk_residual(ComplexSpectrum(g, vals), tail_model="one_over_omega")
        assert w1.residual_max < 0.2 * bare.residual_max

    def test_unknown_tail_rejected(self):
        g = FrequencyGrid.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            hilbert_transform(np.ones(11, dtype=complex), g, tail_model="cubic")

    def test_tail_needs_origin_straddle(self):
        g = FrequencyGrid.linspace(0.5, 2.0, 301)
        with pytest.raises(ValueError):
            hilbert_transform(np.ones(301, dtype=complex), g, "one_over_omega")

    def test_non_uniform_grid_rejected(self):
        vals = np.array([0.0, 1.0, 3.0, 3.5, 7.0])
        g = FrequencyGrid(vals)
        with pytest.raises(NonUniformGrid):
            hilbert_transform(np.ones(5, dtype=complex), g)


class TestKKResidual:
    def test_causal_pole_report(self):
        report = kk_residual(pole_spectrum(+1), tail_model="one_over_omega")
        assert report.residual_max < 2e-2
        assert report.residual_max < 5e-4
        assert report.nodes == 36001
        assert report.tail_model == "one_over_omega"

    def test_acausal_pole_much_worse(self):
        causal = kk_residual(pole_spectrum(+1), tail_model="one_over_omega")
        acausal = kk_residual(pole_spectrum(-1), tail_model="one_over_omega")
        assert acausal.residual_max > 10.0 * causal.residual_max

    def test_tau_variant_on_completed_resonance(self):
        """tau of a causal pole pair closes on itself under the transform."""
        z = 5.0 - 0.2j
        g = FrequencyGrid.linspace(0.01, 40.0, 4000)
        tau = 1j / (np.pi * (g.values - z)) + np.conj(
            1j / (np.pi * (-g.values - z))
        )
        report = tau_kk_residual(
            TemporalSpectrum(g, tau.real, tau.imag), tail_model="one_over_omega"
        )
        assert report.residual_max < 5e-3
        assert report.origin_gap == pytest.approx(0.01)

    def test_tau_variant_pads_up_to_eight_steps_per_node(self):
        g = FrequencyGrid(0.1 * np.arange(88, 99))
        report = tau_kk_residual(TemporalSpectrum(g, np.ones(11), np.zeros(11)))
        assert report.origin_gap == pytest.approx(8.8)

    @pytest.mark.parametrize("start,step", [(8.9, 0.1), (1000.0, 1e-3)])
    def test_tau_variant_refuses_wide_origin_gap(self, start, step):
        """89 steps for 11 nodes is one past the cap; 1e6 steps would
        zero-fill 2,000,021 nodes, and nothing near that is allocated."""
        g = FrequencyGrid(start + step * np.arange(11))
        t = TemporalSpectrum(g, np.ones(11), np.zeros(11))
        tracemalloc.start()
        try:
            with pytest.raises(OriginGapTooWide):
                tau_kk_residual(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert issubclass(OriginGapTooWide, GridError)
        assert peak < 100_000

    def test_tau_variant_refuses_unknown_tail_at_entry(self):
        """Before the grid checks, and before the padded arrays exist: k = 8n
        = 160,000 would zero-fill 180,002 complex nodes, about 2.9 MB."""
        g = FrequencyGrid(1e-3 * np.arange(160_000, 180_000))
        wide = TemporalSpectrum(g, np.ones(20_000), np.zeros(20_000))
        crossing = TemporalSpectrum(FrequencyGrid.linspace(-0.5, 0.5, 11), np.ones(11),
                                    np.zeros(11))
        tracemalloc.start()
        try:
            for temporal in (wide, crossing):
                with pytest.raises(ValueError, match="^unknown tail model 'cubic'$"):
                    tau_kk_residual(temporal, "cubic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("n, nodes", [(10, 10), (19, 19), (20, 18), (401, 361)])
    def test_edge_bands_drop_five_percent_per_side(self, n, nodes):
        spectrum = ComplexSpectrum(FrequencyGrid.linspace(-1, 1, n), np.ones(n))
        assert kk_residual(spectrum).nodes == nodes

    def test_tau_edge_bands_leave_nodes_at_the_widest_origin_window(self):
        """k = 8n, the widest gap OriginGapTooWide lets through: the padded
        grid has 197 nodes, the edge bands drop 9 per side and leave 2 of
        the 11 positive nodes per side outside the zero-filled window."""
        g = FrequencyGrid(0.1 * np.arange(88, 99))
        t = TemporalSpectrum(g, np.ones(11), np.zeros(11))
        assert tau_kk_residual(t).nodes == 4

    @pytest.mark.parametrize("start", [0.0, -0.5])
    def test_tau_variant_needs_a_positive_grid(self, start):
        g = FrequencyGrid.linspace(start, start + 1.0, 11)
        t = TemporalSpectrum(g, np.ones(11), np.zeros(11))
        with pytest.raises(NonPositiveGrid, match="strictly positive grid"):
            tau_kk_residual(t)

    def test_tau_variant_flags_incommensurate_grid(self):
        g = FrequencyGrid.linspace(0.0503, 3.0, 60)
        t = TemporalSpectrum(g, np.ones(60), np.zeros(60))
        with pytest.raises(NonUniformGrid):
            tau_kk_residual(t)


class TestFrequencySumRule:
    def test_inverse_frequency_model_is_exact(self):
        """For S = c/omega the weighted integrand cancels identically."""
        g = FrequencyGrid.linspace(0.5, 50.0, 992)
        full = np.concatenate([-g.values[::-1], g.values])
        grid = FrequencyGrid(full)
        spec = ComplexSpectrum(grid, (2.3 + 0.4j) / grid.values)
        temp = TemporalSpectrum(grid, np.zeros(len(grid)), 1.0 / grid.values)
        assert frequency_sum_rule(spec, temp)[0] == 0j

    def test_single_resonance_balance(self):
        """One sharp resonance with a 1/omega prefactor balances to O(gamma)."""
        model = PoleZeroModel(p=1, resonances=((10.0, 0.02),))
        pos = np.arange(0.5, 60.0 + 1e-9, 0.001)
        grid = FrequencyGrid(np.concatenate([-pos[::-1], pos]))
        from tauspec.core import evaluate_model

        s_pos = evaluate_model(model, pos)
        values = np.concatenate([np.conj(s_pos)[::-1], s_pos])
        tau_pos = model_tau(model, pos)
        tau = np.concatenate([np.conj(tau_pos)[::-1], tau_pos])
        spec = ComplexSpectrum(grid, values)
        temp = TemporalSpectrum(grid, tau.real, tau.imag)
        value, scale = frequency_sum_rule(spec, temp)
        analytic = 4j * np.pi * 0.02 / 10.0**3
        assert abs(value) / scale < 1e-2
        assert value.imag == pytest.approx(analytic.imag, rel=0.02)
        assert abs(value.real) < 1e-12

    def test_origin_node_rejected(self):
        g = FrequencyGrid.linspace(-1.0, 1.0, 21)
        spec = ComplexSpectrum(g, np.ones(21, dtype=complex))
        temp = TemporalSpectrum(g, np.ones(21), np.zeros(21))
        with pytest.raises(OriginInGrid):
            frequency_sum_rule(spec, temp)

    def test_grid_mismatch_rejected(self):
        g1 = FrequencyGrid.linspace(0.5, 1.5, 21)
        g2 = FrequencyGrid.linspace(0.5, 1.5, 22)
        spec = ComplexSpectrum(g1, np.ones(21, dtype=complex))
        temp = TemporalSpectrum(g2, np.ones(22), np.zeros(22))
        with pytest.raises(GridError):
            frequency_sum_rule(spec, temp)


class TestResidueSeries:
    def test_single_resonance_at_pi(self):
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        tau1, tau2 = residue_time_domain(model, np.array([np.pi]))
        assert tau1[0] == pytest.approx(np.exp(-0.2 * np.pi), rel=1e-12)
        assert tau2[0] == pytest.approx(-1j * tau1[0])

    def test_origin_counts_resonances(self):
        model = PoleZeroModel(
            resonances=((1.0, 0.2), (2.0, 0.5), (3.5, 1.0))
        )
        tau1, tau2 = residue_time_domain(model, np.array([0.0]))
        assert tau1[0] == -3.0
        assert tau2[0] == 0j

    def test_negative_time_parity(self):
        model = PoleZeroModel(resonances=((1.3, 0.4),))
        t = np.array([-2.0, 2.0])
        tau1, tau2 = residue_time_domain(model, t)
        assert tau1[0] == pytest.approx(tau1[1])
        assert tau2[0] == pytest.approx(np.conj(tau2[1]))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        """Refused at entry: inf would warn in cos, and NaN would come
        back as NaN with no warning."""
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        for arg in (t, np.array([0.5, t])):
            with pytest.raises(ValueError, match="^t must be finite$"):
                residue_time_domain(model, arg)


def per_panel_winding(model, contour, samples_per_edge):
    """The quadrature panel by panel, summed in edge-then-panel order."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    v = contour.vertices
    total = 0.0 + 0.0j
    for v0, v1 in zip(v[:-1], v[1:]):
        edges = np.linspace(0.0, 1.0, samples_per_edge + 1)
        for s0, s1 in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (s0 + s1)
            half = 0.5 * (s1 - s0)
            z_q = v0 + (v1 - v0) * (mid + half * nodes)
            total += (v1 - v0) * half * np.sum(weights * model_tau(model, z_q))
    return float(np.real(total) / (2.0 * np.pi))


class TestWinding:
    @pytest.mark.parametrize("samples", [16, 256])
    @pytest.mark.parametrize("p", [0, 1])
    def test_bitwise_equal_to_per_panel_loop(self, samples, p):
        model = PoleZeroModel(resonances=((1.0, 0.2), (1.7, 0.05)), p=p)
        contours = [
            Contour.rectangle(*rect)
            for rect in [
                (0.0, 2.0, 0.02, 1.0),
                (0.0, 2.0, -1.0, -0.02),
                (2.0, 3.0, 0.02, 1.0),
                (-0.5, 2.5, -1.0, 1.0),
            ]
        ]
        for contour in contours:
            got = winding_number(model, contour, samples)
            want = per_panel_winding(model, contour, samples)
            assert got == want and np.signbit(got) == np.signbit(want)

    def test_zero_pole_nothing(self):
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        upper = Contour.rectangle(0.0, 2.0, 0.0, 1.0)
        lower = Contour.rectangle(0.0, 2.0, -1.0, 0.0)
        empty = Contour.rectangle(3.0, 4.0, -1.0, 1.0)
        assert winding_number(model, upper) == pytest.approx(1.0, abs=1e-3)
        assert winding_number(model, lower) == pytest.approx(-1.0, abs=1e-3)
        assert winding_number(model, empty) == pytest.approx(0.0, abs=1e-3)

    def test_full_rectangle_cancels(self):
        model = PoleZeroModel(resonances=((1.0, 0.2), (1.5, 0.3)))
        both = Contour.rectangle(0.5, 2.0, -1.0, 1.0)
        assert winding_number(model, both) == pytest.approx(0.0, abs=1e-3)

    def test_singularity_on_contour_detected(self):
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        grazing = Contour.rectangle(0.0, 2.0, 0.1, 1.0)
        with pytest.raises(SingularityOnContour):
            winding_number(model, grazing)

    def test_minimum_sampling_enforced(self):
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        box = Contour.rectangle(0.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            winding_number(model, box, samples_per_edge=8)

    def test_far_rectangle_counts_zero(self):
        """An ordered rectangle out at 1e16, two ulps a side, whose shoelace
        sum cancels to 0: counted, with no warning (the suite makes them
        errors)."""
        side = (1e16, 1.0000000000000004e16)
        contour = Contour.rectangle(*side, *side)
        assert winding_number(PoleZeroModel(resonances=((1.0, 0.2),)), contour) == 0.0

    def test_subnormal_width_counts_with_no_warning(self):
        """A rectangle 5e-324 wide: the singularity gap divides by no edge,
        so nothing overflows, and the count is the quadrature's."""
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        contour = Contour.rectangle(0.0, 5e-324, 0.0, 1.0)
        got = winding_number(model, contour)
        assert got == per_panel_winding(model, contour, 16)
        assert abs(got) < 1e-15

    def test_contour_validation(self):
        """Three refusals, in this order: NaN is out of order, not finite."""
        for rect in ((0.0, np.nan, 0.0, 1.0), (0.0, 1.0, np.nan, np.inf),
                     (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="^rectangle bounds must be ordered$"):
                Contour.rectangle(*rect)
        for rect in ((0.0, np.inf, 0.0, 1.0), (-np.inf, 0.0, 0.0, 1.0),
                     (0.0, 1.0, 0.0, np.inf)):
            with pytest.raises(ValueError, match="^contour vertices must be finite$"):
                Contour(*rect)
        # The suite turns warnings into errors, so an overflow warning fails here.
        for rect in ((0.0, 2.0, 0.02, 1e200), (-1e300, 1e300, -1.0, 1.0)):
            with pytest.raises(ValueError, match="^contour area overflows$"):
                Contour.rectangle(*rect)
        box = Contour(0.0, 2.0, -1.0, 1.0)
        assert box.vertices.tolist() == [-1j, 2 - 1j, 2 + 1j, 1j, -1j]
        assert not box.vertices.flags.writeable
        with pytest.raises(TypeError):
            Contour(vertices=box.vertices)


def segment_gap(v0, v1, points):
    """The per-edge projection the rectangle's gap replaced: the distance
    from the nearest of ``points`` to the segment v0-v1, which an ordered
    rectangle never makes of zero length."""
    d = v1 - v0
    t = np.clip(((points - v0) / d).real, 0.0, 1.0)
    return float(np.min(np.abs(points - (v0 + t * d))))


_COORD = st.floats(-1e100, 1e100) | st.floats(-4.0, 4.0) | st.sampled_from([0.0, 1.0, 5e-324])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_COORD, min_size=4, max_size=4), st.lists(_COORD, min_size=2, max_size=8))
def test_boundary_gap_matches_per_edge_projection(bounds, coords):
    """The gap to the rectangle, taken with no division, against the least
    of the four per-edge projections, to 1e-15 of the largest coordinate."""
    re_lo, re_hi, im_lo, im_hi = sorted(bounds[:2]) + sorted(bounds[2:])
    assume(re_lo < re_hi and im_lo < im_hi)
    contour = Contour.rectangle(re_lo, re_hi, im_lo, im_hi)
    points = np.array(coords[: len(coords) // 2 * 2]).view(complex)
    v = contour.vertices
    # A quotient by a subnormal edge overflows, or is NaN: no reference there.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [segment_gap(v0, v1, points) for v0, v1 in zip(v[:-1], v[1:])]
    assume(not np.isnan(gaps).any())
    want = min(gaps)
    scale = max(map(abs, bounds + coords))
    assert abs(_boundary_gap(contour, points) - want) <= 1e-15 * scale
