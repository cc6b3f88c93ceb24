"""The kernels rewritten to skip passes and temporaries, bit for bit.

Each kernel is compared, through ``.view(np.int64)`` so that the sign of
zero counts, with a verbatim copy of the arithmetic it had before it was
rewritten (its input guards left out, except where the guards are what
was rewritten: the grid checks and the extraction's guards, whose
refusals must match too).  The sizes straddle 16,384 complex nodes
(256 KiB), where numpy starts to reuse temporaries in place and so swaps
the operands of a product such as ``anchor_value * np.exp(...)``;
complex products are not bitwise commutative there.

The drawn values keep every trapezoid increment of reconstruct above the
underflow threshold.  Below it the reference's sign of a zero increment
depends on whether numpy's complex loops fuse their multiply-adds, and
reconstruct makes every zero running sum +0.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauspec import extract
from tauspec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    TemporalSpectrum,
    reconstruct,
    uniform_spacing,
)
from tauspec.dispersion import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    _interior,
    _kernel_spectrum,
    _log_ratio_balanced,
    _log_ratio_over_omega,
    _median,
    _sum_rule_blocks,
    frequency_sum_rule,
    hilbert_transform,
    kk_residual,
    tau_kk_residual,
)
from tauspec.errors import GridError, NonUniformGrid, ZeroModulus
from tauspec.extract import ExtractionOptions, _differentiate, _log_spectrum, extract_temporal

BITS = dict(deadline=None, derandomize=True)
# Node counts below and above the 16,384 complex nodes of numpy's elision.
SIZES = st.one_of(st.integers(11, 400), st.integers(16_300, 16_500), st.integers(20_000, 40_000))


# -- reference copies --------------------------------------------------------
def _ref_log_ratio_over_omega(omega, edge):
    out = np.empty(omega.shape, dtype=float)
    small = np.abs(omega) <= 1e-8 * abs(edge)
    out[small] = -1.0 / edge - omega[small] / (2.0 * edge**2)
    big = ~small
    out[big] = np.log1p(-omega[big] / edge) / omega[big]
    return out


def _ref_log_ratio_balanced(omega, edge):
    out = np.empty(omega.shape, dtype=float)
    small = np.abs(omega) <= 1e-5 * abs(edge)
    out[small] = -1.0 / (2.0 * edge**2) - omega[small] / (3.0 * edge**3)
    big = ~small
    om = omega[big]
    out[big] = np.log1p(-om / edge) / om**2 + 1.0 / (om * edge)
    return out


def _ref_skip_node_sums(values):
    n = values.size
    size, half = _kernel_spectrum(n)
    weighted = np.array(values, dtype=complex)
    weighted[[0, -1]] *= 0.5
    spectrum = np.fft.fft(weighted, size)
    spectrum[: half.size] *= half
    spectrum[half.size :] *= np.conj(half[(size - 1) // 2 : 0 : -1])
    return np.fft.ifft(spectrum)[:n]


def _ref_pv_core(values):
    n = values.size
    s1 = _ref_skip_node_sums(values)
    out = np.empty(n, dtype=complex)
    out[0] = s1[0]
    out[-1] = s1[-1]
    idx = np.arange(1, n - 1, dtype=float)
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n))))
    ones_sums = harmonic[1:-1] - harmonic[-2:0:-1] - 0.5 / idx + 0.5 / (n - 1 - idx)
    log_kernel = np.log(idx / (n - 1 - idx))
    centre = 0.5 * (values[2:] - values[:-2])
    mid = slice(1, n - 1)
    out[mid] = s1[mid] - values[mid] * ones_sums - centre + values[mid] * log_kernel
    return out


def _ref_tail_correction(x, f, h, tail_model):
    a = x[0] - 0.5 * h
    b = x[-1] + 0.5 * h
    count = max(3, int(round(0.05 * x.size)))
    if tail_model == "one_over_omega":
        power, ratio = 1, _ref_log_ratio_over_omega
    else:
        power, ratio = 2, _ref_log_ratio_balanced
    a_right = np.mean(f[-count:] * x[-count:] ** power)
    a_left = np.mean(f[:count] * x[:count] ** power)
    return a_right * ratio(x, b) - a_left * ratio(x, a)


def _ref_hilbert_transform(spectrum_values, grid, tail_model="none"):
    f = np.asarray(spectrum_values, dtype=complex)
    x = grid.values
    h = uniform_spacing(x, "hilbert_transform needs a uniform grid")
    out = _ref_pv_core(f)
    if tail_model != "none":
        out = out + _ref_tail_correction(x, f, h, tail_model)
    return out / np.pi


def _ref_reconstruct(temporal, anchor_omega, anchor_value):
    grid = temporal.grid.values
    dlog = 1j * temporal.tau1 - temporal.tau2
    log_s = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (dlog[1:] + dlog[:-1]) / 2.0))
    )
    at_anchor = np.interp(anchor_omega, grid, log_s.real) + 1j * np.interp(
        anchor_omega, grid, log_s.imag
    )
    return anchor_value * np.exp(log_s - at_anchor)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# -- tail ratios ---------------------------------------------------------------
@settings(max_examples=200, **BITS)
@given(
    omega=st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from((0.0, -0.0, 1e-9, -3e-6)),
                             st.floats(-1e-4, 1e-4)), min_size=1, max_size=60)
    .map(lambda v: np.array(v, dtype=float)),
    edge=st.one_of(st.floats(1e3 + 1.0, 1e4), st.floats(-1e4, -1e3 - 1.0)),
)
@example(omega=np.array([0.0, -0.0, 1e-12, -1e-12, 5.0]), edge=1001.0)
def test_log_ratios_match_reference(omega, edge):
    """The whole-grid formula, with the nodes near zero overwritten, gives
    the masked evaluation's bits and lets no warning out."""
    for got, want in ((_log_ratio_over_omega, _ref_log_ratio_over_omega),
                      (_log_ratio_balanced, _ref_log_ratio_balanced)):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _same_bits(got(omega, edge), want(omega, edge))


# -- Hilbert transform ------------------------------------------------------------
@settings(max_examples=24, **BITS)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), lo=st.floats(-60.0, -0.5),
       tail=st.sampled_from(("none", "one_over_omega", "one_over_omega2")),
       shape=st.sampled_from(("pole", "noise", "real", "zero-tail")))
@example(n=16_385, seed=0, lo=-10.0, tail="one_over_omega", shape="pole")
@example(n=16_383, seed=1, lo=-10.0, tail="one_over_omega2", shape="real")
def test_hilbert_transform_matches_reference(n, seed, lo, tail, shape):
    rng = np.random.default_rng(seed)
    x = np.linspace(lo, -lo * rng.uniform(0.5, 2.0), n)
    if shape == "pole":
        values = 1.0 / (x - rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.05, 1.0))
    elif shape == "noise":
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif shape == "real":
        values = rng.standard_normal(n) + 0j
    else:
        values = 1.0 / (x - 0.3 + 0.2j)
        values[: n // 3] = -0.0
    grid = FrequencyGrid(x)
    _same_bits(hilbert_transform(values, grid, tail),
               _ref_hilbert_transform(values, grid, tail))


# -- reconstruct -----------------------------------------------------------------
ANCHOR_VALUES = st.one_of(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
    st.sampled_from((1.0 + 0j, 1j, complex(0.5, -0.0), complex(-0.0, 3.0))),
)


@settings(max_examples=60, **BITS)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), lo=st.floats(-5.0, 5.0),
       kind=st.sampled_from(("full", "tau2-zero", "tau1-zero", "both-zero", "negative-zero",
                             "sparse")),
       where=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       at_node=st.booleans(), value=ANCHOR_VALUES)
@example(n=300, seed=1, lo=0.0, kind="full", where=0.4, at_node=False, value=-2.5 + 0.25j)
@example(n=20_000, seed=2, lo=0.0, kind="full", where=0.4, at_node=False, value=-2.5 + 0.25j)
@example(n=16_000, seed=3, lo=0.0, kind="tau2-zero", where=0.0, at_node=True, value=1j)
@example(n=40, seed=4, lo=0.0, kind="tau1-zero", where=1.0, at_node=True, value=-2.0 + 0j)
def test_reconstruct_matches_reference(n, seed, lo, kind, where, at_node, value):
    rng = np.random.default_rng(seed)
    grid = np.linspace(lo, lo + rng.uniform(0.5, 20.0), n)
    tau = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind in ("tau2-zero", "both-zero"):
        tau.imag = 0.0
    if kind in ("tau1-zero", "both-zero"):
        tau.real = 0.0
    if kind == "negative-zero":
        tau.real = tau.imag = -0.0
    if kind == "sparse":
        tau[rng.random(n) < 0.5] = 0.0
    # TemporalSpectrum keeps these strided views of one complex array.
    temporal = TemporalSpectrum(FrequencyGrid(grid), tau.real, tau.imag)
    assert not temporal.tau1.flags.c_contiguous
    anchor = grid[0] + (grid[-1] - grid[0]) * where
    if at_node:
        anchor = grid[int(where * (n - 1))]
    _same_bits(reconstruct(temporal, anchor, value).values,
               _ref_reconstruct(temporal, anchor, value))


# -- grid checks -------------------------------------------------------------------
def _ref_uniform_spacing(x, message):
    steps = np.diff(x)
    h = float(np.mean(steps)) if steps.size else 0.0
    if not (h > 0 and np.max(np.abs(steps - h))
            <= 1e-9 * h + 1e-12 * np.max(np.abs(x))):
        raise NonUniformGrid(message)
    return h


def _ref_grid_refusal(values):
    """The message FrequencyGrid refused ``values`` with, or None."""
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        return "grid contains non-finite values"
    if not np.all(np.diff(arr) > 0):
        return "grid must be strictly increasing"
    return None


def _outcome(call, *args):
    """What ``call(*args)`` returned, or the class and message it raised."""
    try:
        return call(*args)
    except (GridError, NonUniformGrid) as exc:
        return type(exc), str(exc)


SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)


@st.composite
def grids(draw):
    """Uniform, jittered or stepped grids, some with a special value at an
    end or inside, some with a signed zero next to +0."""
    n = draw(SIZES)
    lo = draw(st.floats(-1e3, 1e3))
    x = np.linspace(lo, lo + draw(st.floats(1e-6, 1e4)), n)
    shape = draw(st.sampled_from(("uniform", "jitter", "step", "special", "zeros",
                                  "reversed")))
    if shape == "jitter":
        x += draw(st.sampled_from((1e-15, 1e-12, 1e-9, 1e-6))) * (x[1] - x[0]) * (
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n))
    elif shape == "step":
        x[draw(st.integers(1, n - 1)):] += draw(st.floats(-1.0, 1.0)) * (x[1] - x[0])
    elif shape == "special":
        for _ in range(draw(st.integers(1, 3))):
            where = draw(st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1)))
            x[where] = draw(st.sampled_from(SPECIALS))
    elif shape == "zeros":
        x = np.linspace(-1.0, 1.0, n)
        x[n // 2 : n // 2 + 2] = draw(st.sampled_from(((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0))))
    elif shape == "reversed":
        x = x[::-1].copy()
    return x


@settings(max_examples=300, **BITS)
@given(x=grids())
@example(x=np.array([np.nan, 1.0, 2.0]))
@example(x=np.array([0.0, np.nan, 2.0]))
@example(x=np.array([0.0, 1.0, np.inf]))
@example(x=np.array([-np.inf, 1.0, 0.5]))
@example(x=np.array([2.0, 1.0, np.nan]))
@example(x=np.array([-0.0, 0.0, 1.0]))
def test_uniform_spacing_and_grid_checks_match_reference(x):
    """The step, or the refusal, of uniform_spacing; the grid FrequencyGrid
    keeps, or the first of its messages that applies."""
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = (_outcome(check, x, "not uniform")
                     for check in (uniform_spacing, _ref_uniform_spacing))
    assert type(got) is type(want)
    if isinstance(want, float):
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    else:
        assert got == want
    refusal = _ref_grid_refusal(x)
    made = _outcome(FrequencyGrid, x)
    if refusal is None:
        _same_bits(made.values, x)
    else:
        assert made == (GridError, refusal)


# -- extraction --------------------------------------------------------------------
def _ref_unwrap(phase):
    steps = np.diff(phase)
    jumps = np.nonzero(~(np.abs(steps) < np.pi))[0]
    d = steps[jumps]
    wrapped = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    np.copyto(wrapped, np.pi, where=(wrapped == -np.pi) & (d > 0))
    correction = np.zeros(steps.shape)
    correction[jumps] = wrapped - d
    out = np.array(phase, dtype=float)
    out[1:] = phase[1:] + np.cumsum(correction)
    return out


def _ref_log_spectrum(spectrum, min_modulus):
    moduli = np.abs(spectrum.values)
    low = np.nonzero(moduli < min_modulus)[0]
    if low.size:
        raise ZeroModulus(
            f"|S| below {min_modulus:g} at node {low[0]}",
            node=int(low[0]),
        )
    phase = _ref_unwrap(np.angle(spectrum.values))
    return np.log(moduli), phase


def _ref_differentiate(x, f, order=2):
    x = np.asarray(x, dtype=float)
    f = np.asarray(f)
    if order == 2:
        if x.size < 3:
            raise ValueError("order-2 derivative needs at least 3 nodes")
        return np.gradient(f, x, edge_order=2)
    if order != 4:
        raise ValueError("stencil order must be 2 or 4")
    if x.size < 5:
        raise ValueError("order-4 derivative needs at least 5 nodes")
    h = _ref_uniform_spacing(x, "order-4 derivative requires a uniform grid")
    out = np.empty_like(f, dtype=np.result_type(f, float))
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    w_edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    w_off = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    out[0] = np.dot(w_edge, f[:5]) / h
    out[1] = np.dot(w_off, f[:5]) / h
    out[-1] = -np.dot(w_edge, f[-5:][::-1]) / h
    out[-2] = -np.dot(w_off, f[-5:][::-1]) / h
    return out


def _ref_extract_temporal(spectrum, order, min_modulus):
    log_mod, phase = _ref_log_spectrum(spectrum, min_modulus)
    x = spectrum.grid.values
    tau1 = _ref_differentiate(x, phase, order)
    tau2 = -_ref_differentiate(x, log_mod, order)
    return tau1, tau2


def _refusal(call, *args):
    """The arrays ``call(*args)`` returned, or what it raised: the class,
    the message and the node it named."""
    try:
        return call(*args)
    except (ZeroModulus, NonUniformGrid, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "node", None)


@settings(max_examples=60, **BITS)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(("resonances", "noise", "wrapping", "small", "negative-zero")),
       grid=st.sampled_from(("uniform", "jitter", "step")),
       order=st.sampled_from((2, 4)),
       min_modulus=st.sampled_from((1e-12, 1e-12, 1e-3, 0.5)))
@example(n=16_385, seed=0, shape="resonances", grid="uniform", order=4, min_modulus=1e-12)
@example(n=16_383, seed=1, shape="wrapping", grid="uniform", order=2, min_modulus=1e-12)
@example(n=300, seed=2, shape="noise", grid="uniform", order=4, min_modulus=1e-12)
@example(n=300, seed=3, shape="small", grid="uniform", order=4, min_modulus=1e-3)
def test_extraction_matches_reference(n, seed, shape, grid, order, min_modulus):
    """extract_temporal, _log_spectrum and _differentiate: the same bits, or
    the same refusal naming the same node.  The modulus floor is the
    module's constant, set to each drawn value to reach ZeroModulus."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.1, 0.1 + rng.uniform(0.5, 5.0), n)
    if grid == "jitter":
        x += 1e-7 * (x[1] - x[0]) * rng.standard_normal(n)
    elif grid == "step":
        x[rng.integers(1, n):] += 0.5 * (x[1] - x[0])
    if shape == "resonances":
        values = np.ones(n, dtype=complex)
        for _ in range(rng.integers(1, 4)):
            zero = rng.uniform(x[0], x[-1]) + 0.5j * rng.uniform(1e-3, 0.3)
            values *= (x - zero) / (x - np.conj(zero))
    elif shape == "noise":
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif shape == "wrapping":
        values = np.exp(1j * rng.uniform(50.0, 500.0) * x) * (1.0 + 0.5 * np.sin(x))
    elif shape == "small":
        values = (x - rng.uniform(x[0], x[-1]) + 1e-4j).astype(complex)
    else:
        values = np.exp(1j * x) * (1.0 + 0.1 * x)
        values.imag[rng.random(n) < 0.3] = -0.0
    spectrum = ComplexSpectrum(FrequencyGrid(x), values)
    with mock.patch.object(extract, "_MIN_MODULUS", min_modulus):
        got = _refusal(extract_temporal, spectrum, ExtractionOptions(stencil_order=order))
        logs = _refusal(_log_spectrum, spectrum)
    want = _refusal(_ref_extract_temporal, spectrum, order, min_modulus)
    ref_logs = _refusal(_ref_log_spectrum, spectrum, min_modulus)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        _same_bits(got.tau1, want[0])
        _same_bits(got.tau2, want[1])
        assert got.edge_nodes == order // 2
    if isinstance(ref_logs[0], type):
        assert logs == ref_logs
    else:
        for part, ref in zip(logs, ref_logs):
            _same_bits(part, ref)
        # order 4 on a real and on a complex f, or the same refusal
        for f in (ref_logs[1], values):
            derivative = _refusal(lambda *args: _differentiate(*args, order=4), x, f)
            ref_derivative = _refusal(_ref_differentiate, x, f, 4)
            if isinstance(ref_derivative, tuple):
                assert derivative == ref_derivative
            else:
                _same_bits(derivative, ref_derivative)


# -- causality residuals ---------------------------------------------------------
def _ref_kk_report(values, grid, tail_model, keep):
    transformed = _ref_hilbert_transform(values, grid, tail_model)
    inner = np.abs(values - 1j * transformed)[keep]
    return float(np.max(inner)), float(np.sqrt(np.mean(inner**2))), int(inner.size)


def _ref_tau_kk(temporal, tail_model):
    g = temporal.grid.values
    h = uniform_spacing(g, "")
    k = int(round(g[0] / h))
    n = g.size
    m_max = k + n - 1
    super_x = h * np.arange(-m_max, m_max + 1)
    values = np.zeros(super_x.size, dtype=complex)
    tau_pos = temporal.tau
    values[m_max + k :] = tau_pos
    values[: m_max - k + 1] = np.conj(tau_pos)[::-1]
    mask = np.zeros(super_x.size, dtype=bool)
    mask[_interior(super_x.size)] = True
    mask &= np.abs(super_x) > g[0] - 0.5 * h
    return _ref_kk_report(values, FrequencyGrid(super_x), tail_model, mask)


def _report_bits(report):
    return (np.float64(report.residual_max).view(np.int64),
            np.float64(report.residual_l2).view(np.int64), report.nodes)


def _want_bits(want):
    return (np.float64(want[0]).view(np.int64), np.float64(want[1]).view(np.int64), want[2])


@settings(max_examples=20, **BITS)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
       tail=st.sampled_from(("none", "one_over_omega", "one_over_omega2")),
       zeros=st.booleans())
@example(n=16_385, seed=0, k=1, tail="one_over_omega", zeros=False)
@example(n=8_192, seed=1, k=3, tail="none", zeros=True)
def test_causality_residuals_match_reference(n, seed, k, tail, zeros):
    """kk_residual and tau_kk_residual: the same statistics, bit for bit,
    over the same nodes."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(1e-3, 0.1)
    tau_x = h * np.arange(k, k + n)
    pole = rng.uniform(tau_x[0], tau_x[-1]) - 1j * rng.uniform(0.01, 1.0)
    tau = 1.0 / (tau_x - pole)
    if zeros:
        tau.imag[rng.random(n) < 0.3] = -0.0
    temporal = TemporalSpectrum(FrequencyGrid(tau_x), tau.real, tau.imag)
    assert _report_bits(tau_kk_residual(temporal, tail)) == _want_bits(
        _ref_tau_kk(temporal, tail))
    x = np.linspace(-tau_x[-1], tau_x[-1], n)
    spectrum = ComplexSpectrum(FrequencyGrid(x), 1.0 / (x - pole))
    assert _report_bits(kk_residual(spectrum, tail)) == _want_bits(
        _ref_kk_report(spectrum.values, spectrum.grid, tail, _interior(n)))


# -- sum rule and winding quadrature -------------------------------------
@settings(max_examples=200, **BITS)
@given(n=st.integers(2, 4_001), seed=st.integers(0, 2**32 - 1), gaps=st.integers(0, 5))
@example(n=2, seed=0, gaps=0)
@example(n=3, seed=0, gaps=1)
@example(n=119_000, seed=1, gaps=4)
@example(n=119_001, seed=2, gaps=4)
def test_median_matches_numpy(n, seed, gaps):
    """The sum rule's median of the grid steps, on odd and even step counts
    with and without gaps, is np.median's, bit for bit."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.5, 1.5, n) * 10.0 ** rng.integers(-3, 4)
    steps[rng.integers(0, n, gaps)] *= rng.uniform(2.0, 50.0, gaps)  # gaps in the grid
    _same_bits(np.float64(_median(steps)), np.median(steps))


def _ref_sum_rule(spectrum, temporal):
    """The value and the L1 scale as two passes, each building the
    integrand and splitting the blocks again."""
    g = spectrum.grid.values
    integrand = spectrum.values / g * (temporal.tau - 1j / g)
    total = 0.0 + 0.0j
    for block in _sum_rule_blocks(g):
        total += np.trapezoid(integrand[block], g[block])
    integrand = spectrum.values / g * (temporal.tau - 1j / g)
    scale = 0.0
    for block in _sum_rule_blocks(g):
        scale += float(np.trapezoid(np.abs(integrand[block]), g[block]))
    return complex(total), scale


@settings(max_examples=50, **BITS)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), gaps=st.integers(0, 5), mirror=st.booleans())
@example(n=992, seed=0, gaps=0, mirror=True)
def test_sum_rule_matches_two_passes(n, seed, gaps, mirror):
    """One pass gives the value and the scale of the two passes it
    replaced, bit for bit, on grids with and without gaps."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.9, 1.1, n - 1) * 1e-2
    steps[rng.integers(0, n - 1, gaps)] *= rng.uniform(2.0, 50.0, gaps)  # gaps in the grid
    x = rng.uniform(0.1, 1.0) + np.concatenate(([0.0], np.cumsum(steps)))
    grid = FrequencyGrid(np.concatenate((-x[::-1], x)) if mirror else x)
    re_s, im_s, tau1, tau2 = rng.normal(size=(4, len(grid)))
    spectrum = ComplexSpectrum(grid, re_s + 1j * im_s)
    temporal = TemporalSpectrum(grid, tau1, tau2)
    value, scale = frequency_sum_rule(spectrum, temporal)
    want_value, want_scale = _ref_sum_rule(spectrum, temporal)
    _same_bits(np.array([value]), np.array([want_value]))
    _same_bits(np.array([scale]), np.array([want_scale]))


def test_gauss_legendre_rule_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    _same_bits(_GAUSS_NODES, nodes)
    _same_bits(_GAUSS_WEIGHTS, weights)
