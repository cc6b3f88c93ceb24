"""The Hilbert transform, its tail models and reconstruct, bit for bit.

Each kernel is compared, through ``.view(np.int64)`` so that the sign of
zero counts, with a verbatim copy of the arithmetic it had before it was
rewritten to skip temporaries and masked gathers (its input guards left
out).  The sizes straddle
16,384 complex nodes (256 KiB), where numpy starts to reuse temporaries
in place and so swaps the operands of a product such as
``anchor_value * np.exp(...)``; complex products are not bitwise
commutative there.

The drawn values keep every trapezoid increment of reconstruct above the
underflow threshold.  Below it the reference's sign of a zero increment
depends on whether numpy's complex loops fuse their multiply-adds, and
reconstruct makes every zero running sum +0.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauspec.core import FrequencyGrid, TemporalSpectrum, reconstruct, uniform_spacing
from tauspec.dispersion import (
    _kernel_spectrum,
    _log_ratio_balanced,
    _log_ratio_over_omega,
    hilbert_transform,
)

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
