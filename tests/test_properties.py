"""Property-based invariants over randomly drawn inputs.

Each test states an identity that should hold for a whole family of
inputs, not just the pinned cases in the other test modules.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tauspec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    RationalResponse,
    TemporalSpectrum,
    evaluate_model,
    extend_negative_frequencies,
    model_tau,
)
from tauspec.dispersion import Contour, residue_time_domain, winding_number
from tauspec.errors import GridError
from tauspec.extract import ExtractionOptions, extract_temporal, uncertainty_product
from tauspec.fileio import format_artifact, read_table
from tauspec.physics import PhotonParams, TwoLevelParams, cross_section_tau2
from tauspec.scatter1d import PotentialProfile, s_matrix

COMMON = dict(max_examples=25, deadline=None)

resonance = st.tuples(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.05, max_value=1.0),
)
resonance_sets = st.lists(resonance, min_size=1, max_size=4).map(tuple)


class TestPoleZeroFamily:
    @settings(**COMMON)
    @given(res=resonance_sets, scale=st.floats(min_value=0.25, max_value=4.0))
    def test_unit_modulus_and_positive_delay(self, res, scale):
        model = PoleZeroModel(scale=scale, resonances=res)
        x = np.linspace(0.0, 6.0, 41)
        vals = evaluate_model(model, x)
        np.testing.assert_allclose(np.abs(vals), scale, atol=1e-10)
        tau = model_tau(model, x)
        np.testing.assert_allclose(tau.imag, 0.0, atol=1e-10)
        assert np.all(tau.real > 0.0)

    @settings(**COMMON)
    @given(
        res=resonance_sets,
        p=st.integers(min_value=1, max_value=3),
        sign=st.sampled_from((1, -1)),
    )
    def test_power_prefactor_shifts_tau_by_imaginary_term(self, res, p, sign):
        base = PoleZeroModel(resonances=res)
        powered = PoleZeroModel(resonances=res, p=p, prefactor_sign=sign)
        x = np.linspace(0.5, 6.0, 23)
        delta = model_tau(powered, x) - model_tau(base, x)
        np.testing.assert_allclose(delta, sign * p * 1j / x, rtol=1e-12)

    @settings(**COMMON)
    @given(res=resonance_sets)
    def test_residue_series_parity(self, res):
        model = PoleZeroModel(resonances=res)
        t = np.linspace(0.1, 7.0, 17)
        tau1_pos, tau2_pos = residue_time_domain(model, t)
        tau1_neg, tau2_neg = residue_time_domain(model, -t)
        np.testing.assert_array_equal(tau1_pos, tau1_neg)
        np.testing.assert_array_equal(tau2_pos, -tau2_neg)
        np.testing.assert_array_equal(tau2_pos, -1j * np.sign(t) * tau1_pos)


# A factor (root, degree, power) of a RationalResponse, its root off the real axis.
factors = st.lists(st.tuples(
    st.builds(complex, st.floats(min_value=-5.0, max_value=5.0),
              st.floats(min_value=0.05, max_value=2.0) | st.floats(min_value=-2.0,
                                                                   max_value=-0.05)),
    st.sampled_from((1, 2)),
    st.sampled_from((-1.0, 1.0, 2.0, 1.0 / np.pi, -1.0 / np.pi)),
), min_size=1, max_size=4).map(tuple)


class TestAnchoredRatio:
    @settings(**COMMON)
    @given(factors=factors, anchor=st.floats(min_value=-5.0, max_value=5.0))
    def test_exactly_one_at_the_anchor(self, factors, anchor):
        """S(omega)/S(anchor) is 1 + 0j bit for bit where omega is the anchor,
        and the quotient of the two values elsewhere."""
        response = RationalResponse(2.0 - 1.0j, factors)
        omega = np.array([anchor, anchor + 0.5, anchor - 0.25, anchor])
        ratio = response.ratio(omega, anchor)
        assert [(z.real, z.imag) for z in ratio[[0, 3]]] == [(1.0, 0.0)] * 2
        assert response.ratio(anchor, anchor) == 1.0
        np.testing.assert_allclose(
            ratio[1:3], response.values(omega[1:3]) / response.values(anchor), rtol=1e-12)


class TestWindingCount:
    @settings(**COMMON)
    @given(
        omega0=st.floats(min_value=0.5, max_value=3.0),
        gamma=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_integrality_and_additive_split(self, omega0, gamma):
        model = PoleZeroModel(resonances=((omega0, gamma),))
        lo, hi = omega0 - 2 * gamma, omega0 + 2 * gamma
        full = winding_number(model, Contour.rectangle(lo, hi, gamma / 8, 4 * gamma), 24)
        bottom = winding_number(
            model, Contour.rectangle(lo, hi, gamma / 8, gamma / 4), 24
        )
        top = winding_number(model, Contour.rectangle(lo, hi, gamma / 4, 4 * gamma), 24)
        assert full == pytest.approx(1.0, abs=1e-3)
        assert bottom == pytest.approx(0.0, abs=1e-3)
        assert top == pytest.approx(1.0, abs=1e-3)
        assert full == pytest.approx(bottom + top, abs=1e-3)


class TestExtraction:
    @settings(**COMMON)
    @given(
        modulus=st.floats(min_value=0.1, max_value=10.0),
        phase=st.floats(min_value=-3.1, max_value=3.1),
    )
    def test_constant_rescale_leaves_tau_unchanged(self, modulus, phase):
        grid = FrequencyGrid.linspace(0.25, 1.75, 101)
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        vals = evaluate_model(model, grid.values)
        base = extract_temporal(ComplexSpectrum(grid, vals))
        scaled = extract_temporal(
            ComplexSpectrum(grid, modulus * np.exp(1j * phase) * vals)
        )
        np.testing.assert_allclose(scaled.tau1, base.tau1, atol=1e-10)
        np.testing.assert_allclose(scaled.tau2, base.tau2, atol=1e-10)

    @settings(**COMMON)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=3, max_value=40))
    def test_negative_extension_parity(self, seed, n):
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid.linspace(0.5, 1.5, n)
        temporal = TemporalSpectrum(
            grid, rng.standard_normal(n), rng.standard_normal(n)
        )
        ext = extend_negative_frequencies(temporal)
        np.testing.assert_array_equal(ext.grid.values, -ext.grid.values[::-1])
        np.testing.assert_array_equal(ext.tau1, ext.tau1[::-1])
        np.testing.assert_array_equal(ext.tau2, -ext.tau2[::-1])

    @pytest.mark.parametrize("order,min_rate", [(2, 1.8), (4, 3.5)])
    def test_stencil_convergence_rate(self, order, min_rate):
        model = PoleZeroModel(resonances=((1.0, 0.2),))
        errors = []
        for n in (401, 801):
            grid = FrequencyGrid.linspace(0.25, 1.75, n)
            spec = ComplexSpectrum(grid, evaluate_model(model, grid.values))
            got = extract_temporal(spec, ExtractionOptions(stencil_order=order))
            want = model_tau(model, grid.values).real
            errors.append(np.max(np.abs(got.tau1[3:-3] - want[3:-3])))
        rate = np.log2(errors[0] / errors[1])
        assert rate > min_rate


class TestUncertainty:
    @settings(**COMMON)
    @given(
        sigma=st.floats(min_value=0.5, max_value=1.0),
        center=st.floats(min_value=-2.0, max_value=2.0),
        chirp=st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_chirped_gaussian_sits_on_floor(self, sigma, center, chirp):
        grid = FrequencyGrid.linspace(-18.0, 18.0, 1801)
        x = grid.values
        vals = np.exp(-((x - center) ** 2) * (1 + 1j * chirp) / (4 * sigma**2))
        budget = uncertainty_product(ComplexSpectrum(grid, vals))
        prod_sq = (budget.delta_e * budget.delta_t) ** 2
        floor = 0.25 + 0.25 * budget.covariance**2
        assert prod_sq >= floor - 1e-6
        assert prod_sq == pytest.approx(0.25 * (1 + chirp**2), abs=1e-4)


class TestTwoLevel:
    @settings(**COMMON)
    @given(
        omega0=st.floats(min_value=1.0, max_value=20.0),
        gamma=st.floats(min_value=0.01, max_value=2.0),
        detune=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_branch_identities(self, omega0, gamma, detune):
        omega = omega0 + detune * gamma
        denom = (omega - omega0) ** 2 + gamma**2 / 4
        up = TwoLevelParams(omega0, gamma, branch="upper").response().tau(omega)
        down = TwoLevelParams(omega0, gamma).response().tau(omega)
        assert up.real == pytest.approx(gamma / (2 * np.pi * denom), rel=1e-12)
        assert up.real == down.real
        assert up.imag == pytest.approx(-down.imag, rel=1e-12, abs=1e-15)


class TestCrossSection:
    @settings(**COMMON)
    @given(
        coeffs=st.tuples(
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-0.5, max_value=0.5),
            st.floats(min_value=-0.5, max_value=0.5),
        )
    )
    def test_multiplicative_factors_add(self, coeffs):
        a1, b1, a2, b2 = coeffs
        grid = FrequencyGrid.linspace(1.0, 2.0, 101)
        x = grid.values
        sigma1 = np.exp(a1 + b1 * x)
        sigma2 = np.exp(a2 + b2 * x**2)
        combined = cross_section_tau2(sigma1 * sigma2, grid)
        split = cross_section_tau2(sigma1, grid) + cross_section_tau2(sigma2, grid)
        np.testing.assert_allclose(combined, split, atol=1e-8)


class TestPhoton:
    @settings(**COMMON)
    @given(
        k_abs=st.floats(min_value=0.5, max_value=3.0),
        below=st.floats(min_value=0.1, max_value=0.9),
        above=st.floats(min_value=1.1, max_value=3.0),
    )
    def test_formation_sign_flips_across_k(self, k_abs, below, above):
        response = PhotonParams(k_abs, 1e-6).response()
        tau2_below = response.tau(below * k_abs).imag
        tau2_above = response.tau(above * k_abs).imag
        assert tau2_below * tau2_above < 0.0


segments = st.lists(
    st.tuples(
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.5),
    ),
    min_size=1,
    max_size=3,
).map(tuple)


class TestScattering:
    @settings(**COMMON)
    @given(segs=segments, energy=st.floats(min_value=0.1, max_value=3.0))
    def test_unitarity_and_reciprocity(self, segs, energy):
        assume(min(abs(energy - h) for _, h in segs) > 1e-3)
        amp = s_matrix(PotentialProfile(segs), energy)
        assert amp.unitarity_defect() < 1e-10
        assert abs(amp.t) ** 2 <= 1.0 + 1e-12
        assert amp.t == amp.t_prime


class TestNonFiniteSamples:
    @settings(**COMMON)
    @given(
        data=st.data(),
        n=st.integers(min_value=3, max_value=40),
        bad=st.sampled_from((np.nan, np.inf, -np.inf)),
        column=st.sampled_from(("re", "im", "tau1", "tau2")),
    )
    def test_containers_reject_any_non_finite_sample(self, data, n, bad, column):
        node = data.draw(st.integers(min_value=0, max_value=n - 1))
        grid = FrequencyGrid.linspace(0.5, 1.5, n)
        values = np.ones(n, dtype=complex)
        tau1, tau2 = np.ones(n), np.ones(n)
        parts = {"re": values.real, "im": values.imag, "tau1": tau1, "tau2": tau2}
        parts[column][node] = bad
        with pytest.raises(GridError):
            if column in ("re", "im"):
                ComplexSpectrum(grid, values)
            else:
                TemporalSpectrum(grid, tau1, tau2)


class TestGridsAndArtifacts:
    @settings(**COMMON)
    @given(
        lo=st.floats(min_value=-5.0, max_value=5.0),
        span=st.floats(min_value=0.1, max_value=50.0),
        n=st.integers(min_value=3, max_value=500),
    )
    def test_linspace_grid_shape(self, lo, span, n):
        grid = FrequencyGrid.linspace(lo, lo + span, n)
        assert len(grid) == n
        assert grid.values[0] == pytest.approx(lo, abs=1e-12)
        assert grid.values[-1] == pytest.approx(lo + span, rel=1e-12)
        assert np.mean(np.diff(grid.values)) == pytest.approx(span / (n - 1), rel=1e-9)

    @settings(**COMMON)
    @given(
        mapping=st.dictionaries(
            st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-1000, max_value=1000),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_artifact_text_is_deterministic_and_sorted(self, mapping):
        text = format_artifact("check", mapping)
        assert text == format_artifact("check", mapping)
        keys = [line.split("=", 1)[0] for line in text.splitlines()[1:]]
        assert keys == sorted(keys)


def loop_read_table(path):
    """The per-cell ``float`` parser that ``read_table`` replaced, kept as
    the reference for its numpy path."""
    with open(path, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0]
    names = header.split(",")
    data = []
    try:
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(names):
                raise ValueError(f"row has {len(parts)} fields, expected {len(names)}")
            data.append([float(p) for p in parts])
    except ValueError as exc:
        with open(path, "r") as fh:
            numbers = [no for no, ln in enumerate(fh, 1) if ln.strip()]
        raise ValueError(f"{path}: line {numbers[len(data) + 1]}: {exc}") from None
    if not data:
        raise ValueError(f"{path}: table has no rows")
    arr = np.asarray(data, dtype=float)
    return header, [arr[:, i] for i in range(arr.shape[1])]


# Cells as writers print them, and cells that only float() or neither
# parser accepts: underscores, non-ASCII digits, comment marks, hex,
# inf/nan spellings, stray whitespace, NUL and empty cells.
number_cells = st.one_of(
    st.floats(width=64).map(lambda x: "%.12e" % x),
    st.floats(width=64).map(repr),
    st.floats(width=64).map(lambda x: "%.17g" % x),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
)
odd_cells = st.one_of(
    st.text(alphabet="0123456789+-.eE_# \t", max_size=8),
    st.sampled_from([
        "", " ", "inf", "-inf", "+Infinity", "iNfInItY", "nan", "-NaN", "+nan",
        "nan(1)", "1_0", "1__0", "_1", "\u0661", "1\u0660", "0x10", "1e400",
        "-1e-400", "1.", ".5", ".", "e5", "1e", "1e+", "# 1", "1 2", " 1 ",
        "\t-0.0\t", "1\x0c", "\x0b2", "1\x00", "1d0", "\u00a01",
    ]),
)
any_cells = st.one_of(number_cells, number_cells, number_cells, odd_cells)


@st.composite
def csv_tables(draw):
    """Table text: a header of 1-4 names, then rows (as wide as the header
    or all one other width), ragged rows, trailing commas, blank lines."""
    width = draw(st.integers(min_value=1, max_value=4))
    row_width = draw(st.sampled_from([width] * 4 + [width + 1, max(width - 1, 1)]))
    cells = draw(st.sampled_from([number_cells, any_cells]))
    lines = [",".join("abcd"[:width])]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["ragged", "comma", "blank", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t "])))
            continue
        n = row_width if kind != "ragged" else draw(st.integers(min_value=1, max_value=5))
        row = ",".join(draw(st.lists(cells, min_size=n, max_size=n)))
        lines.append(row + ("," if kind == "comma" else ""))
    lead = draw(st.sampled_from(["", "\n", " \n"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return lead + end.join(lines) + draw(st.sampled_from(["", end]))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tables") / "t.csv")


class TestReadTable:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_tables())
    def test_numpy_path_matches_the_float_loop(self, table_path, text):
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = loop_read_table(table_path)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_table(table_path)
            assert str(info.value) == str(exc)
            return
        header, cols = read_table(table_path)
        assert header == want[0]
        assert len(cols) == len(want[1])
        for got, ref in zip(cols, want[1]):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
