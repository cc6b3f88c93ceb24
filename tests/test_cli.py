"""End-to-end tests that drive the command line in process."""

import ast
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tauspec import cli, errors, fileio
from tauspec.cli import main
from tauspec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    evaluate_model,
    model_tau,
)
from tauspec.physics import OscillatorParams, PhotonParams
from tauspec.scatter1d import PotentialProfile, s_matrix, transmission_and_time

BLASCHKE_DOC = {"type": "blaschke", "resonances": [[1.0, 0.2]]}

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_SPEC = importlib.util.spec_from_file_location("refusals", ROOT / "scripts" / "refusals.py")
refusals = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(refusals)

# Runs cli.main on its arguments (none: import only) and prints the exit
# code and every scipy module then loaded.
SCIPY_PROBE = """
import json, sys
from tauspec import cli
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# Each model kind through the model verb: (document, sweep, closed form).
# The closed form maps the sweep's nodes to (S, tau1, tau2).
def _blaschke_tables(x):
    model = PoleZeroModel(
        scale=0.5 + 0.25j, p=1, resonances=((1.0, 0.2), (2.5, 0.05))
    )
    tau = model_tau(model, x)
    return evaluate_model(model, x), tau.real, tau.imag


def _response_tables(params, normalised=False):
    """The closed form of ``params.response()``; ``normalised`` divides S by
    its value at the first node, as the Lorentz medium's chi(omega)/chi(omega_first)."""
    def tables(x):
        response = params.response()
        values, tau = response.values(x), response.tau(x)
        return (values / values[0] if normalised else values), tau.real, tau.imag
    return tables


def _breit_wigner_tables(omega0, gamma, sign):
    """S = ((omega - r)/(omega_first - r))**p with r = omega0 + i sign gamma/2
    and p = sign/pi, and its tau, the propagator 1/(pi (gamma/2 + i sign Delta))."""
    def tables(x):
        root = complex(omega0, sign * 0.5 * gamma)
        tau = 1.0 / (np.pi * (0.5 * gamma + 1j * sign * (x - omega0)))
        return ((x - root) / (x[0] - root)) ** (sign / np.pi), tau.real, tau.imag
    return tables


MODEL_KIND_CASES = {
    "blaschke": (
        {"type": "blaschke", "resonances": [[1.0, 0.2], [2.5, 0.05]],
         "scale": [0.5, 0.25], "p": 1},
        (0.5, 3.0), _blaschke_tables,
    ),
    "oscillator": (
        {"type": "oscillator", "omega0": 1.0, "gamma": 0.2}, (0.5, 1.5),
        _response_tables(OscillatorParams(1.0, 0.2)),
    ),
    "lorentz": (
        {"type": "lorentz", "plasma_frequency": 2.0, "omega0": 1.5, "gamma": 0.3},
        (0.5, 2.5), _response_tables(OscillatorParams(1.5, 0.3), normalised=True),
    ),
    "breit_wigner-lower": (
        {"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2, "gamma0": 0.1},
        (9.5, 10.5),
        _breit_wigner_tables(10.0, 0.2, -1),
    ),
    "breit_wigner-upper": (
        {"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2, "branch": "upper"},
        (9.5, 10.5),
        _breit_wigner_tables(10.0, 0.2, +1),
    ),
    "photon": (
        {"type": "photon", "k_abs": 1.0, "eta": 1e-2}, (0.5, 1.5),
        _response_tables(PhotonParams(1.0, 1e-2)),
    ),
}

# The error classes of each non-input exit code; every other one exits 2.
NUMERICAL_ERRORS = {
    "ZeroModulus", "UnresolvedWinding",
    "ZeroTransmission", "ZeroNorm",
}
DOMAIN_ERRORS = {
    "PoleProximity", "SingularityOnContour", "OriginInGrid", "DegenerateEnergy",
}
ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.TauspecError)
)


def expected_exit_code(name: str) -> int:
    return 3 if name in NUMERICAL_ERRORS else 4 if name in DOMAIN_ERRORS else 2


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def blaschke_spectrum_file(tmp_path, name="spec.csv", n=4001, lo=0.0, hi=2.0):
    grid = FrequencyGrid.linspace(lo, hi, n)
    model = PoleZeroModel(resonances=((1.0, 0.2),))
    path = str(tmp_path / name)
    fileio.write_spectrum(path, ComplexSpectrum(grid, evaluate_model(model, grid.values)))
    return path


def pole_spectrum_file(tmp_path, name, sign):
    """Single pole at 1 - sign*0.1j; sign=+1 is the retarded (causal) case."""
    x = np.linspace(-60.0, 60.0, 40001)
    vals = 1.0 / (x - 1.0 + sign * 0.1j)
    path = str(tmp_path / name)
    fileio.write_spectrum(path, ComplexSpectrum(FrequencyGrid(x), vals))
    return path


def small_pole_table(tmp_path, name="s.csv") -> str:
    """A 401-node table of the causal pole at 1 - 0.1j."""
    grid = FrequencyGrid.linspace(-10.0, 10.0, 401)
    path = str(tmp_path / name)
    fileio.write_spectrum(path, ComplexSpectrum(grid, 1.0 / (grid.values - 1.0 + 0.1j)))
    return path


@pytest.fixture
def refused(tmp_path, monkeypatch, capsys):
    """Runs a case of the refusal table, given by name or as a
    ``refusals.Refusal``, through ``main`` in an empty ``tmp_path``: it must
    raise no warning, exit with the case's code, print the case's whole
    stderr and nothing on stdout, and leave no file but its inputs."""
    monkeypatch.chdir(tmp_path)

    def run(case):
        case = refusals.CASES[case] if isinstance(case, str) else case
        for name, content in case.files.items():
            Path(name).write_bytes(content if isinstance(content, bytes) else content.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(list(case.argv))
            except SystemExit as exc:  # argparse's own refusals
                code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (case.code, "")
        assert err.endswith("\n")
        if isinstance(case.stderr, str):
            assert err[:-1] == case.stderr
        else:
            assert case.stderr.fullmatch(err[:-1]), err
        assert sorted(os.listdir(tmp_path)) == sorted(case.files)

    return run


# A test named for one refusal runs the table case it names; the inputs and
# the message of every refusal are written in the table only.


class TestExtract:
    def test_resonance_peak(self, tmp_path):
        inp = blaschke_spectrum_file(tmp_path)
        out = str(tmp_path / "tau.csv")
        assert main(["--stencil", "4", "extract", inp, "-o", out]) == 0
        temporal = fileio.read_temporal(out)
        idx = int(np.argmin(np.abs(temporal.grid.values - 1.0)))
        assert temporal.tau1[idx] == pytest.approx(20.0, abs=1e-3)
        assert abs(temporal.tau2[idx]) < 1e-6

    def test_constant_spectrum_gives_zero(self, tmp_path):
        grid = FrequencyGrid.linspace(0.0, 1.0, 101)
        inp = str(tmp_path / "const.csv")
        fileio.write_spectrum(
            inp, ComplexSpectrum(grid, np.full(101, 2.0 + 0.0j))
        )
        out = str(tmp_path / "tau.csv")
        assert main(["extract", inp, "-o", out]) == 0
        temporal = fileio.read_temporal(out)
        assert np.max(np.abs(temporal.tau1)) < 1e-12
        assert np.max(np.abs(temporal.tau2)) < 1e-12

    @pytest.mark.parametrize("n", [20, 36])
    def test_sign_flip_table_is_extracted(self, tmp_path, n):
        """S_j = exp(2.5ij) for j < n and S_n = -S_(n-1), in %.12e cells: the
        phase steps by pi into the last node, and the table extracts."""
        s = np.exp(2.5j * np.arange(n + 1))
        s[n] = -s[n - 1]
        rows = np.column_stack([np.linspace(0.0, 1.0, n + 1), s.real, s.imag])
        inp, out = tmp_path / "s.csv", tmp_path / "t.csv"
        np.savetxt(inp, rows, fmt="%.12e", delimiter=",", header="omega,re,im", comments="")
        assert main(["extract", str(inp), "-o", str(out)]) == 0
        cells = np.loadtxt(out, delimiter=",", skiprows=1)
        assert cells.shape == (n + 1, 3) and np.isfinite(cells).all()

    def test_decreasing_grid_exits_2_without_output(self, refused):
        refused("extract-decreasing-grid")

    def test_zero_modulus_exits_3(self, refused):
        refused("extract-zero-modulus-node-5")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_exits_2_without_output(self, refused, bad):
        refused(f"extract-{bad}-sample")

    def test_temporal_input_exits_2(self, refused):
        refused("extract-temporal-input")


EXTRACT_GUARDS = {"ZeroModulus": "extract-zero-modulus",
                  "order-4-too-few-nodes": "extract-order-4-too-few-nodes",
                  "order-4-NonUniformGrid": "extract-order-4-non-uniform"}


@pytest.mark.parametrize("guard", sorted(EXTRACT_GUARDS))
def test_extract_guard_names_input(refused, guard):
    refused(EXTRACT_GUARDS[guard])


class TestModel:
    def test_oscillator_tables(self, tmp_path):
        m = write_json(
            tmp_path / "m.json", {"type": "oscillator", "omega0": 1.0, "gamma": 0.2}
        )
        stem = str(tmp_path / "osc")
        rc = main(
            ["model", m, "--from", "0.5", "--to", "1.5", "--points", "801", "-o", stem]
        )
        assert rc == 0
        spec = fileio.read_spectrum(stem + ".spectrum.csv")
        temporal = fileio.read_temporal(stem + ".tau.csv")
        response = OscillatorParams(1.0, 0.2).response()
        x = spec.grid.values
        np.testing.assert_allclose(spec.values, response.values(x), rtol=1e-10)
        tau = response.tau(x)
        np.testing.assert_allclose(temporal.tau1, tau.real, rtol=1e-10)
        np.testing.assert_allclose(temporal.tau2, tau.imag, rtol=1e-10, atol=1e-14)

    def test_photon_formation_changes_sign_at_k(self, tmp_path):
        m = write_json(
            tmp_path / "m.json", {"type": "photon", "k_abs": 1.0, "eta": 1e-3}
        )
        stem = str(tmp_path / "ph")
        rc = main(
            ["model", m, "--from", "0.5", "--to", "1.5", "--points", "101", "-o", stem]
        )
        assert rc == 0
        temporal = fileio.read_temporal(stem + ".tau.csv")
        assert temporal.tau2[0] * temporal.tau2[-1] < 0

    @pytest.mark.parametrize("case", sorted(MODEL_KIND_CASES))
    def test_each_kind_matches_closed_form(self, tmp_path, case):
        doc, (lo, hi), closed_form = MODEL_KIND_CASES[case]
        stem = str(tmp_path / "m")
        argv = ["model", write_json(tmp_path / "m.json", doc), "--from", str(lo),
                "--to", str(hi), "--points", "1001", "-o", stem]
        assert main(argv) == 0
        grid = FrequencyGrid.linspace(lo, hi, 1001)
        values, tau1, tau2 = closed_form(grid.values)
        spectrum = fileio.read_spectrum(stem + ".spectrum.csv")
        temporal = fileio.read_temporal(stem + ".tau.csv")
        np.testing.assert_allclose(spectrum.grid.values, grid.values, rtol=1e-12)
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(spectrum.values, values, rtol=1e-11, atol=1e-13 * scale)
        scale = max(np.max(np.abs(tau1)), np.max(np.abs(tau2)))
        np.testing.assert_allclose(temporal.tau1, tau1, rtol=1e-11, atol=1e-13 * scale)
        np.testing.assert_allclose(temporal.tau2, tau2, rtol=1e-11, atol=1e-13 * scale)

    def test_barrier_kind_writes_sweep_table(self, tmp_path):
        segments = [[2.0, 1.0], [1.0, 0.0], [2.0, 1.0]]
        m = write_json(tmp_path / "m.json", {"type": "barrier", "segments": segments})
        stem = str(tmp_path / "b")
        rc = main(
            ["model", m, "--from", "0.05", "--to", "2.95", "--points", "60", "-o", stem]
        )
        assert rc == 0
        assert not os.path.exists(stem + ".spectrum.csv")
        header, cols = fileio.read_table(stem)
        assert header == fileio.BARRIER_HEADER
        profile = PotentialProfile(tuple(map(tuple, segments)))
        energies = np.linspace(0.05, 2.95, 60)
        t = np.array([s_matrix(profile, e).t for e in energies])
        tau = np.array([transmission_and_time(profile, e)[1] for e in energies])
        expected = [energies, np.abs(t) ** 2, np.angle(t), tau.real, tau.imag]
        assert len(cols) == 5
        for got, want in zip(cols, expected):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_lorentz_far_from_origin_is_finite(self, tmp_path):
        """chi(omega)/chi(omega_first) taken a factor at a time stays finite
        where chi itself underflows."""
        doc = {"type": "lorentz", "plasma_frequency": 2.0, "omega0": 1.5, "gamma": 0.3}
        stem = str(tmp_path / "m")
        assert main(["model", write_json(tmp_path / "m.json", doc), "--from", "1e200",
                     "--to", "2e200", "--points", "11", "-o", stem]) == 0
        for suffix in (".spectrum.csv", ".tau.csv"):
            _, columns = fileio.read_table(stem + suffix)
            assert np.isfinite(columns).all()
        assert fileio.read_spectrum(stem + ".spectrum.csv").values[0] == 1.0

    def test_negative_bound_with_exponent(self, tmp_path):
        doc = {"type": "oscillator", "omega0": 1.0, "gamma": 0.2}
        stem = str(tmp_path / "m")
        assert main(["model", write_json(tmp_path / "m.json", doc), "--from", "-1e3",
                     "--to", "1e3", "--points", "11", "-o", stem]) == 0
        grid = fileio.read_spectrum(stem + ".spectrum.csv").grid.values
        assert (grid[0], grid[-1]) == (-1000.0, 1000.0)

    def test_negative_bound_with_underscores(self, tmp_path):
        """A bound takes digit underscores as float() does, with or without a sign."""
        doc = {"type": "oscillator", "omega0": 1.0, "gamma": 0.2}
        stem = str(tmp_path / "m")
        assert main(["model", write_json(tmp_path / "m.json", doc), "--from", "-1_0.2_5",
                     "--to", "1_0e0_0", "--points", "11", "-o", stem]) == 0
        grid = fileio.read_spectrum(stem + ".spectrum.csv").grid.values
        assert (grid[0], grid[-1]) == (-10.25, 10.0)

    def test_two_points_exits_2(self, refused):
        refused("model-two-points")

    def test_missing_required_flag_raises_system_exit(self, refused):
        refused("model-missing-flag")

    def test_round_trip_model_then_extract(self, tmp_path):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        stem = str(tmp_path / "b")
        assert main(
            ["model", m, "--from", "0.25", "--to", "1.75", "--points", "2001",
             "-o", stem]
        ) == 0
        out = str(tmp_path / "back.csv")
        assert main(["--stencil", "4", "extract", stem + ".spectrum.csv", "-o", out]) == 0
        direct = fileio.read_temporal(stem + ".tau.csv")
        extracted = fileio.read_temporal(out)
        sl = slice(5, -5)
        np.testing.assert_allclose(
            extracted.tau1[sl], direct.tau1[sl], rtol=1e-3, atol=2e-3
        )
        np.testing.assert_allclose(
            extracted.tau2[sl], direct.tau2[sl], rtol=1e-3, atol=2e-3
        )

    def test_fine_grid_output_is_read_back_as_uniform(self, tmp_path):
        """%.12e moves each node of a 120001-point grid by up to 1e-12, far
        more than 1e-9 of its step; extract and kk still take the grid."""
        doc = {"type": "lorentz", "plasma_frequency": 1.0, "omega0": 1.5, "gamma": 0.2}
        stem = str(tmp_path / "m")
        assert main(["model", write_json(tmp_path / "m.json", doc), "--from", "0.5",
                     "--to", "2.5", "--points", "120001", "-o", stem]) == 0
        out = str(tmp_path / "back.csv")
        assert main(["--stencil", "4", "extract", stem + ".spectrum.csv", "-o", out]) == 0
        assert len(fileio.read_temporal(out).grid) == 120001
        assert main(["kk", stem + ".spectrum.csv"]) == 0


# The whole text of kk and report on small tables of BLASCHKE_DOC and a
# single barrier, as the key=value writer renders them.
KK_GOLDEN = """\
# tauspec:kk v1
input=m.spectrum.csv
kind=spectrum
nodes=9
origin_gap=0.000000000000e+00
residual_l2=1.063589205251e+00
residual_max=1.346814448903e+00
tail_model=none
"""
REPORT_GOLDEN = """\
# tauspec:report v1

[file b.csv]
energy_max=2.500000000000e+00
energy_min=5.000000000000e-01
format=barrier
nodes=5
transmission_max=9.161977183751e-01
transmission_min=5.250752531606e-01

[file kk.txt]
format=artifact:kk
input=m.spectrum.csv
kind=spectrum
nodes=9
origin_gap=0.000000000000e+00
residual_l2=1.063589205251e+00
residual_max=1.346814448903e+00
tail_model=none

[file m.spectrum.csv]
format=spectrum
max_abs=1.000000000000e+00
nodes=9
omega_max=2.000000000000e+00
omega_min=-2.000000000000e+00

[file m.tau.csv]
format=temporal
max_abs_tau1=2.000000000000e+01
max_abs_tau2=0.000000000000e+00
nodes=9
omega_max=2.000000000000e+00
omega_min=-2.000000000000e+00

[tolerances]
extract_closed_form_abs=1.000000000000e-03  # interior concordance with closed forms
extract_fine_grid_rel=1.000000000000e-04  # order-4 stencil on a resolved grid
round_trip_rel=1.000000000000e-06  # extract after reconstruct, interior
kk_causal_max=2.000000000000e-02  # retarded response residual with tails
kk_acausal_ratio_min=1.000000000000e+01  # advanced over retarded residual
sum_rule_ratio=1.000000000000e-02  # vanishing rule against integrand L1 scale
winding_abs=1.000000000000e-03  # integer count from contour quadrature
uncertainty_gaussian_abs=1.000000000000e-02  # spread product of a plain Gaussian
unitarity_abs=1.000000000000e-10  # flux conservation of scattering amplitudes
hartman_drift_rel=1.000000000000e-02  # delay change under opaque-width doubling
"""


def golden_inputs(tmp_path):
    """Writes m.spectrum.csv, m.tau.csv, b.csv and kk.txt; returns their paths."""
    m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
    b = write_json(tmp_path / "b.json", {"type": "barrier", "segments": [[1.0, 1.2]]})
    prefix = str(tmp_path / "m")
    assert main(["model", m, "--from", "-2", "--to", "2", "--points", "9", "-o", prefix]) == 0
    paths = [prefix + ".spectrum.csv", prefix + ".tau.csv", str(tmp_path / "b.csv"),
             str(tmp_path / "kk.txt")]
    assert main(["barrier", b, "--from", "0.5", "--to", "2.5", "--points", "5",
                 "-o", paths[2]]) == 0
    assert main(["kk", paths[0], "-o", paths[3]]) == 0
    return paths


class TestKk:
    def test_causal_and_acausal_reports(self, tmp_path):
        causal = pole_spectrum_file(tmp_path, "causal.csv", +1)
        acausal = pole_spectrum_file(tmp_path, "acausal.csv", -1)
        art_c = str(tmp_path / "c.txt")
        art_a = str(tmp_path / "a.txt")
        assert main(["--tail", "w1", "kk", causal, "-o", art_c]) == 0
        assert main(["--tail", "w1", "kk", acausal, "-o", art_a]) == 0
        kind, c_map = fileio.read_artifact(art_c)
        assert kind == "kk"
        _, a_map = fileio.read_artifact(art_a)
        assert float(c_map["residual_max"]) < 2e-2
        assert c_map["nodes"] == "36001"
        assert c_map["tail_model"] == "one_over_omega"
        ratio = float(a_map["residual_max"]) / float(c_map["residual_max"])
        assert ratio > 10.0

    def test_artifact_whole_text(self, tmp_path, capsys):
        paths = golden_inputs(tmp_path)
        assert capsys.readouterr().out == KK_GOLDEN
        assert Path(paths[3]).read_text() == KK_GOLDEN

    def test_model_json_input_exits_2(self, refused):
        refused("kk-model-input")

    def test_missing_file_exits_2(self, refused):
        refused("kk-missing-file")

    def test_tau_table_far_from_origin_exits_2(self, refused):
        refused("kk-tau-far-from-origin-11-nodes")


KK_GRID_GUARDS = {"NonUniformGrid": "kk-non-uniform", "NonPositiveGrid": "kk-tau-through-origin",
                  "OriginGapTooWide": "kk-tau-far-from-origin"}


@pytest.mark.parametrize("guard", sorted(KK_GRID_GUARDS))
def test_kk_grid_guard_exits_2(refused, guard):
    refused(KK_GRID_GUARDS[guard])


class TestSumrule:
    def test_inverse_frequency_artifact(self, tmp_path, capsys):
        half = FrequencyGrid.linspace(0.5, 50.0, 992).values
        full = np.concatenate([-half[::-1], half])
        grid = FrequencyGrid(full)
        spath = str(tmp_path / "s.csv")
        tpath = str(tmp_path / "t.csv")
        fileio.write_spectrum(
            spath, ComplexSpectrum(grid, (2.3 + 0.4j) / grid.values)
        )
        fileio.write_temporal(
            tpath, TemporalSpectrum(grid, np.zeros(len(grid)), 1.0 / grid.values)
        )
        art = str(tmp_path / "sr.txt")
        assert main(["sumrule", "--spectrum", spath, "--tau", tpath, "-o", art]) == 0
        kind, mapping = fileio.read_artifact(art)
        assert kind == "sumrule"
        # The cancellation is exact in memory; the text round trip through
        # %.12e leaves only rounding residue.
        assert abs(float(mapping["value_re"])) < 1e-24
        assert abs(float(mapping["value_im"])) < 1e-24
        assert float(mapping["exclusion_radius"]) == pytest.approx(0.5)
        assert mapping["nodes"] == "1984"
        stdout = capsys.readouterr().out
        assert "value_im" in stdout

    def test_grid_mismatch_exits_2(self, refused):
        refused("sumrule-grid-mismatch")

    def test_origin_in_grid_exits_4_naming_both_files(self, refused):
        refused("sumrule-origin-in-grid")


class TestWinding:
    def run_rect(self, tmp_path, rect, name, *flags):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        art = str(tmp_path / name)
        rc = main(["winding", m, "--rect", *[str(v) for v in rect], "-o", art, *flags])
        assert rc == 0
        _, mapping = fileio.read_artifact(art)
        return float(mapping["winding"])

    def test_zero_side(self, tmp_path):
        w = self.run_rect(tmp_path, (0.0, 2.0, 0.02, 1.0), "up.txt")
        assert w == pytest.approx(1.0, abs=1e-3)

    def test_pole_side(self, tmp_path):
        w = self.run_rect(tmp_path, (0.0, 2.0, -1.0, -0.02), "dn.txt")
        assert w == pytest.approx(-1.0, abs=1e-3)

    def test_empty_region(self, tmp_path):
        w = self.run_rect(tmp_path, (2.0, 3.0, 0.02, 1.0), "empty.txt")
        assert w == pytest.approx(0.0, abs=1e-3)

    def test_edge_through_zero_exits_4(self, refused):
        refused("winding-edge-through-zero")

    def test_unresolved_count_exits_3_until_samples_resolve_it(self, refused, tmp_path):
        """The default 16 panels leave the tall rectangle's count 0.016 from
        1: exit 3 and no -o file.  100,000 panels resolve it."""
        refused("winding-unresolved")
        w = self.run_rect(tmp_path, (0.0, 2.0, 0.02, 1e3), "w.txt", "--samples", "100000")
        assert w == pytest.approx(1.0, abs=1e-9)

    def test_negative_bounds_with_exponent(self, tmp_path):
        """Refused as unknown options before argparse took an exponent; an
        unknown dash word is still refused (refusal case model-unknown-option)."""
        w = self.run_rect(tmp_path, ("-1e6", "1e6", "-1", "1"), "w.txt")
        assert w == pytest.approx(0.0, abs=1e-3)
        _, mapping = fileio.read_artifact(str(tmp_path / "w.txt"))
        assert mapping["re_min"] == "-1.000000000000e+06"

    def test_far_resonance_counts_zero(self, tmp_path):
        """A zero and pole at 1e308 lie far off every edge: the edge gap is
        taken with no overflow (the suite makes warnings errors)."""
        write_json(tmp_path / "m.json", {"type": "blaschke", "resonances": [[1e308, 0.1]]})
        art = str(tmp_path / "w.txt")
        assert main(["winding", str(tmp_path / "m.json"), "--rect", "0", "2", "0.02", "1",
                     "-o", art]) == 0
        assert float(fileio.read_artifact(art)[1]["winding"]) == 0.0

    def test_nan_count_exits_3_without_samples_advice(self, refused, monkeypatch):
        from tauspec import dispersion
        monkeypatch.setattr(dispersion, "winding_number", lambda *args: float("nan"))
        refused(refusals.Refusal(refusals.model_file(refusals.BLASCHKE),
                                 ("winding", "m.json", "--rect", "0", "2", "0.02", "1"), 3,
                                 "error: winding count is nan"))

    def test_small_sample_count_exits_2(self, refused):
        refused("winding-few-samples")

    def test_non_blaschke_model_exits_2(self, refused):
        refused("winding-kind")


class TestBarrier:
    DOC = {"type": "barrier", "segments": [[2.0, 1.0]]}

    def test_sweep_table(self, tmp_path):
        m = write_json(tmp_path / "m.json", self.DOC)
        out = str(tmp_path / "sweep.csv")
        rc = main(
            ["barrier", m, "--from", "0.05", "--to", "2.95", "--points", "30",
             "-o", out]
        )
        assert rc == 0
        header, cols = fileio.read_table(out)
        assert header == fileio.BARRIER_HEADER
        energies, trans, _, _, tau2 = cols
        assert energies.size == 30
        assert np.all((trans >= 0.0) & (trans <= 1.0 + 1e-12))
        below = energies < 0.95
        assert np.all(tau2[below] < 0.0)

    def test_table_holds_the_exact_delays(self, tmp_path):
        """The delay columns are the exact tau of one sweep, next to the
        s_matrix transmission and phase."""
        m = write_json(tmp_path / "m.json", self.DOC)
        out, want = str(tmp_path / "sweep.csv"), str(tmp_path / "want.csv")
        assert main(["barrier", m, "--from", "0.05", "--to", "2.95", "--points", "30",
                     "-o", out]) == 0
        profile = PotentialProfile(tuple(map(tuple, self.DOC["segments"])))
        energies = np.linspace(0.05, 2.95, 30)
        t = s_matrix(profile, energies).t
        tau = transmission_and_time(profile, energies)[1]
        fileio.write_barrier_table(want, energies, np.hypot(t.real, t.imag) ** 2,
                                   np.angle(t), tau.real, tau.imag)
        assert Path(out).read_bytes() == Path(want).read_bytes()

    def test_grid_node_at_barrier_top_exits_4(self, refused):
        refused("barrier-node-at-top")

    def test_opaque_barrier_exits_3(self, refused):
        refused("barrier-opaque")


class TestReport:
    def build_inputs(self, tmp_path):
        spath = blaschke_spectrum_file(tmp_path, "spec.csv", n=101)
        grid = FrequencyGrid.linspace(0.0, 2.0, 101)
        tpath = str(tmp_path / "tau.csv")
        fileio.write_temporal(
            tpath, TemporalSpectrum(grid, np.ones(101), np.zeros(101))
        )
        apath = str(tmp_path / "check.txt")
        fileio.write_artifact(apath, "winding", {"winding": 1.0})
        return [spath, tpath, apath]

    def test_deterministic_output(self, tmp_path):
        inputs = self.build_inputs(tmp_path)
        out1 = str(tmp_path / "r1.txt")
        out2 = str(tmp_path / "r2.txt")
        assert main(["report", *inputs, "-o", out1]) == 0
        assert main(["report", *inputs, "-o", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_sections_and_tolerances(self, tmp_path):
        inputs = self.build_inputs(tmp_path)
        out = str(tmp_path / "r.txt")
        assert main(["report", *inputs, "-o", out]) == 0
        text = Path(out).read_text()
        assert text.startswith("# tauspec:report v1")
        assert "[file spec.csv]" in text
        assert "[file tau.csv]" in text
        assert "format=artifact:winding" in text
        assert "[tolerances]" in text
        assert "unitarity_abs=" in text

    def test_whole_text(self, tmp_path, capsys):
        paths = golden_inputs(tmp_path)
        capsys.readouterr()
        assert main(["report", *paths]) == 0
        assert capsys.readouterr().out == REPORT_GOLDEN

    def test_stdout_when_no_output_path(self, tmp_path, capsys):
        inputs = self.build_inputs(tmp_path)
        assert main(["report", *inputs]) == 0
        assert capsys.readouterr().out.startswith("# tauspec:report v1")

    def test_missing_input_named_in_error(self, refused):
        refused("report-missing-input")

    def test_gnuplot_script(self, tmp_path):
        inputs = self.build_inputs(tmp_path)
        out = str(tmp_path / "r.txt")
        script = str(tmp_path / "plot.gp")
        assert main(["report", *inputs, "-o", out, "--gnuplot", script]) == 0
        text = Path(script).read_text()
        assert "set datafile separator ','" in text
        assert text.count("plot ") == 2
        assert "tau1" in text


def test_traced_readers_are_the_ones_kk_and_report_call(tmp_path, capsys):
    """The benchmark's tracer wraps fileio's readers on the module: kk and
    report, which choose a reader by table format, call the wrapped ones."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    paths = golden_inputs(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["kk", paths[0]]) == 0
        kk_spans = len(tracer.spans)
        assert main(["report", *paths]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    assert names[:kk_spans].count("read_spectrum") == 1
    assert [name for name in names[kk_spans:] if name.startswith("read_")] == [
        "read_barrier_table", "read_table", "read_artifact", "read_spectrum", "read_table",
        "read_temporal", "read_table"]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("verb, table", [("kk", 0), ("report", 1)])
def test_table_piped_to_stdin(tmp_path, verb, table):
    """A table piped to ``/dev/stdin`` gives what the same table gives as a
    file named stdin: the verb detects its format and reads its rows
    through one handle."""
    text = Path(golden_inputs(tmp_path)[table]).read_bytes()
    (tmp_path / "stdin").write_bytes(text)
    piped, named = (subprocess.run([sys.executable, "-m", "tauspec", verb, path],
                                   cwd=tmp_path, env=src_env(), input=text,
                                   capture_output=True, timeout=60)
                    for path in ("/dev/stdin", "stdin"))
    assert piped.returncode == 0, piped.stderr
    assert (piped.stdout, piped.stderr) == (named.stdout, named.stderr)
    assert b"[file stdin]" in piped.stdout or b"input=stdin" in piped.stdout


# A table numpy refuses on its first pass, and one that does not decode:
# the whitespace-only line is skipped, the ragged row and the byte 0xe9 are
# named at their lines.
RETRIED_TABLES = {
    "blank-line": (b"omega,re,im\n0,1,2\n   \n1,3,4\n2,5,6\n", 0),
    "ragged-row": (b"omega,re,im\n0,1,2\n1,3\n2,5,6\n", 2),
    "undecodable": (b"omega,re,im\n1,\xe9,2\n2,3,4\n", 2),
}


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("verb", ["extract", "kk"])
@pytest.mark.parametrize("table", sorted(RETRIED_TABLES))
def test_piped_table_is_read_again_from_its_copy(tmp_path, verb, table):
    """A piped table that numpy refuses goes through the whitespace retry
    and the line-by-line parser as the same file does, and a byte that
    does not decode is named at its line: the pipe is read once into
    memory, and every later pass reads that copy."""
    text, code = RETRIED_TABLES[table]
    (tmp_path / "stdin").write_bytes(text)
    piped, named = (subprocess.run([sys.executable, "-m", "tauspec", verb, path,
                                    *(["-o", "t.csv"] if verb == "extract" else [])],
                                   cwd=tmp_path, env=src_env(), input=text,
                                   capture_output=True, timeout=60)
                    for path in ("/dev/stdin", "stdin"))
    assert named.returncode == piped.returncode == code, piped.stderr
    assert piped.stdout == named.stdout
    assert piped.stderr == named.stderr.replace(b"stdin: ", b"/dev/stdin: ")
    if table == "undecodable":
        assert b": line 2: 'utf-8' codec can't decode byte 0xe9 in position 2" in piped.stderr


class TestInputErrors:
    """Every refused input, from the one table in scripts/refusals.py; the
    tests after the first run the cases they name once more."""

    @pytest.mark.parametrize("name", sorted(refusals.CASES))
    def test_refused_input_named_once(self, refused, name):
        refused(name)

    @pytest.mark.parametrize("verb", sorted(refusals.SPECTRUM_VERBS))
    def test_infinite_im_cell_raises_no_warning(self, refused, verb):
        refused(f"{verb}-infinite-im")

    @pytest.mark.parametrize("verb", sorted(refusals.SPECTRUM_VERBS))
    @pytest.mark.parametrize("rows", sorted(refusals.BAD_BYTE_LINE))
    def test_undecodable_byte_named_by_file_and_line(self, refused, verb, rows):
        refused(f"{verb}-bad-byte-{rows}")

    def test_undecodable_model_named_by_file_and_line(self, refused):
        refused("model-undecodable")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_barrier_table_rejected_by_report(self, refused, cell):
        refused(f"report-{cell}-transmission")

    @pytest.mark.parametrize("name", [
        "type-list", "omega0-list", "omega0-null", "resonances-number", "segment-nested",
        "p-fraction", "prefactor_sign-fraction", "omega0-past-float-range",
        "p-past-float-range", "p-past-2**53"])
    def test_wrongly_typed_model_field_exits_2(self, refused, name):
        refused(f"model-{name}")

    def test_undecodable_artifact_named_by_file_and_line(self, refused):
        refused("report-undecodable-artifact")


@pytest.mark.parametrize("name", ["model-points", "barrier-points", "winding-samples"])
def test_size_past_cap_exits_2_without_output(refused, name):
    refused(f"{name}-past-cap")


# More rows than MAX_POINTS, lowered to 4, on each parse path: numpy, numpy
# again without a whitespace-only line, and the line parser, which a cell
# that Python's float() takes and numpy does not ("0_0") sends the table to.
# The line parser stops at the row past the cap: it never decodes the bad
# byte 17 kB on, past the 8 kB that a text read decodes at once.
ROWS_PAST_CAP = {
    "numpy": refusals.rows(refusals.SPECTRUM, *(f"{k},1,0" for k in range(5))),
    "blank-line": refusals.rows(refusals.SPECTRUM, "   ", *(f"{k},1,0" for k in range(5))),
    "lines": refusals.rows(refusals.SPECTRUM, "0_0,1,0",
                           *(f"{k},1,0" for k in range(1, 2005))).encode()
    + b"2005,1.\xe9,0\n",
}


@pytest.mark.parametrize("path", sorted(ROWS_PAST_CAP))
def test_rows_past_cap_exit_2(refused, monkeypatch, path):
    monkeypatch.setattr(fileio, "MAX_POINTS", 4)
    if path != "lines":
        monkeypatch.setattr(fileio, "_parse_rows", None)
    refused(refusals.Refusal({"s.csv": ROWS_PAST_CAP[path]}, refusals.EXTRACT, 2,
                             "error: s.csv: table has more than 4 rows"))


class TestExitCodes:
    """The exit code of a package error follows from its class alone."""

    @pytest.mark.parametrize("name", ERROR_CLASSES)
    def test_main_returns_the_class_exit_code(self, monkeypatch, capsys, name):
        def fail(args, document):
            raise getattr(errors, name)("boom")

        monkeypatch.setitem(cli._VERBS, "extract", cli._VERBS["extract"]._replace(run=fail))
        assert main(["extract", "in.csv", "-o", "out.csv"]) == expected_exit_code(name)
        assert capsys.readouterr().err == "error: boom\n"

    @pytest.mark.parametrize("name", ERROR_CLASSES)
    def test_exit_code_attribute(self, name):
        assert getattr(errors, name).exit_code == expected_exit_code(name)

    def test_every_guard_class_exists(self):
        assert NUMERICAL_ERRORS | DOMAIN_ERRORS <= set(ERROR_CLASSES)


class TestGlobalFlagPlacement:
    def test_stencil_position_independent(self, tmp_path):
        inp = blaschke_spectrum_file(tmp_path, n=801)
        out1 = str(tmp_path / "t1.csv")
        out2 = str(tmp_path / "t2.csv")
        assert main(["--stencil", "4", "extract", inp, "-o", out1]) == 0
        assert main(["extract", inp, "-o", out2, "--stencil", "4"]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_tail_position_independent(self, tmp_path):
        causal = pole_spectrum_file(tmp_path, "c.csv", +1)
        a1 = str(tmp_path / "a1.txt")
        a2 = str(tmp_path / "a2.txt")
        assert main(["--tail", "w1", "kk", causal, "-o", a1]) == 0
        assert main(["kk", causal, "-o", a2, "--tail", "w1"]) == 0
        assert Path(a1).read_bytes() == Path(a2).read_bytes()


class TestImportPath:
    """Every verb runs on numpy alone: scipy is never imported."""

    def scipy_after(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, *argv],
            env=src_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self):
        assert self.scipy_after() == [0, []]

    def test_model_loads_no_scipy(self, tmp_path):
        m = write_json(
            tmp_path / "m.json", {"type": "breit_wigner", "omega0": 1.0, "gamma": 0.2}
        )
        stem = str(tmp_path / "bw")
        argv = ["model", m, "--from", "0.5", "--to", "1.5", "--points", "101", "-o", stem]
        assert self.scipy_after(*argv) == [0, []]

    def test_kk_through_hilbert_transform_loads_no_scipy(self, tmp_path):
        inp = small_pole_table(tmp_path, "pole.csv")
        assert self.scipy_after("--tail", "w1", "kk", inp) == [0, []]

    def test_numpy_is_the_only_runtime_dependency(self):
        """``[project] dependencies`` in pyproject.toml, read as text."""
        text = (ROOT / "pyproject.toml").read_text()
        block = re.search(r"\n\[project\]\n.*?\ndependencies = \[(.*?)\]", text, re.S)
        assert re.findall(r'"([^"]*)"', block.group(1)) == ["numpy>=2.0"]

    def test_every_test_requirement_is_imported_by_a_test(self):
        """``[project.optional-dependencies] test`` in pyproject.toml, read as
        text: some file under tests/ imports each requirement by its name."""
        text = (ROOT / "pyproject.toml").read_text()
        block = re.search(r"\n\[project\.optional-dependencies\]\n.*?\ntest = \[(.*?)\]",
                          text, re.S)
        required = {re.match(r"[\w.-]+", req).group()
                    for req in re.findall(r'"([^"]*)"', block.group(1))}
        imported = set()
        for path in (ROOT / "tests").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported |= {alias.name.partition(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.partition(".")[0])
        assert required and sorted(required - imported) == []


# Runs what ``python -m tauspec ARGS`` runs (no ARGS: ``import tauspec``)
# and prints last on stderr, even after a SystemExit, the numpy, ctypes,
# json and tauspec modules then loaded, space-separated: the probe itself
# loads no json.
MODULES_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(" ".join(sorted(
    m for m in sys.modules if m.split(".")[0] in ("numpy", "ctypes", "json", "tauspec"))),
    file=sys.stderr))
if len(sys.argv) > 1:
    runpy.run_module("tauspec", run_name="__main__", alter_sys=True)
else:
    import tauspec
"""


def loaded(cwd, *argv):
    """Exit code and the numpy, ctypes, json and tauspec modules loaded by a
    fresh ``python -m tauspec *argv``, or by ``import tauspec`` alone."""
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], cwd=cwd,
                          env=src_env(), capture_output=True, text=True, timeout=60)
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


# Command lines that import no numpy, with their exit codes.
NO_NUMPY = {
    "import": (0,),
    "help": (0, "--help"),
    "kk-help": (0, "kk", "--help"),
    "bad-choice": (2, "--stencil", "3", "extract", "s.csv", "-o", "t.csv"),
}

# Verb argv on the table s.csv, the tables p.csv and t.csv on a grid without
# the origin, or the model m.json -> (tauspec modules it loads, those it
# leaves unloaded).
VERB_MODULES = {
    "report": (["report", "s.csv"], {"fileio", "core"},
               {"dispersion", "extract", "physics", "scatter1d"}),
    "kk": (["--tail", "w1", "kk", "s.csv"], {"fileio", "dispersion"}, {"extract"}),
    "extract": (["extract", "s.csv", "-o", "x.csv"], {"fileio", "extract"}, {"dispersion"}),
    "sumrule": (["sumrule", "--spectrum", "p.csv", "--tau", "t.csv"], {"fileio", "dispersion"},
                {"extract", "physics", "scatter1d"}),
    "winding": (["winding", "m.json", "--rect", "0", "2", "-1", "1"], {"fileio", "dispersion"},
                {"extract", "physics", "scatter1d"}),
}

# Binds the package's names by ``import *``, or by one name first, then
# prints each name of the five ``__all__`` not bound to its module's object,
# and whether the package has three names it must not have.
STAR_PROBE = """
import importlib, sys, tauspec
if sys.argv[1] == "name":
    tauspec.kk_residual
names = {}
exec("from tauspec import *", names)
for m in ("core", "dispersion", "extract", "physics", "scatter1d"):
    module = importlib.import_module("tauspec." + m)
    print(*(n for n in module.__all__ if names.get(n) is not getattr(module, n)))
print(*(hasattr(tauspec, name) for name in ("no_such_name", "core.x", "")))
"""


# Imports what kk needs, then caps the address space at what the process
# maps plus 64 MiB, and runs cli.main on its arguments.
ADDRESS_SPACE_PROBE = """
import resource, sys
from tauspec import cli, dispersion, fileio
with open("/proc/self/status") as fh:
    size = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmSize:")) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = size + 64 * 2**20
resource.setrlimit(resource.RLIMIT_AS,
                   (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_small_table_reads_in_a_small_address_space(tmp_path):
    """numpy reserves room for every row it may read: a 5-row table takes
    what its size can hold, not the rows of the cap (229 MiB at 3 columns)."""
    path = tmp_path / "s.csv"
    path.write_text(refusals.rows(refusals.SPECTRUM, *(f"{k},1,0.5" for k in range(5))))
    proc = subprocess.run([sys.executable, "-c", ADDRESS_SPACE_PROBE, "kk", str(path)],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("# tauspec:kk v1\n")


@pytest.mark.skipif(not (os.path.exists("/proc/self/status") and os.path.exists("/dev/stdin")),
                    reason="needs /proc and /dev/stdin")
def test_small_piped_table_reads_in_a_small_address_space(tmp_path):
    """A pipe's copy in memory bounds the rows numpy reserves as a regular
    file's size does: 5 piped rows, not the rows of the cap."""
    text = refusals.rows(refusals.SPECTRUM, *(f"{k},1,0.5" for k in range(5)))
    proc = subprocess.run([sys.executable, "-c", ADDRESS_SPACE_PROBE, "kk", "/dev/stdin"],
                          env=src_env(), input=text, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("# tauspec:kk v1\n")


class TestLoading:
    """A command line loads only what its verb needs, and no numpy (nor
    ctypes, which only a write loads) for ``import tauspec``, ``--help`` or
    an argparse refusal."""

    @pytest.mark.parametrize("name", sorted(NO_NUMPY))
    def test_loads_no_numpy(self, tmp_path, name):
        code, *argv = NO_NUMPY[name]
        exit_code, modules = loaded(tmp_path, *argv)
        assert exit_code == code
        assert not {"numpy", "ctypes"} & modules
        if name == "import":
            assert not [m for m in modules if m.startswith("tauspec.")]

    @pytest.mark.parametrize("verb", sorted(VERB_MODULES))
    def test_verb_loads_only_its_modules(self, tmp_path, verb):
        """Each verb loads its own modules, and neither numpy.ma nor
        numpy.polynomial; only a verb that reads a model loads json, and
        only kk, whose Hilbert transform is an FFT, loads numpy.fft."""
        small_pole_table(tmp_path)
        grid = FrequencyGrid.linspace(0.5, 10.0, 400)
        fileio.write_spectrum(str(tmp_path / "p.csv"), ComplexSpectrum(grid, 1.0 / grid.values))
        fileio.write_temporal(str(tmp_path / "t.csv"),
                              TemporalSpectrum(grid, grid.values, grid.values))
        (tmp_path / "m.json").write_text(json.dumps(BLASCHKE_DOC))
        argv, used, unused = VERB_MODULES[verb]
        code, modules = loaded(tmp_path, *argv)
        assert code == 0
        assert {"numpy", *(f"tauspec.{m}" for m in used)} <= modules
        assert not {f"tauspec.{m}" for m in unused} & modules
        assert not {"numpy.ma", "numpy.polynomial"} & modules
        assert ("json" in modules) == ("m.json" in argv)
        assert ("numpy.fft" in modules) == (verb == "kk")

    @pytest.mark.parametrize("first", ["star", "name"])
    def test_star_import_binds_every_public_name(self, first):
        proc = subprocess.run([sys.executable, "-c", STAR_PROBE, first], env=src_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "\n" * 5 + "False False False\n"


def test_importtime_has_a_row_for_each_module_a_verb_loads(tmp_path):
    """``python -X importtime`` times only the imports that pass through
    ``__import__``: the package loads its modules that way, so kk's fileio
    and dispersion have rows, with numpy's import inside dispersion's."""
    small_pole_table(tmp_path)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tauspec", "kk", "s.csv"],
                          cwd=tmp_path, env=src_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    # (depth, module) per row; a module's row follows those of its imports
    rows = [(len(col) - len(col.lstrip()), col.strip()) for col in
            (line.rpartition("|")[2] for line in proc.stderr.splitlines()
             if line.startswith("import time:"))]
    names = [name for _, name in rows]
    assert {"tauspec.cli", "tauspec.core", "tauspec.fileio", "tauspec.dispersion"} <= set(names)
    at = names.index("tauspec.dispersion")
    depth = rows[at][0]
    first = max((k for k in range(at) if rows[k][0] <= depth), default=-1) + 1
    assert "numpy" in names[first:at]


# Runs ``python -m tauspec ARGS`` as MODULES_PROBE does and prints last on
# stderr, even after a SystemExit, the number of objects gc.freeze has moved
# out of the collector's reach, whether the collector is on, and how many
# collections ran once cli.entry had called main.
ENTRY_PROBE = """
import atexit, gc, runpy, sys
from tauspec import cli
starts = []
def main(*args):
    gc.callbacks.append(lambda phase, info: starts.append(phase) if phase == "start" else None)
    return run(*args)
run, cli.main = cli.main, main
atexit.register(lambda: print(gc.get_freeze_count(), gc.isenabled(), len(starts),
                              file=sys.stderr))
runpy.run_module("tauspec", run_name="__main__", alter_sys=True)
"""

# Command lines that end in each way -> (exit code, argv, refusal case whose
# files they read, or None for s.csv).
ENDINGS = {
    "verb": (0, ("kk", "s.csv"), None),
    "help": (0, ("--help",), None),
    "usage": (2, ("teapot",), None),
    "refused-input": (2, refusals.CASES["winding-kind"].argv, "winding-kind"),
    "refused-domain": (4, refusals.CASES["winding-edge-through-zero"].argv,
                       "winding-edge-through-zero"),
}


class TestProcessEntry:
    """``python -m tauspec`` and the ``tauspec`` script run ``cli.entry``,
    which turns the collector off for the run and freezes the heap however
    ``main`` ends; ``main`` does neither."""

    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_process_exits_with_a_frozen_heap(self, tmp_path, ending):
        """The process exits with a frozen heap and the collector off, and no
        collection ran once main was called."""
        code, argv, case = ENDINGS[ending]
        if case is None:
            small_pole_table(tmp_path)
        else:
            assert refusals.CASES[case].code == code
            for name, content in refusals.CASES[case].files.items():
                (tmp_path / name).write_bytes(
                    content if isinstance(content, bytes) else content.encode())
        proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE, *argv], cwd=tmp_path,
                              env=src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        frozen, enabled, collections = proc.stderr.splitlines()[-1].split()
        assert int(frozen) > 0 and (enabled, collections) == ("False", "0")

    def test_main_in_process_leaves_the_heap_unfrozen(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        assert main(["kk", small_pole_table(tmp_path)]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert main(["kk", str(tmp_path / "missing.csv")]) == 2
        assert gc.get_freeze_count() == before
        assert gc.isenabled()

    def test_script_names_the_function_the_module_runs(self):
        """``[project.scripts] tauspec`` in pyproject.toml (read as text:
        tomllib is not in Python 3.10) and ``__main__``'s ``sys.exit(...())``
        name one function, ``cli.entry``."""
        text = (ROOT / "pyproject.toml").read_text()
        scripts = text.partition("\n[project.scripts]\n")[2].partition("\n[")[0]
        module, name = re.fullmatch(r'tauspec = "([\w.]+):(\w+)"', scripts.strip()).groups()
        script = getattr(importlib.import_module(module), name)
        tree = ast.parse((SRC / "tauspec" / "__main__.py").read_text())
        guard = next(stmt for stmt in tree.body if isinstance(stmt, ast.If))
        assert ast.unparse(guard.test) == "__name__ == '__main__'"
        (call,) = (stmt.value for stmt in guard.body)
        assert ast.unparse(call.func) == "sys.exit" and not call.args[0].args
        run = getattr(importlib.import_module("tauspec.__main__"), call.args[0].func.id)
        assert script is run is cli.entry
