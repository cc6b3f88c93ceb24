"""End-to-end tests that drive the command line in process."""

import importlib.util
import json
import os
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
    reconstruct,
)
from tauspec.physics import (
    OscillatorParams,
    TwoLevelParams,
    breit_wigner_tau,
    oscillator_green,
    oscillator_tau,
    photon_response,
    photon_tau,
)
from tauspec.scatter1d import PotentialProfile, complex_time, s_matrix

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
# The closed form maps the sweep's nodes to (S, tau1, tau2); S is None for
# a kind known only through tau, whose spectrum the verb rebuilds with
# S = 1 at the first node.
def _blaschke_tables(x):
    model = PoleZeroModel(
        scale=0.5 + 0.25j, p=1, resonances=((1.0, 0.2), (2.5, 0.05))
    )
    tau = model_tau(model, x)
    return evaluate_model(model, x), tau.real, tau.imag


MODEL_KIND_CASES = {
    "blaschke": (
        {"type": "blaschke", "resonances": [[1.0, 0.2], [2.5, 0.05]],
         "scale": [0.5, 0.25], "p": 1},
        (0.5, 3.0), _blaschke_tables,
    ),
    "oscillator": (
        {"type": "oscillator", "omega0": 1.0, "gamma": 0.2}, (0.5, 1.5),
        lambda x: (oscillator_green(OscillatorParams(1.0, 0.2), x),
                   *oscillator_tau(OscillatorParams(1.0, 0.2), x)),
    ),
    "lorentz": (
        {"type": "lorentz", "plasma_frequency": 2.0, "omega0": 1.5, "gamma": 0.3},
        (0.5, 2.5), lambda x: (None, *oscillator_tau(OscillatorParams(1.5, 0.3), x)),
    ),
    "breit_wigner-lower": (
        {"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2, "gamma0": 0.1},
        (9.5, 10.5),
        lambda x: (None, *breit_wigner_tau(TwoLevelParams(10.0, 0.2, 0.1), x)),
    ),
    "breit_wigner-upper": (
        {"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2, "branch": "upper"},
        (9.5, 10.5),
        lambda x: (None, *breit_wigner_tau(TwoLevelParams(10.0, 0.2), x, "upper")),
    ),
    "photon": (
        {"type": "photon", "k_abs": 1.0, "eta": 1e-2}, (0.5, 1.5),
        lambda x: (photon_response(x, 1.0, 1e-2), *photon_tau(x, 1.0, 1e-2)),
    ),
}

# The error classes of each non-input exit code; every other one exits 2.
NUMERICAL_ERRORS = {
    "ZeroModulus", "PhaseJump", "InsufficientDecay", "InsufficientSupport",
    "ZeroTransmission", "ZeroNorm",
}
DOMAIN_ERRORS = {
    "PoleProximity", "SingularityOnContour", "OriginInGrid", "DegenerateEnergy",
    "DegenerateFrequency",
}
ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.TauspecError)
)


def expected_exit_code(name: str) -> int:
    return 3 if name in NUMERICAL_ERRORS else 4 if name in DOMAIN_ERRORS else 2


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
        params = OscillatorParams(1.0, 0.2)
        x = spec.grid.values
        np.testing.assert_allclose(spec.values, oscillator_green(params, x), rtol=1e-10)
        t1, t2 = oscillator_tau(params, x)
        np.testing.assert_allclose(temporal.tau1, t1, rtol=1e-10)
        np.testing.assert_allclose(temporal.tau2, t2, rtol=1e-10, atol=1e-14)

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
        if values is None:
            rebuilt = reconstruct(TemporalSpectrum(grid, tau1, tau2), lo, 1.0 + 0.0j)
            values = rebuilt.values
            assert values[0] == 1.0
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
        tau = np.array([complex_time(profile, e) for e in energies])
        expected = [energies, np.abs(t) ** 2, np.angle(t), tau.real, tau.imag]
        assert len(cols) == 5
        for got, want in zip(cols, expected):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

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
    def run_rect(self, tmp_path, rect, name):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        art = str(tmp_path / name)
        rc = main(["winding", m, "--rect", *[str(v) for v in rect], "-o", art])
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

    @pytest.mark.parametrize("step", [None, 1e-4, 3e-3], ids=["exact", "1e-4", "3e-3"])
    def test_step_selects_the_delays_written(self, tmp_path, step):
        """Without --step the table holds the exact tau of one sweep; with
        --step H, the central difference complex_time(profile, e, H), next
        to the same transmission and phase columns."""
        m = write_json(tmp_path / "m.json", self.DOC)
        out, want = str(tmp_path / "sweep.csv"), str(tmp_path / "want.csv")
        flags = [] if step is None else ["--step", repr(step)]
        assert main(["barrier", m, "--from", "0.05", "--to", "2.95", "--points", "30",
                     *flags, "-o", out]) == 0
        profile = PotentialProfile(tuple(map(tuple, self.DOC["segments"])))
        energies = np.linspace(0.05, 2.95, 30)
        t = s_matrix(profile, energies).t
        tau = complex_time(profile, energies, step)
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
        def fail(args):
            raise getattr(errors, name)("boom")

        monkeypatch.setattr(cli, "_cmd_extract", fail)
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, *argv],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self):
        assert self.scipy_after() == [0, []]

    def test_model_through_reconstruct_loads_no_scipy(self, tmp_path):
        m = write_json(
            tmp_path / "m.json",
            {"type": "lorentz", "plasma_frequency": 1.0, "omega0": 1.0, "gamma": 0.2},
        )
        stem = str(tmp_path / "lor")
        argv = ["model", m, "--from", "0.5", "--to", "1.5", "--points", "101", "-o", stem]
        assert self.scipy_after(*argv) == [0, []]

    def test_kk_through_hilbert_transform_loads_no_scipy(self, tmp_path):
        grid = FrequencyGrid.linspace(-10.0, 10.0, 401)
        inp = str(tmp_path / "pole.csv")
        fileio.write_spectrum(
            inp, ComplexSpectrum(grid, 1.0 / (grid.values - 1.0 + 0.1j))
        )
        assert self.scipy_after("--tail", "w1", "kk", inp) == [0, []]
