"""End-to-end tests that drive the command line in process."""

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

SRC = Path(__file__).resolve().parents[1] / "src"

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

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("0.5,1.0,0.0\n\n0.6,x,0.0\n", 4, "could not convert string to float: 'x'"),
            ("0.5,1.0,0.0\n0.6,1.0\n", 3, "row has 2 fields, expected 3"),
        ],
    )
    def test_bad_row_named_by_file_and_line(self, tmp_path, capsys, body, line, message):
        inp = tmp_path / "bad.csv"
        inp.write_text(fileio.SPECTRUM_HEADER + "\n" + body)
        out = str(tmp_path / "tau.csv")
        assert main(["extract", str(inp), "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {inp}: line {line}: {message}\n"
        assert not os.path.exists(out)

    def test_decreasing_grid_exits_2_without_output(self, tmp_path):
        inp = tmp_path / "bad.csv"
        inp.write_text(
            fileio.SPECTRUM_HEADER + "\n2.0,1.0,0.0\n1.0,1.0,0.0\n0.5,1.0,0.0\n"
        )
        out = str(tmp_path / "tau.csv")
        assert main(["extract", str(inp), "-o", out]) == 2
        assert not os.path.exists(out)

    def test_zero_modulus_exits_3(self, tmp_path):
        grid = FrequencyGrid.linspace(0.0, 1.0, 11)
        vals = np.ones(11, dtype=complex)
        vals[5] = 0.0
        inp = str(tmp_path / "z.csv")
        fileio.write_spectrum(inp, ComplexSpectrum(grid, vals))
        assert main(["extract", inp, "-o", str(tmp_path / "t.csv")]) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_exits_2_without_output(self, tmp_path, bad):
        inp = tmp_path / "bad.csv"
        inp.write_text(
            fileio.SPECTRUM_HEADER
            + f"\n0.0,1.0,0.0\n0.5,{bad},0.0\n1.0,1.0,0.0\n1.5,1.0,0.0\n"
        )
        out = str(tmp_path / "tau.csv")
        assert main(["extract", str(inp), "-o", out]) == 2
        assert not os.path.exists(out)

    def test_temporal_input_exits_2(self, tmp_path):
        grid = FrequencyGrid.linspace(0.0, 1.0, 11)
        inp = str(tmp_path / "t.csv")
        fileio.write_temporal(
            inp, TemporalSpectrum(grid, np.ones(11), np.zeros(11))
        )
        assert main(["extract", inp, "-o", str(tmp_path / "o.csv")]) == 2


# Spectra that extract refuses in the computation: (stencil order, grid,
# re cells, exit code, whole stderr line after "error: <path>: "); every
# im cell is 0.
EXTRACT_GUARDS = {
    "ZeroModulus": (2, [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 1.0, 1.0, 1.0], 3,
                    "|S| below 1e-12 at node 1"),
    "order-4-too-few-nodes": (4, [0.0, 1.0, 2.0, 3.0], [1.0] * 4, 2,
                              "order-4 derivative needs at least 5 nodes"),
    "order-4-NonUniformGrid": (4, [0.0, 1.0, 3.0, 4.0, 5.0, 6.0], [1.0] * 6, 2,
                               "order-4 derivative requires a uniform grid"),
}


@pytest.mark.parametrize("guard", sorted(EXTRACT_GUARDS))
def test_extract_guard_names_input(tmp_path, capsys, guard):
    order, grid, re_cells, code, message = EXTRACT_GUARDS[guard]
    inp = tmp_path / "s.csv"
    inp.write_text(fileio.SPECTRUM_HEADER + "\n"
                   + "".join(f"{x!r},{r!r},0\n" for x, r in zip(grid, re_cells)))
    out = tmp_path / "t.csv"
    assert main(["--stencil", str(order), "extract", str(inp), "-o", str(out)]) == code
    assert capsys.readouterr() == ("", f"error: {inp}: {message}\n")
    assert not out.exists()


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
        tau = np.array([complex_time(profile, e, 1e-4) for e in energies])
        expected = [energies, np.abs(t) ** 2, np.angle(t), tau.real, tau.imag]
        assert len(cols) == 5
        for got, want in zip(cols, expected):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_two_points_exits_2(self, tmp_path):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        rc = main(
            ["model", m, "--from", "0.0", "--to", "1.0", "--points", "2",
             "-o", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_missing_required_flag_raises_system_exit(self, tmp_path):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        with pytest.raises(SystemExit) as info:
            main(["model", m, "--from", "0.0", "--to", "1.0"])
        assert info.value.code == 2

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

    def test_model_json_input_exits_2(self, tmp_path):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        assert main(["kk", m]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["kk", str(tmp_path / "nope.csv")]) == 2

    def test_tau_table_far_from_origin_exits_2(self, tmp_path, capsys):
        grid = FrequencyGrid(1000.0 + 0.125 * np.arange(11))
        inp = str(tmp_path / "far.tau.csv")
        fileio.write_temporal(inp, TemporalSpectrum(grid, np.ones(11), np.zeros(11)))
        assert main(["kk", inp]) == 2
        assert "zero-filling to the origin needs 8000 steps" in capsys.readouterr().err


# Grids kk refuses: (file name, header, grid, whole stderr line after
# "error: <path>: "); each table has the cells 1 and 0 on every row.
KK_GRID_GUARDS = {
    "NonUniformGrid": ("s.csv", fileio.SPECTRUM_HEADER, [0.0, 1.0, 3.0, 4.0],
                       "hilbert_transform needs a uniform grid"),
    "NonPositiveGrid": ("t.csv", fileio.TEMPORAL_HEADER, [0.0, 1.0, 2.0, 3.0],
                        "extension needs a strictly positive grid"),
    "OriginGapTooWide": ("t.csv", fileio.TEMPORAL_HEADER, [1000.0, 1000.125, 1000.25],
                         "zero-filling to the origin needs 8000 steps per side for "
                         "3 nodes (limit 8 per node)"),
}


@pytest.mark.parametrize("guard", sorted(KK_GRID_GUARDS))
def test_kk_grid_guard_exits_2(tmp_path, capsys, guard):
    filename, header, grid, message = KK_GRID_GUARDS[guard]
    inp = tmp_path / filename
    inp.write_text(header + "\n" + "".join(f"{x!r},1,0\n" for x in grid))
    assert main(["kk", str(inp)]) == getattr(errors, guard).exit_code == 2
    assert capsys.readouterr() == ("", f"error: {inp}: {message}\n")


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

    def test_grid_mismatch_exits_2(self, tmp_path, capsys):
        g1 = FrequencyGrid.linspace(0.5, 1.5, 11)
        g2 = FrequencyGrid.linspace(0.5, 1.5, 12)
        spath = str(tmp_path / "s.csv")
        tpath = str(tmp_path / "t.csv")
        fileio.write_spectrum(spath, ComplexSpectrum(g1, np.ones(11, dtype=complex)))
        fileio.write_temporal(tpath, TemporalSpectrum(g2, np.ones(12), np.zeros(12)))
        assert main(["sumrule", "--spectrum", spath, "--tau", tpath]) == 2
        assert capsys.readouterr() == (
            "", f"error: {spath}, {tpath}: sum rule needs matching spectrum and tau grids\n"
        )

    def test_origin_in_grid_exits_4_naming_both_files(self, tmp_path, capsys):
        grid = FrequencyGrid.linspace(-1.0, 1.0, 11)
        spath = str(tmp_path / "s.csv")
        tpath = str(tmp_path / "t.csv")
        fileio.write_spectrum(spath, ComplexSpectrum(grid, np.ones(11, dtype=complex)))
        fileio.write_temporal(tpath, TemporalSpectrum(grid, np.ones(11), np.zeros(11)))
        assert main(["sumrule", "--spectrum", spath, "--tau", tpath]) == 4
        assert capsys.readouterr() == (
            "", f"error: {spath}, {tpath}: sum rule grid must exclude the origin\n"
        )


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

    def test_edge_through_zero_exits_4(self, tmp_path):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        rc = main(["winding", m, "--rect", "0.0", "2.0", "0.1", "1.0"])
        assert rc == 4

    def test_small_sample_count_exits_2(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", BLASCHKE_DOC)
        rc = main(
            ["winding", m, "--rect", "0.0", "2.0", "0.02", "1.0", "--samples", "8"]
        )
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --samples 8 is below the minimum of 16\n")

    def test_non_blaschke_model_exits_2(self, tmp_path):
        m = write_json(
            tmp_path / "m.json", {"type": "oscillator", "omega0": 1.0, "gamma": 0.2}
        )
        rc = main(["winding", m, "--rect", "0.0", "2.0", "0.02", "1.0"])
        assert rc == 2


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

    def test_grid_node_at_barrier_top_exits_4(self, tmp_path):
        m = write_json(tmp_path / "m.json", self.DOC)
        out = str(tmp_path / "sweep.csv")
        rc = main(
            ["barrier", m, "--from", "0.1", "--to", "3.0", "--points", "30",
             "-o", out]
        )
        assert rc == 4
        assert not os.path.exists(out)

    def test_opaque_barrier_exits_3(self, tmp_path):
        m = write_json(
            tmp_path / "m.json", {"type": "barrier", "segments": [[80.0, 1.0]]}
        )
        rc = main(
            ["barrier", m, "--from", "0.4", "--to", "0.6", "--points", "3",
             "-o", str(tmp_path / "x.csv")]
        )
        assert rc == 3


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

    def test_missing_input_named_in_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["report", missing]) == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_gnuplot_script(self, tmp_path):
        inputs = self.build_inputs(tmp_path)
        out = str(tmp_path / "r.txt")
        script = str(tmp_path / "plot.gp")
        assert main(["report", *inputs, "-o", out, "--gnuplot", script]) == 0
        text = Path(script).read_text()
        assert "set datafile separator ','" in text
        assert text.count("plot ") == 2
        assert "tau1" in text


def bad_byte_table(tmp_path, rows):
    """A spectrum header and ``rows`` rows, the third row from the end with
    the byte 0xe9 after the '1.' of its re cell; returns the path and the
    1-based file line of that byte."""
    lines = [b"%d.0,1.0,0.0\n" % i for i in range(rows)]
    lines[-3] = b"%d.0,1.\xe9,0.0\n" % (rows - 3)
    path = tmp_path / "bad.csv"
    path.write_bytes(fileio.SPECTRUM_HEADER.encode() + b"\n" + b"".join(lines))
    return str(path), rows - 1


VERB_ARGV = {
    "extract": lambda inp, tmp_path: ["extract", inp, "-o", str(tmp_path / "t.csv")],
    "kk": lambda inp, tmp_path: ["kk", inp],
    "report": lambda inp, tmp_path: ["report", inp],
}

# Model documents whose fields have the wrong JSON type, a fractional
# integer or one no float holds; each must exit 2 with one line naming the
# file.  The pattern matches the rest of that line; where it starts with .*
# the interpreter words the conversion error itself.
WRONGLY_TYPED_MODELS = {
    "type-list": ({"type": ["oscillator"], "omega0": 1.0, "gamma": 0.1},
                  re.escape("unknown model type ['oscillator'] (known: ") + r".*\)"),
    "omega0-list": ({"type": "oscillator", "omega0": [1], "gamma": 0.1}, r".*not 'list'"),
    "omega0-null": ({"type": "oscillator", "omega0": None, "gamma": 0.1}, r".*not 'NoneType'"),
    "resonances-number": ({"type": "blaschke", "resonances": 5},
                          re.escape("'int' object is not iterable")),
    "segment-nested": ({"type": "barrier", "segments": [[1, [2]]]}, r".*not 'list'"),
    "p-fraction": ({**BLASCHKE_DOC, "p": 1.5},
                   re.escape("p must be an integer of magnitude below 2**53, got 1.5")),
    "prefactor_sign-fraction": (
        {**BLASCHKE_DOC, "prefactor_sign": 1.5},
        re.escape("prefactor_sign must be an integer of magnitude below 2**53, got 1.5"),
    ),
    "omega0-past-float-range": ({"type": "oscillator", "omega0": 10**400, "gamma": 0.1},
                                re.escape("omega0: int too large to convert to float")),
    "p-past-float-range": ({**BLASCHKE_DOC, "p": 10**400},
                           re.escape("p: int too large to convert to float")),
    "p-past-2**53": (
        {**BLASCHKE_DOC, "p": 2**53 + 1},
        re.escape("p must be an integer of magnitude below 2**53, got 9007199254740993"),
    ),
}


OSCILLATOR_DOC = {"type": "oscillator", "omega0": 1.0, "gamma": 0.1}


def model_argv(inp, tmp_path):
    return ["model", inp, "--from", "0.5", "--to", "1.5", "--points", "11",
            "-o", str(tmp_path / "m")]


INFINITE_IM_TABLE = fileio.SPECTRUM_HEADER + "\n0,1,0\n1,1,0\n2,1,-Infinity\n3,1,0\n"

# Inputs a verb refuses: (file name, content, argv, reason).  The one line
# on stderr names the file and then gives the reason.
REFUSED_INPUTS = {
    "model-float-field": ("m.json", json.dumps({**OSCILLATOR_DOC, "omega0": "abc"}), model_argv,
                          "omega0: could not convert string to float: 'abc'"),
    "model-resonance-entry": ("m.json", json.dumps({"type": "blaschke",
                                                    "resonances": [[1, 0.2], [2, "x"]]}),
                              model_argv, "resonances[1]: could not convert string to float: 'x'"),
    "model-scale-entry": ("m.json", json.dumps({**BLASCHKE_DOC, "scale": ["a", 0]}), model_argv,
                          "scale: could not convert string to float: 'a'"),
    "model-segment-entry": ("m.json", json.dumps({"type": "barrier", "segments": [[1, "w"]]}),
                            model_argv, "segments[0]: could not convert string to float: 'w'"),
    "model-segment-shape": ("m.json", json.dumps({"type": "barrier", "segments": [[1, 0.5], [2]]}),
                            model_argv, "segments[1] must be a two-element list"),
    "model-integer-field": ("m.json", json.dumps({**BLASCHKE_DOC, "p": "one"}), model_argv,
                            "p: could not convert string to float: 'one'"),
    "model-gamma-range": ("m.json", json.dumps({**OSCILLATOR_DOC, "gamma": 5}), model_argv,
                          "gamma must satisfy 0 < gamma < 2 omega0"),
    "model-unknown-field": ("m.json", json.dumps({**OSCILLATOR_DOC, "x": 1}), model_argv,
                            "unknown field 'x' for model type 'oscillator'"),
    "model-missing-field": ("m.json", json.dumps({"type": "oscillator", "omega0": 1.0}),
                            model_argv, "missing field 'gamma' for model type 'oscillator'"),
    "model-truncated-json": ("m.json", '{"type": "oscillator",\n', model_argv,
                             "Expecting property name enclosed in double quotes: "
                             "line 2 column 1 (char 23)"),
    "model-large-p": ("m.json", json.dumps({**BLASCHKE_DOC, "p": 2000}), model_argv,
                      "model is not finite on [0.5, 1.5]"),
    "winding-kind": ("m.json", json.dumps(OSCILLATOR_DOC),
                     lambda inp, tmp_path: ["winding", inp, "--rect", "0", "2", "-1", "1"],
                     "winding needs a pole-zero model"),
    "barrier-kind": ("m.json", json.dumps(OSCILLATOR_DOC),
                     lambda inp, tmp_path: ["barrier", inp, "--from", "0.5", "--to", "1.5",
                                            "--points", "11", "-o", str(tmp_path / "b.csv")],
                     "barrier needs a potential-profile model"),
    "report-nan-energy": ("b.csv", fileio.BARRIER_HEADER + "\nnan,1,0,1,2\n0.2,1,0,1,2\n"
                          "0.3,1,0,1,2\n", lambda inp, tmp_path: ["report", inp],
                          "grid contains non-finite values"),
    "extract-repeated-omega": ("s.csv", fileio.SPECTRUM_HEADER + "\n0,1,0\n1,1,0\n1,1,0\n"
                               "2,1,0\n", VERB_ARGV["extract"], "grid must be strictly increasing"),
    **{f"{verb}-infinite-im": ("s.csv", INFINITE_IM_TABLE, argv,
                               "spectrum contains non-finite values")
       for verb, argv in VERB_ARGV.items()},
}


class TestInputErrors:
    """Bad input bytes and values exit 2 with one message on stderr."""

    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    def test_infinite_im_cell_raises_no_warning(self, tmp_path, capsys, verb):
        inp = tmp_path / "inf.csv"
        inp.write_text(fileio.SPECTRUM_HEADER + "\n0,1,0\n1,1,0\n2,1,-Infinity\n3,1,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(VERB_ARGV[verb](str(inp), tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {inp}: spectrum contains non-finite values\n"

    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    @pytest.mark.parametrize("rows", [4, 3001])
    def test_undecodable_byte_named_by_file_and_line(self, tmp_path, capsys, verb, rows):
        """The position counts within the line, not within a decode chunk.
        Four rows put the bad byte on line 3; 3001 rows, past the first 8 kB."""
        inp, line = bad_byte_table(tmp_path, rows)
        column = len(b"%d.0,1." % (rows - 3))
        assert main(VERB_ARGV[verb](inp, tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: line {line}: 'utf-8' codec can't decode byte 0xe9 "
            f"in position {column}: invalid continuation byte\n"
        )

    def test_undecodable_model_named_by_file_and_line(self, tmp_path, capsys):
        inp = tmp_path / "m.json"
        inp.write_bytes(b'{"type": "oscillator",\n "omega0": 1.0, "gamma": 0.2,\n "x": "\xe9"}\n')
        argv = ["model", str(inp), "--from", "0.5", "--to", "1.5", "--points", "11",
                "-o", str(tmp_path / "m")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: line 3: 'utf-8' codec can't decode byte 0xe9 "
            "in position 7: invalid continuation byte\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_barrier_table_rejected_by_report(self, tmp_path, capsys, cell):
        inp = tmp_path / "b.csv"
        rows = [f"0.1,{cell},0,1,2", "0.2,0.5,0,1,2", "0.3,0.5,0,1,2"]
        inp.write_text(fileio.BARRIER_HEADER + "\n" + "\n".join(rows) + "\n")
        assert main(["report", str(inp)]) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: barrier table contains non-finite values\n"
        )

    @pytest.mark.parametrize("name", sorted(WRONGLY_TYPED_MODELS))
    def test_wrongly_typed_model_field_exits_2(self, tmp_path, capsys, name):
        doc, rest = WRONGLY_TYPED_MODELS[name]
        inp = write_json(tmp_path / "m.json", doc)
        argv = ["model", inp, "--from", "0.5", "--to", "1.5", "--points", "11",
                "-o", str(tmp_path / "m")]
        assert main(argv) == 2
        assert re.fullmatch(f"error: {re.escape(inp)}: {rest}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("name", sorted(REFUSED_INPUTS))
    def test_refused_input_named_once(self, tmp_path, capsys, name):
        filename, content, argv, reason = REFUSED_INPUTS[name]
        inp = str(tmp_path / filename)
        Path(inp).write_text(content)
        assert main(argv(inp, tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {inp}: {reason}\n"

    def test_undecodable_artifact_named_by_file_and_line(self, tmp_path, capsys):
        inp = tmp_path / "a.txt"
        inp.write_bytes(b"# tauspec:kk v1\r\nnodes=3\r\nname=\xff\r\n")
        assert main(["report", str(inp)]) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: line 3: 'utf-8' codec can't decode byte 0xff "
            "in position 5: invalid start byte\n"
        )


# Sizes past a cap, refused before any allocation: (verb, model document,
# argv after the model path, flag, cap).  Only cap + 1 is ever tried.
CAPPED_FLAGS = {
    "model-points": ("model", BLASCHKE_DOC, ["--from", "0.5", "--to", "1.5", "--points"],
                     "--points", cli.MAX_POINTS),
    "barrier-points": ("barrier", {"type": "barrier", "segments": [[1.0, 0.5]]},
                       ["--from", "0.5", "--to", "1.5", "--points"], "--points", cli.MAX_POINTS),
    "winding-samples": ("winding", BLASCHKE_DOC, ["--rect", "0", "2", "-1", "1", "--samples"],
                        "--samples", cli.MAX_SAMPLES_PER_EDGE),
}


@pytest.mark.parametrize("name", sorted(CAPPED_FLAGS))
def test_size_past_cap_exits_2_without_output(tmp_path, capsys, name):
    verb, doc, flags, flag, cap = CAPPED_FLAGS[name]
    out = tmp_path / "out"
    argv = [verb, write_json(tmp_path / "m.json", doc), *flags, str(cap + 1), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} {cap + 1} exceeds the cap of {cap}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


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
