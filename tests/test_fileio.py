"""Round-trip and validation tests for the on-disk formats."""

import numpy as np
import pytest

from tauspec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    GridError,
    PoleZeroModel,
    TemporalSpectrum,
)
from tauspec.fileio import (
    BARRIER_HEADER,
    SPECTRUM_HEADER,
    TEMPORAL_HEADER,
    ModelDocument,
    detect_format,
    load_model,
    read_artifact,
    read_spectrum,
    read_table,
    read_temporal,
    save_model,
    write_artifact,
    write_barrier_table,
    write_spectrum,
    write_temporal,
)
from tauspec.physics import (
    LorentzMediumParams,
    OscillatorParams,
    PhotonParams,
    TwoLevelParams,
)
from tauspec.scatter1d import PotentialProfile


def sample_spectrum() -> ComplexSpectrum:
    grid = FrequencyGrid(np.linspace(0.5, 1.5, 11))
    vals = np.exp(1j * grid.values) / (1.0 + grid.values**2)
    return ComplexSpectrum(grid, vals)


def sample_temporal() -> TemporalSpectrum:
    grid = FrequencyGrid(np.linspace(0.5, 1.5, 11))
    return TemporalSpectrum(grid, np.cos(grid.values), np.sin(grid.values))


class TestTables:
    def test_spectrum_round_trip(self, tmp_path):
        spec = sample_spectrum()
        path = str(tmp_path / "s.csv")
        write_spectrum(path, spec)
        back = read_spectrum(path)
        np.testing.assert_allclose(back.grid.values, spec.grid.values, rtol=1e-12)
        np.testing.assert_allclose(back.values, spec.values, rtol=1e-12)

    def test_temporal_round_trip(self, tmp_path):
        temp = sample_temporal()
        path = str(tmp_path / "t.csv")
        write_temporal(path, temp)
        back = read_temporal(path)
        np.testing.assert_allclose(back.tau1, temp.tau1, rtol=1e-12)
        np.testing.assert_allclose(back.tau2, temp.tau2, rtol=1e-12)

    def test_writes_are_byte_identical(self, tmp_path):
        spec = sample_spectrum()
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_spectrum(a, spec)
        write_spectrum(b, spec)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_lf_newlines_only(self, tmp_path):
        path = str(tmp_path / "s.csv")
        write_spectrum(path, sample_spectrum())
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_header_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_temporal(path, sample_temporal())
        with pytest.raises(ValueError, match="expected header"):
            read_spectrum(path)

    def test_decreasing_grid_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            SPECTRUM_HEADER + "\n2.0,1.0,0.0\n1.0,1.0,0.0\n", newline="\n"
        )
        with pytest.raises(GridError):
            read_spectrum(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(SPECTRUM_HEADER + "\n1.0,1.0\n", newline="\n")
        with pytest.raises(ValueError, match="expected 3"):
            read_table(str(path))

    def test_ragged_row_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(SPECTRUM_HEADER + "\n1.0,1.0,0.0\n\n2.0,1.0\n", newline="\n")
        with pytest.raises(ValueError) as info:
            read_table(str(path))
        assert str(info.value) == f"{path}: line 4: row has 2 fields, expected 3"

    @pytest.mark.parametrize("cell", ["x", "", "1.0.0"])
    def test_unparsable_cell_named_by_path_and_line(self, tmp_path, cell):
        path = tmp_path / "cell.csv"
        rows = ["1.0,1.0,0.0", "", "2.0,1.0,0.0", f"3.0,{cell},0.0", "4.0,1.0,0.0"]
        path.write_text(SPECTRUM_HEADER + "\n" + "\n".join(rows) + "\n", newline="\n")
        with pytest.raises(ValueError) as info:
            read_table(str(path))
        assert str(info.value) == (
            f"{path}: line 5: could not convert string to float: {cell!r}"
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_table(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(SPECTRUM_HEADER + "\n")
        with pytest.raises(ValueError, match="no rows"):
            read_table(str(path))

    def test_barrier_table_round_trip(self, tmp_path):
        path = str(tmp_path / "b.csv")
        e = np.array([0.5, 1.5, 2.5])
        write_barrier_table(path, e, e * 0.1, e * 0.2, e * 0.3, e * 0.4)
        header, cols = read_table(path)
        assert header == BARRIER_HEADER
        assert len(cols) == 5
        np.testing.assert_allclose(cols[0], e, rtol=1e-12)
        np.testing.assert_allclose(cols[4], e * 0.4, rtol=1e-12)


def document_cases():
    blaschke = ModelDocument(
        "blaschke",
        PoleZeroModel(
            scale=0.5 + 0.25j,
            p=1,
            resonances=((1.0, 0.2), (2.5, 0.05)),
            prefactor_sign=-1,
        ),
    )
    osc = ModelDocument("oscillator", OscillatorParams(1.0, 0.2))
    lorentz = ModelDocument(
        "lorentz", LorentzMediumParams(1.0, OscillatorParams(1.0, 0.2))
    )
    bw = ModelDocument("breit_wigner", TwoLevelParams(10.0, 0.2, 0.1), "upper")
    photon = ModelDocument("photon", PhotonParams(1.0, 1e-6))
    barrier = ModelDocument(
        "barrier", PotentialProfile(((2.0, 1.0), (1.0, 0.0), (2.0, 1.0)))
    )
    return [blaschke, osc, lorentz, bw, photon, barrier]


class TestModelDocuments:
    @pytest.mark.parametrize("doc", document_cases(), ids=lambda d: d.kind)
    def test_save_load_round_trip(self, tmp_path, doc):
        path = str(tmp_path / "m.json")
        save_model(path, doc)
        back = load_model(path)
        assert back.kind == doc.kind
        assert back.branch == doc.branch
        assert back.params == doc.params

    @pytest.mark.parametrize("kind", ["barrier", "teapot"])
    def test_sample_needs_a_spectral_kind(self, kind):
        grid = FrequencyGrid.linspace(0.5, 1.5, 11)
        with pytest.raises(ValueError, match="not a spectral model"):
            ModelDocument(kind, document_cases()[-1].params).sample(grid)

    def test_save_is_deterministic(self, tmp_path):
        doc = document_cases()[0]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_model(a, doc)
        save_model(b, doc)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_blaschke_defaults(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"type": "blaschke", "resonances": [[1.0, 0.2]]}')
        doc = load_model(str(path))
        assert doc.params.scale == 1.0 + 0.0j
        assert doc.params.p == 0
        assert doc.params.prefactor_sign == 1

    def test_breit_wigner_branch_defaults_to_lower(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2}')
        doc = load_model(str(path))
        assert doc.branch == "lower"
        assert doc.params.gamma0 == 0.0

    def test_invalid_branch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2,'
            ' "branch": "sideways"}'
        )
        with pytest.raises(ValueError, match="branch"):
            load_model(str(path))

    def test_unknown_type_names_known_kinds(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"type": "teapot"}')
        with pytest.raises(ValueError, match="blaschke"):
            load_model(str(path))

    def test_unknown_type_lists_exactly_the_round_trip_kinds(self, tmp_path):
        """A new model kind must also get a case in document_cases()."""
        path = tmp_path / "m.json"
        path.write_text('{"type": "teapot"}')
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        known = str(info.value).split("(known: ")[1].rstrip(")").split(", ")
        assert known == sorted(doc.kind for doc in document_cases())

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"type": "oscillator", "omega0": 1.0, "gamma": 0.2, "q": 3}'
        )
        with pytest.raises(ValueError, match="unknown field"):
            load_model(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"type": "oscillator", "omega0": 1.0}')
        with pytest.raises(ValueError, match="missing field"):
            load_model(str(path))

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[1, 2, 3]')
        with pytest.raises(ValueError, match="JSON object"):
            load_model(str(path))

    def test_parameters_revalidated_on_load(self, tmp_path):
        # Overdamped oscillator violates the constructor invariant, so the
        # document must be rejected even though the JSON itself is well formed.
        path = tmp_path / "m.json"
        path.write_text('{"type": "oscillator", "omega0": 1.0, "gamma": 5.0}')
        with pytest.raises(ValueError, match="gamma"):
            load_model(str(path))

    def test_barrier_segments_revalidated(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"type": "barrier", "segments": [[-1.0, 2.0]]}')
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_scale_shape_checked(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"type": "blaschke", "resonances": [[1.0, 0.2]], "scale": [1.0]}'
        )
        with pytest.raises(ValueError, match="two-element"):
            load_model(str(path))


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.txt")
        write_artifact(
            path,
            "check",
            {"ratio": 0.125, "count": 7, "ok": True, "label": "causal"},
        )
        kind, mapping = read_artifact(path)
        assert kind == "check"
        assert list(mapping) == sorted(mapping)
        assert mapping["count"] == "7"
        assert mapping["ok"] == "true"
        assert mapping["label"] == "causal"
        assert float(mapping["ratio"]) == 0.125

    def test_write_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        payload = {"z": 1.0, "a": 2, "m": False}
        write_artifact(a, "check", payload)
        write_artifact(b, "check", payload)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("just some text\n")
        with pytest.raises(ValueError, match="not an artifact"):
            read_artifact(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# tauspec:check v1\nno separator here\n")
        with pytest.raises(ValueError, match="malformed"):
            read_artifact(str(path))


class TestDetectFormat:
    def test_each_kind(self, tmp_path):
        spec_path = str(tmp_path / "s.csv")
        write_spectrum(spec_path, sample_spectrum())
        temp_path = str(tmp_path / "t.csv")
        write_temporal(temp_path, sample_temporal())
        barrier_path = str(tmp_path / "b.csv")
        e = np.array([0.5, 1.5])
        write_barrier_table(barrier_path, e, e, e, e, e)
        art_path = str(tmp_path / "a.txt")
        write_artifact(art_path, "check", {"x": 1})
        model_path = str(tmp_path / "m.json")
        save_model(model_path, document_cases()[1])

        assert detect_format(spec_path) == "spectrum"
        assert detect_format(temp_path) == "temporal"
        assert detect_format(barrier_path) == "barrier"
        assert detect_format(art_path) == "artifact"
        assert detect_format(model_path) == "model"

    def test_unrecognised(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("energy;foo;bar\n")
        with pytest.raises(ValueError, match="unrecognised"):
            detect_format(str(path))

    def test_empty(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            detect_format(str(path))
