"""Round-trip and validation tests for the on-disk formats."""

import dataclasses
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from tauspec import fileio
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
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_lf_newlines_only(self, tmp_path):
        path = str(tmp_path / "s.csv")
        write_spectrum(path, sample_spectrum())
        raw = Path(path).read_bytes()
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

    def test_good_tables_take_the_numpy_path(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("well-formed table reached the fallback parser")

        monkeypatch.setattr(fileio, "_parse_rows", refuse)
        spec, temp = sample_spectrum(), sample_temporal()
        write_spectrum(str(tmp_path / "s.csv"), spec)
        write_temporal(str(tmp_path / "t.csv"), temp)
        e = np.array([0.5, 1.5, 2.5])
        write_barrier_table(str(tmp_path / "b.csv"), e, e, -e, 2 * e, 3 * e)
        np.testing.assert_allclose(read_spectrum(str(tmp_path / "s.csv")).values,
                                   spec.values, rtol=1e-12)
        np.testing.assert_allclose(read_temporal(str(tmp_path / "t.csv")).tau2,
                                   temp.tau2, rtol=1e-12)
        header, cols = read_table(str(tmp_path / "b.csv"))
        assert header == BARRIER_HEADER
        np.testing.assert_allclose(np.array(cols), [e, e, -e, 2 * e, 3 * e], rtol=1e-12)

    def test_whitespace_only_line_takes_the_numpy_path(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a whitespace-only line reached the fallback parser")

        monkeypatch.setattr(fileio, "_parse_rows", refuse)
        path = tmp_path / "s.csv"
        path.write_text(SPECTRUM_HEADER + "\n0,1,2\n   \n1,3,4\n\t\n2,5,6\n")
        header, cols = read_table(str(path))
        assert header == SPECTRUM_HEADER
        np.testing.assert_array_equal(np.array(cols), [[0, 1, 2], [1, 3, 5], [2, 4, 6]])

    def test_bad_row_after_whitespace_line_keeps_its_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(SPECTRUM_HEADER + "\n0,1,2\n   \n1,x,4\n")
        with pytest.raises(ValueError, match=r"s\.csv: line 4: could not convert"):
            read_table(str(path))

    def test_read_barrier_table_round_trip(self, tmp_path):
        path = str(tmp_path / "b.csv")
        e = np.array([0.5, 1.5, 2.5])
        write_barrier_table(path, e, e * 0.1, e * 0.2, e * 0.3, e * 0.4)
        grid, *cols = fileio.read_barrier_table(path)
        np.testing.assert_array_equal(grid.values, e)
        np.testing.assert_allclose(np.array(cols), [e * 0.1, e * 0.2, e * 0.3, e * 0.4],
                                   rtol=1e-12)

    def test_read_barrier_table_checks_header(self, tmp_path):
        path = str(tmp_path / "s.csv")
        write_spectrum(path, sample_spectrum())
        with pytest.raises(ValueError) as info:
            fileio.read_barrier_table(path)
        assert str(info.value) == (
            f"{path}: expected header {BARRIER_HEADER!r}, got {SPECTRUM_HEADER!r}"
        )

    def test_grid_error_keeps_its_class_and_names_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(SPECTRUM_HEADER + "\n0,1,0\n1,1,0\n1,1,0\n")
        with pytest.raises(GridError) as info:
            read_spectrum(str(path))
        assert str(info.value) == f"{path}: grid must be strictly increasing"

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


def per_cell_text(header, columns) -> str:
    """Table text as formatted one cell at a time."""
    rows = [",".join("%.12e" % float(c[i]) for c in columns) for i in range(len(columns[0]))]
    return header + "\n" + "\n".join(rows) + "\n"


class TestTableWriter:
    EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e-300, 2.2250738585072014e-308, 1.0,
                0.1, -1 / 3, 123456789012345.0, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("n", [0, 1, 120001])
    def test_block_format_equals_per_cell_format(self, tmp_path, n):
        rng = np.random.default_rng(n)
        special = np.resize(np.array(self.EXTREMES), n)
        columns = [
            special,
            np.arange(n) - n // 2,
            rng.standard_normal(n).astype(np.float32),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        ]
        path = tmp_path / "t.csv"
        fileio._write_rows(str(path), "a,b,c,d", columns)
        assert path.read_bytes() == per_cell_text("a,b,c,d", columns).encode()


class TestAtomicWrites:
    OLD = b"old content\n"

    class Unprintable:
        def __str__(self):
            raise RuntimeError("formatting failed")

        def __float__(self):
            raise RuntimeError("formatting failed")

    @dataclasses.dataclass(frozen=True)
    class HalfJson:
        omega0: float = 1.0
        gamma: object = dataclasses.field(default_factory=object)

    def write_cases(self):
        """Writers that fail partway through formatting or encoding."""
        bad = self.Unprintable()
        cols = [np.arange(4.0), np.array([1.0, 2.0, bad, 4.0], dtype=object)]
        return {
            "table": lambda p: fileio._write_rows(p, "a,b", cols),
            "artifact": lambda p: write_artifact(p, "check", {"a": 1.0, "m": bad, "z": 2}),
            "model": lambda p: save_model(p, ModelDocument("oscillator", self.HalfJson())),
            "encoding": lambda p: fileio._write_text(p, "x" * 100000 + "\ud800"),
        }

    @pytest.mark.parametrize("case", ["table", "artifact", "model", "encoding"])
    def test_failed_write_keeps_old_file(self, tmp_path, case):
        path = tmp_path / "out"
        path.write_bytes(self.OLD)
        with pytest.raises((RuntimeError, TypeError, UnicodeEncodeError)):
            self.write_cases()[case](str(path))
        assert path.read_bytes() == self.OLD
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(self.OLD)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_spectrum(str(path), sample_spectrum())
        assert path.read_bytes() == self.OLD
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_mode_matches_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            fileio._write_text(str(tmp_path / "new"), "text\n")
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "new").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_replaces_a_longer_existing_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(self.OLD * 100)
        fileio._write_text(str(path), "a\nb\n")
        assert path.read_bytes() == b"a\nb\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_symlink_is_followed(self, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(self.OLD)
        link = tmp_path / "link"
        link.symlink_to(target)
        fileio._write_text(str(link), "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        assert sorted(os.listdir(tmp_path)) == ["link", "target"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        fileio._write_text(str(fifo), "through\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == [b"through\n"]

    def test_errors_name_the_target(self, tmp_path):
        missing = str(tmp_path / "no-such-dir" / "out")
        with pytest.raises(FileNotFoundError) as info:
            fileio._write_text(missing, "x")
        assert info.value.filename == missing
        with pytest.raises(IsADirectoryError) as info:
            fileio._write_text(str(tmp_path), "x")
        assert info.value.filename == str(tmp_path)
        as_dir = str(tmp_path / "new-dir") + os.sep
        with pytest.raises(FileNotFoundError) as info:
            fileio._write_text(as_dir, "x")
        assert info.value.filename == as_dir
        assert os.listdir(tmp_path) == []


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
        assert Path(a).read_bytes() == Path(b).read_bytes()

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

    def test_reader_fault_is_not_an_input_error(self, tmp_path, monkeypatch):
        """Only ValueErrors and package errors name the file; a TypeError
        from the reader's own code keeps its class and its traceback."""
        path = str(tmp_path / "s.csv")
        write_spectrum(path, ComplexSpectrum(FrequencyGrid([1.0, 2.0, 3.0]), np.ones(3, complex)))

        def broken(values):
            raise TypeError("broken")

        monkeypatch.setattr(fileio, "FrequencyGrid", broken)
        with pytest.raises(TypeError, match="^broken$"):
            read_spectrum(path)

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
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("just some text\n")
        with pytest.raises(ValueError, match="not an artifact"):
            read_artifact(str(path))

    def test_header_without_kind_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# tauspec:\nnodes=3\n")
        with pytest.raises(ValueError) as info:
            read_artifact(str(path))
        assert str(info.value) == f"{path}: not an artifact file"

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
