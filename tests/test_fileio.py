"""Round-trip and validation tests for the on-disk formats."""

import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tauspec import cli, fileio
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


SRC = Path(__file__).resolve().parents[1] / "src"


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

        class Streamed(io.TextIOWrapper):
            def readlines(self, *args):
                raise AssertionError("well-formed table was read as a list of lines")

        def streamed_open(file, mode="r", **kwargs):
            return Streamed(open(file, "rb")) if mode == "r" else open(file, mode, **kwargs)

        loadtxt, sources = np.loadtxt, []

        def spy(rows, *args, **kwargs):
            sources.append(rows)
            return loadtxt(rows, *args, **kwargs)

        monkeypatch.setattr(fileio, "_parse_rows", refuse)
        monkeypatch.setattr(fileio, "open", streamed_open, raising=False)
        monkeypatch.setattr(fileio.np, "loadtxt", spy)
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
        # A regular file reaches numpy as the name of the open descriptor, a
        # pipe as the handle that read its header.
        assert len(sources) == 3
        assert all(isinstance(rows, str) and rows.startswith("/dev/fd/") for rows in sources)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        feed = threading.Thread(target=fifo.write_bytes,
                                args=((tmp_path / "s.csv").read_bytes(),), daemon=True)
        feed.start()
        np.testing.assert_array_equal(read_table(str(fifo))[1],
                                      read_table(str(tmp_path / "s.csv"))[1])
        feed.join(timeout=10)
        assert not feed.is_alive()
        assert isinstance(sources[3], Streamed)

    @staticmethod
    def large_spectrum(path):
        grid = FrequencyGrid(np.linspace(0.5, 1.5, 20_001))
        write_spectrum(str(path), ComplexSpectrum(grid, (grid.values - 1 - 0.1j)
                                                  / (grid.values - 1 + 0.1j)))
        return path.read_bytes()

    def test_pipe_keeps_every_row(self, tmp_path, monkeypatch):
        """The header read of a pipe buffers rows that a reopen of the pipe
        would never see: a fed FIFO gives the regular file's columns, and
        extract writes the same bytes from both."""
        data = self.large_spectrum(tmp_path / "s.csv")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def fed(run):
            feed = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
            feed.start()
            result = run(str(fifo))
            feed.join(timeout=10)
            assert not feed.is_alive()
            return result

        header, cols = fed(read_table)
        assert header == SPECTRUM_HEADER
        regular = np.array(read_table(str(tmp_path / "s.csv"))[1])
        assert np.array_equal(np.array(cols).view(np.int64), regular.view(np.int64))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["extract", "s.csv", "-o", "t_file.csv"]) == 0
        assert fed(lambda p: cli.main(["extract", p, "-o", "t_pipe.csv"])) == 0
        assert (tmp_path / "t_pipe.csv").read_bytes() == (tmp_path / "t_file.csv").read_bytes()

    def test_names_numpy_would_interpret_are_read_as_plain_files(self, tmp_path, monkeypatch):
        """A plain table named like a compressed file or a URL reads as the
        same table named s.csv: nothing is decompressed or fetched."""
        import urllib.request

        def refuse(*args, **kwargs):
            raise AssertionError("a table read reached urlopen")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        data = self.large_spectrum(tmp_path / "s.csv")
        (tmp_path / "s.csv.gz").write_bytes(data)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "s.csv").write_bytes(data)
        monkeypatch.chdir(tmp_path)
        header, cols = read_table("s.csv")
        for name in ("s.csv.gz", "http://host/s.csv"):
            found, same = read_table(name)
            assert found == header
            assert np.array_equal(np.array(same).view(np.int64), np.array(cols).view(np.int64))

    def test_table_reads_where_the_working_directory_is_gone(self, tmp_path, monkeypatch):
        """numpy's DataSource asks for the working directory; without one the
        table still reads, by its handle."""
        path = tmp_path / "s.csv"
        path.write_text(SPECTRUM_HEADER + "\n0,1,2\n1,3,4\n")
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        header, cols = read_table(str(path))
        assert header == SPECTRUM_HEADER
        np.testing.assert_array_equal(np.array(cols), [[0, 1], [1, 3], [2, 4]])

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(SPECTRUM_HEADER + "\n0,1,2\n   \n1,3,4\n\t\n2,5,6\n")
        header, cols = read_table(str(path))
        assert header == SPECTRUM_HEADER
        np.testing.assert_array_equal(np.array(cols), [[0, 1, 2], [1, 3, 5], [2, 4, 6]])

    def test_whitespace_line_keeps_a_large_table_on_numpy(self, tmp_path, monkeypatch):
        """One whitespace-only line costs numpy a second pass, not a per-cell
        parse: the table reads with the line parser made to fail."""
        rows = "".join(f"{k},{k % 7}.5,-{k % 3}e-3\n" for k in range(120_001))
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text(SPECTRUM_HEADER + "\n" + rows)
        cut = rows.index("\n", len(rows) // 2) + 1
        spaced.write_text(SPECTRUM_HEADER + "\n" + rows[:cut] + "   \n" + rows[cut:])

        def refuse(*args):
            raise AssertionError("table reached the line parser")

        monkeypatch.setattr(fileio, "_parse_rows", refuse)
        header, cols = read_table(str(spaced))
        assert header == SPECTRUM_HEADER
        np.testing.assert_array_equal(np.array(cols), np.array(read_table(str(plain))[1]))

    def test_bad_row_after_whitespace_line_keeps_its_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(SPECTRUM_HEADER + "\n0,1,2\n   \n1,x,4\n")
        with pytest.raises(ValueError, match=r"s\.csv: line 4: could not convert"):
            read_table(str(path))

    # Each row set takes one parse path: numpy; numpy again without a
    # whitespace-only line; and the line parser, which a cell that Python's
    # float() takes and numpy does not ("0_0") sends the table to.
    @pytest.mark.parametrize("rows, path", [
        ("0,1,0\n", "numpy"), ("   \n0,1,0\n", "numpy"), ("0_0,1,0\n", "lines"),
    ], ids=["numpy", "blank-line", "lines"])
    def test_table_at_the_row_cap_is_read(self, tmp_path, monkeypatch, rows, path):
        monkeypatch.setattr(fileio, "MAX_POINTS", 4)
        parse_rows, calls = fileio._parse_rows, []

        def spy(*args):
            calls.append(args)
            return parse_rows(*args)

        monkeypatch.setattr(fileio, "_parse_rows", spy)
        table = tmp_path / "s.csv"
        table.write_text(SPECTRUM_HEADER + "\n" + rows + "1,1,0\n2,1,0\n3,1,0\n")
        _, cols = read_table(str(table))
        np.testing.assert_array_equal(cols[0], [0, 1, 2, 3])
        assert len(calls) == (path == "lines")

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


def writer_cases():
    """Columns whose text the numpy formatter must get exactly right."""
    rng = np.random.default_rng(11)
    near_ties = rng.integers(10**12, 10**13, 20000) + 0.5
    near_ties *= 10.0 ** rng.choice(np.r_[-40:-10, 35:50], 20000)
    float32 = rng.standard_normal(5000) * 10.0 ** rng.integers(-44, 37, 5000)
    cases = {
        # exact ties at the 13th digit: % rounds half to even
        "ties": [1234567890122.5, 1234567890123.5, 9999999999999.5, 1000000000000.5],
        "powers-of-ten": [np.nextafter(10.0**k, d) for k in range(-30, 31)
                          for d in (-np.inf, np.inf)],
        # a mantissa that rounds up to 10 carries into the exponent
        "carry": [9.9999999999996, 9.99999999999949, 0.99999999999996, 99999999999999.6,
                  9.9999999999996e-100],
        # three-digit exponents, and the ends of the range formatted in numpy
        "three-digit-exponents": [1e100, 2.5e-150, 1e269, 9.9999999999999e269, 1e270,
                                  1e-270, 9.99e-271, 1e-99, 1e99],
        # where 10**(e - 12) is no double, a scaled cell may miss its tie by 1e-3
        "near-ties-at-inexact-powers": near_ties,
        "float32": float32.astype(np.float32),
    }
    cases = {name: [np.array(c), -np.array(c)] for name, c in cases.items()}
    for offset in (-1, 0, 1):
        n = fileio._CHUNK_ROWS + offset
        edge = rng.standard_normal(n)
        edge[[0, -1]] = np.nan, -0.0
        cases[f"chunk{offset:+d}"] = [np.linspace(0.5, 2.5, n), edge, rng.standard_normal(n)]
    return cases


WRITER_CASES = writer_cases()


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

    @settings(max_examples=300, deadline=None)
    @given(block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                            elements=st.floats()))
    def test_any_float_is_written_as_by_percent(self, tmp_path_factory, block):
        path = tmp_path_factory.getbasetemp() / "any-float.csv"
        columns = list(block.T)
        fileio._write_rows(str(path), "a", columns)
        assert path.read_bytes() == per_cell_text("a", columns).encode()

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_cells_as_by_percent(self, tmp_path, case):
        columns = WRITER_CASES[case]
        header = ",".join("abc"[: len(columns)])
        path = tmp_path / "t.csv"
        fileio._write_rows(str(path), header, columns)
        assert path.read_bytes() == per_cell_text(header, columns).encode()

    def test_scaling_powers_are_exact_or_within_one_ulp(self):
        """The tie margins assume 10**k exact for k <= 22, else off by at
        most one ulp."""
        for table, k in [(fileio._TIMES, 12 - fileio._E), (fileio._OVER, fileio._E - 12)]:
            k = np.maximum(k, 0)
            exact = np.array([float(10 ** int(j)) for j in k])
            assert np.all(np.abs(table - exact) <= np.spacing(exact))
            np.testing.assert_array_equal(table[k <= 22], exact[k <= 22])

    def test_few_model_cells_fall_back_to_percent(self, tmp_path, monkeypatch):
        """Counts cells, not time: on a 120001-row model table fewer than
        2% of the cells are formatted by % instead of in numpy."""
        blocks = []
        format_cells = fileio._format_cells

        def spy(block):
            blocks.append(block)
            return format_cells(block)

        monkeypatch.setattr(fileio, "_format_cells", spy)
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"type": "lorentz", "plasma_frequency": 1.0,
                                   "omega0": 1.5, "gamma": 0.2}))
        assert cli.main(["model", str(doc), "--from", "0.5", "--to", "2.5",
                         "--points", "120001", "-o", str(tmp_path / "m")]) == 0
        assert [b.shape for b in blocks] == [(120001, 3)] * 2
        decided = np.concatenate([fileio._decimal(b)[2].ravel() for b in blocks])
        assert 1 - decided.mean() < 0.02


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
        # A table reaches the pipe byte for byte as it reaches a regular file.
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_spectrum(str(fifo), sample_spectrum())
        reader.join(timeout=10)
        assert not reader.is_alive()
        write_spectrum(str(tmp_path / "s.csv"), sample_spectrum())
        assert received[1] == (tmp_path / "s.csv").read_bytes()

    # Under an ASCII locale open(path, "w") refuses the text, and so must
    # _write_text, leaving no file; under UTF-8 mode both write UTF-8.
    @pytest.mark.parametrize("env", [
        {"PYTHONUTF8": "1"},
        {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "LANG": "C"},
    ], ids=["utf8-mode", "ascii-locale"])
    def test_text_is_encoded_as_open_would(self, tmp_path, env):
        code = ("import sys\n"
                "from tauspec import fileio\n"
                "writers = (fileio._write_text, lambda p, t: open(p, 'w').write(t))\n"
                "for path, write in zip(sys.argv[1:], writers):\n"
                "    try:\n"
                "        write(path, 'h\\xe9llo\\n')\n"
                "    except UnicodeEncodeError as exc:\n"
                "        print(exc.encoding)\n")
        ours, plain = tmp_path / "ours", tmp_path / "plain"
        proc = subprocess.run([sys.executable, "-c", code, str(ours), str(plain)],
                              env={**os.environ, "PYTHONPATH": str(SRC), **env},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        refused = proc.stdout.split()
        if env["PYTHONUTF8"] == "1":
            assert refused == []
            assert ours.read_bytes() == plain.read_bytes() == "h\xe9llo\n".encode()
        else:
            assert len(refused) == 2 and refused[0] == refused[1]
            assert not ours.exists()

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
