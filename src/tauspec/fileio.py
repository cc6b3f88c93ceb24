"""On-disk formats: csv tables for spectra and temporal functions, JSON
model documents, and key=value artifact files.

All writers emit LF newlines and %.12e floats so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    evaluate_model,
    model_tau,
    reconstruct,
)
from .errors import TauspecError
from .physics import (
    LorentzMediumParams,
    OscillatorParams,
    PhotonParams,
    TwoLevelParams,
    breit_wigner_tau,
    oscillator_green,
    oscillator_tau,
    photon_response,
    photon_tau,
)
from .scatter1d import PotentialProfile

__all__ = [
    "SPECTRUM_HEADER",
    "TEMPORAL_HEADER",
    "BARRIER_HEADER",
    "ModelDocument",
    "read_spectrum",
    "write_spectrum",
    "read_temporal",
    "write_temporal",
    "write_barrier_table",
    "read_barrier_table",
    "read_table",
    "load_model",
    "save_model",
    "write_artifact",
    "read_artifact",
    "detect_format",
]

SPECTRUM_HEADER = "omega,re,im"
TEMPORAL_HEADER = "omega,tau1,tau2"
BARRIER_HEADER = "energy,transmission,phase,tau1,tau2"
ARTIFACT_PREFIX = "# tauspec:"
_TABLE_FORMATS = {SPECTRUM_HEADER: "spectrum", TEMPORAL_HEADER: "temporal",
                  BARRIER_HEADER: "barrier"}
ARTIFACT_VERSION = "v1"


def _fmt(x: float) -> str:
    return "%.12e" % float(x)


def _write_text(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` with LF newlines, all or nothing.

    The text goes to a temporary file beside ``path``, created with the
    mode a plain ``open(path, "w")`` gives, which is then renamed over
    ``path``; on any failure the temporary file is removed and ``path``
    keeps its old content.  A symbolic link is followed, and a target that
    exists but is no regular file (a device, a pipe) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    head, tail = os.path.split(target)
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        except OSError as exc:  # name the target, as open(path) would
            raise OSError(exc.errno, exc.strerror, path) from None
        break
    try:
        with open(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_rows(path: str, header: str, columns) -> None:
    # One % over the whole block: "%.12e" of a Python float is _fmt.  A
    # table without rows is the header and one blank line.
    block = np.column_stack(columns).astype(float, copy=False)
    row = ",".join(["%.12e"] * block.shape[1]) + "\n"
    body = (row * len(block)) % tuple(block.ravel().tolist())
    _write_text(path, header + "\n" + (body or "\n"))


@contextlib.contextmanager
def _naming(path: str):
    """Put ``path`` in front of every input error raised in the block; no
    other code names an input file.  A byte that does not decode names its
    line and its position in that line.  A TauspecError keeps its class."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # Its positions count from the decoder's chunk: decode the file whole.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        # Lines end as in text mode: at LF, CR LF or CR.
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = exc.start - (len(head) - head.rfind(b"\n") - 1)
        in_line = UnicodeDecodeError(exc.encoding, data[cut : exc.end],
                                     exc.start - cut, exc.end - cut, exc.reason)
        line = head.count(b"\n") + 1
        raise ValueError(f"{path}: line {line}: {in_line}") from None
    except TauspecError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_rows(lines, start: int, width: int):
    """Rows after the header at ``lines[start]``, one ``float`` per cell.

    This is the reference parser and the error path of ``read_table``: a
    ragged row or a cell that is no number raises naming its line.
    """
    data = []
    for number, ln in enumerate(lines[start + 1 :], start + 2):
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"row has {len(parts)} fields, expected {width}")
            data.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    if not data:
        raise ValueError("table has no rows")
    return np.asarray(data, dtype=float)


def _loadtxt(rows):
    """numpy's parse of csv ``rows``, or None where numpy refuses them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(rows, dtype=float, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None


def read_table(path: str):
    """Read a csv table, returning (header, list of float columns).

    numpy parses the rows, a second time without whitespace-only lines if
    it refuses them; when it still fails, or finds no rows or a column
    count other than the header's, ``_parse_rows`` names the bad row.
    """
    with _naming(path), open(path, "r") as fh:
        lines = fh.readlines()
        start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
        if start is None:
            raise ValueError("empty file")
        header = lines[start].strip()
        width = len(header.split(","))
        arr = _loadtxt(lines[start + 1 :])
        if arr is None:  # numpy reads a whitespace-only line as a one-cell row
            arr = _loadtxt([ln for ln in lines[start + 1 :] if not ln.isspace()])
        if arr is None or len(arr) == 0 or arr.shape[1] != width:
            arr = _parse_rows(lines, start, width)
        return header, [arr[:, i] for i in range(arr.shape[1])]


@contextlib.contextmanager
def _columns(path: str, header: str):
    """The columns of the csv table at ``path``, whose header must be
    ``header``; the block builds its container inside ``_naming(path)``."""
    found, cols = read_table(path)
    with _naming(path):
        if found != header:
            raise ValueError(f"expected header {header!r}, got {found!r}")
        yield cols


def read_spectrum(path: str) -> ComplexSpectrum:
    with _columns(path, SPECTRUM_HEADER) as (omega, re, im):
        values = re.astype(complex)
        values.imag = im  # not 1j * im: an inf would warn before the check
        return ComplexSpectrum(FrequencyGrid(omega), values)


def write_spectrum(path: str, spectrum: ComplexSpectrum) -> None:
    _write_rows(
        path,
        SPECTRUM_HEADER,
        [spectrum.grid.values, spectrum.values.real, spectrum.values.imag],
    )


def read_temporal(path: str) -> TemporalSpectrum:
    with _columns(path, TEMPORAL_HEADER) as (omega, tau1, tau2):
        return TemporalSpectrum(FrequencyGrid(omega), tau1, tau2)


def write_temporal(path: str, temporal: TemporalSpectrum) -> None:
    _write_rows(
        path,
        TEMPORAL_HEADER,
        [temporal.grid.values, temporal.tau1, temporal.tau2],
    )


def write_barrier_table(path, energies, transmission, phase, tau1, tau2) -> None:
    _write_rows(path, BARRIER_HEADER, [energies, transmission, phase, tau1, tau2])


def read_barrier_table(path: str):
    """(energy grid, transmission, phase, tau1, tau2) of a barrier table."""
    with _columns(path, BARRIER_HEADER) as (energies, *cols):
        grid = FrequencyGrid(energies)
        if not np.all(np.isfinite(cols)):
            raise ValueError("barrier table contains non-finite values")
        return (grid, *cols)


@dataclass(frozen=True)
class ModelDocument:
    """A typed model loaded from JSON: kind tag plus parameter object."""

    kind: str
    params: object
    branch: str = "lower"

    def sample(self, grid: FrequencyGrid):
        """Spectrum and temporal samples (S, tau1, tau2) on ``grid``."""
        entry = _MODEL_KINDS.get(self.kind)
        if entry is None or entry.sample is None:
            raise ValueError(f"model kind {self.kind!r} is not a spectral model")
        return entry.sample(self, grid)


def _pair(value, what: str):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{what} must be a two-element list")
    return float(value[0]), float(value[1])


def _reconstructed(grid: FrequencyGrid, tau1, tau2):
    """(S, tau1, tau2) for a model known through tau alone, with S = 1 at
    the first node."""
    temporal = TemporalSpectrum(grid, tau1, tau2)
    return reconstruct(temporal, float(grid.values[0]), 1.0 + 0.0j).values, tau1, tau2


def _integer(value, name: str) -> int:
    number = float(value)  # raises OverflowError past the float range
    if not (number.is_integer() and abs(number) < 2.0**53):  # past 2**53 floats round
        raise ValueError(f"{name} must be an integer of magnitude below 2**53, got {value!r}")
    return int(number)


def _load_blaschke(doc: dict) -> PoleZeroModel:
    scale = _pair(doc.get("scale", [1.0, 0.0]), "scale")
    return PoleZeroModel(
        scale=complex(*scale),
        p=_integer(doc.get("p", 0), "p"),
        resonances=tuple(_pair(item, "resonance") for item in doc["resonances"]),
        prefactor_sign=_integer(doc.get("prefactor_sign", 1), "prefactor_sign"),
    )


def _dump_blaschke(p: PoleZeroModel) -> dict:
    return {
        "scale": [p.scale.real, p.scale.imag],
        "p": p.p,
        "resonances": [[w, g] for w, g in p.resonances],
        "prefactor_sign": p.prefactor_sign,
    }


def _sample_blaschke(document: ModelDocument, grid: FrequencyGrid):
    values = evaluate_model(document.params, grid.values)
    tau = model_tau(document.params, grid.values)
    return values, tau.real, tau.imag


def _load_oscillator(doc: dict) -> OscillatorParams:
    return OscillatorParams(float(doc["omega0"]), float(doc["gamma"]))


def _sample_oscillator(document: ModelDocument, grid: FrequencyGrid):
    values = oscillator_green(document.params, grid.values)
    return (values, *oscillator_tau(document.params, grid.values))


def _load_lorentz(doc: dict) -> LorentzMediumParams:
    return LorentzMediumParams(float(doc["plasma_frequency"]), _load_oscillator(doc))


def _dump_lorentz(p: LorentzMediumParams) -> dict:
    return {"plasma_frequency": p.plasma_frequency, **asdict(p.oscillator)}


def _sample_lorentz(document: ModelDocument, grid: FrequencyGrid):
    return _reconstructed(grid, *oscillator_tau(document.params.oscillator, grid.values))


def _load_breit_wigner(doc: dict) -> TwoLevelParams:
    # load_model reads the branch itself; it is only checked here.
    if doc.get("branch", "lower") not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    return TwoLevelParams(
        float(doc["omega0"]), float(doc["gamma"]), float(doc.get("gamma0", 0.0))
    )


def _sample_breit_wigner(document: ModelDocument, grid: FrequencyGrid):
    tau1, tau2 = breit_wigner_tau(document.params, grid.values, document.branch)
    return _reconstructed(grid, tau1, tau2)


def _load_photon(doc: dict) -> PhotonParams:
    return PhotonParams(float(doc["k_abs"]), float(doc["eta"]))


def _sample_photon(document: ModelDocument, grid: FrequencyGrid):
    p, x = document.params, grid.values
    return (photon_response(x, p.k_abs, p.eta), *photon_tau(x, p.k_abs, p.eta))


def _load_barrier(doc: dict) -> PotentialProfile:
    segments = doc["segments"]
    if not isinstance(segments, list):
        raise ValueError("segments must be a list of [width, height] pairs")
    return PotentialProfile(tuple(_pair(s, "segment") for s in segments))


class _ModelKind(NamedTuple):
    """One model kind: its JSON fields besides ``type``, the conversions
    between JSON and parameter object, and its sampler (None: no spectrum).
    A kind whose JSON fields are its parameter fields dumps with ``asdict``."""

    required: set
    optional: set
    load: Callable[[dict], object]
    dump: Callable[[object], dict]
    sample: Callable[[ModelDocument, FrequencyGrid], tuple] | None


_MODEL_KINDS = {
    "blaschke": _ModelKind({"resonances"}, {"scale", "p", "prefactor_sign"},
                           _load_blaschke, _dump_blaschke, _sample_blaschke),
    "oscillator": _ModelKind({"omega0", "gamma"}, set(),
                             _load_oscillator, asdict, _sample_oscillator),
    "lorentz": _ModelKind({"plasma_frequency", "omega0", "gamma"}, set(),
                          _load_lorentz, _dump_lorentz, _sample_lorentz),
    "breit_wigner": _ModelKind({"omega0", "gamma"}, {"gamma0", "branch"},
                               _load_breit_wigner, asdict, _sample_breit_wigner),
    "photon": _ModelKind({"k_abs", "eta"}, set(),
                         _load_photon, asdict, _sample_photon),
    "barrier": _ModelKind({"segments"}, set(), _load_barrier, asdict, None),
}


def load_model(path: str) -> ModelDocument:
    """Load and validate a JSON model document.

    Every parameter invariant is re-checked on load by constructing the
    corresponding parameter object; unknown fields are rejected.
    """
    with _naming(path), open(path, "r") as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("model document must be a JSON object")
        kind = doc.get("type")
        if not (isinstance(kind, str) and kind in _MODEL_KINDS):
            known = ", ".join(sorted(_MODEL_KINDS))
            raise ValueError(f"unknown model type {kind!r} (known: {known})")
        entry = _MODEL_KINDS[kind]
        fields = set(doc) - {"type"}
        unknown = fields - entry.required - entry.optional
        if unknown:
            raise ValueError(f"unknown field {sorted(unknown)[0]!r} for model type {kind!r}")
        missing = entry.required - fields
        if missing:
            raise ValueError(f"missing field {sorted(missing)[0]!r} for model type {kind!r}")
        try:
            params = entry.load(doc)
        except (TypeError, OverflowError) as exc:  # a field of the wrong JSON type or size
            raise ValueError(str(exc)) from None
        # The branch belongs to the document; only a kind that lists it may set it.
        return ModelDocument(kind, params, doc.get("branch", "lower"))


def save_model(path: str, document: ModelDocument) -> None:
    """Write a model document back to JSON (canonical key order)."""
    entry = _MODEL_KINDS.get(document.kind)
    if entry is None:
        raise ValueError(f"unknown model kind {document.kind!r}")
    doc = {"type": document.kind, **entry.dump(document.params)}
    if "branch" in entry.optional:
        doc["branch"] = document.branch
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def format_artifact(kind: str, mapping: dict) -> str:
    """Render an artifact document as deterministic text."""
    lines = [f"{ARTIFACT_PREFIX}{kind} {ARTIFACT_VERSION}"]
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            text = "%d" % value
        elif isinstance(value, (float, np.floating)):
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def write_artifact(path: str, kind: str, mapping: dict) -> None:
    _write_text(path, format_artifact(kind, mapping))


def read_artifact(path: str):
    """Read an artifact file, returning (kind, ordered key/value dict)."""
    with _naming(path), open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        head = lines[0][len(ARTIFACT_PREFIX) :].split() if lines else []
        if not (head and lines[0].startswith(ARTIFACT_PREFIX)):  # no kind, no artifact
            raise ValueError("not an artifact file")
        kind = head[0]
        mapping = {}
        for ln in lines[1:]:
            if "=" not in ln:
                raise ValueError(f"malformed artifact line {ln!r}")
            key, _, value = ln.partition("=")
            mapping[key] = value
        return kind, mapping


def detect_format(path: str) -> str:
    """Classify a file by its first non-empty line."""
    with _naming(path), open(path, "r") as fh:
        first = next((ln.strip() for ln in fh if ln.strip()), "")
        if not first:
            raise ValueError("empty file")
        if first.startswith(ARTIFACT_PREFIX):
            return "artifact"
        if first.startswith("{"):
            return "model"
        if first not in _TABLE_FORMATS:
            raise ValueError("unrecognised file format")
        return _TABLE_FORMATS[first]
