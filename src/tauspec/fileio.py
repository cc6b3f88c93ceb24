"""On-disk formats: csv tables for spectra and temporal functions, JSON
model documents, and key=value artifact files.

All writers emit LF newlines and %.12e floats so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import itertools
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
# MAX_POINTS is this module's global, which read_table reads at each call.
from .errors import MAX_POINTS, TauspecError

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


def _write_text(path: str, data) -> None:
    """Replace ``path`` by the bytes ``data``, or by a ``str`` encoded
    once as ``open(path, "w")`` would, all or nothing.

    The bytes go to a temporary file beside ``path``, created with the
    mode a plain ``open(path, "w")`` gives, which is then renamed over
    ``path``; on any failure the temporary file is removed and ``path``
    keeps its old content.  A symbolic link is followed, and a target that
    exists but is no regular file (a device, a pipe) is written in place.
    """
    if isinstance(data, str):  # as open(path, "w") would, with no import of locale
        data = data.encode(io.TextIOWrapper(io.BytesIO()).encoding)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.write(data)
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
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# Tables of the csv formatter, indexed by the decimal exponent e less
# _E_FIRST: the scale q = |x| * _TIMES / _OVER that brings a cell's 13
# digits before the point, its tie margin, and the exponent as text
# ("e+05", "e-123").  One of _TIMES = 10**(12 - e) and _OVER = 10**(e - 12)
# is the power, the other is 1.
_E_FIRST = -271
_E = np.arange(_E_FIRST, 271)
_TIMES = 10.0 ** np.maximum(12 - _E, 0)
_OVER = 10.0 ** np.maximum(_E - 12, 0)
# How close the computed q^ may come to a tie k + 1/2 before it may round
# to the other side of it.  Where the power is an exact double (10**k for
# k <= 22), q^ is q correctly rounded, and as each k + 1/2 below 1e13 is a
# double, q^ falls on the same side as q or on the tie itself: the margin
# is 0, and a q^ on a tie goes to %.  Any other power is off by at most one
# ulp, so |q^ - q| <= 1e13 * 2**-52 + ulp(q)/2 < 2.3e-3 + 2**-10 < 4e-3.
_TIE_MARGIN = np.where(np.abs(_E - 12) <= 22, 0.0, 4e-3)
# "00" to "99", then "0000" to "9999", as little-endian words of ASCII digits.
_D = np.arange(100, dtype="<u4")
_PAIRS = 48 + _D // 10 | (48 + _D % 10) << 8
_QUAD = (_PAIRS[:, None] | _PAIRS << 16).ravel()
_K = np.abs(_E)
_EXP_HEAD = (ord("e") | np.where(_E < 0, ord("-"), ord("+")) << 8
             | np.where(_K >= 100, 48 + _K // 100, 0) << 16).astype("<u4")
_EXP_TAIL = _PAIRS[_K % 100]
_CHUNK_ROWS = 1 << 13  # a few MB of arrays per chunk, and no size formats faster


def _decimal(x):
    """(m, e, decided): |x| rounds to m * 10**(e - 12) with 10**12 <= m <
    10**13 where ``decided`` holds.  It fails where float arithmetic cannot
    decide the rounding: at 0, inf and nan, for |x| outside [1e-270, 1e270),
    and within _TIE_MARGIN of a tie; there m and e mean nothing."""
    a = np.abs(x)
    decided = (a >= 1e-270) & (a < 1e270)
    a = np.where(decided, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _E_FIRST
    q = a * _TIMES[i] / _OVER[i]
    i += (q >= 1e13).astype(np.intp) - (q < 1e12)  # log10 is off by one near 10**k
    q = a * _TIMES[i] / _OVER[i]
    frac = q - np.floor(q)
    decided &= (q >= 1e12) & (q < 1e13) & (np.abs(frac - 0.5) > _TIE_MARGIN[i])
    m = np.rint(q).astype(np.int64)
    carry = m == 10**13  # 9.9999999999996 is 1.000000000000e+01
    m[carry] = 10**12
    return m, i + carry + _E_FIRST, decided


def _format_cells(block) -> bytes:
    """The rows of ``block`` as csv bytes, each cell exactly "%.12e" % cell.

    Each cell fills six little-endian words: sign, lead digit and point;
    three groups of four digits; "e", exponent sign and hundreds digit; the
    last two exponent digits and the separator; ``bytes.translate`` drops
    the zero bytes that pad.  A cell ``_decimal`` cannot round goes by %.
    """
    rows, cols = block.shape
    sep = np.full(cols, ord(","), "<u4")
    sep[-1] = ord("\n")
    text = []
    for start in range(0, rows, _CHUNK_ROWS):
        x = block[start : start + _CHUNK_ROWS]
        m, e, decided = _decimal(x)
        lead, rest = np.divmod(m, 10**12)
        high, rest = np.divmod(rest, 10**8)
        middle, low = np.divmod(rest, 10**4)
        words = np.empty(x.shape + (6,), "<u4")
        words[..., 0] = np.where(x < 0, ord("-"), 0) | (48 + lead) << 8 | ord(".") << 16
        words[..., 1] = _QUAD[high]
        words[..., 2] = _QUAD[middle]
        words[..., 3] = _QUAD[low]
        i = e - _E_FIRST
        words[..., 4] = _EXP_HEAD[i]
        words[..., 5] = _EXP_TAIL[i] | sep << 16
        odd = np.flatnonzero(~decided)
        if odd.size:  # a cell by % fills at most 20 bytes: "-1.797693134862e+308"
            cells = [(b"%.12e" % v).ljust(20, b"\0") for v in x.ravel()[odd].tolist()]
            flat = words.reshape(-1, 6)
            flat[odd, :5] = np.frombuffer(b"".join(cells), "<u4").reshape(-1, 5)
            flat[odd, 5] = sep[odd % cols]
        text.append(words.tobytes().translate(None, b"\0"))
    return b"".join(text)


def _write_rows(path: str, header: str, columns) -> None:
    # A table without rows is the header and one blank line.
    block = np.column_stack(columns).astype(float, copy=False)
    _write_text(path, header.encode() + b"\n" + (_format_cells(block) or b"\n"))


@contextlib.contextmanager
def _naming(path: str):
    """Put ``path`` in front of every input error raised in the block;
    around a check that compares two tables, ``path`` lists both.  The
    only other code that names an input file is ``cli``, in the refusals
    it makes of a whole input: a model that is not finite, or a file of
    the wrong kind or format for its verb.  A byte that does not decode
    names its line and its position in that line.  A TauspecError keeps
    its class."""
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
    ragged row or a cell that is no number raises naming its line.  It
    takes ``lines`` one at a time and stops at the row past the cap.
    """
    data = []
    for number, ln in enumerate(itertools.islice(lines, start + 1, None), start + 2):
        ln = ln.strip()
        if not ln:
            continue
        _check_rows(len(data) + 1)
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


def _check_rows(count: int) -> None:
    if count > MAX_POINTS:
        raise ValueError(f"table has more than {MAX_POINTS} rows")


def _loadtxt(rows, width: int, skiprows: int = 0):
    """numpy's parse of csv ``rows`` after ``skiprows`` lines, at most one
    past the cap, or None where numpy refuses them or finds no rows or a
    column count other than ``width``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = np.loadtxt(rows, dtype=float, delimiter=",", comments=None, ndmin=2,
                             skiprows=skiprows, max_rows=MAX_POINTS + 1)
    except (ValueError, Warning, OSError):  # OSError: a reopen failed, e.g. with no cwd
        return None
    return arr if len(arr) and arr.shape[1] == width else None


def read_table(path: str):
    """Read a csv table, returning (header, list of float columns).

    numpy parses the rows straight from the file: a regular file by the
    name ``/dev/fd/<n>`` of the descriptor that read the header, which
    numpy reads in blocks and neither decompresses nor fetches, and a
    pipe by its handle, one line at a time.  numpy parses once more
    without the whitespace-only lines if it refuses them.  A table numpy
    still refuses is read again line by line by ``_parse_rows``, which
    skips those lines too and names a bad row.  Either way a table of more
    than ``MAX_POINTS`` rows is refused once the row past the cap is read.
    """
    with _naming(path), open(path, "r") as fh:
        start = 0
        while not (header := fh.readline()).strip():
            if not header:
                raise ValueError("empty file")
            start += 1
        header = header.strip()
        width = len(header.split(","))
        if os.path.isfile(name := f"/dev/fd/{fh.fileno()}"):
            fh.seek(0)  # where /dev/fd dups the descriptor, numpy reads from its offset
            arr = _loadtxt(name, width, skiprows=start + 1)
        else:
            arr = _loadtxt(fh, width)
        if arr is None:
            # numpy reads a whitespace-only line as a one-column row.
            fh.seek(0)
            arr = _loadtxt((ln for ln in itertools.islice(fh, start + 1, None)
                            if ln.strip()), width)
        if arr is None:
            fh.seek(0)
            arr = _parse_rows(fh, start, width)
        _check_rows(len(arr))
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


def _float(value, name: str) -> float:
    """``float(value)``; a string, JSON type or integer no float holds names
    its field."""
    try:
        return float(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _pair(value, name: str):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{name} must be a two-element list")
    return _float(value[0], name), _float(value[1], name)


def _reconstructed(grid: FrequencyGrid, tau1, tau2):
    """(S, tau1, tau2) for a model known through tau alone, with S = 1 at
    the first node."""
    temporal = TemporalSpectrum(grid, tau1, tau2)
    return reconstruct(temporal, float(grid.values[0]), 1.0 + 0.0j).values, tau1, tau2


def _integer(value, name: str) -> int:
    number = _float(value, name)
    if not (number.is_integer() and abs(number) < 2.0**53):  # past 2**53 floats round
        raise ValueError(f"{name} must be an integer of magnitude below 2**53, got {value!r}")
    return int(number)


def _load_blaschke(doc: dict) -> PoleZeroModel:
    scale = _pair(doc.get("scale", [1.0, 0.0]), "scale")
    return PoleZeroModel(
        scale=complex(*scale),
        p=_integer(doc.get("p", 0), "p"),
        resonances=tuple(_pair(item, f"resonances[{i}]")
                         for i, item in enumerate(doc["resonances"])),
        prefactor_sign=_integer(doc.get("prefactor_sign", 1), "prefactor_sign"),
    )


def _dump_blaschke(p: PoleZeroModel) -> dict:
    return {
        "scale": [p.scale.real, p.scale.imag],
        "p": p.p,
        "resonances": [[w, g] for w, g in p.resonances],
        "prefactor_sign": p.prefactor_sign,
    }


def _sample_rational(document: ModelDocument, grid: FrequencyGrid):
    values = evaluate_model(document.params, grid.values)
    tau = model_tau(document.params, grid.values)
    return values, tau.real, tau.imag


def _load_oscillator(doc: dict):
    from .physics import OscillatorParams
    return OscillatorParams(_float(doc["omega0"], "omega0"), _float(doc["gamma"], "gamma"))


def _load_lorentz(doc: dict):
    from .physics import LorentzMediumParams
    return LorentzMediumParams(_float(doc["plasma_frequency"], "plasma_frequency"),
                               _load_oscillator(doc))


def _dump_lorentz(p) -> dict:
    return {"plasma_frequency": p.plasma_frequency, **asdict(p.oscillator)}


def _sample_lorentz(document: ModelDocument, grid: FrequencyGrid):
    from .physics import oscillator_tau
    return _reconstructed(grid, *oscillator_tau(document.params.oscillator, grid.values))


def _load_breit_wigner(doc: dict):
    from .physics import TwoLevelParams
    # load_model reads the branch itself; it is only checked here.
    if doc.get("branch", "lower") not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    return TwoLevelParams(_float(doc["omega0"], "omega0"), _float(doc["gamma"], "gamma"),
                          _float(doc.get("gamma0", 0.0), "gamma0"))


def _sample_breit_wigner(document: ModelDocument, grid: FrequencyGrid):
    from .physics import breit_wigner_tau
    tau1, tau2 = breit_wigner_tau(document.params, grid.values, document.branch)
    return _reconstructed(grid, tau1, tau2)


def _load_photon(doc: dict):
    from .physics import PhotonParams
    return PhotonParams(_float(doc["k_abs"], "k_abs"), _float(doc["eta"], "eta"))


def _load_barrier(doc: dict):
    from .scatter1d import PotentialProfile
    segments = doc["segments"]
    if not isinstance(segments, list):
        raise ValueError("segments must be a list of [width, height] pairs")
    return PotentialProfile(tuple(_pair(s, f"segments[{i}]") for i, s in enumerate(segments)))


class _ModelKind(NamedTuple):
    """One model kind: its JSON fields besides ``type``, the conversions
    between JSON and parameter object, and its sampler (None: no spectrum).
    A kind whose JSON fields are its parameter fields dumps with ``asdict``.
    Loaders and samplers import ``physics`` or ``scatter1d`` themselves, so
    only a kind that needs one of them loads it."""

    required: set
    optional: set
    load: Callable[[dict], object]
    dump: Callable[[object], dict]
    sample: Callable[[ModelDocument, FrequencyGrid], tuple] | None


_MODEL_KINDS = {
    "blaschke": _ModelKind({"resonances"}, {"scale", "p", "prefactor_sign"},
                           _load_blaschke, _dump_blaschke, _sample_rational),
    "oscillator": _ModelKind({"omega0", "gamma"}, set(),
                             _load_oscillator, asdict, _sample_rational),
    "lorentz": _ModelKind({"plasma_frequency", "omega0", "gamma"}, set(),
                          _load_lorentz, _dump_lorentz, _sample_lorentz),
    "breit_wigner": _ModelKind({"omega0", "gamma"}, {"gamma0", "branch"},
                               _load_breit_wigner, asdict, _sample_breit_wigner),
    "photon": _ModelKind({"k_abs", "eta"}, set(),
                         _load_photon, asdict, _sample_rational),
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


def format_fields(mapping: dict) -> list:
    """``key=value`` lines of ``mapping`` in key order: a bool as true or
    false, an integer as %d, a float as %.12e and anything else as str."""
    lines = []
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
    return lines


def format_artifact(kind: str, mapping: dict) -> str:
    """Render an artifact document as deterministic text."""
    head = f"{ARTIFACT_PREFIX}{kind} {ARTIFACT_VERSION}"
    return "\n".join([head, *format_fields(mapping)]) + "\n"


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
