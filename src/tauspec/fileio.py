"""On-disk formats: csv tables for spectra and temporal functions, JSON
model documents, and key=value artifact files.

All writers emit LF newlines and %.12e floats so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import io
import os
import stat
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ComplexSpectrum,
    FrequencyGrid,
    PoleZeroModel,
    TemporalSpectrum,
    _model_values,
    model_tau,
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
    "write_artifact",
    "read_artifact",
    "detected",
]

SPECTRUM_HEADER = "omega,re,im"
TEMPORAL_HEADER = "omega,tau1,tau2"
BARRIER_HEADER = "energy,transmission,phase,tau1,tau2"
ARTIFACT_PREFIX = "# tauspec:"
ARTIFACT_VERSION = "v1"


# renameat2's flag that swaps two names, and the directory descriptor
# that makes its paths relative to the working directory (linux/fcntl.h).
_RENAME_EXCHANGE = 2
_AT_FDCWD = -100


@functools.cache
def _renameat2():
    """libc's ``renameat2``, looked up once per process, or None where
    there is none.  ctypes is loaded here, on the write path only."""
    try:
        import ctypes
        func = ctypes.CDLL(None, use_errno=True).renameat2
    except (ImportError, AttributeError, OSError, TypeError):  # no ctypes, libc or symbol
        return None
    func.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p,
                     ctypes.c_uint)
    func.restype = ctypes.c_int
    return func


def _exchange(a: str, b: str) -> None:
    """Swap the files named ``a`` and ``b`` in one atomic step.  OSError
    where they cannot be swapped: ``b`` does not exist (ENOENT), the file
    system has no exchange (EINVAL), or libc has no renameat2 (ENOSYS)."""
    renameat2 = _renameat2()
    if renameat2 is None:
        raise OSError(errno.ENOSYS, "renameat2 is not available", a, None, b)
    if renameat2(_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE):
        import ctypes
        code = ctypes.get_errno()
        raise OSError(code, os.strerror(code), a, None, b)


def _write_text(path: str, data) -> None:
    """Replace ``path`` by ``data``, a list of byte chunks or a ``str``
    encoded once as ``open(path, "w")`` would, all or nothing.

    The bytes go to a temporary file beside ``path``, created with the
    mode a plain ``open(path, "w")`` gives, which is then swapped with
    ``path``, and the old file, now under the temporary name, unlinked;
    where there is no ``path`` yet or no swap, it is renamed over ``path``.
    Unlike that rename, the swap makes ext4 flush nothing (auto_da_alloc).
    On any failure the temporary file is removed and ``path`` keeps its
    old content.  A symbolic link is followed, and a target that exists
    but is no regular file (a device, a pipe) is written in place.
    """
    if isinstance(data, str):  # as open(path, "w") would, with no import of locale
        data = [data.encode(io.TextIOWrapper(io.BytesIO()).encoding)]
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(data)
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
            fh.writelines(data)
        try:
            _exchange(tmp, target)
        except OSError:
            os.replace(tmp, target)
        else:
            try:
                os.unlink(tmp)
            except OSError:  # a directory took the target's place after the check
                _exchange(tmp, target)  # put it back, and remove the new file below
                raise
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


def _format_cells(block) -> list:
    """The rows of ``block`` as chunks of csv bytes, each cell exactly
    "%.12e" % cell.

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
        # Each remainder as m - (m // k) * k: numpy divides by a constant
        # quickly, but np.divmod takes the remainder five times slower.
        q4, q8, lead = m // 10**4, m // 10**8, m // 10**12
        high, middle, low = q8 - lead * 10**4, q4 - q8 * 10**4, m - q4 * 10**4
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
    return text


def _write_rows(path: str, header: str, columns) -> None:
    # A table without rows is the header and one blank line.
    block = np.column_stack(columns).astype(float, copy=False)
    _write_text(path, [header.encode() + b"\n", *(_format_cells(block) or [b"\n"])])


@contextlib.contextmanager
def _naming(path: str, fh=None):
    """Put ``path`` in front of every input error raised in the block;
    around a check that compares two tables, ``path`` lists both.  The
    only other code that names an input file is ``cli``, in the refusals
    it makes of a whole input: a model that is not finite, or a file of
    the wrong kind or format for its verb.  A byte that does not decode
    names its line and its position in that line, found in the bytes of
    the handle ``fh`` the block reads.  A TauspecError keeps its class."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # Its positions count from the decoder's chunk: decode the bytes whole.
        fh.buffer.seek(0)
        data = fh.buffer.read()
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


def _open(path: str):
    """``open(path, "r")``, but a stream that cannot seek (a pipe) is read
    into memory first, up to its line with a table's row past the cap (the
    header is one more), so a reader can go over it again.  The copy is
    decoded as a file is, in the same chunks, by whoever reads it: a byte
    that does not decode is met where the same file's read meets it."""
    with _naming(path):
        fh = open(path, "r")
    if fh.seekable():
        return fh
    with fh:
        copy, kept = io.BytesIO(), 0
        # A chunk ends at LF and holds one text line or more: kept runs behind.
        while kept <= MAX_POINTS + 1 and (chunk := fh.buffer.readline()):
            copy.write(chunk)
            kept += bool(chunk.decode(fh.encoding, "replace").strip())
        copy.seek(0)
    return io.TextIOWrapper(copy, fh.encoding)


def _parse_rows(lines, first: int, width: int):
    """The rows of ``lines``, the first at line number ``first``, one
    ``float`` per cell.

    This is the reference parser and the error path of ``read_table``: a
    ragged row or a cell that is no number raises naming its line.  It
    takes ``lines`` one at a time and stops at the row past the cap.
    """
    data = []
    for number, ln in enumerate(lines, first):
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


def _loadtxt(rows, width: int, max_rows: int, skiprows: int = 0):
    """numpy's parse of at most ``max_rows`` csv ``rows`` after ``skiprows``
    lines, or None where numpy refuses them or finds no rows or a column
    count other than ``width``.  numpy reserves room for ``max_rows`` rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = np.loadtxt(rows, dtype=float, delimiter=",", comments=None, ndmin=2,
                             skiprows=skiprows, max_rows=max_rows)
    except (ValueError, Warning, OSError):  # OSError: a reopen failed, e.g. with no cwd
        return None
    return arr if len(arr) and arr.shape[1] == width else None


def read_table(path: str, fh=None):
    """Read a csv table, returning (header, list of float columns); given
    a handle ``fh`` open on ``path`` at its start, read through it.

    numpy parses the rows: a regular file by the name ``/dev/fd/<n>`` of
    the descriptor that read the header, which numpy reads in blocks and
    neither decompresses nor fetches, and a pipe's copy (see ``_open``) by
    its handle.  numpy parses once more without the whitespace-only lines
    if it refuses them.  A table numpy still refuses is read again line by
    line by ``_parse_rows``, which skips those lines too and names a bad
    row.  Either way a table of more than ``MAX_POINTS`` rows is refused
    once the row past the cap is read.  numpy reserves room for every row
    it may read: as many as a regular file's size or a copy's length holds
    at 2 bytes a cell, else one past the cap.  A file with more rows than
    its size can hold (a procfs file, one that grows while read) reaches
    that bound and is read by ``_parse_rows``.
    """
    with fh or _open(path) as fh, _naming(path, fh):
        start = 0  # the blank lines before the header
        while (header := fh.readline()) and not header.strip():
            start += 1
        if not header:
            raise ValueError("empty file")
        header, body = header.strip(), fh.tell()
        width = len(header.split(","))
        if isinstance(fh.buffer, io.BytesIO):  # the copy _open made of a pipe
            size, name = fh.buffer.getbuffer().nbytes, None
        else:
            info = os.fstat(fh.fileno())
            size = info.st_size if stat.S_ISREG(info.st_mode) else None
            name = f"/dev/fd/{fh.fileno()}"
        max_rows = MAX_POINTS + 1
        if size is not None:  # a row of width cells takes 2 * width bytes or more
            max_rows = min(max_rows, size // (2 * width) + 1)
        if name and os.path.isfile(name):
            fh.seek(0)  # where /dev/fd dups the descriptor, numpy reads from its offset
            arr = _loadtxt(name, width, max_rows, skiprows=start + 1)
        else:
            arr = _loadtxt(fh, width, max_rows)
        if arr is None:
            # numpy reads a whitespace-only line as a one-column row.
            fh.seek(body)
            arr = _loadtxt((ln for ln in fh if ln.strip()), width, max_rows)
        if arr is not None and len(arr) == max_rows <= MAX_POINTS:
            arr = None  # more rows than the file's size can hold
        if arr is None:
            fh.seek(body)
            arr = _parse_rows(fh, start + 2, width)
        _check_rows(len(arr))
        return header, [arr[:, i] for i in range(arr.shape[1])]


@contextlib.contextmanager
def _columns(path: str, header: str, fh):
    """The columns of the csv table at ``path`` (read through ``fh``, where
    given), whose header must be ``header``; the block builds its
    container inside ``_naming(path)``."""
    found, cols = read_table(path, fh)
    with _naming(path):
        if found != header:
            raise ValueError(f"expected header {header!r}, got {found!r}")
        yield cols


def read_spectrum(path: str, fh=None) -> ComplexSpectrum:
    with _columns(path, SPECTRUM_HEADER, fh) as (omega, re, im):
        values = re.astype(complex)
        values.imag = im  # not 1j * im: an inf would warn before the check
        return ComplexSpectrum(FrequencyGrid(omega), values)


def write_spectrum(path: str, spectrum: ComplexSpectrum) -> None:
    values = spectrum.values
    _write_rows(path, SPECTRUM_HEADER, [spectrum.grid.values, values.real, values.imag])


def read_temporal(path: str, fh=None) -> TemporalSpectrum:
    with _columns(path, TEMPORAL_HEADER, fh) as (omega, tau1, tau2):
        return TemporalSpectrum(FrequencyGrid(omega), tau1, tau2)


def write_temporal(path: str, temporal: TemporalSpectrum) -> None:
    _write_rows(path, TEMPORAL_HEADER, [temporal.grid.values, temporal.tau1, temporal.tau2])


def write_barrier_table(path, energies, transmission, phase, tau1, tau2) -> None:
    _write_rows(path, BARRIER_HEADER, [energies, transmission, phase, tau1, tau2])


def read_barrier_table(path: str, fh=None):
    """(energy grid, transmission, phase, tau1, tau2) of a barrier table."""
    with _columns(path, BARRIER_HEADER, fh) as (energies, *cols):
        grid = FrequencyGrid(energies)
        if not np.all(np.isfinite(cols)):
            raise ValueError("barrier table contains non-finite values")
        return (grid, *cols)


class _TableFormat(NamedTuple):
    """A csv table format: its header, its reader, the grid and extremes
    that ``report`` prints of what the reader returns, and the header
    columns a plot draws."""

    header: str
    read: Callable[..., object]
    summary: Callable[[object], tuple]
    plotted: tuple


# Each csv table format, by the name detected gives it.  A reader is
# found by its name at each call, so a wrapper set on this module's
# attribute (the benchmark's tracer) is the one called.
TABLE_FORMATS = {
    "spectrum": _TableFormat(SPECTRUM_HEADER, lambda *args: read_spectrum(*args), lambda s: (
        s.grid, {"max_abs": np.max(np.abs(s.values))}), ("re", "im")),
    "temporal": _TableFormat(TEMPORAL_HEADER, lambda *args: read_temporal(*args), lambda t: (
        t.grid, {"max_abs_tau1": np.max(np.abs(t.tau1)),
                 "max_abs_tau2": np.max(np.abs(t.tau2))}), ("tau1", "tau2")),
    "barrier": _TableFormat(BARRIER_HEADER, lambda *args: read_barrier_table(*args), lambda b: (
        b[0], {"transmission_max": np.max(b[1]), "transmission_min": np.min(b[1])}),
        ("transmission", "tau1", "tau2")),
}


@dataclass(frozen=True)
class ModelDocument:
    """A typed model loaded from JSON: kind tag plus parameter object."""

    kind: str
    params: object

    def serves(self, capability: str) -> bool:
        """Whether this kind serves ``capability``: "spectrum" (a spectral
        sample), "contour" (a pole-zero contour count) or "profile" (a
        potential profile)."""
        entry = _MODEL_KINDS.get(self.kind)
        return entry is not None and capability in entry.serves

    def sample(self, grid: FrequencyGrid):
        """Spectrum S and complex time tau on ``grid``.  An anchored kind
        gives S(omega) / S(omega_first), one factor at a time, so a scale
        such as the Lorentz medium's plasma_frequency cancels; the others
        give S itself, through the proximity guards of a PoleZeroModel."""
        if not self.serves("spectrum"):
            raise ValueError(f"model kind {self.kind!r} is not a spectral model")
        om = grid.values
        if _MODEL_KINDS[self.kind].anchored:
            response = self.params.response()
            return response.ratio(om, om[0]), response.tau(om)
        return _model_values(self.params, om), model_tau(self.params, om)


def _float(value, name: str) -> float:
    """``float(value)``; a string, JSON type or integer no float holds, and
    a value that is not finite (JSON's Infinity and NaN), name its field."""
    try:
        number = float(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if not np.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _pair(value, name: str):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{name} must be a two-element list")
    return _float(value[0], name), _float(value[1], name)


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


def _load_oscillator(doc: dict):
    from .physics import OscillatorParams
    return OscillatorParams(_float(doc["omega0"], "omega0"), _float(doc["gamma"], "gamma"))


def _load_lorentz(doc: dict):
    from .physics import LorentzMediumParams
    return LorentzMediumParams(_float(doc["plasma_frequency"], "plasma_frequency"),
                               _load_oscillator(doc))


def _load_breit_wigner(doc: dict):
    from .physics import TwoLevelParams
    return TwoLevelParams(_float(doc["omega0"], "omega0"), _float(doc["gamma"], "gamma"),
                          _float(doc.get("gamma0", 0.0), "gamma0"), doc.get("branch", "lower"))


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
    """One model kind: its JSON fields besides ``type``, its loader from
    JSON to parameter object, the capabilities it serves (see
    ``ModelDocument.serves``), and whether its spectrum is normalised at the
    first node.  Loaders import ``physics`` or ``scatter1d`` themselves, so
    only a kind that needs one of them loads it."""

    required: set
    optional: set
    load: Callable[[dict], object]
    serves: frozenset = frozenset({"spectrum"})
    anchored: bool = False


_MODEL_KINDS = {
    "blaschke": _ModelKind({"resonances"}, {"scale", "p", "prefactor_sign"},
                           _load_blaschke, frozenset({"spectrum", "contour"})),
    "oscillator": _ModelKind({"omega0", "gamma"}, set(), _load_oscillator),
    "lorentz": _ModelKind({"plasma_frequency", "omega0", "gamma"}, set(), _load_lorentz,
                          anchored=True),
    "breit_wigner": _ModelKind({"omega0", "gamma"}, {"gamma0", "branch"},
                               _load_breit_wigner, anchored=True),
    "photon": _ModelKind({"k_abs", "eta"}, set(), _load_photon),
    "barrier": _ModelKind({"segments"}, set(), _load_barrier, frozenset({"profile"})),
}


def load_model(path: str) -> ModelDocument:
    """Load and validate a JSON model document.

    Every parameter invariant is re-checked on load by constructing the
    corresponding parameter object; unknown fields are rejected.
    """
    import json
    with _open(path) as fh, _naming(path, fh):
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
        return ModelDocument(kind, params)


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
            text = "%.12e" % float(value)
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


def read_artifact(path: str, fh=None):
    """Read an artifact file, returning (kind, ordered key/value dict);
    given a handle ``fh`` open on ``path`` at its start, read through it."""
    with fh or _open(path) as fh, _naming(path, fh):
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        words = lines[0][len(ARTIFACT_PREFIX) :].split() if lines else []
        if not (words and lines[0].startswith(ARTIFACT_PREFIX)):  # no kind, no artifact
            raise ValueError("not an artifact file")
        kind = words[0]
        mapping = {}
        for ln in lines[1:]:
            if "=" not in ln:
                raise ValueError(f"malformed artifact line {ln!r}")
            key, _, value = ln.partition("=")
            mapping[key] = value
        return kind, mapping


@contextlib.contextmanager
def detected(path: str):
    """The format of the file at ``path`` by its first non-blank line (a
    name of TABLE_FORMATS, "artifact" or "model"), and for the block a
    function that reads the file as that format's reader does, None for a
    model document.  Both go through one handle, which the reader takes
    back at its start, so a table or artifact piped in is read once."""
    with _open(path) as fh:
        with _naming(path, fh):
            first = next((line for line in fh if line.strip()), "").strip()
            if not first:
                raise ValueError("empty file")
            if first.startswith(ARTIFACT_PREFIX):
                fmt, read = "artifact", lambda: read_artifact(path, fh)
            elif first.startswith("{"):
                fmt, read = "model", None
            else:
                fmt = next((name for name, table in TABLE_FORMATS.items()
                            if table.header == first), None)
                if fmt is None:
                    raise ValueError("unrecognised file format")
                read = lambda: TABLE_FORMATS[fmt].read(path, fh)
        fh.seek(0)
        yield fmt, read
