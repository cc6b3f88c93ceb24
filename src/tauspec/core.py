"""Core spectral containers and the rational response.

The two temporal functions used throughout the package come from the
logarithmic frequency derivative of a complex response S(omega):

    tau(omega) = -i d/domega ln S(omega) = tau1 + i tau2

where tau1 tracks the phase slope (delay) and tau2 the modulus slope
(formation / reshaping).  A rational response, a product of powers of
(omega**degree - root), gives one closed form for both, and exponential
integration inverts the extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AnchorOutOfRange,
    GridError,
    NonPositiveGrid,
    NonUniformGrid,
    PoleProximity,
)

__all__ = [
    "FrequencyGrid",
    "ComplexSpectrum",
    "TemporalSpectrum",
    "RationalResponse",
    "PoleZeroModel",
    "evaluate_model",
    "model_tau",
    "reconstruct",
    "extend_negative_frequencies",
    "uniform_spacing",
]

_UNIFORM_RTOL = 1e-9
# A %.12e cell moves its node by at most 5e-13 of it, so a grid read back
# from csv has steps off by up to 1e-12 of its largest node.
_CSV_ROUNDOFF = 1e-12
# The nearest a model sample may come to a pole, a zero or a singular origin.
_POLE_TOLERANCE = 1e-12


def _pointwise(arg, *results):
    """``results`` of a pointwise function of ``arg``: Python scalars (the
    one element of each) when ``arg`` is 0-d, else the arrays as they are.
    One result comes back bare, several as a tuple."""
    if np.ndim(arg) == 0:
        results = tuple(np.asarray(r).item() for r in results)
    return results[0] if len(results) == 1 else results


def _require_finite(values, name: str) -> None:
    """Raises ValueError("<name> must be finite") on a NaN or infinite element."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def _complex(re, im):
    """One complex array from its real and imaginary parts, bit for bit:
    ``re + 1j * im`` would turn a -0 imaginary part into +0."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def uniform_spacing(x, message: str) -> float:
    """Mean step of ``x``; raises NonUniformGrid(message) unless ``x`` has
    two or more nodes, a mean step > 0 and every step within _UNIFORM_RTOL
    times the mean of it plus the csv round-off of the largest |node|.
    Rounding is monotone, so the extreme steps and nodes give the largest
    |step - h| and |node|; np.maximum keeps a NaN, which refuses."""
    steps = np.diff(x)
    h = float(np.mean(steps)) if steps.size else 0.0
    if not (h > 0 and np.maximum(np.max(steps) - h, h - np.min(steps))
            <= _UNIFORM_RTOL * h + _CSV_ROUNDOFF * np.maximum(np.max(x), -np.min(x))):
        raise NonUniformGrid(message)
    return h


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, finite frequency sample points.

    The wrapped array is copied and frozen so a grid can be shared between
    spectra without aliasing surprises.  Like the other containers of
    arrays, a grid compares and hashes by identity.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise GridError("grid must be one-dimensional")
        if arr.size < 3:
            raise GridError("grid needs at least 3 nodes")
        # Increasing between finite ends means finite; isfinite picks the message.
        if not (np.isfinite(arr[[0, -1]]).all() and np.all(arr[1:] > arr[:-1])):
            if not np.all(np.isfinite(arr)):
                raise GridError("grid contains non-finite values")
            raise GridError("grid must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def linspace(cls, lo: float, hi: float, n: int) -> "FrequencyGrid":
        return cls(np.linspace(lo, hi, n))

    def __len__(self) -> int:
        return self.values.size

    @property
    def span(self) -> float:
        return float(self.values[-1] - self.values[0])


@dataclass(frozen=True, eq=False)
class ComplexSpectrum:
    """Complex response samples S(omega) on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.shape != (len(self.grid),):
            raise GridError("spectrum values must match the grid length")
        if not np.all(np.isfinite(arr)):
            raise GridError("spectrum contains non-finite values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class TemporalSpectrum:
    """Delay time tau1 and formation time tau2 sampled on a grid.

    Attributes:
        grid: frequency sample points.
        tau1: phase-slope times, d(arg S)/domega.
        tau2: modulus-slope times, -d(ln|S|)/domega.
        edge_nodes: nodes at each end where one-sided stencils were used;
            consumers that care about stencil accuracy may drop them.
    """

    grid: FrequencyGrid
    tau1: np.ndarray
    tau2: np.ndarray
    edge_nodes: int = 0

    def __post_init__(self):
        n = len(self.grid)
        t1 = np.asarray(self.tau1, dtype=float)
        t2 = np.asarray(self.tau2, dtype=float)
        if t1.shape != (n,) or t2.shape != (n,):
            raise GridError("tau arrays must match the grid length")
        if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
            raise GridError("tau arrays contain non-finite values")
        if self.edge_nodes < 0 or 2 * self.edge_nodes >= n:
            raise GridError("edge_nodes out of range")
        object.__setattr__(self, "tau1", t1)
        object.__setattr__(self, "tau2", t2)

    @property
    def tau(self) -> np.ndarray:
        """Combined complex time tau1 + i tau2, each part bit for bit."""
        return _complex(self.tau1, self.tau2)

    @property
    def interior(self) -> slice:
        """Slice selecting nodes away from one-sided stencil closures."""
        if self.edge_nodes == 0:
            return slice(None)
        return slice(self.edge_nodes, -self.edge_nodes)


@dataclass(frozen=True)
class RationalResponse:
    """S(omega) = scale * prod (omega**degree - root)**power over the (root,
    degree, power) ``factors``, and tau = -i d ln S/domega, one term each:
        tau = -i sum power * degree * omega**(degree-1) / (omega**degree - root).

    tau carries the rounding error of each addition (Knuth's two-sum): on
    the real axis a zero's tau2 term and its mirrored pole's cancel, and a
    plain running sum would keep the rounding of the larger one in what is
    left.  Nothing guards against a sample on a pole.
    """

    scale: complex
    factors: tuple

    def values(self, omega):
        """S at real or complex frequencies."""
        om = np.asarray(omega, dtype=complex)
        out = np.full(om.shape, self.scale, dtype=complex)
        for root, degree, power in self.factors:
            base = om**degree - root
            # A simple pole divides: one rounding, where base**-1 takes two.
            out = out / base if power == -1 else out * base**power
        return _pointwise(omega, out)

    def ratio(self, omega, anchor: float):
        """S(omega) / S(anchor), taken one factor at a time: no partial
        product under- or overflows where every factor's ratio is finite.
        It is exactly 1 at the anchor itself, where the complex division of
        a factor by itself may round to 1 + 3e-18j."""
        om = np.asarray(omega, dtype=complex)
        out = np.ones(om.shape, dtype=complex)
        for root, degree, power in self.factors:
            base = (om**degree - root) / (anchor**degree - root)
            out = out / base if power == -1 else out * base**power
        return _pointwise(omega, np.where(om == anchor, 1, out))

    def tau(self, omega):
        """Complex time tau1 + i tau2 at real or complex frequencies."""
        om = np.asarray(omega, dtype=complex)
        terms = (-1j * power / (om - root) if degree == 1
                 else -1j * power * degree * om ** (degree - 1) / (om**degree - root)
                 for root, degree, power in self.factors)
        carry = np.zeros(om.shape, dtype=complex)
        total = next(terms, carry)
        for term in terms:
            new = total + term
            back = new - total
            carry = carry + ((total - (new - back)) + (term - back))
            total = new
        return _pointwise(omega, total + carry)


@dataclass(frozen=True)
class PoleZeroModel:
    """Unit-modulus rational response built from mirrored resonances.

    Each resonance (omega_n, gamma_n) contributes a Blaschke factor with a
    zero at omega_n + i gamma_n / 2 and a pole at its conjugate, so on the
    real axis the product has modulus one.  An optional power prefactor
    omega**(-prefactor_sign * p) models threshold behaviour at the origin.

    Args:
        scale: overall complex amplitude, finite and nonzero.
        p: non-negative integer power of the origin prefactor.
        resonances: sequence of (center, width) pairs, both positive and
            finite.
        prefactor_sign: +1 for a decaying origin factor omega**-p,
            -1 for the growing branch omega**+p.
    """

    scale: complex = 1.0 + 0.0j
    p: int = 0
    resonances: tuple = ()
    prefactor_sign: int = 1

    def __post_init__(self):
        if self.scale == 0 or not np.isfinite(self.scale):
            raise ValueError("scale must be finite and nonzero")
        if not isinstance(self.p, (int, np.integer)) or self.p < 0:
            raise ValueError("p must be a non-negative integer")
        if self.prefactor_sign not in (1, -1):
            raise ValueError("prefactor_sign must be +1 or -1")
        res = tuple((float(w), float(g)) for w, g in self.resonances)
        for w, g in res:
            if not (0 < w < np.inf and 0 < g < np.inf):
                raise ValueError("resonances need positive finite center and width")
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "resonances", res)

    def zeros(self) -> np.ndarray:
        """Upper-half-plane zeros omega_n + i gamma_n / 2."""
        return np.array([w + 0.5j * g for w, g in self.resonances], dtype=complex)

    def poles(self) -> np.ndarray:
        """Lower-half-plane poles omega_n - i gamma_n / 2."""
        return np.conj(self.zeros())

    def response(self) -> RationalResponse:
        """The origin factor, then each zero and its mirrored pole."""
        origin = ((0.0, 1, -self.prefactor_sign * self.p),) if self.p > 0 else ()
        pairs = tuple(f for z in self.zeros() for f in ((z, 1, 1), (np.conj(z), 1, -1)))
        return RationalResponse(self.scale, origin + pairs)


def _guard_proximity(omega, points, what):
    omega = np.asarray(omega, dtype=complex)
    for pt in np.atleast_1d(points):
        d = np.min(np.abs(omega - pt))
        if d < _POLE_TOLERANCE:
            raise PoleProximity(
                f"evaluation point within {d:.3e} of {what} at {pt}"
            )


def evaluate_model(model, omega):
    """S(omega) of a model with a ``response()`` at real or complex omega.

    Raises:
        ValueError: omega is NaN or infinite.
        PoleProximity: for a PoleZeroModel, a sample within 1e-12 of a
            pole, or of the origin when the prefactor is singular there.
    """
    _require_finite(omega, "omega")
    if isinstance(model, PoleZeroModel):
        if model.p > 0 and model.prefactor_sign > 0:
            _guard_proximity(omega, 0.0, "the origin prefactor pole")
        _guard_proximity(omega, model.poles(), "a model pole")
    return model.response().values(omega)


def model_tau(model, omega):
    """Complex time tau(omega) = -i d ln S/domega of a model with a
    ``response()``, at real or complex omega (winding_number takes it on a
    contour).  On the real axis each resonance of a PoleZeroModel adds
    gamma_n / ((omega - omega_n)**2 + gamma_n**2 / 4) to tau1, and the
    origin prefactor adds prefactor_sign * p / omega to tau2.

    Raises:
        ValueError: omega is NaN or infinite.
        PoleProximity: for a PoleZeroModel, a sample within 1e-12 of a
            pole, a zero or a prefactor origin.
    """
    _require_finite(omega, "omega")
    if isinstance(model, PoleZeroModel):
        if model.p > 0:
            _guard_proximity(omega, 0.0, "the origin")
        _guard_proximity(omega, model.poles(), "a model pole")
        _guard_proximity(omega, model.zeros(), "a model zero")
    return model.response().tau(omega)


def reconstruct(
    temporal: TemporalSpectrum, anchor_omega: float, anchor_value: complex
) -> ComplexSpectrum:
    """Rebuild S(omega) from its temporal functions by trapezoid quadrature.

    Integrates d(ln S)/domega = i tau1 - tau2 cumulatively along the grid
    and pins the result so S(anchor_omega) = anchor_value.  The anchor may
    sit between nodes; its log offset is then linearly interpolated.

    The output has the bits of the complex trapezoid sum of
    1j * tau1 - tau2, with one exception: where an increment underflows
    to zero (|tau| times the step below about 1e-308) it counts as +0,
    where the complex sum may keep a -0, so with an anchor value that has
    a zero part the sign of a zero part of the output may differ.

    Raises:
        AnchorOutOfRange: anchor frequency outside the grid span.
    """
    grid = temporal.grid.values
    if not (grid[0] <= anchor_omega <= grid[-1]):
        raise AnchorOutOfRange(
            f"anchor {anchor_omega} outside grid span [{grid[0]}, {grid[-1]}]"
        )
    if anchor_value == 0:
        raise ValueError("anchor value must be nonzero")
    # The cumulative trapezoid rule of 1j * tau1 - tau2 over grid, from 0,
    # with the real and imaginary parts summed apart: the same bits as the
    # complex sum (test_core.py compares them).  Each sum starts from 0, so
    # a zero running sum is +0, as the complex rounding makes it unless an
    # increment underflows (|tau1| times the step below about 1e-308).
    step = np.diff(grid)
    log_s = np.empty(grid.size, dtype=complex)
    increment = np.empty(grid.size)
    increment[0] = 0.0
    for part, rate, half in ((log_s.real, temporal.tau2, -0.5),
                             (log_s.imag, temporal.tau1, 0.5)):
        np.add(rate[1:], rate[:-1], out=increment[1:])
        increment[1:] *= step
        increment[1:] *= half
        np.cumsum(increment, out=part)
    # np.interp on the anchor's cell alone gives its bits on the whole grid,
    # without a contiguous copy of each strided part.
    right = int(np.searchsorted(grid, anchor_omega))
    cell = slice(max(right - 1, 0), right + 1)
    at_anchor = np.interp(anchor_omega, grid[cell], log_s.real[cell]) + 1j * np.interp(
        anchor_omega, grid[cell], log_s.imag[cell]
    )
    log_s -= at_anchor
    # One expression: numpy multiplies in place of the exp temporary above
    # 256 KiB, which swaps the operands, and a complex product rounds by
    # operand order.
    values = anchor_value * np.exp(log_s)
    return ComplexSpectrum(temporal.grid, values)


def extend_negative_frequencies(temporal: TemporalSpectrum) -> TemporalSpectrum:
    """Mirror a positive-frequency temporal spectrum onto the real line.

    Reality of the underlying signal forces tau(-omega) = conj(tau(omega)),
    so tau1 extends as an even function and tau2 as an odd one.

    Raises:
        NonPositiveGrid: the input grid must be strictly positive.
    """
    grid = temporal.grid.values
    if grid[0] <= 0:
        raise NonPositiveGrid("extension needs a strictly positive grid")
    full = FrequencyGrid(np.concatenate([-grid[::-1], grid]))
    tau1 = np.concatenate([temporal.tau1[::-1], temporal.tau1])
    tau2 = np.concatenate([-temporal.tau2[::-1], temporal.tau2])
    return TemporalSpectrum(full, tau1, tau2, edge_nodes=temporal.edge_nodes)
