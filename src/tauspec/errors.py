"""Exception types shared across the package.

Every contract violation maps to one of these classes, and each class
carries the stable exit code the command line front end returns for it:

* input contract violations (bad files, malformed grids)      -> exit 2
* numerical contract violations (zero modulus, zero norm)     -> exit 3
* domain violations (pole on the grid, contour through a pole)-> exit 4

The module also holds the size caps the command line prints in its help.
"""

# The most rows a table may hold and the most nodes --points may ask for.
MAX_POINTS = 10**7
# Panels per contour edge: winding_number's fewest (and default), and the most --samples takes.
MIN_SAMPLES_PER_EDGE = 16
MAX_SAMPLES_PER_EDGE = 10**5


class TauspecError(Exception):
    """Base class for all package-specific errors.

    ``node`` is the index of the grid node where the error arose, or None.
    """

    exit_code = 2

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class GridError(TauspecError):
    """Malformed frequency or time grid."""


class NonUniformGrid(GridError):
    """Operation requires uniform spacing but the grid is not uniform."""


class NonPositiveGrid(GridError):
    """Operation requires a strictly positive frequency grid."""


class OriginGapTooWide(GridError):
    """Zero-filling the gap between the origin and the grid would cost far
    more nodes than the grid itself holds."""


class PoleProximity(TauspecError):
    """Evaluation point is too close to a model pole (or the origin)."""

    exit_code = 4


class AnchorOutOfRange(TauspecError):
    """Reconstruction anchor lies outside the grid span."""


class ZeroModulus(TauspecError):
    """Spectrum modulus fell below the floor where log/phase are defined."""

    exit_code = 3


class ZeroNorm(TauspecError):
    """Spectrum has zero L2 norm; moments are undefined."""

    exit_code = 3


class OriginInGrid(TauspecError):
    """Grid contains the origin where a 1/omega weight is singular."""

    exit_code = 4


class SingularityOnContour(TauspecError):
    """Integration contour passes too close to a zero or pole."""

    exit_code = 4


class UnresolvedWinding(TauspecError):
    """Contour quadrature gave a count too far from an integer."""

    exit_code = 3


class NonPositiveEta(TauspecError):
    """Regularisation parameter eta must be > 0."""


class NonPositiveCrossSection(TauspecError):
    """Cross-section samples must be strictly positive for the log slope."""


class DegenerateEnergy(TauspecError):
    """Scattering energy coincides with a segment height."""

    exit_code = 4


class ZeroTransmission(TauspecError):
    """Transmission amplitude vanished; its log-derivative is undefined."""

    exit_code = 3
