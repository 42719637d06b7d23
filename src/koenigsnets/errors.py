"""Exception hierarchy.

Three bases, matching the CLI exit-code contract: ``InputError`` (malformed
documents / unsupported dimensions, exit 2), ``DegeneracyError`` (numerical
degeneracies such as parallel diagonals, exit 3) and ``CheckFailure``
(a verified property does not hold, exit 1).
"""


class GeometryError(Exception):
    """Base class for all library errors."""


class InputError(GeometryError):
    """Malformed or unsupported input."""


class DegeneracyError(GeometryError):
    """A numerical degeneracy prevents the computation."""


class CheckFailure(GeometryError):
    """A required geometric property does not hold."""


# --- input errors -----------------------------------------------------------

class DimensionMismatch(InputError):
    pass


class DimensionTooLow(InputError):
    pass


class UnsupportedDimension(InputError):
    pass


class ParseError(InputError):
    pass


class SchemaMismatch(InputError):
    pass


class InvalidValue(InputError, ValueError):
    """A value outside its domain, such as a non-finite coordinate, an axis
    with fewer than 2 vertices, a zero nu or label or a tolerance <= 0."""


# --- degeneracies -----------------------------------------------------------

class DegenerateQuad(DegeneracyError):
    """Diagonals parallel: their intersection point is at infinity."""


class NotPlanar(DegeneracyError):
    pass


class CollinearTriple(DegeneracyError):
    pass


class VertexOnDiagonal(DegeneracyError):
    """Diagonal intersection coincides with a vertex."""


class GeneralPositionViolated(DegeneracyError):
    pass


class PointOffLine(DegeneracyError):
    pass


class NotConcircular(DegeneracyError):
    pass


class CoincidentPoints(DegeneracyError):
    pass


class ZeroE0Component(DegeneracyError):
    """Projection of the point at infinity was requested."""


class ZeroNu(DegeneracyError):
    pass


class EqualNuOnWhiteDiagonal(DegeneracyError):
    """nu_i == nu_j on a quad: the Moutard/Laplace coefficient is singular."""


class VanishingLastComponent(DegeneracyError):
    """Homogeneous evolution produced a point at infinity, or left the
    finite numbers."""


class EqualLabels(DegeneracyError):
    """alpha_i == alpha_j on a quad: the fourth vertex is at infinity."""


class ZeroLeg(DegeneracyError):
    pass


class ZeroEdge(DegeneracyError):
    pass


class ZeroMetric(DegeneracyError):
    pass


class NullDiagonalDifference(DegeneracyError):
    """The diagonal difference is isotropic; the light-cone step is singular."""


# --- check failures ---------------------------------------------------------

class NotKoenigs(CheckFailure):
    pass


class NotCircular(CheckFailure):
    pass


class FormNotClosed(CheckFailure):
    pass


class InconsistentCrossRatios(CheckFailure):
    pass


class NotAlternating(CheckFailure):
    """Sign pattern of nu is inconsistent with all-convex quadrilaterals."""
