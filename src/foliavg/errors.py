"""Exception hierarchy for foliavg.

Every error raised on a user-facing path derives from :class:`FoliavgError`,
so CLI code can map the whole family to a single exit code.
"""

from __future__ import annotations


class FoliavgError(Exception):
    """Base class for all foliavg errors."""


class ChartMismatch(FoliavgError):
    """Two operands live on different coordinate charts."""


class UnknownSymbol(FoliavgError):
    """An expression references a symbol the chart does not declare."""


class ParseError(FoliavgError):
    """An expression string does not conform to the input grammar."""


class NonPolynomialIntegrand(FoliavgError):
    """Definite integration was asked for a non-polynomial dependence."""


class DegreeOverflow(FoliavgError):
    """A form or multivector degree exceeds the chart dimension."""


class DegreeUnderflow(FoliavgError):
    """An operation would produce a negative form degree."""


class UnsupportedDegree(FoliavgError):
    """A graded bracket was requested outside the implemented arities."""


class MissingInverse(FoliavgError):
    """A pullback that needs the inverse map was given a map without one."""


class NotComplementary(FoliavgError):
    """A candidate horizontal frame is not complementary to the vertical bundle."""


class NotVertical(FoliavgError):
    """A field or form value expected to be vertical is not."""


class NotHorizontal(FoliavgError):
    """A form expected to annihilate the vertical bundle does not."""


class NonClosedOrbitCoefficients(FoliavgError):
    """Averaging input already depends on the averaging angle."""


class NotACocycle(FoliavgError):
    """A horizontal form expected to be covariantly closed is not."""


class PrimitiveMismatch(FoliavgError):
    """A supplied Casimir primitive does not reproduce the required form."""


class SchemaError(FoliavgError):
    """A scenario file violates the scenario schema."""


class InvariantViolation(FoliavgError):
    """Scenario data violates a structural invariant of its type."""


class UnknownFormat(FoliavgError):
    """An unsupported report format was requested."""
