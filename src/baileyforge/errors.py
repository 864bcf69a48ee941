"""Error taxonomy for the verification engine."""


class SeriesError(Exception):
    """Base class for all engine errors."""


class ContextMismatchError(SeriesError):
    """Operands built under incompatible evaluation contexts."""


class NonUnitLeadingError(SeriesError):
    """Inversion of a series whose lowest slice is not a single monomial."""


class ZDegreeError(SeriesError):
    """Retained term breaks the z-degree resource guard."""


class DivergentProductError(SeriesError):
    """Infinite product with a non-terminating factor of nonpositive order."""


class TerminationError(SeriesError):
    """A summation loop could not be certified to stop within its cap.

    node is the refused sum and why the reason its term bound gave, when the
    DSL evaluator refused a ray: "is unproven", "does not grow" or "reaches
    the order past the index cap".
    """

    def __init__(self, message: str, node=None, why: str | None = None):
        super().__init__(message)
        self.node = node
        self.why = why


class BudgetError(TerminationError):
    """The term budget ran out before an evaluation finished."""


class NegativeFloorError(SeriesError):
    """A final result unexpectedly contains negative q-exponents."""


class PoleError(SeriesError):
    """A summand denominator vanishes identically at some index."""


class RegionError(SeriesError):
    """Double-sum region minimal exponent failed its monotonicity guard."""


class DslSyntaxError(SeriesError):
    """Identity language parse failure, located by line, column, and span."""

    def __init__(self, message: str, line: int, col: int, span: tuple):
        super().__init__(f"{message} (line {line}, column {col})")
        self.reason = message
        self.line = line
        self.col = col
        self.span = span


class SpecError(SeriesError):
    """Identity spec rejected: unknown name, bad binding, or validation finding."""
