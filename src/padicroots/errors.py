"""Exception hierarchy shared across the package."""


class PadicError(Exception):
    """Base class for all errors raised by this package."""


class DivisibilityViolation(PadicError):
    """A claimed power of p does not divide the value it should."""


class ContentDivisible(PadicError):
    """p divides every coefficient of the polynomial."""


class PrimeTooLarge(PadicError):
    """p exceeds the configured desk-scale cap for exhaustive scans."""


class BudgetExceeded(PadicError):
    """An exhaustive computation exceeded its configured budget."""


class CriterionFailed(PadicError):
    """Hensel's criterion does not hold at the given residue."""


class DerivativeNotInvertible(PadicError):
    """Newton refinement hit a derivative of unexpected valuation."""


class PrecisionTooLow(PadicError):
    """Requested computation needs more working precision."""


class InvalidParams(PadicError):
    """Parameters outside the documented domain."""


class ExponentOverflow(PadicError):
    """Exponent does not fit in 63 bits."""


class ParseError(PadicError):
    """Polynomial text could not be parsed."""


class InvariantViolated(PadicError):
    """A correctness check inside the solver failed; the result is not trusted."""
