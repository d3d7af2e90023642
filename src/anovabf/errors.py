"""Exception types shared across the package."""

import math
import operator


class AnovaBFError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AnovaBFError):
    """CSV input could not be parsed into a dataset."""


class BalanceError(AnovaBFError):
    """Observations do not form a balanced design."""


class DegenerateDesignError(AnovaBFError):
    """Design too small for the Bayes factors (fewer than 2 levels or 2 replications)."""


class DegenerateDataError(AnovaBFError):
    """All observations identical: total sum of squares is zero."""


class DomainError(AnovaBFError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(AnovaBFError):
    """Numerical integration failed to converge within its budget.

    The best available estimate is attached as ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def require_finite(owner: str, **fields: float) -> None:
    """Raise :class:`DomainError` naming the first field that is NaN or infinite."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise DomainError(f"{owner} {name} must be finite, got {value}")


def require_double(owner: str, **counts: int) -> None:
    """Raise :class:`DomainError` naming the first count too large for a
    double, on which float arithmetic would raise OverflowError."""
    for name, value in counts.items():
        try:
            float(value)
        except OverflowError:
            bits = value.bit_length()
            raise DomainError(f"{owner} {name} must fit a double, got a {bits}-bit integer") from None


def require_design(owner: str, **counts: int) -> None:
    """Raise :class:`DomainError` naming the first design count that is not an
    integer or is below 2, or else, through :func:`require_double`, the first too
    large for a double."""
    for name, value in counts.items():
        try:
            operator.index(value)
        except TypeError:
            raise DomainError(f"need an integer {name}, got {value!r}") from None
        if value < 2:
            raise DomainError(f"need {name} >= 2, got {value}")
    require_double(owner, **counts)


def require_effect(owner: str, **sizes: float) -> None:
    """Raise :class:`DomainError` naming the first effect size that is not
    finite, or else the first that is negative."""
    require_finite(owner, **sizes)
    for name, value in sizes.items():
        if value < 0:
            raise DomainError(f"{owner} {name} must be nonnegative, got {value}")
