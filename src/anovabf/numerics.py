"""Special-function numerics: log-gamma, log-beta, unit-interval quadrature,
and the design regimes of the large-sample analysis."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError


class Regime(enum.Enum):
    """Which design dimension grows without bound.

    MANY_REPLICATIONS: replications per level grow, level count fixed.
    MANY_LEVELS: level count grows, replications per level fixed.
    """

    MANY_REPLICATIONS = "many-replications"
    MANY_LEVELS = "many-levels"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise DomainError(f"log_beta requires positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def integrate_unit_interval(
    f: Callable[[float], float], spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Integrate f over (0, 1) by adaptive subdivision.

    Endpoint singularities of type t**c with c > -1 are handled; nodes
    are interior, so f is never evaluated at 0 or 1 exactly. Failure to
    converge within the subdivision budget raises
    :class:`ConvergenceError` carrying the best estimate.
    """
    # imported here: scipy.integrate costs most of the package's import
    # time, and only the quadrature oracle needs it
    from scipy import integrate

    result = integrate.quad(
        f,
        0.0,
        1.0,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(result) > 3:
        estimate = float(result[0])
        message = str(result[3])
        raise ConvergenceError(f"quadrature did not converge: {message}", estimate=estimate)
    return float(result[0])

