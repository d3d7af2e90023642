"""Special-function numerics: log-gamma, log-beta, finite-interval quadrature,
and the design regimes of the large-sample analysis."""

from __future__ import annotations

import enum
import math
from typing import Callable

from .errors import ConvergenceError, DomainError

# adaptive quadrature's absolute and relative error targets and its
# subdivision budget
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000


class Regime(enum.Enum):
    """Which design dimension grows without bound.

    MANY_REPLICATIONS: replications per level grow, level count fixed.
    MANY_LEVELS: level count grows, replications per level fixed.
    """

    MANY_REPLICATIONS = "many-replications"
    MANY_LEVELS = "many-levels"


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


def integrate(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Integrate f over the finite interval (lo, hi) by adaptive subdivision.

    Endpoint singularities of type (t - lo)**c with c > -1 are handled;
    nodes are interior, so f is never evaluated at lo or hi exactly. Failure to
    converge within the subdivision budget raises
    :class:`ConvergenceError` carrying the best estimate.
    """
    # imported here: scipy.integrate costs most of the package's import
    # time, and only the quadrature oracle needs it
    from scipy import integrate as scipy_integrate

    result = scipy_integrate.quad(
        f, lo, hi, epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS, full_output=1
    )
    if len(result) > 3:
        estimate = float(result[0])
        message = str(result[3])
        raise ConvergenceError(f"quadrature did not converge: {message}", estimate=estimate)
    return float(result[0])
