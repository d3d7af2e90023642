"""Beta-prime hyperprior and quadrature Bayes factors.

This is the numerical route the closed forms are checked against: the
Bayes factor as an explicit mixture over the prior scale g, evaluated by
adaptive quadrature. It also supports hyperprior parameters off the
closed-form manifold, including the hyper-g case b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import QuadratureSpec, integrate_unit_interval, log_beta

# Node count for locating the integrand's maximum before exponentiating.
_SCAN_NODES = 512
# math.exp overflows past ~709.78; values this large only arise between
# scan nodes on pathological inputs, so saturating is safe.
_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class BetaPrimePrior:
    """Beta-prime mixing density g^b (1+g)^(-a-b-2) / B(a+1, b+1) on (0, inf).

    Proper exactly when a > -1 and b > -1; enforced at construction.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1.0 and self.b > -1.0):
            raise DomainError(
                f"beta-prime prior requires a > -1 and b > -1, got a={self.a}, b={self.b}"
            )

    @classmethod
    def for_closed_form(cls, n: int, p_alt: int, a: float = -0.5) -> "BetaPrimePrior":
        """Prior whose mixture integral collapses to the closed-form factor.

        Sets b = (n - p_alt)/2 - a - 2, which turns the integrand into an
        unnormalized beta density after the t = g/(1+g) substitution. The
        default a = -1/2 is the recommended choice the closed form uses.
        """
        return cls(a=a, b=(n - p_alt) / 2.0 - a - 2.0)

    @classmethod
    def hyper_g(cls, a: float = -0.5) -> "BetaPrimePrior":
        """The b = 0 member, density (1+g)^(-a-2): the hyper-g family."""
        return cls(a=a, b=0.0)


def beta_prime_log_density(prior: BetaPrimePrior, g: float) -> float:
    """log density of the beta-prime prior at g > 0."""
    if not g > 0:
        raise DomainError(f"density defined for g > 0, got {g}")
    return (
        prior.b * math.log(g)
        - (prior.a + prior.b + 2.0) * math.log1p(g)
        - log_beta(prior.a + 1.0, prior.b + 1.0)
    )


def _check_bf_args(n: int, p_alt: int, ratio: float) -> None:
    if p_alt < 2:
        raise DomainError(f"alternative needs at least 2 mean parameters, got {p_alt}")
    if n <= p_alt:
        raise DomainError(f"need n > p_alt, got n={n}, p_alt={p_alt}")
    if not (0.0 < ratio <= 1.0):
        raise DomainError(f"sums-of-squares ratio must be in (0, 1], got {ratio}")


def log_bf_integrand(
    n: int, p_alt: int, ratio: float, prior: BetaPrimePrior, g: float
) -> float:
    """log of the g-conditional Bayes factor times the prior density.

    Integrating its exponential over g in (0, inf) gives the Bayes factor
    of the alternative with p_alt mean parameters against the common mean;
    ratio is the alternative's residual share of the total sum of squares.
    """
    _check_bf_args(n, p_alt, ratio)
    if not g > 0:
        raise DomainError(f"integrand defined for g > 0, got {g}")
    return (
        ((n - p_alt) / 2.0) * math.log1p(g)
        - ((n - 1) / 2.0) * math.log1p(g * ratio)
        + beta_prime_log_density(prior, g)
    )


def bf_quadrature(
    n: int,
    p_alt: int,
    ratio: float,
    prior: BetaPrimePrior,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Bayes factor by numerical integration over the prior scale.

    Substitutes t = g/(1+g) so the improper integral lives on (0, 1); the
    Jacobian 1/(1-t)^2 joins the integrand in log space. The log integrand
    is shifted by its maximum over a uniform scan before exponentiating,
    since for large n it spans hundreds of orders of magnitude.
    """
    _check_bf_args(n, p_alt, ratio)

    def log_integrand_t(t: float) -> float:
        g = t / (1.0 - t)
        return log_bf_integrand(n, p_alt, ratio, prior, g) - 2.0 * math.log1p(-t)

    peak = max(
        log_integrand_t((k + 0.5) / _SCAN_NODES) for k in range(_SCAN_NODES)
    )

    def shifted(t: float) -> float:
        return math.exp(min(log_integrand_t(t) - peak, _EXP_CLAMP))

    integral = integrate_unit_interval(shifted, spec)
    return math.exp(peak) * integral

