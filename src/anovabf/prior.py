"""Beta-prime hyperprior and the quadrature Bayes factor.

The numerical route the closed forms are checked against: the Bayes
factor as an explicit mixture over the prior scale g, integrated in log
space over u = log g by the batched rule of :func:`numerics.integrate`,
so factors far beyond a double's range are checked too, on and off the
closed-form manifold (the hyper-g case is b = 0). The integrand's mode
is in closed form, so no root search is involved. The integration range
is found one float at a time: segments double in length away from the
mode until the log integrand at both ends has fallen _TAIL_DROP below
the peak, within a few doublings for most designs, by the same
cancellation-free step (:class:`_Step`) as the integration. On the
closed-form manifold the first of the integrand's two softplus terms has
coefficient exactly 0.0, so only the second is evaluated, to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, require_double, require_finite
from .numerics import integrate, log_beta

# The integration range ends where the log integrand is this far below its
# peak, at the first of up to 64 doublings; the tails beyond hold a
# negligible share of the mass.
_TAIL_DROP = 60.0
_DOUBLINGS = 64
# the breakpoints, in widths from the mode: -2**63, ..., -2, -1, 1, 2, ..., 2**63
_EDGES = np.concatenate([-(2.0 ** np.arange(_DOUBLINGS))[::-1], 2.0 ** np.arange(_DOUBLINGS)])
# softplus has slope at most 1, so no term of the log integrand at x exceeds
# the sum of its coefficients' magnitudes times |x|: below this bound (with
# room for rounding) none can overflow
_NO_OVERFLOW = 2.0**1000


@dataclass(frozen=True)
class BetaPrimePrior:
    """Beta-prime mixing density g^b (1+g)^(-a-b-2) / B(a+1, b+1) on (0, inf).

    a and b must be finite, and the prior is proper exactly when a > -1
    and b > -1; both are enforced at construction.
    """

    a: float
    b: float

    def __post_init__(self):
        require_finite("beta-prime prior", a=self.a, b=self.b)
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
        require_double("closed-form prior", n=n, p_alt=p_alt)
        return cls(a=a, b=(n - p_alt) / 2.0 - a - 2.0)

    @classmethod
    def hyper_g(cls, a: float = -0.5) -> "BetaPrimePrior":
        """The b = 0 member, density (1+g)^(-a-2): the hyper-g family."""
        return cls(a=a, b=0.0)


def beta_prime_log_density(prior: BetaPrimePrior, g: float | np.ndarray) -> float | np.ndarray:
    """log density of the beta-prime prior at g > 0, elementwise over an array."""
    if not np.all(np.greater(g, 0.0)):
        raise DomainError(f"density defined for g > 0, got {g}")
    log_norm = log_beta(prior.a + 1.0, prior.b + 1.0)
    return prior.b * np.log(g) - (prior.a + prior.b + 2.0) * np.log1p(g) - log_norm


def _check_bf_args(n: int, p_alt: int, ratio: float) -> None:
    if p_alt < 2:
        raise DomainError(f"alternative needs at least 2 mean parameters, got {p_alt}")
    if n <= p_alt:
        raise DomainError(f"need n > p_alt, got n={n}, p_alt={p_alt}")
    require_double("observation count", n=n)
    if not (0.0 < ratio <= 1.0):
        raise DomainError(f"sums-of-squares ratio must be in (0, 1], got {ratio}")


def _softplus(u: float) -> float:
    """log(1 + e**u) without overflow."""
    return max(u, 0.0) + math.log1p(math.exp(-abs(u)))


def _sigmoid(u: float) -> float:
    return math.exp(u - _softplus(u))


class _Step:
    """x -> softplus(v + x) - softplus(v) without cancellation near x = 0, at
    one float (the range search) or over an array (the integrand).

    Built once per v, it holds the mirror flag v > 0, the softplus and
    sigmoid of w = -|v|, and from them the floats _softplus and _sigmoid
    give for the peak's softplus(v) and the curvature's sigmoid(±v). For
    v <= 0 the step is log1p(sigmoid(v) * expm1(x)), whose argument stays
    above -1/2, or past x = 700, where expm1 overflows, the plain
    difference; for v > 0 it is the mirror x + step(-v, -x). Near 0 the
    plain difference cancels, for huge coefficients to values that end
    the range search where the integrand is noise."""

    def __init__(self, v: float):
        self.mirror, self.w = v > 0.0, -abs(v)
        self.base = _softplus(self.w)
        self.weight = math.exp(self.w - self.base)  # _sigmoid(w)
        self.softplus = max(v, 0.0) + self.base
        self.sigmoid = math.exp(v - self.softplus)
        self.sigmoid_neg = math.exp(-v - (max(-v, 0.0) + self.base))

    def at(self, x: float) -> float:
        y = -x if self.mirror else x
        if y > 700.0:
            step = _softplus(self.w + y) - self.base
        else:
            step = math.log1p(self.weight * math.expm1(y))
        return x + step if self.mirror else step

    def over(self, x: np.ndarray, reach: float) -> np.ndarray:
        """A new array of steps at x in [-reach, reach]. Only a reach above
        700 can put a node past 700, so only then are the nodes compared."""
        y = -x if self.mirror else x
        if reach <= 700.0:
            step = np.expm1(y)
            step *= self.weight
            np.log1p(step, out=step)
        else:
            step = np.log1p(self.weight * np.expm1(np.minimum(y, 700.0)))
            far = y > 700.0
            step[far] = np.logaddexp(0.0, self.w + y[far]) - self.base
        if self.mirror:
            step += x
        return step


def _log_mode(alpha: float, beta: float, k: float, c: float, ratio: float) -> float:
    """log of the positive root s of -c*ratio*s**2 + B*s + k, B = alpha - beta*ratio
    + k*(1+ratio), without cancellation and without forming s; hypot keeps the
    discriminant from underflowing at tiny ratios. Not finite when B or c*k overflows."""
    b_coef = alpha - beta * ratio + k * (1.0 + ratio)
    root_d = math.hypot(b_coef, 2.0 * math.sqrt(c * k) * math.sqrt(ratio))
    if b_coef > 0.0:
        return math.log(b_coef + root_d) - math.log(2.0 * c) - math.log(ratio)
    return math.log(2.0 * k) - math.log(root_d - b_coef)


def _doublings(shifted_at: Callable[[float], float], width: float, size: float) -> int:
    """How many doublings of ``width`` the integration range spans on each side.

    Walks out from the mode, x = width * 2**j for j = 0, 1, ..., to the
    first j where shifted_at(x) and shifted_at(-x) are both _TAIL_DROP
    below the peak. ``size`` is the sum of the magnitudes of the log
    integrand's coefficients. When size times the last doubling could
    overflow, the ends of every doubling are evaluated first, and a value
    that is not finite raises FloatingPointError, as a search of all of
    them under ``np.errstate(over="raise")`` would.
    """
    if size * width * 2.0 ** (_DOUBLINGS - 1) >= _NO_OVERFLOW:
        for x in (width * 2.0**j for j in range(_DOUBLINGS)):
            if not (math.isfinite(shifted_at(x)) and math.isfinite(shifted_at(-x))):
                raise FloatingPointError("overflow in the log integrand")
    for j in range(_DOUBLINGS):
        x = width * 2.0**j
        if shifted_at(x) <= -_TAIL_DROP and shifted_at(-x) <= -_TAIL_DROP:
            return j + 1
    raise ConvergenceError("no doubling reaches the tails", math.nan)


def _name(prior: BetaPrimePrior) -> str:
    return f"beta-prime prior a={prior.a}, b={prior.b}"


def log_bf_quadrature(n: int, p_alt: int, ratio: float, prior: BetaPrimePrior) -> float:
    """log Bayes factor by numerical integration over u = log g.

    The log integrand is alpha*softplus(u) - beta*softplus(u + log ratio)
    + (b+1)*u - log B(a+1, b+1), with alpha = (n-p_alt)/2 - a - b - 2 and
    beta = (n-1)/2. Its slope goes from k = b+1 > 0 at -inf to
    -c = -(p_alt-1)/2 - a - 1 < 0 at +inf, so it has one mode m, the log of
    a quadratic's positive root in e**u (:func:`_log_mode`). The integrand,
    relative to its value at m, is integrated over segments that double
    in length away from m until it is _TAIL_DROP below the peak on both
    sides (:func:`_doublings`, one float at a time); the log of that
    integral is added back to the peak.

    Under :meth:`BetaPrimePrior.for_closed_form`, alpha is exactly 0.0, and
    the alpha term is left out of the peak, the curvature, the range search
    and the integrand; each of those is then the same float it would be with
    the term. Other priors keep it.
    """
    _check_bf_args(n, p_alt, ratio)
    alpha = (n - p_alt) / 2.0 - prior.a - prior.b - 2.0
    beta, k, log_ratio = (n - 1) / 2.0, prior.b + 1.0, math.log(ratio)
    m = _log_mode(alpha, beta, k, (p_alt - 1) / 2.0 + prior.a + 1.0, ratio)
    if not math.isfinite(m):
        message = f"cannot locate the integrand's mode under the {_name(prior)}"
        raise ConvergenceError(message, math.nan)
    v = m + log_ratio
    step_v = _Step(v)
    peak = -beta * step_v.softplus
    curvature = beta * step_v.sigmoid * step_v.sigmoid_neg
    if alpha:
        step_m = _Step(m)
        peak += alpha * step_m.softplus
        curvature -= alpha * step_m.sigmoid * step_m.sigmoid_neg
    peak += k * m

    def shifted_at(x: float) -> float:
        value = -beta * step_v.at(x)
        if alpha:
            value += alpha * step_m.at(x)
        return value + k * x

    # the segments start at the peak's width, capped at 1 so that a long flat
    # stretch next to a sharp mode is still resolved
    width = max(curvature, 1.0) ** -0.5
    try:
        j = _doublings(shifted_at, width, abs(alpha) + beta + k)
        edges = width * _EDGES[_DOUBLINGS - j : _DOUBLINGS + j]
        reach = float(edges[-1])

        def integrand(x: np.ndarray) -> np.ndarray:
            values = step_v.over(x, reach)
            values *= -beta
            if alpha:
                values += alpha * step_m.over(x, reach)
            values += k * x
            return np.exp(values, out=values)

        with np.errstate(over="raise"):
            mass = integrate(integrand, edges)
    except (FloatingPointError, ConvergenceError) as exc:
        # one line names the prior, whatever failed
        failure = "overflows" if isinstance(exc, FloatingPointError) else "did not converge"
        raise ConvergenceError(f"quadrature {failure} under the {_name(prior)}", math.nan) from None
    return peak - log_beta(prior.a + 1.0, k) + math.log(mass)


def bf_quadrature(n: int, p_alt: int, ratio: float, prior: BetaPrimePrior) -> float:
    """exp of :func:`log_bf_quadrature`; raises OverflowError past a double."""
    return math.exp(log_bf_quadrature(n, p_alt, ratio, prior))
