"""Special-function numerics: log-beta, batched adaptive Gauss-Kronrod
quadrature, and the design regimes of the large-sample analysis."""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

# quadrature's absolute and relative error targets, and its budget of pieces
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000
# no error estimate beats the rounding of the rule's sum: this times the
# weighted sum of |f| (QUADPACK's 50 * epmach)
_ROUNDING = 50.0 * float(np.finfo(float).eps)

# QUADPACK's 21-point Gauss-Kronrod rule dqk21 (Piessens et al., "QUADPACK",
# Springer 1983) on [-1, 1], in the order dqk21 adds its terms: the centre,
# the five abscissae of the 10-point Gauss rule (weights _WG), the other five.
_XGK = np.array([0.0, 0.9739065285171717, 0.8650633666889845, 0.6794095682990244,
                 0.4333953941292472, 0.14887433898163122, 0.9956571630258081,
                 0.9301574913557082, 0.7808177265864169, 0.5627571346686047, 0.2943928627014602])
_WGK = np.array([0.1494455540029169, 0.032558162307964725, 0.07503967481091996,
                 0.10938715880229764, 0.13470921731147334, 0.14773910490133849,
                 0.011694638867371874, 0.054755896574351995, 0.0931254545836976,
                 0.12349197626206584, 0.14277593857706009])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
# the 21 nodes as offsets from a piece's centre in half-widths, and their weights
_NODES = np.concatenate([-_XGK, _XGK[1:]])[:, None]
_WEIGHTS = np.concatenate([_WGK, _WGK[1:]])


class Regime(enum.Enum):
    """Which design dimension grows without bound.

    MANY_REPLICATIONS: replications per level grow, level count fixed.
    MANY_LEVELS: level count grows, replications per level fixed.
    """

    MANY_REPLICATIONS = "many-replications"
    MANY_LEVELS = "many-levels"


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise DomainError(f"log_beta requires positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def integrate(f: Callable[[np.ndarray], np.ndarray], edges) -> float:
    """Integrate f from edges[0] to edges[-1] by adaptive Gauss-Kronrod quadrature.

    f maps an array of nodes to an array of values, elementwise; every node
    lies strictly inside its piece. The pieces start between the sorted
    breakpoints ``edges``. Each round scores every live piece with dqk21 in
    one call of f. The integral is done when the error estimates add up to
    the tolerance; until then, each piece whose estimate is above its
    width's share of it is bisected. Needing more than _MAX_SUBDIVISIONS
    pieces, or accepted pieces whose errors miss the final tolerance, raises
    :class:`ConvergenceError` carrying the estimate.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    width = float(edges[-1] - edges[0]) if lo.size else math.nan
    if not (math.isfinite(width) and (hi > lo).all()):
        raise DomainError(f"integration needs increasing finite breakpoints, got {edges}")
    pieces, done, done_error = lo.size, 0.0, 0.0
    while lo.size:
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = f(centre + _NODES * half)
        # dqk21's sums: np.add.accumulate adds in its order, where sum would pair terms up
        pairs = values[:11].copy()
        pairs[1:] += values[11:]
        kronrod = np.add.accumulate(_WGK[:, None] * pairs)[-1]
        spread = _WEIGHTS @ np.abs(values - 0.5 * kronrod) * half
        error = np.abs((kronrod - _WG @ pairs[1:6]) * half)
        with np.errstate(all="ignore"):
            scaled = spread * np.minimum(200.0 * error / spread, 1.0) ** 1.5
        floor = _ROUNDING * (_WEIGHTS @ np.abs(values)) * half
        error = np.maximum(np.where(spread != 0.0, scaled, error), floor)
        value = kronrod * half
        estimate = sum(value.tolist(), done)  # in order, as a loop over the pieces adds
        tolerance = max(_ABS_TOL, _REL_TOL * abs(estimate))
        if done_error + error.sum() <= tolerance:
            return estimate
        accept = error <= tolerance * (hi - lo) / width
        done, done_error = sum(value[accept].tolist(), done), done_error + error[accept].sum()
        lo, hi = lo[~accept], hi[~accept]
        mid = 0.5 * (lo + hi)
        pieces += lo.size
        if pieces > _MAX_SUBDIVISIONS or not ((lo < mid) & (mid < hi)).all():
            message = f"quadrature did not converge within {_MAX_SUBDIVISIONS} pieces"
            raise ConvergenceError(message, estimate=estimate)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise ConvergenceError("quadrature accepted pieces its final tolerance rejects", estimate=estimate)
