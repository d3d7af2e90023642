"""Closed-form consistency diagnostics for the two Bayes factors.

Everything here is analysis, not data processing: the effect-size
threshold separating consistent from inconsistent selection, the
consistency window for the saturated two-way model, the limiting
sums-of-squares ratios, the asymptotic log-Bayes-factor trajectories,
and the prediction-error gap between the competing models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bayes_factors import Criterion, Model, require_truth
from .errors import DomainError, require_design, require_effect
from .numerics import Regime


@dataclass(frozen=True)
class EffectSizes:
    """Limiting standardized effect sizes: mean-squared effect over sigma^2.

    c_a and c_b are per-level averages for the two main effects, c_ab the
    per-cell average for the interaction.
    """

    c_a: float = 0.0
    c_b: float = 0.0
    c_ab: float = 0.0

    def __post_init__(self):
        require_effect("effect size", c_a=self.c_a, c_b=self.c_b, c_ab=self.c_ab)


@dataclass(frozen=True)
class ConsistencyWindow:
    """Strict two-sided condition for consistent saturated-model selection."""

    lower: float
    signal: float
    upper: float
    consistent: bool


@dataclass(frozen=True)
class RatioLimit:
    """Probability limit of the residual share of the total sum of squares.

    ``value`` is the point limit when one exists; under the null with
    replications growing the limit is a nondegenerate random variable and
    only a descriptor is returned.
    """

    value: float | None
    stochastic: bool = False
    description: str = ""


@dataclass(frozen=True)
class AsymptoticLogBF:
    """Deterministic part of a limiting log-Bayes-factor trajectory.

    ``stochastic_remainder`` marks the one case (null model, replications
    growing) whose trajectory retains a chi-square term; the term is
    omitted from ``value`` rather than replaced by a point estimate.
    """

    value: float
    stochastic_remainder: bool = False
    remainder_description: str = ""


def _root_of(r: int) -> float:
    """r**(1/(r-1)), for a replication count r >= 2 that fits a double."""
    require_design("replication count", r=r)
    return r ** (1.0 / (r - 1))


def h_threshold(r: int) -> float:
    """Effect-size threshold r**(1/(r-1)) - 1 for the level-limit regime.

    With replications per level fixed at r and levels growing, the
    fully-Bayes factor selects the alternative consistently exactly when
    the standardized effect exceeds this value. Decreasing in r; equals
    1 at r = 2 and tends to 0.
    """
    return _root_of(r) - 1.0


def two_way_consistency_window(r: int, e: EffectSizes) -> ConsistencyWindow:
    """Consistency condition for selecting the saturated two-way model.

    With cell replications fixed at r and both level counts growing,
    selection is consistent iff
    r**(1/(r-1)) < 1 + c_a + c_b + c_ab < (1 + c_ab)**r / r,
    both inequalities strict; boundary cases count as inconsistent.
    """
    lower = _root_of(r)
    signal = 1.0 + e.c_a + e.c_b + e.c_ab
    try:
        upper = (1.0 + e.c_ab) ** r / r
    except OverflowError:
        upper = math.inf
    return ConsistencyWindow(
        lower=lower,
        signal=signal,
        upper=upper,
        consistent=lower < signal < upper,
    )


def limit_we_wt(
    regime: Regime,
    truth: Model,
    *,
    p: int | None = None,
    r: int | None = None,
    c_a: float = 0.0,
) -> RatioLimit:
    """Probability limit of w_e/w_t under the stated truth and regime.

    Pass the fixed design dimension: p when replications grow, r when
    levels grow. Point limits: (1 - 1/r) under the null and
    (1 - 1/r)/(1 + c_a) under the alternative when levels grow;
    1/(1 + c_a) under the alternative when replications grow. Under the
    null with replications growing the ratio stays random and a
    descriptor of its law is returned instead.
    """
    require_truth(truth, c_a)
    if regime is Regime.MANY_LEVELS:
        if r is None:
            raise DomainError("levels-growing regime needs a fixed r")
        require_design("replication count", r=r)
        return RatioLimit(value=(1.0 - 1.0 / r) / (1.0 + c_a))
    if p is None:
        raise DomainError("replications-growing regime needs a fixed p")
    require_design("level count", p=p)
    if truth is Model.FACTOR_A:
        return RatioLimit(value=1.0 / (1.0 + c_a))
    return RatioLimit(
        value=None,
        stochastic=True,
        description=(
            f"(1 + X/(p*r))**-1 with X ~ chi-square({p - 1}), "
            "indexed by the growing replication count r"
        ),
    )


def _log_c_fb(p: int) -> float:
    # (p/2)^{-(p-1)/2} Gamma(p/2) / Gamma(1/2), in log space
    return -((p - 1) / 2.0) * math.log(p / 2.0) + math.lgamma(p / 2.0) - math.lgamma(0.5)


def _log_c_bic(p: int) -> float:
    return -((p - 1) / 2.0) * math.log(p)


def asymptotic_log_bf(
    criterion: Criterion,
    regime: Regime,
    truth: Model,
    p: int,
    r: int,
    c_a: float = 0.0,
) -> AsymptoticLogBF:
    """Limiting log-Bayes-factor trajectory for the one-way comparison.

    Evaluates the deterministic part of the limit law at the given (p, r,
    c_a). Under the null with replications growing, a chi-square(p-1)/2
    term remains random; it is omitted and flagged. Sign patterns: with
    replications growing both criteria are consistent; with levels
    growing the fully-Bayes factor diverges upward iff c_a exceeds
    h_threshold(r), while the BIC trajectory sinks for every effect size.
    """
    require_design("design", p=p, r=r, n=p * r)
    require_truth(truth, c_a)

    if regime is Regime.MANY_REPLICATIONS:
        constant = _log_c_fb(p) if criterion is Criterion.FB else _log_c_bic(p)
        base = constant - ((p - 1) / 2.0) * math.log(r)
        if truth is Model.NULL:
            return AsymptoticLogBF(
                value=base,
                stochastic_remainder=True,
                remainder_description=f"omitted X/2 with X ~ chi-square({p - 1})",
            )
        return AsymptoticLogBF(value=base + (p * r / 2.0) * math.log1p(c_a))

    # levels growing, r fixed
    if criterion is Criterion.FB:
        base = 0.5 * math.log(2.0) + math.log(r) - 0.5 * math.log(r - 1)
        if truth is Model.NULL:
            return AsymptoticLogBF(value=base - (p / 2.0) * math.log(r))
        growth = (p * (r - 1) / 2.0) * (math.log1p(c_a) - math.log(r) / (r - 1))
        return AsymptoticLogBF(value=base + growth)
    base = (
        0.5 * math.log(r)
        - ((p - 1) / 2.0) * math.log(p)
        + (p / 2.0) * ((r - 1) * math.log(r) - r * math.log(r - 1))
    )
    if truth is Model.NULL:
        return AsymptoticLogBF(value=base)
    return AsymptoticLogBF(value=base + (p / 2.0) * r * math.log1p(c_a))


def predicted_mse_gap(p: int, r: int, effect: float) -> float:
    """Scaled mean-squared-prediction-error gap, null minus alternative.

    Equals effect - (p-1)/(pr): negative when the effect is zero (the
    null predicts better), positive once the per-observation effect size
    outweighs the p-1 extra parameters spread over pr observations.
    """
    # a plain comparison: the arithmetic below is exact for counts past a double
    if p < 2 or r < 2:
        raise DomainError(f"need p >= 2 and r >= 2, got p={p}, r={r}")
    require_effect("mse gap", effect=effect)
    return effect - (p - 1) / (p * r)
