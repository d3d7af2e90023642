"""Closed-form log Bayes factors for balanced ANOVA, the posterior
probability transform, and the model choice rule.

Every factor here compares an alternative mean structure against the
common-mean null model. Both the fully-Bayes and BIC variants depend on
the data only through a single sums-of-squares ratio in (0, 1], so the
one-way and two-way cases share one pair of kernels parameterized by the
total observation count and the alternative's mean-parameter count.
All arithmetic is in log space: the gamma factors overflow for level or
replication counts as small as 30.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDataError, DomainError, require_design, require_effect

if TYPE_CHECKING:
    from .sums_of_squares import OneWaySS, TwoWaySS

INF = float("inf")
_LOG_GAMMA_HALF = math.lgamma(0.5)


class Model(str, enum.Enum):
    """Identifiers for the null and the four alternative mean structures."""

    NULL = "1"
    FACTOR_A = "A+1"
    FACTOR_B = "B+1"
    ADDITIVE = "A+B+1"
    FULL = "(A+1)(B+1)"


def require_truth(truth: Model, c_a: float) -> None:
    """Raise :class:`DomainError` unless ``truth`` is the null or the one-way
    alternative, with a finite nonnegative effect size c_a that is 0 under
    the null."""
    if truth not in (Model.NULL, Model.FACTOR_A):
        raise DomainError(f"need a one-way truth, got {truth.value!r}")
    require_effect("truth", c_a=c_a)
    if truth is Model.NULL and c_a != 0.0:
        raise DomainError(f"c_a must be 0 under model {truth.value!r}")


class Criterion(str, enum.Enum):
    """Which Bayes factor drives a decision."""

    FB = "fb"
    BIC = "bic"


@dataclass(frozen=True)
class BayesFactorReport:
    """Both log Bayes factors for one alternative, plus the decisions."""

    log_bf_fb: float
    log_bf_bic: float
    posterior_prob_fb: float
    choice_fb: Model
    choice_bic: Model
    ss_ratio: float


def _log_share(ratio: float) -> float:
    """Log of a residual share clamped into [0, 1]; a share of 0 gives -inf."""
    if ratio >= 1.0:
        return 0.0
    if ratio > 0.0:
        return math.log(ratio)
    if ratio <= 0.0:
        return -INF
    raise DomainError("residual share is NaN")


def _log_bf_fb_kernel(n: int, s1: int, log_ratio):
    """log fully-Bayes factor for an alternative with s1 mean parameters.

    log_ratio is the log of the residual share of the total sum of
    squares left by the alternative, a float or an array of them; a share
    of 0 (perfect fit under a nonzero total) gives +inf. With s1 = n - 1
    the factor does not depend on the share and is the constant alone.
    """
    constant = (
        math.lgamma(s1 / 2.0)
        + math.lgamma((n - s1) / 2.0)
        - _LOG_GAMMA_HALF
        - math.lgamma((n - 1) / 2.0)
    )
    if n - s1 == 1:  # 0 * log(0) would make the constant NaN
        return np.full(log_ratio.shape, constant) if isinstance(log_ratio, np.ndarray) else constant
    return constant - ((n - s1 - 1) / 2.0) * log_ratio


def _log_bf_bic_kernel(n: int, s1: int, log_ratio):
    """log BIC-based Bayes factor for an alternative with s1 mean parameters."""
    return -(n / 2.0) * log_ratio - ((s1 - 1) / 2.0) * math.log(n)


def log_bfs(n: int, s1: int, ratio):
    """log fully-Bayes and BIC factors of an alternative with s1 mean
    parameters among n observations, against the common mean.

    ``ratio`` is the alternative's residual share of the total sum of
    squares: a float, or an array of shares of any shape scored element
    by element into arrays of that shape.
    Shares are clamped into [0, 1], a NaN one raises :class:`DomainError`,
    and each is logged with ``math.log``, so a batch gives its elements'
    factors bit for bit; an n too large for a double is a DomainError.
    """
    if not 0 < s1 < n:
        raise DomainError(f"need 0 < s1 < n, got n={n}, s1={s1}")
    require_design("observation count", n=n)
    if isinstance(ratio, np.ndarray):
        log_ratio = np.array([_log_share(x) for x in ratio.ravel().tolist()]).reshape(ratio.shape)
    else:
        log_ratio = _log_share(ratio)
    return _log_bf_fb_kernel(n, s1, log_ratio), _log_bf_bic_kernel(n, s1, log_ratio)


def posterior_prob(log_bf: float) -> float:
    """Posterior probability of the alternative under equal prior odds.

    Overflow-safe logistic of the log Bayes factor; exact 0 and 1 at the
    infinities.
    """
    if math.isnan(log_bf):
        raise DomainError("log Bayes factor is NaN")
    if log_bf == INF:
        return 1.0
    if log_bf == -INF:
        return 0.0
    if log_bf >= 0:
        return 1.0 / (1.0 + math.exp(-log_bf))
    b = math.exp(log_bf)
    return b / (1.0 + b)


def choose_model(log_bf: float, alternative: Model = Model.FACTOR_A) -> Model:
    """Select the alternative iff the Bayes factor exceeds 1; ties go to the null."""
    if math.isnan(log_bf):
        raise DomainError("log Bayes factor is NaN")
    return alternative if log_bf > 0 else Model.NULL


def score(n: int, s1: int, residual: float, total: float, alternative: Model) -> BayesFactorReport:
    """Both factors, the posterior and both choices for one alternative.

    The alternative has s1 mean parameters among n observations and
    leaves ``residual`` of the common-mean model's total sum of squares
    unexplained.
    """
    if total == 0.0:
        raise DegenerateDataError("total sum of squares is zero")
    ratio = min(max(residual / total, 0.0), 1.0)
    log_fb, log_bic = log_bfs(n, s1, ratio)
    return BayesFactorReport(
        log_bf_fb=log_fb,
        log_bf_bic=log_bic,
        posterior_prob_fb=posterior_prob(log_fb),
        choice_fb=choose_model(log_fb, alternative),
        choice_bic=choose_model(log_bic, alternative),
        ss_ratio=ratio,
    )


def _reports(ss, fits: dict, **counts: int) -> dict[Model, BayesFactorReport]:
    """Report for each alternative of ``fits``, laid out as by :func:`_two_way_fits`.

    ``counts`` holds the level counts and r, whose product is n; the total
    sums the components other than w_t in field order.
    """
    n = math.prod(counts.values())
    require_design("design", **counts, n=n)
    unit = ss.unit or ss
    total = sum(getattr(unit, f.name) for f in fields(unit) if f.name not in ("w_t", "unit"))
    return {
        m: score(n, s1, sum(getattr(unit, c) for c in residual), total, m)
        for m, (s1, residual) in fits.items()
    }


def one_way_report(ss: OneWaySS, p: int, r: int) -> BayesFactorReport:
    """Decision report for the level-means model against the common mean."""
    return _reports(ss, {Model.FACTOR_A: (p, ("w_e",))}, p=p, r=r)[Model.FACTOR_A]


def log_bf_fb_one_way(ss: OneWaySS, p: int, r: int) -> float:
    """log fully-Bayes factor of the level-means model against the common mean.

    Equals ``one_way_report(ss, p, r).log_bf_fb``, errors included, without
    building the report.
    """
    require_design("design", p=p, r=r, n=p * r)
    unit = ss.unit or ss
    total = unit.w_e + unit.w_h
    if total == 0.0:
        raise DegenerateDataError("total sum of squares is zero")
    return _log_bf_fb_kernel(p * r, p, _log_share(unit.w_e / total))


def _two_way_fits(p: int, q: int) -> dict[Model, tuple[int, tuple[str, ...]]]:
    """Mean-parameter count and residual components of each two-way alternative.

    Summing the residual from the components (rather than taking
    total - explained) keeps its share of the total inside [0, 1]
    without cancellation.
    """
    return {
        Model.FACTOR_A: (p, ("w_b", "w_ab", "w_e")),
        Model.FACTOR_B: (q, ("w_a", "w_ab", "w_e")),
        Model.ADDITIVE: (p + q - 1, ("w_ab", "w_e")),
        Model.FULL: (p * q, ("w_e",)),
    }


def two_way_reports(ss: TwoWaySS, p: int, q: int, r: int) -> dict[Model, BayesFactorReport]:
    """Decision report for every two-way alternative against the common mean."""
    return _reports(ss, _two_way_fits(p, q), p=p, q=q, r=r)


def rank_two_way_models(
    reports: dict[Model, BayesFactorReport], p: int, q: int
) -> list[tuple[Model, float]]:
    """Rank the null and the reported alternatives by log fully-Bayes factor.

    The null sits at 0 by definition; under equal prior probabilities the
    ranking is the posterior ordering. Ties break toward fewer mean
    parameters. This extends the pairwise comparisons to a single
    selection.
    """
    mean_params = {Model.NULL: 1} | {m: s1 for m, (s1, _) in _two_way_fits(p, q).items()}
    scored = [(Model.NULL, 0.0)] + [(m, report.log_bf_fb) for m, report in reports.items()]
    scored.sort(key=lambda item: (-item[1], mean_params[item[0]]))
    return scored
