"""Closed-form fully-Bayes and BIC Bayes factors for balanced ANOVA,
with a quadrature oracle, consistency diagnostics, and a seeded
Monte Carlo harness for model-selection experiments."""

__version__ = "0.1.0"

from .bayes_factors import (
    BayesFactorReport,
    Criterion,
    Model,
    choose_model,
    log_bf_fb_one_way,
    log_bfs,
    one_way_report,
    posterior_prob,
    rank_two_way_models,
    score,
    two_way_reports,
)
from .consistency import (
    AsymptoticLogBF,
    ConsistencyWindow,
    EffectSizes,
    RatioLimit,
    asymptotic_log_bf,
    h_threshold,
    limit_we_wt,
    predicted_mse_gap,
    two_way_consistency_window,
)
from .datasets import OneWayDataset, TwoWayDataset, parse_one_way, parse_two_way
from .errors import (
    AnovaBFError,
    BalanceError,
    ConvergenceError,
    DegenerateDataError,
    DegenerateDesignError,
    DomainError,
    ParseError,
)
from .numerics import Regime, integrate, log_beta, log_gamma
from .prior import (
    BetaPrimePrior,
    beta_prime_log_density,
    bf_quadrature,
    log_bf_quadrature,
)
from .simulation import (
    FrequencyTable,
    SimulationConfig,
    draw_noise,
    make_alpha,
    run_frequency_experiment,
)
from .sums_of_squares import OneWaySS, TwoWaySS, one_way_ss, two_way_ss

__all__ = [
    "AnovaBFError",
    "AsymptoticLogBF",
    "BalanceError",
    "BayesFactorReport",
    "BetaPrimePrior",
    "ConsistencyWindow",
    "ConvergenceError",
    "Criterion",
    "DegenerateDataError",
    "DegenerateDesignError",
    "DomainError",
    "EffectSizes",
    "FrequencyTable",
    "Model",
    "OneWayDataset",
    "OneWaySS",
    "ParseError",
    "RatioLimit",
    "Regime",
    "SimulationConfig",
    "TwoWayDataset",
    "TwoWaySS",
    "asymptotic_log_bf",
    "beta_prime_log_density",
    "bf_quadrature",
    "choose_model",
    "draw_noise",
    "h_threshold",
    "integrate",
    "limit_we_wt",
    "log_beta",
    "log_bf_fb_one_way",
    "log_bfs",
    "log_bf_quadrature",
    "log_gamma",
    "make_alpha",
    "one_way_report",
    "one_way_ss",
    "parse_one_way",
    "parse_two_way",
    "posterior_prob",
    "predicted_mse_gap",
    "rank_two_way_models",
    "run_frequency_experiment",
    "score",
    "two_way_consistency_window",
    "two_way_reports",
    "two_way_ss",
]
