"""Closed-form fully-Bayes and BIC Bayes factors for balanced ANOVA,
with a quadrature oracle, consistency diagnostics, and a seeded
Monte Carlo harness for model-selection experiments.

The public names below load on first use (PEP 562), so importing the
package, or running a command that needs none of them, loads no numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTED_BY = {
    "bayes_factors": (
        "BayesFactorReport",
        "Criterion",
        "Model",
        "choose_model",
        "log_bf_fb_one_way",
        "log_bfs",
        "one_way_report",
        "posterior_prob",
        "rank_two_way_models",
        "score",
        "two_way_reports",
    ),
    "consistency": (
        "AsymptoticLogBF",
        "ConsistencyWindow",
        "EffectSizes",
        "RatioLimit",
        "asymptotic_log_bf",
        "h_threshold",
        "limit_we_wt",
        "predicted_mse_gap",
        "two_way_consistency_window",
    ),
    "datasets": ("OneWayDataset", "TwoWayDataset", "parse_one_way", "parse_two_way"),
    "errors": (
        "AnovaBFError",
        "BalanceError",
        "ConvergenceError",
        "DegenerateDataError",
        "DegenerateDesignError",
        "DomainError",
        "ParseError",
    ),
    "numerics": ("Regime", "integrate", "log_beta"),
    "prior": ("BetaPrimePrior", "beta_prime_log_density", "bf_quadrature", "log_bf_quadrature"),
    "simulation": (
        "FrequencyTable",
        "SimulationConfig",
        "draw_noise",
        "make_alpha",
        "run_frequency_experiment",
    ),
    "sums_of_squares": ("OneWaySS", "TwoWaySS", "one_way_ss", "two_way_ss"),
}
_MODULE_OF = {name: module for module, names in _EXPORTED_BY.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
