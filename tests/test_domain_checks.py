"""Every entry that takes design counts, effect sizes or a one-way truth
rejects a value outside the paper's domain with DomainError: never
OverflowError, TypeError, numpy's ValueError, or a value computed from it."""

import math

import numpy as np
import pytest

from anovabf.bayes_factors import (
    Criterion,
    Model,
    log_bf_fb_one_way,
    log_bfs,
    one_way_report,
    score,
    two_way_reports,
)
from anovabf.consistency import (
    EffectSizes,
    asymptotic_log_bf,
    h_threshold,
    limit_we_wt,
    predicted_mse_gap,
    two_way_consistency_window,
)
from anovabf.errors import DomainError
from anovabf.numerics import Regime
from anovabf.simulation import SimulationConfig, make_alpha
from anovabf.sums_of_squares import OneWaySS, TwoWaySS

ONE = OneWaySS(w_t=1.0, w_e=0.5, w_h=0.5)
TWO = TwoWaySS(w_t=1.0, w_a=0.25, w_b=0.25, w_ab=0.25, w_e=0.25)
HUGE = 10**400  # past a double
WIDE = 2**600  # fits a double, but its square does not
LEVELS, REPLICATIONS = Regime.MANY_LEVELS, Regime.MANY_REPLICATIONS
FB, NULL, ALT = Criterion.FB, Model.NULL, Model.FACTOR_A


def simulation(model=ALT, p=2, r=2, c_a=0.5):
    return SimulationConfig(model=model, p_list=(p,), r_list=(r,), ca_list=(c_a,))


COUNTS = {
    "log_bfs-n": lambda n: log_bfs(n, 1, 0.5),
    "score-n": lambda n: score(n, 1, 0.5, 1.0, ALT),
    "one_way_report-p": lambda p: one_way_report(ONE, p, 2),
    "one_way_report-r": lambda r: one_way_report(ONE, 2, r),
    "two_way_reports-p": lambda p: two_way_reports(TWO, p, 2, 2),
    "two_way_reports-q": lambda q: two_way_reports(TWO, 2, q, 2),
    "two_way_reports-r": lambda r: two_way_reports(TWO, 2, 2, r),
    "log_bf_fb_one_way-p": lambda p: log_bf_fb_one_way(ONE, p, 2),
    "log_bf_fb_one_way-r": lambda r: log_bf_fb_one_way(ONE, 2, r),
    "make_alpha-p": lambda p: make_alpha(p, 0.5),
    "SimulationConfig-p": lambda p: simulation(p=p),
    "SimulationConfig-r": lambda r: simulation(r=r),
    "h_threshold-r": h_threshold,
    "two_way_consistency_window-r": lambda r: two_way_consistency_window(r, EffectSizes()),
    "limit_we_wt-levels-r": lambda r: limit_we_wt(LEVELS, ALT, r=r),
    "limit_we_wt-replications-p": lambda p: limit_we_wt(REPLICATIONS, ALT, p=p),
    "asymptotic_log_bf-levels-p": lambda p: asymptotic_log_bf(FB, LEVELS, ALT, p, 2, 0.5),
    "asymptotic_log_bf-levels-r": lambda r: asymptotic_log_bf(FB, LEVELS, ALT, 2, r, 0.5),
    "asymptotic_log_bf-replications-p": lambda p: asymptotic_log_bf(
        FB, REPLICATIONS, ALT, p, 2, 0.5
    ),
    "asymptotic_log_bf-replications-r": lambda r: asymptotic_log_bf(
        FB, REPLICATIONS, ALT, 2, r, 0.5
    ),
}

# counts that each fit a double while the observation count they make does not
PRODUCTS = {
    "two_way_reports": lambda: two_way_reports(TWO, WIDE, WIDE, 2),
    "log_bf_fb_one_way": lambda: log_bf_fb_one_way(ONE, WIDE, WIDE),
    "one_way_report": lambda: one_way_report(ONE, WIDE, WIDE),
    "asymptotic_log_bf": lambda: asymptotic_log_bf(FB, REPLICATIONS, ALT, WIDE, WIDE, 0.5),
}

EFFECTS = {
    "make_alpha": lambda c: make_alpha(3, c),
    "SimulationConfig": lambda c: simulation(c_a=c),
    "limit_we_wt": lambda c: limit_we_wt(LEVELS, ALT, r=2, c_a=c),
    "asymptotic_log_bf": lambda c: asymptotic_log_bf(FB, LEVELS, ALT, 10, 2, c),
    "EffectSizes-c_a": lambda c: EffectSizes(c_a=c),
    "EffectSizes-c_b": lambda c: EffectSizes(c_b=c),
    "EffectSizes-c_ab": lambda c: EffectSizes(c_ab=c),
    "predicted_mse_gap": lambda c: predicted_mse_gap(4, 4, c),
}

# a nonzero c_a under the null truth
NULL_EFFECT = {
    "SimulationConfig": lambda: simulation(model=NULL),
    "limit_we_wt-levels": lambda: limit_we_wt(LEVELS, NULL, r=2, c_a=0.7),
    "limit_we_wt-replications": lambda: limit_we_wt(REPLICATIONS, NULL, p=2, c_a=0.7),
    "asymptotic_log_bf-levels": lambda: asymptotic_log_bf(FB, LEVELS, NULL, 100, 2, 0.7),
    "asymptotic_log_bf-replications": lambda: asymptotic_log_bf(
        FB, REPLICATIONS, NULL, 100, 2, 0.7
    ),
}

TWO_WAY_TRUTH = {
    "SimulationConfig": lambda: simulation(model=Model.ADDITIVE),
    "limit_we_wt": lambda: limit_we_wt(LEVELS, Model.ADDITIVE, r=2),
    "asymptotic_log_bf": lambda: asymptotic_log_bf(FB, LEVELS, Model.ADDITIVE, 10, 2),
}


@pytest.mark.parametrize("count", [1, HUGE, 2.5], ids=["1", "10**400", "2.5"])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_outside_the_design(entry, count):
    with pytest.raises(DomainError):
        COUNTS[entry](count)


def test_count_that_is_not_an_integer_is_named():
    with pytest.raises(DomainError, match=r"need an integer r, got 2\.5"):
        h_threshold(2.5)
    with pytest.raises(DomainError, match=r"need an integer p, got 3\.0"):
        make_alpha(3.0, 0.5)


def test_numpy_integer_counts_pass():
    assert h_threshold(np.int64(2)) == 1.0
    assert make_alpha(np.int32(3), 0.5).tolist() == make_alpha(3, 0.5).tolist()


@pytest.mark.parametrize("entry", sorted(PRODUCTS))
def test_observation_count_past_a_double(entry):
    with pytest.raises(DomainError, match="n must fit a double"):
        PRODUCTS[entry]()


@pytest.mark.parametrize("size", [-1.0, math.nan, math.inf], ids=["-1", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(EFFECTS))
def test_effect_size_outside_the_domain(entry, size):
    text = "must be nonnegative" if size == -1.0 else "must be finite"
    with pytest.raises(DomainError, match=text):
        EFFECTS[entry](size)


@pytest.mark.parametrize("entry", sorted(NULL_EFFECT))
def test_effect_under_the_null(entry):
    with pytest.raises(DomainError, match="c_a must be 0 under model '1'"):
        NULL_EFFECT[entry]()


@pytest.mark.parametrize("entry", sorted(TWO_WAY_TRUTH))
def test_two_way_truth(entry):
    with pytest.raises(DomainError, match="one-way truth"):
        TWO_WAY_TRUTH[entry]()
