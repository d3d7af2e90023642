import math

import numpy as np
import pytest

from anovabf.bayes_factors import Criterion, Model, log_bf_fb_one_way, log_bfs
from anovabf.consistency import (
    EffectSizes,
    _log_c_fb,
    asymptotic_log_bf,
    h_threshold,
    limit_we_wt,
    predicted_mse_gap,
    two_way_consistency_window,
)
from anovabf.errors import DomainError
from anovabf.numerics import Regime
from anovabf.sums_of_squares import OneWaySS

H_5 = 0.495348781221220541911898994141
H_10 = 0.291549665014883875410075546472
LOG_PI = 1.14472988584940017414342735135
LOG_GAMMA_HALF = 0.572364942924700087071713675677
LOG_9_FACTORIAL = 12.8018274800814696112077178746


def factorial_log_gamma(x):
    """ln Gamma at integer or half-integer x from exact factorials."""
    if x == int(x):
        return math.log(math.factorial(int(x) - 1))
    m = int(x - 0.5)
    # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    return (
        math.log(math.factorial(2 * m))
        - math.log(math.factorial(m))
        - 2 * m * math.log(2.0)
        + 0.5 * LOG_PI
    )


class TestEffectSizes:
    def test_defaults_to_null(self):
        e = EffectSizes()
        assert (e.c_a, e.c_b, e.c_ab) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kwargs", [{"c_a": -0.1}, {"c_b": -1.0}, {"c_ab": -1e-9}])
    def test_negative_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EffectSizes(**kwargs)


class TestThreshold:
    def test_two_replications_exactly_one(self):
        assert h_threshold(2) == 1.0

    def test_reference_windows(self):
        assert 0.49 <= h_threshold(5) <= 0.50
        assert 0.29 <= h_threshold(10) <= 0.295

    def test_reference_values(self):
        np.testing.assert_allclose(h_threshold(5), H_5, rtol=1e-12)
        np.testing.assert_allclose(h_threshold(10), H_10, rtol=1e-12)

    def test_strictly_decreasing(self):
        values = [h_threshold(r) for r in range(2, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_for_huge_replication_counts(self):
        assert h_threshold(10**6) < 1e-4

    def test_single_replication_rejected(self):
        with pytest.raises(DomainError):
            h_threshold(1)


class TestTwoWayWindow:
    @pytest.mark.parametrize("r", [2, 3, 5, 10, 1000, 2**53])
    def test_lower_bound_is_one_plus_the_threshold(self, r):
        assert two_way_consistency_window(r, EffectSizes()).lower - 1.0 == h_threshold(r)

    @pytest.mark.parametrize(
        "r, match", [(1, "need r >= 2"), (10**400, "must fit a double")], ids=["1", "10**400"]
    )
    def test_same_replication_errors_as_the_threshold(self, r, match):
        for call in (lambda: h_threshold(r), lambda: two_way_consistency_window(r, EffectSizes())):
            with pytest.raises(DomainError, match=match):
                call()

    def test_pure_interaction_consistent(self):
        w = two_way_consistency_window(2, EffectSizes(c_ab=3.0))
        assert (w.lower, w.signal, w.upper) == (2.0, 4.0, 8.0)
        assert w.consistent

    def test_weak_main_effect_inconsistent(self):
        w = two_way_consistency_window(2, EffectSizes(c_a=0.5))
        assert w.signal == 1.5
        assert not w.consistent

    def test_no_effects_inconsistent(self):
        w = two_way_consistency_window(2, EffectSizes())
        assert w.signal == 1.0
        assert not w.consistent

    def test_lower_boundary_counts_as_inconsistent(self):
        w = two_way_consistency_window(2, EffectSizes(c_a=1.0))
        assert w.signal == w.lower == 2.0
        assert not w.consistent

    def test_upper_boundary_counts_as_inconsistent(self):
        w = two_way_consistency_window(2, EffectSizes(c_a=4.0, c_ab=3.0))
        assert w.signal == w.upper == 8.0
        assert not w.consistent

    def test_single_replication_rejected(self):
        with pytest.raises(DomainError):
            two_way_consistency_window(1, EffectSizes())

    @pytest.mark.parametrize(
        "r, e, consistent",
        [
            (100000, EffectSizes(c_ab=0.5), True),
            (2, EffectSizes(c_ab=1e308), True),
            (2, EffectSizes(c_a=1e308, c_b=1e308, c_ab=1e308), False),
        ],
    )
    def test_upper_bound_beyond_a_double(self, r, e, consistent):
        w = two_way_consistency_window(r, e)
        assert w.upper == math.inf
        assert w.consistent is consistent


class TestRatioLimits:
    def test_levels_growing_null(self):
        assert limit_we_wt(Regime.MANY_LEVELS, Model.NULL, r=2).value == 0.5

    def test_levels_growing_alternative(self):
        lim = limit_we_wt(Regime.MANY_LEVELS, Model.FACTOR_A, r=2, c_a=1.0)
        assert lim.value == 0.25
        assert not lim.stochastic

    def test_replications_growing_alternative_null_effect(self):
        assert limit_we_wt(Regime.MANY_REPLICATIONS, Model.FACTOR_A, p=5, c_a=0.0).value == 1.0

    def test_replications_growing_alternative(self):
        lim = limit_we_wt(Regime.MANY_REPLICATIONS, Model.FACTOR_A, p=5, c_a=3.0)
        np.testing.assert_allclose(lim.value, 0.25, rtol=1e-15)

    def test_replications_growing_null_is_stochastic(self):
        lim = limit_we_wt(Regime.MANY_REPLICATIONS, Model.NULL, p=5)
        assert lim.value is None
        assert lim.stochastic
        assert "chi-square(4)" in lim.description

    def test_argument_errors(self):
        with pytest.raises(DomainError):
            limit_we_wt(Regime.MANY_LEVELS, Model.FACTOR_B, r=2)
        with pytest.raises(DomainError):
            limit_we_wt(Regime.MANY_LEVELS, Model.NULL)
        with pytest.raises(DomainError):
            limit_we_wt(Regime.MANY_REPLICATIONS, Model.NULL)
        with pytest.raises(DomainError):
            limit_we_wt(Regime.MANY_LEVELS, Model.FACTOR_A, r=2, c_a=-1.0)

    @pytest.mark.parametrize(
        "regime, truth, counts",
        [
            (Regime.MANY_LEVELS, Model.NULL, {"r": 10**400}),
            (Regime.MANY_LEVELS, Model.FACTOR_A, {"r": 10**400}),
            (Regime.MANY_REPLICATIONS, Model.FACTOR_A, {"p": 10**400}),
        ],
        ids=["levels-null", "levels-alternative", "replications-alternative"],
    )
    def test_count_past_a_double_rejected(self, regime, truth, counts):
        with pytest.raises(DomainError, match="must fit a double"):
            limit_we_wt(regime, truth, **counts)

    @pytest.mark.parametrize("c_a", [math.nan, math.inf])
    def test_effect_size_not_finite_rejected(self, c_a):
        with pytest.raises(DomainError, match="c_a must be finite"):
            limit_we_wt(Regime.MANY_LEVELS, Model.FACTOR_A, r=2, c_a=c_a)


class TestAsymptoticTrajectories:
    """Spot checks of each limiting form against hand arithmetic."""

    def test_fb_levels_growing_null(self):
        got = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.NULL, 100, 2)
        expected = math.log(2.0 * math.sqrt(2.0)) - 50.0 * math.log(2.0)
        np.testing.assert_allclose(got.value, expected, rtol=1e-12)
        np.testing.assert_allclose(got.value, -33.617638257157346, rtol=1e-12)
        assert not got.stochastic_remainder

    def test_fb_levels_growing_alternative(self):
        got = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 100, 2, 2.0)
        expected = math.log(2.0 * math.sqrt(2.0)) + 50.0 * math.log(1.5)
        np.testing.assert_allclose(got.value, expected, rtol=1e-12)
        assert got.value > 0

    def test_bic_levels_growing_null(self):
        got = asymptotic_log_bf(Criterion.BIC, Regime.MANY_LEVELS, Model.NULL, 4, 2)
        np.testing.assert_allclose(got.value, -0.5 * math.log(2.0), rtol=1e-12)

    def test_bic_levels_growing_alternative(self):
        got = asymptotic_log_bf(Criterion.BIC, Regime.MANY_LEVELS, Model.FACTOR_A, 100, 2, 2.0)
        expected = 0.5 * math.log(2.0) - 49.5 * math.log(100.0) + 50.0 * math.log(18.0)
        np.testing.assert_allclose(got.value, expected, rtol=1e-12)
        assert got.value < 0

    def test_fb_replications_growing_null_flags_remainder(self):
        got = asymptotic_log_bf(Criterion.FB, Regime.MANY_REPLICATIONS, Model.NULL, 4, 100)
        expected = -1.5 * math.log(2.0) - 0.5 * math.log(math.pi) - 1.5 * math.log(100.0)
        np.testing.assert_allclose(got.value, expected, rtol=1e-12)
        assert got.stochastic_remainder
        assert "chi-square(3)" in got.remainder_description

    def test_fb_replications_growing_alternative(self):
        got = asymptotic_log_bf(
            Criterion.FB, Regime.MANY_REPLICATIONS, Model.FACTOR_A, 3, 10, 0.5
        )
        np.testing.assert_allclose(got.value, math.log(1.5**15 / 30.0), rtol=1e-12)
        assert not got.stochastic_remainder

    def test_bic_replications_growing_null(self):
        got = asymptotic_log_bf(Criterion.BIC, Regime.MANY_REPLICATIONS, Model.NULL, 4, 100)
        np.testing.assert_allclose(got.value, -1.5 * math.log(400.0), rtol=1e-12)
        assert got.stochastic_remainder

    def test_bic_replications_growing_alternative(self):
        got = asymptotic_log_bf(
            Criterion.BIC, Regime.MANY_REPLICATIONS, Model.FACTOR_A, 4, 100, 1.0
        )
        expected = -1.5 * math.log(400.0) + 200.0 * math.log(2.0)
        np.testing.assert_allclose(got.value, expected, rtol=1e-12)

    def test_argument_errors(self):
        with pytest.raises(DomainError):
            asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_B, 10, 2)
        with pytest.raises(DomainError):
            asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.NULL, 1, 2)
        with pytest.raises(DomainError):
            asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 10, 2, -0.5)

    @pytest.mark.parametrize(
        "criterion, regime, p, r",
        [
            (Criterion.FB, Regime.MANY_REPLICATIONS, 10**400, 2),
            (Criterion.BIC, Regime.MANY_LEVELS, 10, 10**400),
        ],
        ids=["fb-replications", "bic-levels"],
    )
    def test_count_past_a_double_rejected(self, criterion, regime, p, r):
        with pytest.raises(DomainError, match="must fit a double"):
            asymptotic_log_bf(criterion, regime, Model.FACTOR_A, p, r)

    @pytest.mark.parametrize("c_a", [math.nan, math.inf])
    def test_effect_size_not_finite_rejected(self, c_a):
        with pytest.raises(DomainError, match="c_a must be finite"):
            asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 10, 2, c_a)



class TestReplicationsTrajectoryAgainstTheKernels:
    """The replications-growing alternative against both kernels scored
    exactly at the limiting share that limit_we_wt gives."""

    @staticmethod
    def exact(criterion, p, r, c_a):
        limit = limit_we_wt(Regime.MANY_REPLICATIONS, Model.FACTOR_A, p=p, c_a=c_a).value
        fb, bic = log_bfs(p * r, p, limit)
        return fb if criterion is Criterion.FB else bic

    @staticmethod
    def trajectory(criterion, p, r, c_a):
        return asymptotic_log_bf(criterion, Regime.MANY_REPLICATIONS, Model.FACTOR_A, p, r, c_a)

    @pytest.mark.parametrize(
        "p, r, c_a",
        [(3, 10, 0.5), (5, 100, 0.1), (5, 10**5, 0.1), (40, 1000, 2.0), (1000, 50, 0.01)],
    )
    def test_bic_is_the_kernel_at_the_limit(self, p, r, c_a):
        got = self.trajectory(Criterion.BIC, p, r, c_a).value
        np.testing.assert_allclose(got, self.exact(Criterion.BIC, p, r, c_a), rtol=1e-12)

    def test_fb_relative_gap_shrinks_as_r_grows(self):
        gaps = []
        for r in (10**2, 10**4, 10**5):
            exact = self.exact(Criterion.FB, 5, r, 0.1)
            gaps.append(abs(self.trajectory(Criterion.FB, 5, r, 0.1).value / exact - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] < 0.05 and gaps[2] < 1e-4


class TestLevelLimitDirections:
    """Divergence directions with levels growing and replications fixed."""

    @pytest.mark.parametrize("r,c_a", [(2, 2.0), (5, 1.0), (10, 0.5)])
    def test_fb_climbs_above_threshold(self, r, c_a):
        assert c_a > h_threshold(r)
        per_level = ((r - 1) / 2.0) * math.log((1.0 + c_a) / r ** (1.0 / (r - 1)))
        assert per_level > 0
        a = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 1000, r, c_a)
        b = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 2000, r, c_a)
        assert b.value > a.value > 0

    @pytest.mark.parametrize("r,c_a", [(2, 0.5), (5, 0.3), (10, 0.2)])
    def test_fb_sinks_below_threshold(self, r, c_a):
        assert c_a < h_threshold(r)
        per_level = ((r - 1) / 2.0) * math.log((1.0 + c_a) / r ** (1.0 / (r - 1)))
        assert per_level < 0
        a = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 1000, r, c_a)
        b = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, 2000, r, c_a)
        assert b.value < a.value < 0

    @pytest.mark.parametrize(
        "r,c_a",
        [
            (2, 0.5), (2, 1.0), (2, 2.0), (2, 5.0),
            (5, 0.5), (5, 1.0), (5, 2.0),
            (10, 0.5), (10, 1.0),
        ],
    )
    def test_bic_negative_at_thousand_levels(self, r, c_a):
        got = asymptotic_log_bf(Criterion.BIC, Regime.MANY_LEVELS, Model.FACTOR_A, 1000, r, c_a)
        assert got.value < 0

    @pytest.mark.parametrize("r", [2, 5, 10])
    @pytest.mark.parametrize("c_a", [0.5, 1.0, 2.0, 5.0])
    def test_bic_sinks_eventually_for_every_effect(self, r, c_a):
        # the log-penalty in the level count wins over any fixed effect
        # size, though the crossover can sit beyond a million levels
        near = asymptotic_log_bf(Criterion.BIC, Regime.MANY_LEVELS, Model.FACTOR_A, 1000, r, c_a)
        far = asymptotic_log_bf(Criterion.BIC, Regime.MANY_LEVELS, Model.FACTOR_A, 10**8, r, c_a)
        assert far.value < 0
        assert far.value < near.value


class TestBridgeToExact:
    @pytest.mark.parametrize(
        "truth,r,c_a",
        [
            (Model.FACTOR_A, 2, 2.0),
            (Model.FACTOR_A, 5, 1.0),
            (Model.NULL, 2, 0.0),
            (Model.NULL, 5, 0.0),
        ],
    )
    def test_limit_plugin_agrees_within_two_percent(self, truth, r, c_a):
        p = 500
        lim = limit_we_wt(Regime.MANY_LEVELS, truth, r=r, c_a=c_a).value
        ss = OneWaySS(w_t=1.0, w_e=lim, w_h=1.0 - lim)
        exact = log_bf_fb_one_way(ss, p, r)
        asym = asymptotic_log_bf(Criterion.FB, Regime.MANY_LEVELS, truth, p, r, c_a).value
        assert abs(asym - exact) / abs(exact) < 0.02


class TestLogCFb:
    """ln Gamma(p/2) and ln Gamma(1/2) as _log_c_fb(p) takes them."""

    @staticmethod
    def reference(p, log_gamma_p_half):
        return -((p - 1) / 2.0) * math.log(p / 2.0) + log_gamma_p_half - LOG_GAMMA_HALF

    def test_at_one(self):
        # p = 2: ln Gamma(1) adds exactly nothing
        assert _log_c_fb(2) + math.lgamma(0.5) == 0.0

    def test_at_half(self):
        np.testing.assert_allclose(_log_c_fb(2), -LOG_GAMMA_HALF, rtol=1e-14)

    def test_at_ten(self):
        np.testing.assert_allclose(_log_c_fb(20), self.reference(20, LOG_9_FACTORIAL), rtol=1e-14)

    # x = p/2; x = 1/2 (p = 1) is no design, and ln Gamma(1/2) is test_at_half's
    @pytest.mark.parametrize(
        "x",
        [float(k) for k in list(range(2, 61)) + [100, 200, 500, 1000, 2000]]
        + [m + 0.5 for m in list(range(1, 61)) + [100, 300]],
    )
    def test_against_factorial_oracle(self, x):
        ref = factorial_log_gamma(x)
        # the absolute target is capped below by the representation's own
        # granularity at the magnitude of ln Gamma(x)
        tol = max(1e-12, 8 * math.ulp(abs(ref)))
        assert abs(_log_c_fb(round(2 * x)) - self.reference(round(2 * x), ref)) <= tol


class TestPredictionGap:
    def test_null_effect_favors_null(self):
        np.testing.assert_allclose(predicted_mse_gap(3, 4, 0.0), -2.0 / 12.0, rtol=1e-15)
        assert predicted_mse_gap(3, 4, 0.0) < 0

    def test_unit_effect_smallest_design(self):
        assert predicted_mse_gap(2, 2, 1.0) == 0.75

    def test_near_boundary_effect(self):
        np.testing.assert_allclose(predicted_mse_gap(7, 5, 1.0 / 5.0), 1.0 / 35.0, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError):
            predicted_mse_gap(1, 4, 0.5)
        with pytest.raises(DomainError):
            predicted_mse_gap(4, 4, -0.5)
        for effect in (math.nan, math.inf):
            with pytest.raises(DomainError, match="effect must be finite"):
                predicted_mse_gap(4, 4, effect)
