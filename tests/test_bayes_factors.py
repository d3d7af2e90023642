import math

import numpy as np
import pytest

import anovabf.bayes_factors as bayes_factors
from anovabf.bayes_factors import (
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
from anovabf.datasets import OneWayDataset, TwoWayDataset
from anovabf.errors import DegenerateDataError, DomainError
from anovabf.sums_of_squares import OneWaySS, TwoWaySS, one_way_ss, two_way_ss

# high-precision references for the gamma-factor constants
LOG_2_OVER_PI = -0.451582705289454864726195229895
LOG_2_OVER_PI_SQRT2 = -0.105009115009482210017579169166
LOG_16_OVER_15PI = -1.08019136471182900247050343567
LOG_FULL_2X2_CONSTANT = -1.77333854527177431188773555713


def ss_with_ratio(ratio):
    return OneWaySS(w_t=1.0, w_e=ratio, w_h=1.0 - ratio)


class TestOneWayFullyBayes:
    def test_smallest_design_ratio_one(self):
        np.testing.assert_allclose(
            log_bf_fb_one_way(ss_with_ratio(1.0), 2, 2), LOG_2_OVER_PI, rtol=1e-12
        )

    def test_smallest_design_ratio_half(self):
        np.testing.assert_allclose(
            log_bf_fb_one_way(ss_with_ratio(0.5), 2, 2), LOG_2_OVER_PI_SQRT2, rtol=1e-12
        )

    def test_perfect_fit_gives_infinity(self):
        ss = OneWaySS(w_t=1.0, w_e=0.0, w_h=1.0)
        assert log_bf_fb_one_way(ss, 2, 2) == math.inf

    def test_zero_total_rejected(self):
        with pytest.raises(DegenerateDataError):
            log_bf_fb_one_way(OneWaySS(w_t=0.0, w_e=0.0, w_h=0.0), 2, 2)

    def test_strictly_decreasing_in_ratio(self):
        values = [log_bf_fb_one_way(ss_with_ratio(x), 4, 3) for x in np.linspace(0.05, 1.0, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_degenerate_design_rejected(self):
        with pytest.raises(DomainError):
            log_bf_fb_one_way(ss_with_ratio(0.5), 1, 5)
        with pytest.raises(DomainError):
            log_bf_fb_one_way(ss_with_ratio(0.5), 5, 1)


class TestOneWayBIC:
    def test_ratio_half(self):
        np.testing.assert_allclose(
            one_way_report(ss_with_ratio(0.5), 2, 2).log_bf_bic, math.log(2.0), rtol=1e-12
        )

    def test_ratio_one(self):
        np.testing.assert_allclose(
            one_way_report(ss_with_ratio(1.0), 2, 2).log_bf_bic,
            -0.5 * math.log(4.0),
            rtol=1e-12,
        )

    def test_matches_log_space_recomputation(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(5, 10))
        d = OneWayDataset(values=y)
        ss = one_way_ss(d)
        # independent evaluation straight from raw data
        level_means = y.mean(axis=1)
        w_e = float(np.sum((y - level_means[:, None]) ** 2))
        w_t = float(np.sum((y - y.mean()) ** 2))
        expected = -(50 / 2) * math.log(w_e / w_t) - (4 / 2) * math.log(50)
        np.testing.assert_allclose(one_way_report(ss, 5, 10).log_bf_bic, expected, rtol=1e-10)

    def test_zero_total_rejected(self):
        with pytest.raises(DegenerateDataError):
            one_way_report(OneWaySS(w_t=0.0, w_e=0.0, w_h=0.0), 2, 2)


class TestTwoWayFullyBayes:
    def test_factor_a_with_zero_a_effect(self):
        # all variation outside factor A: the ratio argument is 1
        ss = TwoWaySS(w_t=1.0, w_a=0.0, w_b=0.5, w_ab=0.25, w_e=0.25)
        np.testing.assert_allclose(
            two_way_reports(ss, 2, 2, 2)[Model.FACTOR_A].log_bf_fb, LOG_16_OVER_15PI, rtol=1e-12
        )

    def test_full_model_ratio_one(self):
        ss = TwoWaySS(w_t=1.0, w_a=0.0, w_b=0.0, w_ab=0.0, w_e=1.0)
        np.testing.assert_allclose(
            two_way_reports(ss, 2, 2, 2)[Model.FULL].log_bf_fb, LOG_FULL_2X2_CONSTANT, rtol=1e-12
        )

    def test_ratio_arguments_come_from_components(self):
        # recover each model's ratio argument through the BIC formula, which
        # is invertible in the ratio
        ss = TwoWaySS(w_t=24.0, w_a=3.0, w_b=5.0, w_ab=7.0, w_e=9.0)
        p, q, r = 3, 4, 2
        n = p * q * r
        expected_ratio = {
            Model.FACTOR_A: 21.0 / 24.0,
            Model.FACTOR_B: 19.0 / 24.0,
            Model.ADDITIVE: 16.0 / 24.0,
            Model.FULL: 9.0 / 24.0,
        }
        penalty = {
            Model.FACTOR_A: (p - 1) / 2.0,
            Model.FACTOR_B: (q - 1) / 2.0,
            Model.ADDITIVE: (p + q - 2) / 2.0,
            Model.FULL: (p * q - 1) / 2.0,
        }
        for m, report in two_way_reports(ss, p, q, r).items():
            log_bf = report.log_bf_bic
            recovered = math.exp(-(log_bf + penalty[m] * math.log(n)) * 2.0 / n)
            np.testing.assert_allclose(recovered, expected_ratio[m], rtol=1e-12)

    def test_perfect_fit_gives_infinity(self):
        ss = TwoWaySS(w_t=1.0, w_a=1.0, w_b=0.0, w_ab=0.0, w_e=0.0)
        assert two_way_reports(ss, 2, 2, 2)[Model.FACTOR_A].log_bf_fb == math.inf

    def test_single_level_factor_rejected(self):
        ss = TwoWaySS(w_t=1.0, w_a=0.25, w_b=0.25, w_ab=0.25, w_e=0.25)
        with pytest.raises(DomainError):
            two_way_reports(ss, 2, 1, 2)


class TestTwoWayBIC:
    def test_factor_a_ratio_half(self):
        ss = TwoWaySS(w_t=2.0, w_a=1.0, w_b=0.5, w_ab=0.25, w_e=0.25)
        expected = 4.0 * math.log(2.0) - 0.5 * math.log(8.0)
        np.testing.assert_allclose(
            two_way_reports(ss, 2, 2, 2)[Model.FACTOR_A].log_bf_bic, expected, rtol=1e-12
        )

    def test_full_model_ratio_one(self):
        ss = TwoWaySS(w_t=1.0, w_a=0.0, w_b=0.0, w_ab=0.0, w_e=1.0)
        p, q, r = 3, 2, 4
        expected = -((p * q - 1) / 2.0) * math.log(p * q * r)
        np.testing.assert_allclose(
            two_way_reports(ss, p, q, r)[Model.FULL].log_bf_bic, expected, rtol=1e-12
        )

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=(2, 3, 2))
        ss = two_way_ss(TwoWayDataset(values=y))
        n = 12
        cell = y.mean(axis=2)
        w_e = float(np.sum((y - cell[:, :, None]) ** 2))
        w_t = float(np.sum((y - y.mean()) ** 2))
        expected = -(n / 2.0) * math.log(w_e / w_t) - ((6 - 1) / 2.0) * math.log(n)
        np.testing.assert_allclose(
            two_way_reports(ss, 2, 3, 2)[Model.FULL].log_bf_bic, expected, rtol=1e-10
        )


class TestInvariances:
    @pytest.mark.parametrize("scale", [0.01, 3.0, 1e4])
    def test_scale_invariance_one_way(self, scale):
        rng = np.random.default_rng(23)
        y = rng.normal(size=(4, 6))
        base = one_way_report(one_way_ss(OneWayDataset(values=y)), 4, 6)
        scaled = one_way_report(one_way_ss(OneWayDataset(values=scale * y)), 4, 6)
        assert abs(scaled.log_bf_fb - base.log_bf_fb) < 1e-9
        assert abs(scaled.log_bf_bic - base.log_bf_bic) < 1e-9

    def test_shift_invariance_one_way(self):
        rng = np.random.default_rng(24)
        y = rng.normal(size=(3, 5))
        base = log_bf_fb_one_way(one_way_ss(OneWayDataset(values=y)), 3, 5)
        shifted = log_bf_fb_one_way(one_way_ss(OneWayDataset(values=y + 55.5)), 3, 5)
        assert abs(shifted - base) < 1e-9

    @pytest.mark.parametrize("m", [Model.FACTOR_A, Model.FACTOR_B, Model.ADDITIVE, Model.FULL])
    def test_scale_and_shift_invariance_two_way(self, m):
        rng = np.random.default_rng(25)
        y = rng.normal(size=(3, 3, 3))
        base = two_way_reports(two_way_ss(TwoWayDataset(values=y)), 3, 3, 3)[m]
        moved = two_way_reports(two_way_ss(TwoWayDataset(values=2.5 * y - 17.0)), 3, 3, 3)[m]
        assert abs(moved.log_bf_fb - base.log_bf_fb) < 1e-9

    def test_two_way_full_matches_one_way_on_cells(self):
        rng = np.random.default_rng(26)
        y = rng.normal(size=(3, 4, 2))
        two = two_way_reports(two_way_ss(TwoWayDataset(values=y)), 3, 4, 2)[Model.FULL].log_bf_fb
        flat = one_way_ss(OneWayDataset(values=y.reshape(12, 2)))
        one = log_bf_fb_one_way(flat, 12, 2)
        assert abs(two - one) < 1e-10


class TestDecisionRule:
    def test_posterior_prob_values(self):
        assert posterior_prob(0.0) == 0.5
        assert posterior_prob(math.inf) == 1.0
        assert posterior_prob(-math.inf) == 0.0
        np.testing.assert_allclose(posterior_prob(math.log(3.0)), 0.75, rtol=1e-14)

    def test_posterior_prob_overflow_safe(self):
        assert posterior_prob(1000.0) == pytest.approx(1.0)
        assert posterior_prob(-1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_posterior_prob_rejects_nan(self):
        with pytest.raises(DomainError):
            posterior_prob(math.nan)

    def test_choose_model(self):
        assert choose_model(0.01) is Model.FACTOR_A
        assert choose_model(0.0) is Model.NULL
        assert choose_model(-math.inf) is Model.NULL
        assert choose_model(5.0, alternative=Model.FULL) is Model.FULL

    def test_choose_model_rejects_nan(self):
        with pytest.raises(DomainError):
            choose_model(math.nan)


class TestReports:
    def test_one_way_report_coherent(self):
        rng = np.random.default_rng(27)
        d = OneWayDataset(values=rng.normal(size=(4, 4)))
        ss = one_way_ss(d)
        report = one_way_report(ss, 4, 4)
        assert report.log_bf_fb == log_bf_fb_one_way(ss, 4, 4)
        assert report == score(16, 4, ss.w_e, ss.w_e + ss.w_h, Model.FACTOR_A)
        assert report.posterior_prob_fb == posterior_prob(report.log_bf_fb)
        assert report.choice_fb == choose_model(report.log_bf_fb)
        assert 0.0 < report.ss_ratio <= 1.0

    def test_two_way_report_choice_uses_its_model(self):
        base = np.array([[[0.0, 0.1], [5.0, 5.1]], [[5.0, 4.9], [0.0, -0.1]]])
        ss = two_way_ss(TwoWayDataset(values=base))
        report = two_way_reports(ss, 2, 2, 2)[Model.FULL]
        assert report.log_bf_fb > 0
        assert report.choice_fb is Model.FULL

    def test_ranking_contains_all_models_with_null_at_zero(self):
        rng = np.random.default_rng(28)
        ss = two_way_ss(TwoWayDataset(values=rng.normal(size=(3, 3, 2))))
        ranking = rank_two_way_models(two_way_reports(ss, 3, 3, 2), 3, 3)
        assert len(ranking) == 5
        scores = dict(ranking)
        assert scores[Model.NULL] == 0.0
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

    def test_ranking_prefers_strong_interaction(self):
        base = np.array([[[0.0, 0.01], [5.0, 5.01]], [[5.0, 4.99], [0.0, -0.01]]])
        ss = two_way_ss(TwoWayDataset(values=base))
        ranking = rank_two_way_models(two_way_reports(ss, 2, 2, 2), 2, 2)
        assert ranking[0][0] is Model.FULL

    def test_ranking_ties_break_toward_fewer_mean_parameters(self):
        # only factor A varies, so A+1, A+B+1 and the full model all fit
        # perfectly and tie at +inf
        ss = TwoWaySS(w_t=2.0, w_a=2.0, w_b=0.0, w_ab=0.0, w_e=0.0)
        ranking = rank_two_way_models(two_way_reports(ss, 3, 2, 2), 3, 2)
        assert ranking == [
            (Model.FACTOR_A, math.inf),
            (Model.ADDITIVE, math.inf),
            (Model.FULL, math.inf),
            (Model.NULL, 0.0),
            (Model.FACTOR_B, ranking[-1][1]),
        ]
        assert ranking[-1][1] < 0.0

    def test_score_clamps_ratio_into_unit_interval(self):
        above = score(8, 2, 1.0 + 1e-15, 1.0, Model.FACTOR_A)
        assert above.ss_ratio == 1.0
        assert above == score(8, 2, 1.0, 1.0, Model.FACTOR_A)
        below = score(8, 2, -1e-300, 1.0, Model.FACTOR_A)
        assert below.ss_ratio == 0.0
        assert below.log_bf_fb == below.log_bf_bic == math.inf


class TestLogBfs:
    shares = np.array([0.0, 1e-300, 0.25, 0.5, 0.999999, 1.0, -1e-300, 1.0 + 1e-15])

    def test_batch_equals_its_elements_bit_for_bit(self):
        fb, bic = log_bfs(40, 5, self.shares)
        pairs = [log_bfs(40, 5, x) for x in self.shares.tolist()]
        assert fb.tolist() == [f for f, _ in pairs]
        assert bic.tolist() == [b for _, b in pairs]

    @pytest.mark.parametrize("shape", [(), (1, 1), (2, 4), (2, 2, 2)])
    def test_array_of_any_shape_equals_its_elements(self, shape):
        shares = self.shares[: math.prod(shape)].reshape(shape)
        fb, bic = log_bfs(40, 5, shares)
        assert fb.shape == bic.shape == shape
        pairs = [log_bfs(40, 5, x) for x in shares.ravel().tolist()]
        assert fb.ravel().tolist() == [f for f, _ in pairs]
        assert bic.ravel().tolist() == [b for _, b in pairs]

    def test_shares_clamped_into_unit_interval(self):
        assert log_bfs(8, 2, -1e-300) == log_bfs(8, 2, 0.0) == (math.inf, math.inf)
        assert log_bfs(8, 2, 1.0 + 1e-15) == log_bfs(8, 2, 1.0)

    @pytest.mark.parametrize(
        "ratio", [math.nan, np.array([0.5, math.nan, 0.25])], ids=["float", "array"]
    )
    def test_nan_share_rejected(self, ratio):
        with pytest.raises(DomainError, match="residual share is NaN"):
            log_bfs(10, 3, ratio)

    @pytest.mark.parametrize("n, s1", [(5, 0), (5, 5), (5, 6)])
    def test_parameter_count_outside_design_rejected(self, n, s1):
        with pytest.raises(DomainError, match="0 < s1 < n"):
            log_bfs(n, s1, 0.5)

    # with s1 = n - 1 the share's exponent (n - s1 - 1)/2 is 0: the factor is
    # its constant, log Gamma((n-1)/2) - log Gamma((n-1)/2) = 0, at every share
    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_share_free_factor_at_a_zero_share(self, n):
        fb = [log_bfs(n, n - 1, share)[0] for share in (0.0, 0.5, 1.0)]
        assert fb[0] == fb[1] == fb[2] and abs(fb[0]) < 1e-14
        report = score(n, n - 1, 0.0, 1.0, Model.FACTOR_A)
        assert (report.log_bf_fb, report.log_bf_bic) == (fb[0], math.inf)

    def test_share_free_factor_over_an_array(self, recwarn):
        fb, bic = log_bfs(3, 2, np.array([0.0, 0.5, 1.0]))
        assert fb.tolist() == [log_bfs(3, 2, 0.5)[0]] * 3
        assert bic[0] == math.inf
        assert not recwarn.list


def outcome(fn, *args):
    """A call's value as float.hex, or its error's type and text."""
    try:
        return float.hex(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestOneWayFactorWithoutReport:
    """log_bf_fb_one_way scores through log_bfs without building the report:
    its value and its errors are the report's, bit for bit."""

    cases = {
        "share-0": ss_with_ratio(0.0),
        "share-negative-zero": OneWaySS(w_t=1.0, w_e=-0.0, w_h=1.0),
        "share-below-0": ss_with_ratio(-1e-300),
        "share-tiny": ss_with_ratio(1e-300),
        "share-0.3": ss_with_ratio(0.3),
        "share-1": ss_with_ratio(1.0),
        "share-above-1": ss_with_ratio(1.0 + 1e-15),
        "share-nan": OneWaySS(w_t=math.nan, w_e=math.nan, w_h=1.0),
        "total-nan": OneWaySS(w_t=math.nan, w_e=0.5, w_h=math.nan),
        "total-inf": OneWaySS(w_t=math.inf, w_e=math.inf, w_h=1.0),
        "total-0": OneWaySS(w_t=0.0, w_e=0.0, w_h=0.0),
        "unit-scaled-1e200": one_way_ss(np.arange(12.0).reshape(3, 4) * 1e200),
        "unit-scaled-1e-200": one_way_ss(np.arange(12.0).reshape(3, 4) ** 2 * 1e-200),
    }

    @pytest.mark.parametrize("p, r", [(2, 2), (3, 4), (40, 5000), (1, 5), (5, 1)])
    @pytest.mark.parametrize("case", sorted(cases))
    def test_equals_the_report(self, case, p, r):
        ss = self.cases[case]
        report = outcome(lambda: one_way_report(ss, p, r).log_bf_fb)
        assert outcome(log_bf_fb_one_way, ss, p, r) == report

    def test_cases_cover_each_error(self):
        results = [
            outcome(lambda: one_way_report(ss, p, r).log_bf_fb)
            for ss in self.cases.values()
            for p, r in [(2, 2), (1, 5)]
        ]
        errors = {result[0] for result in results if isinstance(result, tuple)}
        assert errors == {"DomainError", "DegenerateDataError"}
        assert "inf" in results

    @pytest.mark.parametrize("case", ["share-0", "share-0.3", "share-1", "unit-scaled-1e200"])
    def test_scores_through_log_bfs_once(self, case, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return log_bfs(*args)

        monkeypatch.setattr(bayes_factors, "log_bfs", counted)
        ss = self.cases[case]
        value = log_bf_fb_one_way(ss, 3, 4)
        assert len(calls) == 1
        assert float.hex(value) == float.hex(one_way_report(ss, 3, 4).log_bf_fb)
