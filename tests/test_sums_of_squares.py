import math
import re
from dataclasses import fields

import numpy as np
import pytest

from anovabf.bayes_factors import Model, one_way_report, score, two_way_reports
from anovabf.datasets import OneWayDataset, TwoWayDataset
from anovabf.errors import DegenerateDesignError
from anovabf.sums_of_squares import one_way_ss, two_way_ss


def brute_force_one_way(y):
    p, r = y.shape
    level_means = [sum(y[i]) / r for i in range(p)]
    grand = sum(level_means) / p
    w_e = sum((y[i, j] - level_means[i]) ** 2 for i in range(p) for j in range(r))
    w_h = sum((level_means[i] - grand) ** 2 for i in range(p) for j in range(r))
    return w_e, w_h


def brute_force_two_way(y):
    p, q, r = y.shape
    cell = [[sum(y[i, j]) / r for j in range(q)] for i in range(p)]
    a_mean = [sum(cell[i]) / q for i in range(p)]
    b_mean = [sum(cell[i][j] for i in range(p)) / p for j in range(q)]
    grand = sum(a_mean) / p
    w_a = sum((a_mean[i] - grand) ** 2 for i in range(p)) * q * r
    w_b = sum((b_mean[j] - grand) ** 2 for j in range(q)) * p * r
    w_ab = (
        sum(
            (cell[i][j] - a_mean[i] - b_mean[j] + grand) ** 2
            for i in range(p)
            for j in range(q)
        )
        * r
    )
    w_e = sum(
        (y[i, j, k] - cell[i][j]) ** 2
        for i in range(p)
        for j in range(q)
        for k in range(r)
    )
    return w_a, w_b, w_ab, w_e


def test_zero_within_group_spread():
    ss = one_way_ss(OneWayDataset(values=np.array([[1.0, 1.0], [2.0, 2.0]])))
    assert ss.w_e == 0.0
    assert ss.w_h == pytest.approx(1.0)
    assert ss.w_t == pytest.approx(1.0)


def test_identical_group_means():
    ss = one_way_ss(OneWayDataset(values=np.array([[0.0, 2.0], [0.0, 2.0]])))
    assert ss.w_e == pytest.approx(4.0)
    assert ss.w_h == 0.0
    assert ss.w_t == pytest.approx(4.0)


def test_one_way_matches_brute_force():
    rng = np.random.default_rng(11)
    y = rng.normal(size=(5, 3))
    ss = one_way_ss(OneWayDataset(values=y))
    w_e, w_h = brute_force_one_way(y)
    np.testing.assert_allclose(ss.w_e, w_e, rtol=1e-9)
    np.testing.assert_allclose(ss.w_h, w_h, rtol=1e-9)


def test_two_way_factor_a_only():
    a = np.array([1.0, 3.0, 7.0])
    y = np.broadcast_to(a[:, None, None], (3, 2, 2)).copy()
    ss = two_way_ss(TwoWayDataset(values=y))
    assert ss.w_b == 0.0
    assert ss.w_ab == 0.0
    assert ss.w_e == 0.0
    assert ss.w_t == ss.w_a


def test_two_way_constant_data_all_zero():
    ss = two_way_ss(TwoWayDataset(values=np.full((2, 2, 2), 3.5)))
    assert (ss.w_t, ss.w_a, ss.w_b, ss.w_ab, ss.w_e) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_two_way_matches_brute_force():
    rng = np.random.default_rng(12)
    y = rng.normal(size=(3, 2, 2))
    ss = two_way_ss(TwoWayDataset(values=y))
    w_a, w_b, w_ab, w_e = brute_force_two_way(y)
    np.testing.assert_allclose([ss.w_a, ss.w_b, ss.w_ab, ss.w_e], [w_a, w_b, w_ab, w_e], rtol=1e-9)
    np.testing.assert_allclose(ss.w_t, w_a + w_b + w_ab + w_e, rtol=1e-10)


@pytest.mark.parametrize("shape", [(2, 2), (7, 4), (20, 10)])
def test_partition_identity_one_way(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    y = rng.normal(loc=5.0, scale=2.0, size=shape)
    ss = one_way_ss(OneWayDataset(values=y))
    assert ss.w_t == ss.w_e + ss.w_h
    independent = float(np.sum((y - y.mean()) ** 2))
    np.testing.assert_allclose(ss.w_t, independent, rtol=1e-10)


@pytest.mark.parametrize("shape", [(2, 2, 2), (5, 3, 4), (10, 8, 6)])
def test_partition_identity_two_way(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    y = rng.normal(loc=-2.0, size=shape)
    ss = two_way_ss(TwoWayDataset(values=y))
    assert ss.w_t == ss.w_a + ss.w_b + ss.w_ab + ss.w_e
    independent = float(np.sum((y - y.mean()) ** 2))
    np.testing.assert_allclose(ss.w_t, independent, rtol=1e-10)


def test_shift_invariance():
    rng = np.random.default_rng(13)
    y = rng.normal(size=(6, 4))
    base = one_way_ss(OneWayDataset(values=y))
    shifted = one_way_ss(OneWayDataset(values=y + 123.456))
    np.testing.assert_allclose(shifted.w_e, base.w_e, rtol=1e-9)
    np.testing.assert_allclose(shifted.w_h, base.w_h, rtol=1e-9)

    y2 = rng.normal(size=(4, 3, 5))
    b2 = two_way_ss(TwoWayDataset(values=y2))
    s2 = two_way_ss(TwoWayDataset(values=y2 - 987.0))
    np.testing.assert_allclose(
        [s2.w_a, s2.w_b, s2.w_ab, s2.w_e],
        [b2.w_a, b2.w_b, b2.w_ab, b2.w_e],
        rtol=1e-9,
    )


def test_scale_equivariance():
    rng = np.random.default_rng(14)
    y = rng.normal(size=(5, 5))
    s = 7.25
    base = one_way_ss(OneWayDataset(values=y))
    scaled = one_way_ss(OneWayDataset(values=s * y))
    np.testing.assert_allclose(scaled.w_e, s**2 * base.w_e, rtol=1e-12)
    np.testing.assert_allclose(scaled.w_h, s**2 * base.w_h, rtol=1e-12)
    np.testing.assert_allclose(scaled.w_e / scaled.w_t, base.w_e / base.w_t, rtol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (10, 5), (100, 2), (17, 13), (300, 40)])
def test_one_way_batch_equals_each_dataset(shape):
    rng = np.random.default_rng(sum(shape))
    batch = rng.standard_normal((7, *shape)) * 3.0 + 1.5
    ss = one_way_ss(batch)
    assert ss.w_e.shape == ss.w_h.shape == ss.w_t.shape == (7,)
    for i in range(7):
        single = one_way_ss(OneWayDataset(values=batch[i]))
        assert (ss.w_e[i], ss.w_h[i], ss.w_t[i]) == (single.w_e, single.w_h, single.w_t)
    assert one_way_ss(batch[0]) == one_way_ss(OneWayDataset(values=batch[0]))


@pytest.mark.parametrize("y", [np.float64(1.0), np.array([1.0, 2.0, 3.0])], ids=["0-d", "1-d"])
def test_one_way_needs_levels_and_replicates(y):
    with pytest.raises(DegenerateDesignError, match=re.escape(f"got {np.shape(y)}")):
        one_way_ss(y)


SCALES = [1e-200, 1e-160, 1e160, 1e200]


def unscaled_one_way(y):
    """The decomposition taken on the data as given, with no rescaling."""
    r = y.shape[-1]
    level_means = y.mean(axis=-1)
    grand_mean = level_means.mean(axis=-1)
    w_e = np.sum((y - level_means[..., None]) ** 2, axis=(-2, -1))
    w_h = r * np.sum((level_means - grand_mean[..., None]) ** 2, axis=-1)
    return w_e + w_h, w_e, w_h


class TestDataScale:
    """Shares of the total, and so the Bayes factors, hold at any data scale."""

    rng = np.random.default_rng(21)
    y = rng.normal(scale=0.2, size=(50, 1)) + rng.normal(size=(50, 20))

    @pytest.mark.parametrize("scale", [1e-100, 1e-3, 1.0, 7.25, 3e4, 1e100])
    def test_in_range_sums_bit_for_bit(self, scale):
        # each dataset is decomposed at unit magnitude and scaled back by a power
        # of four, which is exact: the sums are those of the plain computation
        rng = np.random.default_rng(23)
        for shape in [(2, 2), (7, 4), (20, 10)]:
            y = rng.normal(loc=3.0, size=shape) * scale
            ss = one_way_ss(OneWayDataset(values=y))
            assert (ss.w_t, ss.w_e, ss.w_h) == tuple(map(float, unscaled_one_way(y)))

    @pytest.mark.parametrize("scale", SCALES)
    def test_one_way(self, scale):
        base = one_way_report(one_way_ss(OneWayDataset(values=self.y)), 50, 20)
        ss = one_way_ss(OneWayDataset(values=self.y * scale))
        report = one_way_report(ss, 50, 20)
        assert report.log_bf_fb == pytest.approx(base.log_bf_fb, rel=1e-9, abs=1e-9)
        assert report.log_bf_bic == pytest.approx(base.log_bf_bic, rel=1e-9, abs=1e-9)
        if scale > 1:
            assert ss.w_t == ss.w_e == ss.w_h == math.inf
        else:
            assert 0.0 <= ss.w_t < 1e-300

    @pytest.mark.parametrize("scale", SCALES)
    def test_two_way(self, scale):
        y = self.y.reshape(10, 5, 20)
        base = two_way_reports(two_way_ss(TwoWayDataset(values=y)), 10, 5, 20)
        scaled = two_way_reports(two_way_ss(TwoWayDataset(values=y * scale)), 10, 5, 20)
        for model, report in base.items():
            assert scaled[model].log_bf_fb == pytest.approx(report.log_bf_fb, rel=1e-9, abs=1e-9)
            assert scaled[model].log_bf_bic == pytest.approx(report.log_bf_bic, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("k", [-1000, -601, -600, -520, -1, 0, 1, 600, 601, 1000])
    @pytest.mark.parametrize("layout", ["one-way", "batch", "two-way"])
    def test_power_of_two_scale_bit_for_bit(self, layout, k):
        # the unit sums do not move, and the reported sums are the k = 0 sums
        # times 4**k rounded once: inf past the largest double, subnormal or 0.0
        # below the normal range
        y = np.random.default_rng(24).normal(loc=3.0, size=(6, 5, 4))
        y, decompose = {
            "one-way": (y[0], lambda y: one_way_ss(OneWayDataset(values=y))),
            "batch": (y * 2.0 ** np.arange(-3, 3)[:, None, None], one_way_ss),
            "two-way": (y, lambda y: two_way_ss(TwoWayDataset(values=y))),
        }[layout]
        base, ss = decompose(y), decompose(np.ldexp(y, k))
        for name in [f.name for f in fields(base) if f.name != "unit"]:
            with np.errstate(over="ignore", under="ignore"):
                want = np.ldexp(getattr(base, name), 2 * k)
            assert np.array_equal(getattr(ss, name), want), name
            assert type(getattr(ss, name)) is type(getattr(base, name)), name
            assert np.array_equal(getattr(ss.unit, name), getattr(base.unit, name)), name

    def test_batch(self):
        batch = np.stack([self.y * scale for scale in [1.0, *SCALES]])
        ss = one_way_ss(batch)
        unit = ss.unit
        log_bf = [
            score(1000, 50, e, t, Model.FACTOR_A).log_bf_fb
            for e, t in zip(unit.w_e.tolist(), unit.w_t.tolist())
        ]
        assert log_bf == pytest.approx([log_bf[0]] * len(log_bf), rel=1e-9, abs=1e-9)
        assert ss.w_t[0] == float(unscaled_one_way(self.y)[0])
        assert np.isinf(ss.w_t[3:]).all()
        for i in range(len(batch)):
            single = one_way_ss(batch[i])
            assert (ss.w_t[i], ss.unit.w_t[i]) == (single.w_t, single.unit.w_t)

    def test_non_finite_data_gives_non_finite_sums(self):
        y = self.y.copy()
        y[3, 4] = np.inf
        with np.errstate(invalid="ignore"):
            ss = one_way_ss(y)
        assert not np.isfinite(ss.unit.w_t)
