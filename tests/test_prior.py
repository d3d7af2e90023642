import math
import re

import numpy as np
import pytest

import anovabf.prior as prior_module
from anovabf.bayes_factors import log_bf_fb_one_way
from anovabf.errors import ConvergenceError, DomainError
from anovabf.prior import (
    BetaPrimePrior,
    _log_mode,
    _sigmoid,
    _softplus,
    _Step,
    beta_prime_log_density,
    bf_quadrature,
    log_bf_quadrature,
)
from anovabf.sums_of_squares import OneWaySS

TWO_OVER_PI = 0.63661977236758134307553505349
QUAD_HALF_RATIO = 0.900316316157106069555199191007


class TestBetaPrimePrior:
    @pytest.mark.parametrize("a,b", [(-1.0, 0.0), (0.0, -1.0), (-2.0, 3.0), (1.0, -1.5)])
    def test_improper_parameters_rejected(self, a, b):
        with pytest.raises(DomainError):
            BetaPrimePrior(a=a, b=b)

    def test_boundary_interior_accepted(self):
        prior = BetaPrimePrior(a=-0.999, b=-0.999)
        assert prior.a == -0.999

    def test_for_closed_form_solves_for_b(self):
        assert BetaPrimePrior.for_closed_form(8, 3).b == pytest.approx(1.0)
        assert BetaPrimePrior.for_closed_form(8, 3, a=0.0).b == pytest.approx(0.5)

    def test_for_closed_form_count_past_a_double_rejected(self):
        with pytest.raises(DomainError, match="n must fit a double"):
            BetaPrimePrior.for_closed_form(10**400, 3)

    def test_hyper_g_fixes_b_at_zero(self):
        prior = BetaPrimePrior.hyper_g()
        assert prior.b == 0.0
        assert prior.a == -0.5


class TestLogDensity:
    def test_uniform_like_member_at_one(self):
        # a = b = 0: density (1+g)^-2, so log density at g=1 is ln(1/4)
        prior = BetaPrimePrior(a=0.0, b=0.0)
        np.testing.assert_allclose(
            beta_prime_log_density(prior, 1.0), math.log(0.25), rtol=1e-14
        )

    def test_recommended_member_at_one(self):
        prior = BetaPrimePrior(a=-0.5, b=-0.5)
        np.testing.assert_allclose(
            beta_prime_log_density(prior, 1.0),
            -math.log(2.0 * math.pi),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("g", [0.0, -1.0])
    def test_nonpositive_point_rejected(self, g):
        with pytest.raises(DomainError):
            beta_prime_log_density(BetaPrimePrior(a=0.0, b=0.0), g)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("b", [-0.5, 0.0, 1.0, 3.0])
    def test_density_integrates_to_one(self, a, b, prior_mass):
        mass = prior_mass(BetaPrimePrior(a=a, b=b))
        np.testing.assert_allclose(mass, 1.0, rtol=1e-9)


class TestQuadrature:
    def test_smallest_design_ratio_one(self):
        prior = BetaPrimePrior.for_closed_form(4, 2)
        np.testing.assert_allclose(
            bf_quadrature(4, 2, 1.0, prior), TWO_OVER_PI, rtol=1e-10
        )

    def test_smallest_design_ratio_half(self):
        prior = BetaPrimePrior.for_closed_form(4, 2)
        np.testing.assert_allclose(
            bf_quadrature(4, 2, 0.5, prior), QUAD_HALF_RATIO, rtol=1e-10
        )

    @pytest.mark.parametrize("p_alt", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_collapses_to_closed_form_on_closure(self, p_alt, ratio, r):
        n = p_alt * r
        prior = BetaPrimePrior.for_closed_form(n, p_alt)
        ss = OneWaySS(w_t=1.0, w_e=ratio, w_h=1.0 - ratio)
        closed = math.exp(log_bf_fb_one_way(ss, p_alt, r))
        np.testing.assert_allclose(bf_quadrature(n, p_alt, ratio, prior), closed, rtol=1e-8)

    def test_decreasing_in_ratio_off_closure(self):
        prior = BetaPrimePrior.hyper_g()
        values = [bf_quadrature(10, 3, x, prior) for x in (0.2, 0.5, 0.9)]
        assert values[0] > values[1] > values[2]

    def test_hyper_g_differs_from_closure_member(self):
        on = bf_quadrature(10, 3, 0.5, BetaPrimePrior.for_closed_form(10, 3))
        off = bf_quadrature(10, 3, 0.5, BetaPrimePrior.hyper_g())
        assert on > 0 and off > 0
        assert abs(on - off) / on > 1e-3

    @pytest.mark.parametrize(
        "n, p_alt, message",
        [
            (5, 1, "alternative needs at least 2 mean parameters, got 1"),
            (3, 3, "need n > p_alt, got n=3, p_alt=3"),
            (10**400, 2, "observation count n must fit a double, got a 1329-bit integer"),
        ],
        ids=["one-mean", "n-equals-p", "n-past-a-double"],
    )
    def test_design_rejected(self, n, p_alt, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            log_bf_quadrature(n, p_alt, 0.5, BetaPrimePrior.hyper_g())


def log_bf_hyper_g(n, p_alt, ratio, a):
    """Liang et al. (2008, eq. 17): the hyper-g factor as a Gauss 2F1.

    BF = (a'-2)/(p_alt-1+a'-2) 2F1((n-1)/2, 1; (p_alt-1+a')/2; 1-ratio)
    with a' = 2a+4, for the density (a+1)(1+g)^(-a-2), evaluated at 30
    digits.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        front = mp.log(mp.mpf(2 * (a + 1)) / (p_alt + 2 * a + 1))
        series = mp.hyp2f1(mp.mpf(n - 1) / 2, 1, mp.mpf(p_alt + 2 * a + 3) / 2, 1 - mp.mpf(ratio))
        return float(front + mp.log(series))


class TestLogQuadrature:
    @pytest.mark.parametrize(
        "n,p_alt,ratio",
        [(10**6, 2, 0.99999), (10**7, 5, 0.999999), (2500, 50, 0.5), (10**7, 2, 0.5)],
    )
    def test_matches_closed_form_at_scale(self, n, p_alt, ratio):
        # the first two were silent misses of the linear scan, the last two
        # overflow a double
        ss = OneWaySS(w_t=1.0, w_e=ratio, w_h=1.0 - ratio)
        closed = log_bf_fb_one_way(ss, p_alt, n // p_alt)
        value = log_bf_quadrature(n, p_alt, ratio, BetaPrimePrior.for_closed_form(n, p_alt))
        assert abs(value - closed) <= 1e-8 * max(1.0, abs(closed))

    def test_linear_value_overflows_past_a_double(self):
        prior = BetaPrimePrior.for_closed_form(2500, 50)
        with pytest.raises(OverflowError):
            bf_quadrature(2500, 50, 0.5, prior)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("p_alt,r", [(2, 2), (3, 5), (5, 10), (10, 20)])
    @pytest.mark.parametrize("ratio", [0.05, 0.3, 0.7, 0.99])
    def test_hyper_g_matches_liang_2f1(self, a, p_alt, r, ratio):
        n = p_alt * r
        value = log_bf_quadrature(n, p_alt, ratio, BetaPrimePrior.hyper_g(a))
        assert abs(value - log_bf_hyper_g(n, p_alt, ratio, a)) <= 1e-8

    def test_hyper_g_flat_stretch_between_two_scales(self):
        # at ratio 1e-20 the log integrand is flat for about 46 units of
        # log g, far wider than its curvature at the mode suggests
        value = log_bf_quadrature(4, 2, 1e-20, BetaPrimePrior.hyper_g(0.0))
        assert abs(value - log_bf_hyper_g(4, 2, 1e-20, 0.0)) <= 1e-8

    def test_long_tail_beside_narrow_peak(self):
        # b near -1 gives a tail of slope 1e-3 in log g next to a peak about
        # 10 units wide; 9.25097492831208 is an mpmath quadrature over
        # log g at 30 digits
        value = log_bf_quadrature(6, 3, 1e-5, BetaPrimePrior(a=-0.999, b=-0.999))
        assert abs(value - 9.25097492831208) <= 1e-8 * 9.25097492831208

    @pytest.mark.parametrize("b", [1e20, 1e300])
    def test_huge_b_names_the_prior(self, b):
        # the log integrand's terms, of size b, cancel in floating point, so
        # the integrand is noise: it overflows at 1e300, never converges at 1e20
        with pytest.raises(ConvergenceError, match=re.escape(f"prior a=-0.5, b={b}")):
            log_bf_quadrature(6, 3, 0.5, BetaPrimePrior(a=-0.5, b=b))


class TestBitPins:
    # float.hex of each value as the vector range search computed it, before
    # the search walked out one float at a time; (4, 2, 1e-20) integrates in
    # three rounds, the others in one
    PINS = [
        (20, 4, 0.3, "closure", "0x1.52c4c1858c8b3p+2"),
        (5000, 50, 0.9, "closure", "0x1.ed78f665bfbf3p+6"),
        (10**7, 2, 0.5, "closure", "0x1.a70ff4a03c3f7p+21"),
        (10**7, 5, 0.999999, "closure", "-0x1.a23385b9d6469p+4"),
        (50, 5, 0.2, (-0.5, 0.0), "0x1.bbf25f6702d78p+4"),
        (200, 10, 0.7, (0.0, 0.0), "0x1.2fd574f5b99a2p+4"),
        (30, 3, 0.05, (1.0, 0.0), "0x1.c6b9abf9f0985p+4"),
        (40, 4, 0.4, (2.0, 3.5), "0x1.2eac4808a7c0ep+3"),
        (4, 2, 1e-20, (0.0, 0.0), "0x1.e87e1d093009bp+1"),
        (6, 3, 1e-5, (-0.999, -0.999), "0x1.2807fc92a6ec7p+3"),
    ]

    @pytest.mark.parametrize("n, p_alt, ratio, ab, pinned", PINS)
    def test_value_bit_for_bit(self, n, p_alt, ratio, ab, pinned):
        if ab == "closure":
            prior = BetaPrimePrior.for_closed_form(n, p_alt)
        else:
            prior = BetaPrimePrior(*ab)
        assert float.hex(log_bf_quadrature(n, p_alt, ratio, prior)) == pinned

    # the closed-form prior with a != -1/2, as recorded before the integrand
    # left out its alpha term, which is 0.0 for every a
    CLOSED_FORM_PINS = [
        (60, 4, 0.25, 0.0, "0x1.059fecc5d1a07p+5"),
        (10**6, 3, 0.999, 0.0, "0x1.e72013ffce55fp+8"),
        (8, 2, 0.6, 1.0, "0x1.269621134db90p-2"),
        (500, 20, 0.8, 1.0, "0x1.12afd897a3036p+4"),
        (10**7, 2, 0.01, 1.0, "0x1.5f58a5afc78d2p+24"),
    ]

    @pytest.mark.parametrize("n, p_alt, ratio, a, pinned", CLOSED_FORM_PINS)
    def test_closed_form_a_bit_for_bit(self, n, p_alt, ratio, a, pinned):
        prior = BetaPrimePrior.for_closed_form(n, p_alt, a)
        assert float.hex(log_bf_quadrature(n, p_alt, ratio, prior)) == pinned


def vector_step(v, x):
    """softplus(v + x) - softplus(v) over an array, as the vector search took it."""
    if v > 0.0:
        return x + vector_step(-v, -x)
    step = np.log1p(_sigmoid(v) * np.expm1(np.minimum(x, 700.0)))
    step[x > 700.0] = np.logaddexp(0.0, v + x[x > 700.0]) - _softplus(v)
    return step


def reference_edges(n, p_alt, ratio, prior):
    """The breakpoints of the vector range search, which evaluates the log
    integrand at all 64 doublings on each side of the mode at once and
    takes the first whose two ends are 60 below the peak. Raises as
    log_bf_quadrature does when no doubling does, or a value overflows."""
    alpha = (n - p_alt) / 2.0 - prior.a - prior.b - 2.0
    beta, k, log_ratio = (n - 1) / 2.0, prior.b + 1.0, math.log(ratio)
    name = f"beta-prime prior a={prior.a}, b={prior.b}"
    m = log_mode(n, p_alt, ratio, prior)
    if not math.isfinite(m):
        raise ConvergenceError(f"cannot locate the integrand's mode under the {name}", math.nan)

    def shifted(x):
        return alpha * vector_step(m, x) - beta * vector_step(m + log_ratio, x) + k * x

    curvature = beta * _sigmoid(m + log_ratio) * _sigmoid(-m - log_ratio)
    curvature -= alpha * _sigmoid(m) * _sigmoid(-m)
    reach = max(curvature, 1.0) ** -0.5 * 2.0 ** np.arange(64)
    try:
        with np.errstate(over="raise"):
            ends = (shifted(np.concatenate([reach, -reach])) <= -60.0).reshape(2, -1)
    except FloatingPointError:
        raise ConvergenceError(f"quadrature overflows under the {name}", math.nan) from None
    if not ends.all(axis=0).any():
        raise ConvergenceError(f"quadrature did not converge under the {name}", math.nan)
    reach = reach[: ends.all(axis=0).argmax() + 1]
    return np.concatenate([-reach[::-1], reach])


class TestStep:
    @pytest.mark.parametrize("v", [-3.7, -1e-300, 0.0, 2.5, 40.0])
    @pytest.mark.parametrize("reach", [0.75, 64.0, 700.0])
    def test_reach_within_700_skips_the_fix_up_bit_for_bit(self, v, reach):
        # no node within the reach is past 700, so the step needs no mask;
        # v > 0 takes the mirror, whose -x is within the reach too
        x = np.random.default_rng(20261019).uniform(-reach, reach, size=(21, 8))
        x[0, :2] = -reach, reach
        assert _Step(v).over(x, reach).tolist() == vector_step(v, x).tolist()

    @pytest.mark.parametrize("v", [-3.7, 0.0, 2.5])
    def test_reach_past_700_keeps_the_fix_up(self, v):
        x = np.random.default_rng(20261019).uniform(-2e4, 2e4, size=(21, 8))
        assert (np.abs(x) > 700.0).any() and np.isfinite(vector_step(v, x)).all()
        assert _Step(v).over(x, 2e4).tolist() == vector_step(v, x).tolist()

    @pytest.mark.parametrize("v", [-40.0, -3.7, -1e-300, 0.0, 2.5, 40.0])
    @pytest.mark.parametrize("reach", [0.75, 64.0, 699.0, 700.0, 701.0, 2e4])
    def test_one_float_and_an_array_agree(self, v, reach):
        # the range search takes the step one float at a time, the integrand
        # over an array, by the same arithmetic on both sides of 700 and of
        # the mirror. numpy's vectorised expm1 may round apart from libm's
        # (with numpy 2.4 on an AVX-512 CPU, np.expm1(0.75) is an ulp below
        # math.expm1(0.75)), so the two agree to rounding: within 4 ulps of
        # the larger of the step and |x|, the size of the mirror's terms
        sizes = [0.0, 1e-12, 0.75, 64.0, 699.0, 700.0, 701.0, 2e4]
        x = np.array([s * d for d in sizes if d <= reach for s in (1.0, -1.0)])
        step = _Step(v)
        got, want = step.over(x, reach), np.array([step.at(node) for node in x.tolist()])
        assert np.isfinite(want).all() and (got[x == 0.0] == 0.0).all()
        eps = np.finfo(float).eps
        assert (np.abs(got - want) <= 4 * eps * np.maximum(np.abs(want), np.abs(x))).all()


class Searched(Exception):
    """Raised in place of the integration, carrying its breakpoints."""


def search_grid():
    """Seeded log-uniform designs, shares and priors of four kinds."""
    rng = np.random.default_rng(20261018)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    cases = [(6, 3, 0.5, BetaPrimePrior(a=-0.5, b=b)) for b in (1e20, 1e300)]
    for i in range(1200):
        p_alt, r = round(log_uniform(2, 2000)), round(log_uniform(2, 50000))
        n, ratio = p_alt * r, min(log_uniform(1e-300, 1.0), 1.0)
        prior = [
            lambda: BetaPrimePrior.for_closed_form(n, p_alt),
            lambda: BetaPrimePrior.hyper_g(float(rng.choice([-0.5, 0.0, 1.0]))),
            lambda: BetaPrimePrior(a=log_uniform(1e-3, 50) - 1.0, b=log_uniform(1e-3, 1e4) - 1.0),
            lambda: BetaPrimePrior(a=rng.uniform(-0.9, 3.0), b=log_uniform(1e10, 1e300)),
        ][i % 4]()
        cases.append((n, p_alt, ratio, prior))
    return cases


class TestRangeSearch:
    """The range search walks out one float at a time, and must stop at the
    doubling the vector search over all of them takes, or raise its error."""

    @staticmethod
    def outcome(search, *args):
        try:
            return search(*args).tolist()
        except Searched as searched:
            return searched.args[0].tolist()
        except ConvergenceError as exc:
            return str(exc)

    def test_same_doubling_or_error_as_the_vector_search(self, monkeypatch):
        def searched(f, edges):
            raise Searched(edges)

        monkeypatch.setattr(prior_module, "integrate", searched)
        outcomes = []
        for case in search_grid():
            want = self.outcome(reference_edges, *case)
            assert self.outcome(log_bf_quadrature, *case) == want, case
            outcomes.append(want)
        # the grid reaches both errors and many doublings
        name = "under the beta-prime prior a=-0.5"
        assert outcomes[0] == f"quadrature did not converge {name}, b=1e+20"
        assert outcomes[1] == f"quadrature overflows {name}, b=1e+300"
        assert len({len(o) for o in outcomes if isinstance(o, list)}) >= 5


class TestClosedFormCoefficient:
    def test_alpha_is_exactly_zero(self, monkeypatch):
        # the quadrature leaves out the alpha*softplus(u) term only when alpha
        # is 0.0: were it a rounding away, every closed-form check would
        # still pass, on the slower integrand of the general prior
        def caught(alpha, *args):
            raise Searched(alpha)

        monkeypatch.setattr(prior_module, "_log_mode", caught)
        rng = np.random.default_rng(20261019)
        alphas = []
        for _ in range(2000):
            p_alt = round(math.exp(rng.uniform(math.log(2), math.log(2000))))
            n = p_alt * round(math.exp(rng.uniform(math.log(2), math.log(50000))))
            a = float(rng.choice([-0.5, 0.0, 0.3, 1.0]))
            if (n - p_alt) / 2.0 <= a + 1.0:  # b <= -1: no proper prior
                continue
            try:
                log_bf_quadrature(n, p_alt, 0.5, BetaPrimePrior.for_closed_form(n, p_alt, a))
            except Searched as searched:
                alphas.append((n, p_alt, a, searched.args[0]))
        assert len(alphas) > 1900 and max(n for n, *_ in alphas) > 5e7
        assert [case for case in alphas if case[-1] != 0.0] == []


def log_mode_reference(n, p_alt, ratio, prior):
    """Root in u of the log integrand's slope, bisected by mpmath at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, b, t = mp.mpf(prior.a), mp.mpf(prior.b), mp.mpf(ratio)
        alpha, beta, k = mp.mpf(n - p_alt) / 2 - a - b - 2, mp.mpf(n - 1) / 2, b + 1

        def slope(u):
            # alpha*sigmoid(u) + k regrouped, so that the terms near 1 do
            # not cancel far out in u
            grow = (alpha + k) / (1 + mp.exp(-u)) + k / (1 + mp.exp(u))
            return grow - beta / (1 + mp.exp(-u) / t)

        lo, hi = mp.mpf(-1), mp.mpf(1)
        while slope(lo) <= 0:
            lo *= 2
        while slope(hi) >= 0:
            hi *= 2
        while hi - lo > 1e-20 * max(1, abs(hi)):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        return float(lo)


def log_mode(n, p_alt, ratio, prior):
    """The quadrature's mode, from the coefficients it passes to _log_mode."""
    alpha = (n - p_alt) / 2.0 - prior.a - prior.b - 2.0
    c = (p_alt - 1) / 2.0 + prior.a + 1.0
    return _log_mode(alpha, (n - 1) / 2.0, prior.b + 1.0, c, ratio)


class TestLogMode:
    @pytest.mark.parametrize("ratio", [1e-300, 1e-100, 1e-10, 0.01, 0.5, 0.99999, 1.0])
    @pytest.mark.parametrize("r", [2, 70, 5000, 50000])
    @pytest.mark.parametrize("p_alt", [2, 14, 200, 2000])
    @pytest.mark.parametrize("prior", ["closure", "hyper-g", "off-closure"])
    def test_matches_the_slope_root(self, prior, p_alt, r, ratio):
        n = p_alt * r
        prior = {
            "closure": BetaPrimePrior.for_closed_form(n, p_alt),
            "hyper-g": BetaPrimePrior.hyper_g(-0.5),
            "off-closure": BetaPrimePrior(a=0.0, b=0.0),
        }[prior]
        m = log_mode(n, p_alt, ratio, prior)
        want = log_mode_reference(n, p_alt, ratio, prior)
        # relative, but absolute for a mode within 1 of u = 0 (some are at 0)
        assert abs(m - want) <= 1e-11 * max(1.0, abs(want))

    def test_discriminant_below_the_smallest_double(self):
        # B rounds to 0 and 4*c*k*ratio to 0, so a plain square root of the
        # discriminant gives no root; the slope's root is near u = 355
        prior = BetaPrimePrior(a=0.0, b=-0.9999999999999989)
        m = log_mode(4, 2, 5e-324, prior)
        want = log_mode_reference(4, 2, 5e-324, prior)
        assert abs(m - want) <= 1e-11 * abs(want)
