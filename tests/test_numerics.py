import math

import numpy as np
import pytest

from anovabf.errors import ConvergenceError, DomainError
from anovabf.numerics import integrate, log_beta, log_gamma

LOG_PI = 1.14472988584940017414342735135
LOG_GAMMA_HALF = 0.572364942924700087071713675677
LOG_9_FACTORIAL = 12.8018274800814696112077178746
LOG_ONE_TWELFTH = -2.48490664978800031022970947984


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


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half(self):
        np.testing.assert_allclose(log_gamma(0.5), LOG_GAMMA_HALF, rtol=1e-14)

    def test_at_ten(self):
        np.testing.assert_allclose(log_gamma(10.0), LOG_9_FACTORIAL, rtol=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.5)

    @pytest.mark.parametrize(
        "x",
        [float(k) for k in list(range(2, 61)) + [100, 200, 500, 1000, 2000]]
        + [m + 0.5 for m in list(range(0, 61)) + [100, 300]],
    )
    def test_against_factorial_oracle(self, x):
        ref = factorial_log_gamma(x)
        # the absolute target is capped below by the representation's own
        # granularity at the magnitude of the result
        tol = max(1e-12, 8 * math.ulp(abs(ref)))
        assert abs(log_gamma(x) - ref) <= tol

    def test_recurrence(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x; tolerance floor loosened to a
        # few ulp of the result where the result itself exceeds ~1e5
        for x in np.geomspace(0.1, 1e5, 200):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            tol = max(1e-11, 4 * math.ulp(max(abs(lhs), abs(rhs))))
            assert abs(lhs - rhs) <= tol, f"recurrence off at x={x}"


class TestLogBeta:
    def test_ones(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_halves(self):
        np.testing.assert_allclose(log_beta(0.5, 0.5), LOG_PI, rtol=1e-14)

    def test_two_three(self):
        np.testing.assert_allclose(log_beta(2.0, 3.0), LOG_ONE_TWELFTH, rtol=1e-14)

    def test_symmetry(self):
        assert log_beta(2.5, 7.0) == log_beta(7.0, 2.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            log_beta(1.0, -2.0)


class TestIntegrate:
    def test_constant(self):
        value = integrate(lambda t: np.ones_like(t), [0.0, 1.0])
        np.testing.assert_allclose(value, 1.0, rtol=1e-12)

    def test_linear(self):
        np.testing.assert_allclose(integrate(lambda t: t, [0.0, 1.0]), 0.5, rtol=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.0, 4.0])
    def test_monomials(self, c):
        value = integrate(lambda t: t**c, [0.0, 1.0])
        np.testing.assert_allclose(value, 1.0 / (c + 1.0), rtol=1e-10)

    @pytest.mark.parametrize("degree", range(6))
    def test_polynomials_over_several_segments(self, degree):
        coefficients = np.random.default_rng(degree).normal(size=degree + 1)
        poly = np.polynomial.Polynomial(coefficients)
        edges = [-1.5, -0.25, 0.5, 2.0, 3.0]
        exact = poly.integ()(edges[-1]) - poly.integ()(edges[0])
        assert abs(integrate(poly, edges) - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_gaussian(self):
        value = integrate(lambda x: np.exp(-x * x), [-10.0, 10.0])
        assert abs(value - math.sqrt(math.pi)) <= 1e-12

    def test_nodes_stay_inside_their_segments(self):
        # sqrt's endpoint behaviour forces bisection, so later rounds are seen too
        edges = np.array([0.0, 1.0, 2.0])
        seen = []

        def f(t):
            seen.append(t.ravel())
            return np.sqrt(t)

        np.testing.assert_allclose(integrate(f, edges), 2.0**2.5 / 3.0, rtol=1e-10)
        assert len(seen) > 1
        nodes = np.concatenate(seen)
        assert ((nodes > edges[0]) & (nodes < edges[-1])).all()
        assert not np.isin(nodes, edges).any()

    def test_divergent_integrand_raises_with_estimate(self):
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(lambda t: 1.0 / t, [0.0, 1.0])
        assert isinstance(excinfo.value.estimate, float)

    def test_overshooting_first_estimate_ends(self):
        # a spike on the centre node of [1, 2] makes the first estimate 7.5e18,
        # so [0, 1] is accepted at a tolerance its error misses once bisection
        # steps past the spike; every piece is then accepted
        rounds = []

        def f(t):
            rounds.append(t.size)
            assert len(rounds) < 100, "integrate keeps calling f"
            return np.sqrt(t + 0.01) + np.where(t == 1.5, 1e20, 0.0)

        with pytest.raises(ConvergenceError) as excinfo:
            integrate(f, [0.0, 1.0, 2.0])
        assert isinstance(excinfo.value.estimate, float)

    @pytest.mark.parametrize("edges", [[1.0], [0.0, 0.0], [1.0, 0.0], [0.0, math.inf]])
    def test_rejects_breakpoints_that_do_not_increase(self, edges):
        with pytest.raises(DomainError):
            integrate(np.exp, edges)
