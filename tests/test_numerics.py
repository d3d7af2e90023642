import math

import numpy as np
import pytest

from anovabf.errors import ConvergenceError, DomainError
from anovabf.numerics import integrate, log_beta

LOG_PI = 1.14472988584940017414342735135
LOG_ONE_TWELFTH = -2.48490664978800031022970947984


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

    def test_recurrence(self):
        # B(x, 1) = Gamma(x) / Gamma(x+1) = 1/x: the recurrence
        # ln Gamma(x+1) = ln Gamma(x) + ln x, with its tolerance floor loosened to
        # a few ulp of the log-gammas where they exceed ~1e5
        for x in np.geomspace(0.1, 1e5, 200).tolist():
            scale = max(abs(math.lgamma(x + 1.0)), abs(math.lgamma(x) + math.log(x)))
            tol = max(1e-11, 4 * math.ulp(scale))
            assert abs(log_beta(x, 1.0) + math.log(x)) <= tol, f"recurrence off at x={x}"


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
