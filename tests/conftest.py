import os
from pathlib import Path

import numpy as np
import pytest

import anovabf
from anovabf.numerics import integrate
from anovabf.prior import beta_prime_log_density


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this tree's anovabf.

    The directory the tests imported the package from goes first on the
    child's PYTHONPATH, ahead of any installed copy.
    """
    env = dict(os.environ)
    src = str(Path(anovabf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` starts during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def no_children():
    """A check that this process has no child left, running or unreaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check


@pytest.fixture
def prior_mass():
    """Total mass of a beta-prime prior, integrated over u = log g.

    In u the integrand e**u times the density at g = e**u falls off as
    e**((b+1)u) to the left and e**(-(a+1)u) to the right, so breakpoints
    doubling out to |u| = 256 leave out a negligible share of the mass for
    a, b >= -1/2.
    """
    reach = 2.0 ** np.arange(9)
    edges = np.concatenate([-reach[::-1], reach])

    def mass(prior):
        return integrate(lambda u: np.exp(u + beta_prime_log_density(prior, np.exp(u))), edges)

    return mass
