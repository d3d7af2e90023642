"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite output doubles as
an acceptance report. Numbered to match the package's acceptance list in
the README; every check states its tolerance inline.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from anovabf.bayes_factors import Criterion, Model, log_bf_fb_one_way, two_way_reports
from anovabf.consistency import asymptotic_log_bf, h_threshold, limit_we_wt
from anovabf.datasets import OneWayDataset, TwoWayDataset
from anovabf.numerics import Regime
from anovabf.prior import BetaPrimePrior, bf_quadrature
from anovabf.simulation import SimulationConfig, run_frequency_experiment
from anovabf.sums_of_squares import OneWaySS, one_way_ss, two_way_ss


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


# selection frequencies at seed 42 with 2000 replications, shared between
# criteria 4 and 5 so the overlapping cell is simulated once
_FREQ_CACHE = {}


def frequency_cell(model, c_a, p, r):
    key = (model, c_a, p, r)
    if key not in _FREQ_CACHE:
        cfg = SimulationConfig(
            model=model,
            p_list=(p,),
            r_list=(r,),
            ca_list=(c_a,),
            replications=2000,
            seed=42,
        )
        table = run_frequency_experiment(cfg)
        _FREQ_CACHE[key] = (
            table.frequencies[(c_a, Criterion.FB, p, r)],
            table.frequencies[(c_a, Criterion.BIC, p, r)],
        )
    return _FREQ_CACHE[key]


def brute_one_way(y):
    p, r = y.shape
    grand = sum(y[i][j] for i in range(p) for j in range(r)) / (p * r)
    level = [sum(y[i][j] for j in range(r)) / r for i in range(p)]
    w_e = sum((y[i][j] - level[i]) ** 2 for i in range(p) for j in range(r))
    w_h = r * sum((level[i] - grand) ** 2 for i in range(p))
    w_t = sum((y[i][j] - grand) ** 2 for i in range(p) for j in range(r))
    return w_t, w_e, w_h


def brute_two_way(y):
    p, q, r = y.shape
    n = p * q * r
    grand = sum(y[i][j][k] for i in range(p) for j in range(q) for k in range(r)) / n
    am = [sum(y[i][j][k] for j in range(q) for k in range(r)) / (q * r) for i in range(p)]
    bm = [sum(y[i][j][k] for i in range(p) for k in range(r)) / (p * r) for j in range(q)]
    cm = [[sum(y[i][j][k] for k in range(r)) / r for j in range(q)] for i in range(p)]
    w_a = q * r * sum((am[i] - grand) ** 2 for i in range(p))
    w_b = p * r * sum((bm[j] - grand) ** 2 for j in range(q))
    w_ab = r * sum(
        (cm[i][j] - am[i] - bm[j] + grand) ** 2 for i in range(p) for j in range(q)
    )
    w_e = sum(
        (y[i][j][k] - cm[i][j]) ** 2 for i in range(p) for j in range(q) for k in range(r)
    )
    w_t = sum(
        (y[i][j][k] - grand) ** 2 for i in range(p) for j in range(q) for k in range(r)
    )
    return w_t, w_a, w_b, w_ab, w_e


def test_criterion_1_closed_form_matches_quadrature(announce):
    start = time.perf_counter()
    worst = 0.0
    for p in (2, 3, 5):
        for r in (2, 3, 5):
            n = p * r
            prior = BetaPrimePrior.for_closed_form(n, p)
            for ratio in (0.1, 0.5, 0.9, 1.0):
                closed = math.exp(
                    log_bf_fb_one_way(OneWaySS(w_t=1.0, w_e=ratio, w_h=1.0 - ratio), p, r)
                )
                numeric = bf_quadrature(n, p, ratio, prior)
                worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    announce(
        f"criterion 1 closed form vs quadrature (36 cells, tol 1e-8): "
        f"{'PASS' if ok else 'FAIL'} (max rel {worst:.2e}, {elapsed:.1f}s)"
    )
    assert ok, (worst, elapsed)


def test_criterion_2_partition_identities(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_identity = 0.0
    worst_brute = 0.0
    for _ in range(500):
        p = int(rng.integers(2, 21))
        r = int(rng.integers(2, 11))
        y = rng.normal(scale=3.0, size=(p, r)) + rng.normal() * 10.0
        ss = one_way_ss(OneWayDataset(values=y))
        worst_identity = max(
            worst_identity, abs(ss.w_t - (ss.w_e + ss.w_h)) / ss.w_t
        )
        bt, be, bh = brute_one_way(y)
        worst_brute = max(
            worst_brute,
            abs(ss.w_t - bt) / bt,
            abs(ss.w_e - be) / bt,
            abs(ss.w_h - bh) / bt,
        )
    for _ in range(500):
        p = int(rng.integers(2, 21))
        q = int(rng.integers(2, 11))
        r = int(rng.integers(2, 11))
        y = rng.normal(scale=2.0, size=(p, q, r)) + rng.normal() * 5.0
        ss = two_way_ss(TwoWayDataset(values=y))
        parts = ss.w_a + ss.w_b + ss.w_ab + ss.w_e
        worst_identity = max(worst_identity, abs(ss.w_t - parts) / ss.w_t)
        bt, ba, bb, bab, be = brute_two_way(y)
        worst_brute = max(
            worst_brute,
            abs(ss.w_t - bt) / bt,
            abs(ss.w_a - ba) / bt,
            abs(ss.w_b - bb) / bt,
            abs(ss.w_ab - bab) / bt,
            abs(ss.w_e - be) / bt,
        )
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-10 and worst_brute <= 1e-9 and elapsed < 30.0
    announce(
        f"criterion 2 partition identities on 1000 random datasets: "
        f"{'PASS' if ok else 'FAIL'} (identity {worst_identity:.2e}, "
        f"brute force {worst_brute:.2e}, {elapsed:.1f}s)"
    )
    assert ok, (worst_identity, worst_brute, elapsed)


def test_criterion_3_threshold_values(announce):
    ok = (
        h_threshold(2) == 1.0
        and 0.49 <= h_threshold(5) <= 0.50
        and 0.29 <= h_threshold(10) <= 0.295
    )
    announce(f"criterion 3 threshold values at r=2,5,10: {'PASS' if ok else 'FAIL'}")
    assert ok, (h_threshold(2), h_threshold(5), h_threshold(10))


def test_criterion_4_selection_frequencies(announce):
    start = time.perf_counter()
    null_22_fb, _ = frequency_cell(Model.NULL, 0.0, 2, 2)
    null_55_fb, _ = frequency_cell(Model.NULL, 0.0, 5, 5)
    strong_fb, strong_bic = frequency_cell(Model.FACTOR_A, 2.0, 100, 2)
    weak_fb, _ = frequency_cell(Model.FACTOR_A, 0.1, 50, 2)
    boundary_fb, _ = frequency_cell(Model.FACTOR_A, 1.0, 100, 2)
    elapsed = time.perf_counter() - start
    checks = {
        "null (2,2) fb in [0.73,0.81]": 0.73 <= null_22_fb <= 0.81,
        # the exact hit probability here is 0.97334 (an F tail at the FB
        # threshold), about 0.9 sd above the band's floor at 2000 reps, so
        # the band sits close: a new layout of the one-way draws fails it
        # with probability about 0.16
        "null (5,5) fb in [0.97,1.01]": 0.97 <= null_55_fb <= 1.01,
        "c_a=2 (100,2) fb >= 0.98": strong_fb >= 0.98,
        "c_a=2 (100,2) bic <= 0.02": strong_bic <= 0.02,
        "c_a=0.1 (50,2) fb <= 0.02": weak_fb <= 0.02,
        "c_a=1 (100,2) fb in [0.44,0.64]": 0.44 <= boundary_fb <= 0.64,
    }
    ok = all(checks.values()) and elapsed < 300.0
    announce(
        f"criterion 4 selection frequencies (seed 42, 2000 reps): "
        f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    )
    assert ok, ({k: v for k, v in checks.items() if not v}, elapsed)


def test_criterion_5_bic_fades_as_levels_grow(announce):
    freqs = [frequency_cell(Model.FACTOR_A, 1.0, p, 2)[1] for p in (10, 50, 100)]
    ok = freqs[0] >= freqs[1] >= freqs[2] and freqs[2] <= 0.02
    announce(
        f"criterion 5 bic frequency fades across p=10,50,100: "
        f"{'PASS' if ok else 'FAIL'} ({freqs[0]:.3f}/{freqs[1]:.3f}/{freqs[2]:.3f})"
    )
    assert ok, freqs


def test_criterion_6_asymptotic_bridge(announce):
    start = time.perf_counter()
    worst = 0.0
    for r, c_a in ((2, 2.0), (5, 1.0)):
        p = 500
        lim = limit_we_wt(Regime.MANY_LEVELS, Model.FACTOR_A, r=r, c_a=c_a).value
        exact = log_bf_fb_one_way(OneWaySS(w_t=1.0, w_e=lim, w_h=1.0 - lim), p, r)
        asym = asymptotic_log_bf(
            Criterion.FB, Regime.MANY_LEVELS, Model.FACTOR_A, p, r, c_a
        ).value
        worst = max(worst, abs(asym - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 1.0
    announce(
        f"criterion 6 exact vs asymptotic at p=500 (tol 2%): "
        f"{'PASS' if ok else 'FAIL'} (max rel {worst:.2e})"
    )
    assert ok, (worst, elapsed)


def test_criterion_7_two_way_coherence(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(2, 7))
        r = int(rng.integers(2, 6))
        y = rng.normal(size=(p, q, r))
        two = two_way_reports(two_way_ss(TwoWayDataset(values=y)), p, q, r)[Model.FULL].log_bf_fb
        one = log_bf_fb_one_way(
            one_way_ss(OneWayDataset(values=y.reshape(p * q, r))), p * q, r
        )
        worst = max(worst, abs(two - one))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    announce(
        f"criterion 7 saturated two-way equals flattened one-way (tol 1e-10): "
        f"{'PASS' if ok else 'FAIL'} (max abs {worst:.2e})"
    )
    assert ok, (worst, elapsed)


def test_criterion_8_prior_propriety(announce, prior_mass):
    start = time.perf_counter()
    worst = 0.0
    for a in (-0.5, 0.0, 1.0, 3.0):
        for b in (-0.5, 0.0, 1.0, 3.0):
            worst = max(worst, abs(prior_mass(BetaPrimePrior(a=a, b=b)) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    announce(
        f"criterion 8 prior integrates to 1 on 16-point grid (tol 1e-9): "
        f"{'PASS' if ok else 'FAIL'} (max abs {worst:.2e})"
    )
    assert ok, (worst, elapsed)


def test_criterion_9_simulate_determinism(announce, tmp_path, child_env):
    out = tmp_path / "freq.csv"
    argv = [
        sys.executable, "-m", "anovabf", "simulate",
        "--truth", "ma1", "--p", "3", "--r", "2", "--ca", "1",
        "--reps", "60", "--seed", "7", "--out", str(out),
    ]
    first_run = subprocess.run(argv, capture_output=True, env=child_env)
    first = out.read_bytes()
    second_run = subprocess.run(argv, capture_output=True, env=child_env)
    second = out.read_bytes()
    ok = first_run.returncode == 0 and second_run.returncode == 0 and first == second
    announce(
        f"criterion 9 identical argv gives byte-identical output: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert ok
