"""Independent correctness references and output checks.

Each reference is derived from the model's formulas, not from the
package: sums of squares by brute-force numpy, log Bayes factors from
``math.lgamma``, selection probabilities from the exact F and noncentral
F laws, and the hyper-g Bayes factor from the Gauss hypergeometric form
of Liang et al. (2008) at 30 significant digits. A check returns None
when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

from inputs import SIMULATE_P, SIMULATE_R, SIMULATE_REPS, CsvInput, OracleCheck

REL_TOL = 1e-9  # ingest: sums of squares and log factors
ORACLE_TOL = 1e-8  # the CLI's closed-form-versus-quadrature tolerance
DIGITS = 30  # working precision of the hyper-g reference
HYP2F1_TERMS = 1000  # past this, the continued fraction is far faster
INTERVAL_ALPHA = 1e-6  # two-sided miss rate of each binomial acceptance interval
LOG_MAX = math.log(sys.float_info.max)
LOG_MIN_NORMAL = math.log(sys.float_info.min)
SCAN_MISS = "quadrature value below the reference"
# Scan misses allowed in one pass of the oracle sweep before the rest count
# as unknown failures. About 0.3 per 4096 checks drawn anew for each seed
# were seen when the benchmark was defined; the fixed set of 1024 that the
# sweep runs had none.
SCAN_MISSES_PER_PASS = 1


def log_bf_fb(n: int, s1: int, ratio: float) -> float:
    """Fully-Bayes log factor of an s1-mean alternative against the common mean."""
    constant = (
        math.lgamma(s1 / 2) + math.lgamma((n - s1) / 2) - math.lgamma(0.5) - math.lgamma((n - 1) / 2)
    )
    return constant - (n - s1 - 1) / 2 * math.log(ratio)


def log_bf_bic(n: int, s1: int, ratio: float) -> float:
    return -n / 2 * math.log(ratio) - (s1 - 1) / 2 * math.log(n)


def _close(got, want: float, tol: float, scale: float = 1.0) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(scale, abs(want), 1.0)


# --- ingest ---------------------------------------------------------------


def ingest_reference(item: CsvInput) -> dict:
    """Sums of squares and both log factors for every alternative in the file."""
    y = item.values
    n = y.size
    w_t = float(np.sum((y - y.mean()) ** 2))
    if item.layout == "one-way":
        p, r = y.shape
        means = y.mean(axis=1, keepdims=True)
        w_e = float(np.sum((y - means) ** 2))
        w_h = float(r * np.sum((means - y.mean()) ** 2))
        ratio = w_e / w_t
        return {
            "shape": {"p": p, "r": r, "n": n},
            "ss": {"w_t": w_t, "w_e": w_e, "w_h": w_h},
            "models": {"A+1": (log_bf_fb(n, p, ratio), log_bf_bic(n, p, ratio))},
        }
    p, q, r = y.shape
    cell = y.mean(axis=2)
    a_dev = cell.mean(axis=1) - y.mean()
    b_dev = cell.mean(axis=0) - y.mean()
    ss = {
        "w_t": w_t,
        "w_a": float(q * r * np.sum(a_dev**2)),
        "w_b": float(p * r * np.sum(b_dev**2)),
        "w_ab": float(r * np.sum((cell - y.mean() - a_dev[:, None] - b_dev[None, :]) ** 2)),
        "w_e": float(np.sum((y - cell[:, :, None]) ** 2)),
    }
    residual = {
        "A+1": (ss["w_b"] + ss["w_ab"] + ss["w_e"], p),
        "B+1": (ss["w_a"] + ss["w_ab"] + ss["w_e"], q),
        "A+B+1": (ss["w_ab"] + ss["w_e"], p + q - 1),
        "(A+1)(B+1)": (ss["w_e"], p * q),
    }
    models = {
        m: (log_bf_fb(n, s1, res / w_t), log_bf_bic(n, s1, res / w_t))
        for m, (res, s1) in residual.items()
    }
    params = {"1": 1, **{m: s1 for m, (_, s1) in residual.items()}}
    scored = [("1", 0.0)] + [(m, fb) for m, (fb, _) in models.items()]
    ranked = sorted(scored, key=lambda mv: (-mv[1], params[mv[0]]))
    return {
        "shape": {"p": p, "q": q, "r": r, "n": n},
        "ss": ss,
        "models": models,
        "ranking": [m for m, _ in ranked],
    }


def check_ingest(item: CsvInput, ref: dict, stdout: str) -> str | None:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    for key, want in ref["shape"].items():
        if doc.get(key) != want:
            return f"{key} = {doc.get(key)!r}, expected {want}"
    if item.scale == 1.0:  # the probes' sums of squares carry scale**2
        got_ss = doc.get("sums_of_squares", {})
        for key, want in ref["ss"].items():
            if not _close(got_ss.get(key), want, REL_TOL, ref["ss"]["w_t"]):
                return f"{key} = {got_ss.get(key)!r}, expected {want!r}"
    reports = {"A+1": doc.get("report")} if item.layout == "one-way" else doc.get("reports", {})
    for model, (fb, bic) in ref["models"].items():
        report = reports.get(model) or {}
        for key, want in (("log_bf_fb", fb), ("log_bf_bic", bic)):
            if not _close(report.get(key), want, REL_TOL):
                return f"{model} {key} = {report.get(key)!r}, expected {want!r}"
    if "ranking" in ref:
        got = [entry[0] for entry in doc.get("ranking_fb", [])]
        if got != ref["ranking"]:
            return f"FB ranking {got}, expected {ref['ranking']}"
    return None


# --- simulate -------------------------------------------------------------


def selection_probability(criterion: str, p: int, r: int, c_a: float) -> float:
    """Exact probability that a criterion picks the level-means model.

    Both rules pick it iff the residual share w_e/w_t falls below a
    threshold t, i.e. iff F = (w_h/(p-1)) / (w_e/(n-p)) exceeds
    (1-t)/t * (n-p)/(p-1). Under effect size c_a, w_h/sigma^2 is
    noncentral chi-square with p-1 degrees and noncentrality r*p*c_a.
    """
    from scipy import stats

    n = p * r
    if criterion == "fb":
        constant = (
            math.lgamma(p / 2) + math.lgamma((n - p) / 2) - math.lgamma(0.5) - math.lgamma((n - 1) / 2)
        )
        log_t = 2 * constant / (n - p - 1)
    else:
        log_t = -(p - 1) * math.log(n) / n
    if log_t >= 0:
        return 1.0
    f_star = -math.expm1(log_t) / math.exp(log_t) * (n - p) / (p - 1)
    if c_a == 0:
        return float(stats.f.sf(f_star, p - 1, n - p))
    return float(stats.ncf.sf(f_star, p - 1, n - p, r * p * c_a))


def simulate_expectations(truth: str, ca_list: tuple[float, ...]) -> dict:
    """Acceptance interval of hit counts for every (criterion, c_a, p, r) cell."""
    from scipy import stats

    cells = {}
    for criterion in ("fb", "bic"):
        for c_a in ca_list:
            for p in SIMULATE_P:
                for r in SIMULATE_R:
                    alt = selection_probability(criterion, p, r, c_a)
                    hit = alt if truth == "A+1" else 1.0 - alt
                    low = stats.binom.ppf(INTERVAL_ALPHA / 2, SIMULATE_REPS, hit)
                    high = stats.binom.isf(INTERVAL_ALPHA / 2, SIMULATE_REPS, hit)
                    cells[(criterion, c_a, p, r)] = (hit, int(low), int(high))
    return cells


def check_simulate(truth: str, cells: dict, seed: int, stdout: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    header = ["criterion", "truth", "c_a", "p", "r", "frequency", "replications", "seed"]
    if not rows or rows[0] != header:
        return f"header {rows[0] if rows else None}"
    seen = set()
    for row in rows[1:]:
        try:
            criterion, got_truth, c_a, p, r, freq, reps, got_seed = row
            key = (criterion, float(c_a), int(p), int(r))
            freq, reps, got_seed = float(freq), int(reps), int(got_seed)
        except ValueError:
            return f"malformed row {row}"
        if key not in cells or key in seen:
            return f"unexpected row {row}"
        seen.add(key)
        if got_truth != truth or reps != SIMULATE_REPS or got_seed != seed:
            return f"provenance {row}"
        hit, low, high = cells[key]
        hits = freq * SIMULATE_REPS
        if not (abs(hits - round(hits)) < 1e-6 and low <= round(hits) <= high):
            bounds = f"[{low}, {high}]/{SIMULATE_REPS}"
            return f"frequency {freq} at {key} outside {bounds} (exact {hit:.4f})"
    if len(seen) != len(cells):
        return f"{len(cells) - len(seen)} cells missing"
    return None


# --- oracle ---------------------------------------------------------------


def _log_incomplete_beta(P, Q, z, mp):
    """log of the unregularised incomplete beta B_z(P, Q), by continued fraction.

    The modified Lentz evaluation of the classical continued fraction,
    taken on the side of the mean where it converges fast; for the
    oracle's designs that is a few terms, where the power series needs
    O(Q z) of them.
    """

    def fraction(a, b, x):
        tiny, eps = mp.mpf(10) ** -300, mp.mpf(10) ** -(DIGITS - 2)
        c, d = mp.mpf(1), 1 - (a + b) * x / (a + 1)
        d = 1 / (d if abs(d) > tiny else tiny)
        h = d
        for m in range(1, 200000):
            for aa in (
                m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m)),
            ):
                d = 1 + aa * d
                d = 1 / (d if abs(d) > tiny else tiny)
                c = 1 + aa / c
                c = c if abs(c) > tiny else tiny
                h *= d * c
            if abs(d * c - 1) < eps:
                return h
        raise ArithmeticError("incomplete-beta continued fraction did not converge")

    if z < (P + 1) / (P + Q + 2):
        return mp.log(fraction(P, Q, z)) + P * mp.log(z) + Q * mp.log1p(-z) - mp.log(P)
    tail = fraction(Q, P, 1 - z) * z**P * (1 - z) ** Q / Q
    return mp.log(mp.beta(P, Q) - tail)


def log_bf_hyper_g(n: int, p: int, ratio: float, a: float) -> float:
    """log Bayes factor under the hyper-g prior, density (a+1)(1+g)^(-a-2).

    Liang et al. (2008), eq. 17: BF = (a'-2)/(p_g+a'-2) 2F1((n-1)/2, 1;
    (p_g+a')/2; R^2) with a' = 2a+4, p_g = p-1 and R^2 = 1 - ratio.
    mpmath.hyp2f1 sums the series; where that needs more than
    HYP2F1_TERMS terms (large n at moderate R^2) the same 2F1 is taken
    through the identity
    2F1(b, 1; c; z) = (c-1) z^(1-c) (1-z)^(c-b-1) B_z(c-1, b-c+1).
    """
    import mpmath as mp

    with mp.workdps(DIGITS):
        z = 1 - mp.mpf(ratio)
        b, c = mp.mpf(n - 1) / 2, mp.mpf(p + 2 * a + 3) / 2
        front = mp.log(2 * (mp.mpf(a) + 1) / (p + 2 * a + 1))
        if z == 0:
            return float(front)
        try:
            return float(front + mp.log(mp.hyp2f1(b, 1, c, z, maxterms=HYP2F1_TERMS)))
        except mp.libmp.NoConvergence:
            pass
        log_f = (
            mp.log(c - 1)
            + (1 - c) * mp.log(z)
            + (c - b - 1) * mp.log1p(-z)
            + _log_incomplete_beta(c - 1, b - c + 1, z, mp)
        )
        return float(front + log_f)


def oracle_reference(check: OracleCheck) -> tuple[float, float]:
    """(closed-form log factor, log factor the quadrature should reproduce)."""
    closed = log_bf_fb(check.n, check.p, check.ratio)
    if check.hyper_g_a is None:
        return closed, closed
    return closed, log_bf_hyper_g(check.n, check.p, check.ratio, check.hyper_g_a)


def check_oracle(ref: tuple[float, float], outcome: list) -> tuple[str | None, bool]:
    """Judge one check; returns (reason or None, whether a failure is known).

    Known when the benchmark was defined, all from the linear-scale
    quadrature: OverflowError and ConvergenceError; a factor outside the
    range of a double, returned as inf above it, or below the smallest
    normal double as 0 or a subnormal right to 1e-8 of that double; and a
    positive value below the factor, which is what the 512-node scan gives
    when it misplaces the integrand's peak and the clamp at exp(700) then
    cuts mass away (a reason starting SCAN_MISS, which the caller caps per
    pass). Anything else is not: another exception, a wrong closed form, a
    quadrature result that is not a nonnegative number, a value above the
    factor, or a factor lost to 0 that a double can hold.
    """
    closed_ref, target = ref
    _, log_closed, value, error = outcome
    if error is not None:
        return error, error.split(":")[0] in ("OverflowError", "ConvergenceError")
    if not _close(log_closed, closed_ref, ORACLE_TOL):
        return f"closed form {log_closed!r}, expected {closed_ref!r}", False
    if not isinstance(value, float) or math.isnan(value) or value < 0:
        return f"quadrature returned {value!r}", False
    log_value = math.log(value) if value > 0 else -math.inf
    if log_value != -math.inf and abs(math.expm1(log_value - target)) <= ORACLE_TOL:
        return None, False
    above = target > LOG_MAX and value == math.inf
    below = target < LOG_MIN_NORMAL and abs(value - math.exp(target)) <= ORACLE_TOL * sys.float_info.min
    if above or below:
        return "factor outside the normal range of a double", True
    if 0 < value and log_value < target:
        return f"{SCAN_MISS}: log value {log_value!r}, expected {target!r}", True
    return f"quadrature log value {log_value!r}, expected {target!r}", False
