"""Seeded Monte Carlo harness for model-selection frequencies.

Generates balanced one-way data under a declared truth, runs both
selection criteria through the full pipeline (simulation, sums of
squares, Bayes factor, choice), and tabulates how often each criterion
picks the true model. Every replication draws from its own counter-based
substream keyed by (seed, p, r, replication), so the table is identical
no matter how replications are ordered or distributed across workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bayes_factors import Criterion, Model, one_way_report
from .consistency import EffectSizes
from .datasets import OneWayDataset, write_csv
from .errors import DegenerateDataError, DomainError
from .sums_of_squares import one_way_ss

FREQUENCY_CSV_HEADER = ("criterion", "truth", "c_a", "p", "r", "frequency", "replications", "seed")

# model -> effect sizes that must vanish under it
_FORBIDDEN_EFFECTS = {
    Model.NULL: ("c_a", "c_b", "c_ab"),
    Model.FACTOR_A: ("c_b", "c_ab"),
    Model.FACTOR_B: ("c_a", "c_ab"),
    Model.ADDITIVE: ("c_ab",),
    Model.FULL: (),
}


@dataclass(frozen=True)
class TruthSpec:
    """Data-generating truth: which model holds and with what effect sizes."""

    model: Model
    c_a: float = 0.0
    c_b: float = 0.0
    c_ab: float = 0.0
    mu: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise DomainError(f"sigma2 must be positive, got {self.sigma2}")
        for name in ("c_a", "c_b", "c_ab"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")
        for name in _FORBIDDEN_EFFECTS[self.model]:
            if getattr(self, name) != 0.0:
                raise DomainError(f"{name} must be 0 under model {self.model.value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Grid of designs, truth, replication count, seed, and criteria to score."""

    p_list: tuple[int, ...]
    r_list: tuple[int, ...]
    truth: TruthSpec
    replications: int = 2000
    seed: int = 0
    criteria: tuple[Criterion, ...] = (Criterion.FB, Criterion.BIC)

    def __post_init__(self):
        if not self.p_list or not self.r_list:
            raise DomainError("p_list and r_list must be nonempty")
        if any(p < 2 for p in self.p_list) or any(r < 2 for r in self.r_list):
            raise DomainError("every p and r must be at least 2")
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if not self.criteria:
            raise DomainError("at least one criterion required")


@dataclass(frozen=True)
class FrequencyTable:
    """Selection frequencies keyed by (criterion, p, r), with provenance."""

    truth: TruthSpec
    replications: int
    seed: int
    frequencies: dict[tuple[Criterion, int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for key, freq in self.frequencies.items():
            if not 0.0 <= freq <= 1.0:
                raise DomainError(f"frequency out of [0, 1] at {key}: {freq}")

    def rows(self) -> list[list]:
        """One row per frequency, in the order of ``FREQUENCY_CSV_HEADER``."""
        return [
            [
                criterion.value,
                self.truth.model.value,
                repr(float(self.truth.c_a)),
                p,
                r,
                repr(float(freq)),
                self.replications,
                self.seed,
            ]
            for (criterion, p, r), freq in self.frequencies.items()
        ]

    def to_csv(self) -> str:
        return write_csv(FREQUENCY_CSV_HEADER, self.rows())


def _sign_pattern(p: int) -> np.ndarray:
    """Zero-sum vector of +1s, -1s, and a trailing 0 when p is odd."""
    half = p // 2
    pattern = np.zeros(p)
    pattern[:half] = 1.0
    pattern[half : 2 * half] = -1.0
    return pattern


def make_alpha(p: int, c_a: float, sigma2: float) -> np.ndarray:
    """Deterministic level effects with exact zero sum and prescribed size.

    Scales the sign pattern so that sum(alpha**2)/(p*sigma2) equals c_a.
    Any vector meeting the two constraints generates the same selection
    law, since the data distribution depends on the effects only through
    their sum of squares; a fixed pattern keeps runs reproducible.
    """
    if p < 2:
        raise DomainError(f"need p >= 2, got {p}")
    if c_a < 0 or sigma2 <= 0:
        raise DomainError("need c_a >= 0 and sigma2 > 0")
    pattern = _sign_pattern(p)
    if c_a == 0:
        return np.zeros(p)
    delta = math.sqrt(c_a * p * sigma2 / float(np.sum(pattern**2)))
    return delta * pattern


def make_two_way_effects(
    p: int, q: int, e: EffectSizes, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Main-effect vectors and interaction matrix with zero margins.

    The interaction is a scaled outer product of the two sign patterns,
    so every row and column sums to zero by construction, and
    sum(interaction**2)/(p*q*sigma2) equals c_ab.
    """
    alpha = make_alpha(p, e.c_a, sigma2)
    beta = make_alpha(q, e.c_b, sigma2)
    u = _sign_pattern(p)
    v = _sign_pattern(q)
    if e.c_ab == 0:
        interaction = np.zeros((p, q))
    else:
        norm = float(np.sum(u**2) * np.sum(v**2))
        delta = math.sqrt(e.c_ab * p * q * sigma2 / norm)
        interaction = delta * np.outer(u, v)
    return alpha, beta, interaction


def simulate_one_way(
    p: int, r: int, truth: TruthSpec, stream: np.random.Generator
) -> OneWayDataset:
    """Draw one balanced one-way dataset under the given truth."""
    if truth.model not in (Model.NULL, Model.FACTOR_A):
        raise DomainError(f"one-way simulation needs a one-way truth, got {truth.model!r}")
    if truth.model is Model.FACTOR_A:
        alpha = make_alpha(p, truth.c_a, truth.sigma2)
    else:
        alpha = np.zeros(p)
    noise = stream.standard_normal((p, r))
    values = truth.mu + alpha[:, None] + math.sqrt(truth.sigma2) * noise
    return OneWayDataset(values=values)


def _replication_stream(seed: int, p: int, r: int, rep: int) -> np.random.Generator:
    # Counter-based generator with a spawn key per replication: results do
    # not depend on the order replications are executed in.
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(p, r, rep))
    return np.random.Generator(np.random.Philox(seq))


def run_frequency_experiment(cfg: SimulationConfig) -> FrequencyTable:
    """Tabulate how often each criterion selects the true model.

    For every (p, r) in the grid, runs the configured number of
    replications through simulation, sums of squares, both Bayes factors,
    and the choice rule, scoring a hit when the chosen model is the
    truth. A zero total sum of squares in any replication (probability
    zero under a continuous noise law) aborts with diagnostics.
    """
    truth = cfg.truth
    frequencies: dict[tuple[Criterion, int, int], float] = {}
    for criterion in cfg.criteria:
        for p, r in itertools.product(cfg.p_list, cfg.r_list):
            frequencies[(criterion, p, r)] = 0.0
    for p, r in itertools.product(cfg.p_list, cfg.r_list):
        hits = {criterion: 0 for criterion in cfg.criteria}
        for rep in range(cfg.replications):
            stream = _replication_stream(cfg.seed, p, r, rep)
            dataset = simulate_one_way(p, r, truth, stream)
            ss = one_way_ss(dataset)
            if ss.w_t == 0.0:
                raise DegenerateDataError(
                    f"replication {rep} at (p={p}, r={r}, seed={cfg.seed}) "
                    "produced a zero total sum of squares"
                )
            report = one_way_report(ss, p, r)
            for criterion in cfg.criteria:
                chosen = report.choice_fb if criterion is Criterion.FB else report.choice_bic
                hits[criterion] += chosen is truth.model
        for criterion in cfg.criteria:
            frequencies[(criterion, p, r)] = hits[criterion] / cfg.replications
    return FrequencyTable(
        truth=truth,
        replications=cfg.replications,
        seed=cfg.seed,
        frequencies=frequencies,
    )
