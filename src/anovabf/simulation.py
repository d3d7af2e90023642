"""Seeded Monte Carlo harness for model-selection frequencies.

Generates balanced one-way data under a declared truth, scores both
selection criteria (sums of squares, Bayes factors, choice), and
tabulates how often each criterion picks the true model over a grid of
level counts p, replication counts r and effect sizes
c_a = sum(alpha**2)/(p sigma**2). Both criteria see the data only
through the residual share w_e/w_t, which no shift or rescaling of the
data moves, so the noise is standard normal around a zero grand mean.

Every replication draws from its own Philox stream (a counter-based
generator; Salmon et al. 2011, "Parallel random numbers: as easy as
1, 2, 3"), keyed as ``SeedSequence(entropy=seed, spawn_key=(p, r, rep))``
would key it, with the counter at zero. The key does not involve c_a:
a chunk's noise is drawn once, and every effect size is scored from
that noise's level means (see :func:`_part_hits`). The table therefore
does not depend on how replications are ordered, chunked or
distributed, and it equals, byte for byte, the table from drawing each
replication through ``Generator(Philox(SeedSequence(...)))``, which the
tests use as the reference.

Building one SeedSequence per replication costs more than drawing its
data, so :func:`_replication_keys` derives a chunk's keys in one numpy
pass. It takes the pool that SeedSequence mixes from the words of
(seed, p, r), mixes in the replication word (``hashmix`` and ``mix``),
and expands the pool as ``generate_state(2, np.uint64)`` does. Those
steps are numpy's documented SeedSequence algorithm, whose output numpy
keeps stable across releases; the keys must equal SeedSequence's bit
for bit, or every frequency table changes. The draws then run through
one Philox whose key is set, and counter zeroed, per replication into a
fresh array of about ``_CHUNK_VALUES`` values. One pass over the chunk gives
its level means and residual sums (``sums_of_squares._level_split``, as
for ``one_way_ss``); every effect size then adds its level effects to
the means alone, and its sums of squares and
:func:`~anovabf.bayes_factors.log_bfs` are evaluated over the whole
chunk at once. The key is set from Python ints, which the state setter
reads faster than numpy scalars.

The chunks of the whole grid, listed in serial order (each (p, r) in
turn, its chunks in replication order), are cut into contiguous parts
of about equal cost, one per CPU once the grid has ``_FORK_VALUES``
noise values per CPU. Forked children run all parts but the first,
which this process runs (see ``_parallel``). Each part returns integer
hit counts, which are summed, so the table is the one of a single part,
and an error is that of the first failing replication in serial order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on first use: load it before map_parts forks, so
# that each part does not load it again
import numpy.random  # noqa: F401

from ._parallel import cpus as _cpus
from ._parallel import map_parts
from .bayes_factors import Criterion, Model, log_bfs, require_truth
from .errors import DegenerateDataError, DomainError, require_design, require_effect
from .sums_of_squares import _level_split, one_way_ss

FREQUENCY_CSV_HEADER = ("criterion", "truth", "c_a", "p", "r", "frequency", "replications", "seed")

# values drawn per chunk (at least one replication's worth)
_CHUNK_VALUES = 1 << 16
# Fewest noise values of a grid per process: a million take about 0.1 s to
# draw and score, against a few milliseconds to fork a child and about 10 ms
# until its counts are read. The test and golden grids stay in one process.
_FORK_VALUES = 1 << 20
# a replication's stream set-up, in the time of the values it draws and scores
_REKEY_VALUES = 128

# SeedSequence's mixing constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class SimulationConfig:
    """One-way truth, grid of p, r and c_a, replication count, seed, and criteria."""

    model: Model
    p_list: tuple[int, ...]
    r_list: tuple[int, ...]
    ca_list: tuple[float, ...] = (0.0,)
    replications: int = 2000
    seed: int = 0
    criteria: tuple[Criterion, ...] = (Criterion.FB, Criterion.BIC)

    def __post_init__(self):
        if not self.p_list or not self.r_list or not self.ca_list:
            raise DomainError("p_list, r_list and ca_list must be nonempty")
        for c_a in self.ca_list:
            require_truth(self.model, c_a)
        for p, r in itertools.product(self.p_list, self.r_list):
            require_design("simulation", p=p, r=r)
        if not 1 <= self.replications <= 2**32:
            # each replication index is one 32-bit word of the stream key
            raise DomainError("replications must be between 1 and 2**32")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if not self.criteria:
            raise DomainError("at least one criterion required")
        for name in ("p_list", "r_list", "ca_list", "criteria"):
            values = tuple(getattr(v, "value", v) for v in getattr(self, name))
            if len(set(values)) != len(values):
                raise DomainError(f"{name} has duplicate entries: {values}")


@dataclass(frozen=True)
class FrequencyTable:
    """Frequencies of picking the truth, keyed by (c_a, criterion, p, r), with provenance."""

    model: Model
    replications: int
    seed: int
    frequencies: dict[tuple[float, Criterion, int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for key, freq in self.frequencies.items():
            if not 0.0 <= freq <= 1.0:
                raise DomainError(f"frequency out of [0, 1] at {key}: {freq}")

    def rows(self) -> list[list]:
        """One row per frequency, in the order of ``FREQUENCY_CSV_HEADER``."""
        return [
            [criterion.value, self.model.value, repr(float(c_a)), p, r, repr(float(freq)),
             self.replications, self.seed]
            for (c_a, criterion, p, r), freq in self.frequencies.items()
        ]


def make_alpha(p: int, c_a: float) -> np.ndarray:
    """Deterministic level effects with exact zero sum and prescribed size.

    Scales a sign pattern (+1s, -1s, and a trailing 0 when p is odd) so
    that sum(alpha**2)/p equals c_a, the effect size in units of the
    noise variance. Any vector meeting the two constraints generates the
    same selection law, since the data distribution depends on the
    effects only through their sum of squares; a fixed pattern keeps runs
    reproducible.
    """
    require_design("level count", p=p)
    require_effect("effect size", c_a=c_a)
    if c_a == 0:
        return np.zeros(p)
    half = p // 2
    pattern = np.zeros(p)
    pattern[:half] = 1.0
    pattern[half : 2 * half] = -1.0
    delta = math.sqrt(c_a * p / float(np.sum(pattern**2)))
    return delta * pattern


def _words(value: int) -> int:
    """Number of 32-bit words SeedSequence splits a nonnegative int into."""
    return max(1, -(-value.bit_length() // 32))


def _hashmix(value: np.ndarray, hash_const: int, multiplier: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of 32-bit words held in uint64, and its next constant."""
    value = value ^ np.uint64(hash_const)
    hash_const = hash_const * multiplier & _MASK32
    value = value * np.uint64(hash_const) & np.uint64(_MASK32)
    return value ^ value >> np.uint64(16), hash_const


def _replication_keys(seed: int, p: int, r: int, reps: range) -> np.ndarray:
    """Philox keys of replications ``reps`` of cell (p, r), one row each.

    Row i equals
    ``SeedSequence(entropy=seed, spawn_key=(p, r, reps[i])).generate_state(2, np.uint64)``
    for every replication index below 2**32.
    """
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(p, r)).pool
    # hashmix calls made so far: fill the pool, mix it pairwise, then
    # fold in each spawn-key word beyond the pool
    calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1) + _POOL_SIZE * (_words(p) + _words(r))
    hash_const = _INIT_A * pow(_MULT_A, calls, 2**32) & _MASK32
    word = np.arange(reps.start, reps.stop, reps.step, dtype=np.uint64)
    state = []
    for pool_word in pool.tolist():
        # pool_word = mix(pool_word, hashmix(word))
        hashed, hash_const = _hashmix(word, hash_const, _MULT_A)
        mixed = np.uint64(_MIX_MULT_L * pool_word & _MASK32) - np.uint64(_MIX_MULT_R) * hashed
        mixed &= np.uint64(_MASK32)
        state.append(mixed ^ mixed >> np.uint64(16))
    # generate_state(2, np.uint64): one hashed output word per pool word
    hash_const = _INIT_B
    for i in range(_POOL_SIZE):
        state[i], hash_const = _hashmix(state[i], hash_const, _MULT_B)
    keys = np.empty((len(word), 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def draw_noise(seed: int, p: int, r: int, reps: range) -> np.ndarray:
    """Standard normal noise of replications ``reps`` of cell (p, r).

    Returns an array of shape (len(reps), p, r). Replication ``rep`` is
    what a Philox stream seeded with
    ``SeedSequence(entropy=seed, spawn_key=(p, r, rep))`` yields.
    """
    out = np.empty((len(reps), p, r))
    bit_generator = np.random.Philox(0)  # re-keyed for every replication below
    normal = np.random.Generator(bit_generator).standard_normal
    # a fresh stream: counter at zero, nothing buffered; the state setter
    # reads Python ints faster than numpy scalars
    key_and_counter = {"counter": (0, 0, 0, 0), "key": (0, 0)}
    state = {
        "bit_generator": "Philox",
        "state": key_and_counter,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key, row in zip(_replication_keys(seed, p, r, reps).tolist(), out):
        key_and_counter["key"] = key
        bit_generator.state = state
        normal(out=row)
    return out


def _chunk_reps(p: int, r: int) -> int:
    """Replications per chunk of cell (p, r)."""
    return max(1, _CHUNK_VALUES // (p * r))


def _parts(cfg: SimulationConfig, k: int) -> list[list[tuple[int, int, range]]]:
    """The grid's chunks, in serial order, cut into at most k contiguous
    nonempty parts of about equal cost.

    Serial order is each (p, r) of the grid in turn, its chunks in
    replication order. A part is a list of (p, r, reps): a run of whole
    chunks of one cell. A replication costs about its p * r values plus
    ``_REKEY_VALUES`` for setting up its stream.
    """
    cells = list(itertools.product(cfg.p_list, cfg.r_list))
    costs = [p * r + _REKEY_VALUES for p, r in cells]
    total = cfg.replications * sum(costs)
    parts: list[list[tuple[int, int, range]]] = [[] for _ in range(k)]
    done = 0  # cost of the cells before this one
    for (p, r), cost in zip(cells, costs):
        chunk = _chunk_reps(p, r)
        # part i starts at the first chunk boundary past i k-ths of the
        # grid's cost, clipped to this cell: cuts[0] is 0, cuts[k] the cell's end
        cuts = [
            min(cfg.replications, max(0, -((done - total * i // k) // (cost * chunk)) * chunk))
            for i in range(k + 1)
        ]
        for part, start, stop in zip(parts, cuts, cuts[1:]):
            if start < stop:
                part.append((p, r, range(start, stop)))
        done += cfg.replications * cost
    return [part for part in parts if part]


# effects beyond the range of a double give sums that are not finite, handled below
@np.errstate(over="ignore", invalid="ignore")
def _part_hits(cfg: SimulationConfig, part: list[tuple[int, int, range]]) -> list[int]:
    """How many of a part's replications favor the alternative, one count
    per (c_a, criterion, p, r) of the grid in table order.

    The level effects move each level mean and leave every residual as it
    is, so one pass over a chunk's noise gives the residual sum w_e and
    the level means' deviations d from their grand mean, and an effect
    size then costs w_h = r * sum((d + alpha)**2) per replication. A
    replication whose total w_e + w_h is 0 or not finite (the squares of
    effects beyond the range of a double, say) is scored again on its
    data, noise + alpha, by ``one_way_ss``, whose unit-scale sums hold at
    any finite scale, so errors name the replication and c_a they did
    when every effect size was scored that way. Otherwise the sums differ
    from those of the data by rounding alone, which changes a hit only for
    a share within rounding of the decision threshold.
    """
    hits = dict.fromkeys(itertools.product(cfg.ca_list, cfg.criteria, cfg.p_list, cfg.r_list), 0)
    for p, r, reps in part:
        chunk, alphas = _chunk_reps(p, r), None
        where = f"at (p={p}, r={r}, seed={cfg.seed})"
        for start in range(reps.start, reps.stop, chunk):
            try:
                noise = draw_noise(cfg.seed, p, r, range(start, min(start + chunk, reps.stop)))
            except (ValueError, MemoryError):  # numpy's "array is too big", or allocation failed
                raise DomainError(
                    f"cell (p={p}, r={r}) needs {p * r} values per replication,"
                    " more than memory holds"
                ) from None
            # after the first draw, so that a cell too big for memory is named as such
            alphas = alphas or {c_a: make_alpha(p, c_a) for c_a in cfg.ca_list}
            deviations, w_e = _level_split(noise)
            for c_a, alpha in alphas.items():
                w_t = w_e + r * np.sum((deviations + alpha) ** 2, axis=-1)
                residual = w_e
                again = np.flatnonzero(~np.isfinite(w_t) | (w_t == 0.0))
                if again.size:
                    unit = one_way_ss(noise[again] + alpha[:, None]).unit
                    residual = w_e.copy()
                    residual[again], w_t[again] = unit.w_e, unit.w_t
                overflow = np.flatnonzero(~np.isfinite(w_t))
                if overflow.size:
                    rep = start + overflow[0]
                    raise DomainError(
                        f"replication {rep} {where} has a sum of squares that is not finite"
                        f" (c_a={c_a})"
                    )
                degenerate = np.flatnonzero(w_t == 0.0)
                if degenerate.size:
                    rep = start + degenerate[0]
                    raise DegenerateDataError(
                        f"replication {rep} {where} produced a zero total sum of squares"
                        f" (c_a={c_a})"
                    )
                log_bf = dict(zip((Criterion.FB, Criterion.BIC), log_bfs(p * r, p, residual / w_t)))
                for criterion in cfg.criteria:
                    hits[(c_a, criterion, p, r)] += int(np.count_nonzero(log_bf[criterion] > 0))
    return list(hits.values())


def run_frequency_experiment(cfg: SimulationConfig) -> FrequencyTable:
    """Tabulate how often each criterion selects the true model.

    For every (p, r) in the grid, draws the configured number of
    replications chunk by chunk, adds each effect size's level effects
    to the same noise's level means, and scores each replication through
    the sums of squares and both Bayes factors. A criterion picks the
    alternative when its log Bayes factor is positive and the null
    otherwise, the rule of :func:`~anovabf.bayes_factors.choose_model`. A
    zero total sum of squares in any replication (probability zero under
    a continuous noise law), or one that is not finite, aborts with
    diagnostics.

    A grid of at least ``_FORK_VALUES`` noise values per CPU runs in one
    part per CPU, all but the first in forked children; hit counts are
    summed over the parts, and an error is that of the first failing
    replication in serial order, so the table and errors are those of
    one part.
    """
    reps = cfg.replications
    values = reps * sum(p * r for p, r in itertools.product(cfg.p_list, cfg.r_list))
    k = max(1, min(_cpus(), values // _FORK_VALUES))
    keys = list(itertools.product(cfg.ca_list, cfg.criteria, cfg.p_list, cfg.r_list))
    parts = map_parts(_part_hits, [(cfg, part) for part in _parts(cfg, k)])
    alternative = [sum(hits) for hits in zip(*parts)]
    if cfg.model is Model.NULL:
        alternative = [reps - hits for hits in alternative]
    return FrequencyTable(
        model=cfg.model,
        replications=reps,
        seed=cfg.seed,
        frequencies={key: hits / reps for key, hits in zip(keys, alternative)},
    )
