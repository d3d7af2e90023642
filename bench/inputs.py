"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed. CSV files are
written by this module's own writer (not the package's ``to_csv``), so a
change to the package's serialisation cannot change what is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stream keys keep each workload's draws independent of the others'.
_INGEST_KEY, _SIMULATE_KEY, _ORACLE_KEY = 1, 2, 3

ONE_WAY_SHAPE = (2000, 200)
TWO_WAY_SHAPE = (1000, 100, 4)
PROBE_SHAPE = (50, 20)
PROBE_SCALES = (1e-200, 1e200)

SIMULATE_P = (10, 50, 100)
SIMULATE_R = (2, 5)
SIMULATE_CA = (0.5, 1.0)
SIMULATE_REPS = 2000

# One fixed set of 1024 checks. The cost of a check has a heavy, erratic tail
# (quadrature that runs to its subdivision limit), so a set drawn anew for
# each seed makes the work of a pass vary with the seed by more than the
# benchmark's bounds; see NOTES.md.
ORACLE_CHECKS_LOG2 = 10
ORACLE_POINTS_KEY = 0
ORACLE_P = (2, 200)
ORACLE_R = (2, 5000)
ORACLE_RATIO = (0.01, 1.0)
HYPER_G_A = (-0.5, 0.0, 1.0)


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng([key, seed])


@dataclass(frozen=True)
class CsvInput:
    """One generated CSV file and the array it was written from."""

    name: str
    layout: str  # "one-way" or "two-way"
    path: Path
    values: np.ndarray  # (p, r) or (p, q, r), exactly as written
    rows: int
    bytes: int
    scale: float = 1.0  # probes: the factor applied to the unit-scale draw


def _write(path: Path, header: str, lines) -> int:
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        handle.writelines(lines)
    return path.stat().st_size


def write_one_way(path: Path, values: np.ndarray) -> int:
    """Write ``level,value`` rows grouped by level; values round-trip exactly."""
    width = len(str(values.shape[0] - 1))
    lines = (
        f"L{i:0{width}d},{v!r}\n"
        for i, row in enumerate(values.tolist())
        for v in row
    )
    return _write(path, "level,value", lines)


def write_two_way(path: Path, values: np.ndarray, order: np.ndarray) -> int:
    """Write ``a,b,value`` rows in the given permutation of flat indices."""
    p, q, r = values.shape
    wa, wb = len(str(p - 1)), len(str(q - 1))
    flat = values.ravel().tolist()
    lines = (
        f"a{k // (q * r):0{wa}d},b{(k // r) % q:0{wb}d},{flat[k]!r}\n"
        for k in order.tolist()
    )
    return _write(path, "a,b,value", lines)


def ingest_inputs(seed: int, directory: Path) -> list[CsvInput]:
    """The large one-way and two-way files and the two scale probes."""
    rng = _rng(seed, _INGEST_KEY)
    files = []

    p, r = ONE_WAY_SHAPE
    one_way = 10.0 + rng.normal(0.0, 0.1, size=(p, 1)) + rng.standard_normal((p, r))
    path = directory / "one_way.csv"
    files.append(CsvInput("one_way", "one-way", path, one_way, p * r, write_one_way(path, one_way)))

    p, q, r = TWO_WAY_SHAPE
    two_way = (
        5.0
        + rng.normal(0.0, 0.3, size=(p, 1, 1))
        + rng.normal(0.0, 0.3, size=(1, q, 1))
        + rng.normal(0.0, 0.05, size=(p, q, 1))
        + rng.standard_normal((p, q, r))
    )
    order = rng.permutation(two_way.size)
    path = directory / "two_way.csv"
    files.append(
        CsvInput("two_way", "two-way", path, two_way, two_way.size, write_two_way(path, two_way, order))
    )

    p, r = PROBE_SHAPE
    unit = rng.normal(0.0, 0.5, size=(p, 1)) + rng.standard_normal((p, r))
    for scale in PROBE_SCALES:
        scaled = unit * scale
        name = f"probe_{scale:.0e}"
        path = directory / f"{name}.csv"
        files.append(
            CsvInput(name, "one-way", path, unit, p * r, write_one_way(path, scaled), scale)
        )
    return files


def simulate_seed(seed: int, index: int) -> int:
    """Program seed for the index-th simulate pass."""
    return int(np.random.SeedSequence([_SIMULATE_KEY, seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class OracleCheck:
    p: int
    r: int
    ratio: float
    hyper_g_a: float | None  # None: the closed-form prior

    @property
    def n(self) -> int:
        return self.p * self.r


def _log_uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    return np.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def oracle_checks(seed: int) -> list[OracleCheck]:
    """Log-uniform designs and ratios, a quarter of them under hyper-g.

    The points are one scrambled Sobol' set in (p, r, ratio, prior), the
    same for every seed, so each seed asks for the same work; the seed
    sets the order the checks run in.
    """
    from scipy.stats import qmc

    sobol = qmc.Sobol(d=4, scramble=True, seed=_rng(ORACLE_POINTS_KEY, _ORACLE_KEY))
    u = sobol.random_base2(ORACLE_CHECKS_LOG2)
    u = u[_rng(seed, _ORACLE_KEY).permutation(len(u))]
    ps = np.rint(_log_uniform(u[:, 0], *ORACLE_P)).astype(int)
    rs = np.rint(_log_uniform(u[:, 1], *ORACLE_R)).astype(int)
    ratios = np.minimum(_log_uniform(u[:, 2], *ORACLE_RATIO), 1.0)
    checks = []
    for p, r, ratio, kind in zip(ps.tolist(), rs.tolist(), ratios.tolist(), u[:, 3].tolist()):
        a = None if kind < 0.75 else HYPER_G_A[min(int((kind - 0.75) * 12), len(HYPER_G_A) - 1)]
        checks.append(OracleCheck(p, r, ratio, a))
    return checks
