"""Balanced ANOVA datasets and CSV ingestion.

Observations are held as dense arrays indexed by factor level (and
replicate), so downstream sums of squares are plain axis reductions.
Both layouts are read by one pass over the CSV rows, which groups values
by their row's labels; level labels are arbitrary strings, and internal
indices follow first appearance in the input, which is harmless because
every statistic computed from these datasets is label-invariant. Both
dataset classes are checked by one validator.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BalanceError, DegenerateDesignError, DomainError, ParseError

ONE_WAY_HEADER = ("level", "value")
TWO_WAY_HEADER = ("a", "b", "value")


def _freeze(dataset, label_fields: tuple[str, ...]) -> None:
    """Check that values form a finite (levels..., replicates) array, at least
    2 in every dimension, with one label per level ("1", "2", ... by
    default); store a read-only copy."""
    values = np.array(dataset.values, dtype=float)
    if values.ndim != len(label_fields) + 1:
        raise DegenerateDesignError(f"need a (levels..., replicates) array, got {values.shape}")
    *sizes, r = values.shape
    if min(sizes) < 2:
        raise DegenerateDesignError(f"need at least 2 levels per factor, got shape {values.shape}")
    if r < 2:
        raise DegenerateDesignError(f"need at least 2 replications per cell, got {r}")
    if not np.isfinite(values).all():
        raise DomainError("all observations must be finite")
    for name, size in zip(label_fields, sizes):
        labels = getattr(dataset, name) or tuple([str(i) for i in range(1, size + 1)])
        if len(labels) != size:
            raise DomainError(f"{len(labels)} labels in {name} for {size} levels")
        object.__setattr__(dataset, name, labels)
    values.flags.writeable = False
    object.__setattr__(dataset, "values", values)


@dataclass(frozen=True)
class OneWayDataset:
    """Balanced one-way layout: ``values[i, j]`` is replicate j of level i."""

    values: np.ndarray
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        _freeze(self, ("levels",))

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TwoWayDataset:
    """Balanced two-way layout: ``values[i, j, k]`` is replicate k of cell (i, j)."""

    values: np.ndarray
    a_levels: tuple[str, ...] = ()
    b_levels: tuple[str, ...] = ()

    def __post_init__(self):
        _freeze(self, ("a_levels", "b_levels"))

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @property
    def r(self) -> int:
        return self.values.shape[2]

    @property
    def n(self) -> int:
        return self.values.size


def write_csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Render a header and rows in the CSV wire format that the parsers read."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _parse_balanced(text: str, header: tuple[str, ...]) -> tuple[list, np.ndarray]:
    """Read label columns then a value column into a dense balanced array.

    Returns each factor's levels in first-appearance order and the
    ``(levels per factor..., replicates)`` array, with each cell's values
    in row order. Every cell of the full cross of observed levels must
    carry the same number of replicates.
    """
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first is None:
        raise ParseError("empty input")
    if tuple(h.strip().lower() for h in first) != header:
        raise ParseError(f"expected header {','.join(header)!r}, got {','.join(first)!r}")
    width, strip, isfinite = len(header), str.strip, math.isfinite
    cells: defaultdict[tuple[str, ...], list[float]] = defaultdict(list)
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            value = float(row[-1])
        except ValueError:
            value = math.nan
        if not isfinite(value):
            raise ParseError(f"line {lineno}: expected a finite number, got {row[-1].strip()!r}")
        cells[tuple(map(strip, row[:-1]))].append(value)
    if not cells:
        raise ParseError("no data rows")

    levels = [tuple(dict.fromkeys(key[i] for key in cells)) for i in range(width - 1)]
    grid = list(product(*levels))
    r = Counter(map(len, cells.values())).most_common(1)[0][0]
    bad = [key for key in grid if len(cells.get(key, ())) != r]
    if bad:
        shown = [f"{','.join(key)!r} has {len(cells.get(key, ()))}" for key in bad[:5]]
        raise BalanceError(
            f"unbalanced design: {len(bad)} of {len(grid)} cells lack the common "
            f"replicate count {r}: {', '.join(shown)}{', ...' if len(bad) > 5 else ''}"
        )
    values = np.array([cells[key] for key in grid], dtype=float)
    return levels, values.reshape(*map(len, levels), r)


def parse_one_way(text: str) -> OneWayDataset:
    """Parse ``level,value`` CSV content into a balanced one-way dataset.

    Unequal per-level counts raise :class:`BalanceError`; a single level or
    a single replicate raises :class:`DegenerateDesignError`.
    """
    (levels,), values = _parse_balanced(text, ONE_WAY_HEADER)
    return OneWayDataset(values=values, levels=levels)


def parse_two_way(text: str) -> TwoWayDataset:
    """Parse ``a,b,value`` CSV content into a balanced two-way dataset.

    A missing or short cell of the full cross of observed labels raises
    :class:`BalanceError`.
    """
    (a_levels, b_levels), values = _parse_balanced(text, TWO_WAY_HEADER)
    return TwoWayDataset(values=values, a_levels=a_levels, b_levels=b_levels)
