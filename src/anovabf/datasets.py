"""Balanced ANOVA datasets and CSV ingestion.

Observations are held as dense arrays indexed by factor level (and
replicate), so downstream sums of squares are plain axis reductions.
Level labels are arbitrary strings; internal indices follow first
appearance in the input, which is harmless because every statistic
computed from these datasets is label-invariant.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import BalanceError, DegenerateDesignError, DomainError, ParseError

ONE_WAY_HEADER = ("level", "value")
TWO_WAY_HEADER = ("a", "b", "value")


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError("all observations must be finite")


@dataclass(frozen=True)
class OneWayDataset:
    """Balanced one-way layout: ``values[i, j]`` is replicate j of level i."""

    values: np.ndarray
    levels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DegenerateDesignError("one-way data must be a (levels, replicates) matrix")
        p, r = values.shape
        if p < 2:
            raise DegenerateDesignError(f"need at least 2 levels, got {p}")
        if r < 2:
            raise DegenerateDesignError(f"need at least 2 replications per level, got {r}")
        _check_finite(values)
        levels = self.levels or tuple(str(i + 1) for i in range(p))
        if len(levels) != p:
            raise DomainError(f"{len(levels)} labels for {p} levels")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "levels", levels)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.size

    def to_csv(self) -> str:
        """Serialize back to the ``level,value`` wire format."""
        return write_csv(
            ONE_WAY_HEADER,
            ([label, repr(float(v))] for label, row in zip(self.levels, self.values) for v in row),
        )


@dataclass(frozen=True)
class TwoWayDataset:
    """Balanced two-way layout: ``values[i, j, k]`` is replicate k of cell (i, j)."""

    values: np.ndarray
    a_levels: tuple[str, ...] = field(default=())
    b_levels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise DegenerateDesignError("two-way data must be a (p, q, replicates) array")
        p, q, r = values.shape
        if p < 2 or q < 2:
            raise DegenerateDesignError(f"need at least 2 levels per factor, got {p}x{q}")
        if r < 2:
            raise DegenerateDesignError(f"need at least 2 replications per cell, got {r}")
        _check_finite(values)
        a_levels = self.a_levels or tuple(str(i + 1) for i in range(p))
        b_levels = self.b_levels or tuple(str(j + 1) for j in range(q))
        if len(a_levels) != p or len(b_levels) != q:
            raise DomainError("label counts do not match array shape")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "a_levels", a_levels)
        object.__setattr__(self, "b_levels", b_levels)

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

    def to_csv(self) -> str:
        """Serialize back to the ``a,b,value`` wire format."""
        return write_csv(
            TWO_WAY_HEADER,
            (
                [a_label, b_label, repr(float(v))]
                for a_label, plane in zip(self.a_levels, self.values)
                for b_label, cell in zip(self.b_levels, plane)
                for v in cell
            ),
        )


def write_csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Render a header and rows in the CSV wire format that ``_read_rows`` reads."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _read_rows(text: str, header: tuple[str, ...]) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        raise ParseError("empty input") from None
    if tuple(h.strip().lower() for h in first) != header:
        raise ParseError(f"expected header {','.join(header)!r}, got {','.join(first)!r}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        rows.append([cell.strip() for cell in row])
    if not rows:
        raise ParseError("no data rows")
    return rows


def _parse_value(text: str, lineno_hint: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r} ({lineno_hint})") from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite value {text!r} ({lineno_hint})")
    return value


def parse_one_way(text: str) -> OneWayDataset:
    """Parse ``level,value`` CSV content into a balanced one-way dataset.

    Levels are ordered by first appearance and the replicate count is
    inferred; unequal per-level counts raise :class:`BalanceError` and a
    single level or single replicate raises :class:`DegenerateDesignError`.
    """
    rows = _read_rows(text, ONE_WAY_HEADER)
    groups: dict[str, list[float]] = {}
    for label, raw in rows:
        groups.setdefault(label, []).append(_parse_value(raw, f"level {label!r}"))

    counts = {label: len(vals) for label, vals in groups.items()}
    if len(set(counts.values())) > 1:
        raise BalanceError(f"unbalanced replicate counts per level: {counts}")
    p = len(groups)
    r = next(iter(counts.values()))
    if p < 2:
        raise DegenerateDesignError("only one factor level present")
    if r < 2:
        raise DegenerateDesignError("only one replication per level")
    values = np.array([groups[label] for label in groups], dtype=float)
    return OneWayDataset(values=values, levels=tuple(groups))


def parse_two_way(text: str) -> TwoWayDataset:
    """Parse ``a,b,value`` CSV content into a balanced two-way dataset.

    Every (a, b) cell of the full cross of observed labels must carry the
    same number of replicates; a missing or short cell raises
    :class:`BalanceError`.
    """
    rows = _read_rows(text, TWO_WAY_HEADER)
    cells: dict[tuple[str, str], list[float]] = {}
    a_levels: list[str] = []
    b_levels: list[str] = []
    for a_label, b_label, raw in rows:
        if a_label not in a_levels:
            a_levels.append(a_label)
        if b_label not in b_levels:
            b_levels.append(b_label)
        key = (a_label, b_label)
        cells.setdefault(key, []).append(_parse_value(raw, f"cell ({a_label!r},{b_label!r})"))

    counts = {key: len(vals) for key, vals in cells.items()}
    missing = [(a, b) for a in a_levels for b in b_levels if (a, b) not in cells]
    if missing:
        raise BalanceError(f"missing cells: {missing}")
    if len(set(counts.values())) > 1:
        raise BalanceError(f"unbalanced replicate counts per cell: {counts}")
    p, q = len(a_levels), len(b_levels)
    r = next(iter(counts.values()))
    if p < 2 or q < 2:
        raise DegenerateDesignError("both factors need at least 2 levels")
    if r < 2:
        raise DegenerateDesignError("only one replication per cell")
    values = np.array(
        [[cells[(a, b)] for b in b_levels] for a in a_levels], dtype=float
    )
    return TwoWayDataset(values=values, a_levels=tuple(a_levels), b_levels=tuple(b_levels))
